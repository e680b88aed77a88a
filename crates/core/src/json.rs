//! The one JSON writer: every `--json` dump, and the machine-readable
//! capability matrix, is rendered here, straight into a `String`.
//!
//! The format: a two-space indent, `": "` after a key, `[]` and `{}` for
//! empty containers, a whole float below 1e15 with a trailing `.0` and a
//! non-finite float as `null`. A dumped struct lists its fields once, in an
//! `objects!` block beside its definition: a field added later and not
//! listed there fails to compile, with an error that names it.

use cloudsim_services::FaultStats;
use cloudsim_trace::series::SampleStats;
use cloudsim_trace::{HistogramSummary, SimDuration};
use std::fmt::Write as _;

/// A value with a JSON form.
pub trait ToJson {
    /// Appends `self` to `out`; the lines of a container are indented one
    /// step past `level`.
    fn write_json(&self, out: &mut String, level: usize);
}

/// An object's fields, in order.
pub(crate) struct Fields<'a>(pub(crate) &'a [(&'a str, &'a dyn ToJson)]);

impl ToJson for Fields<'_> {
    fn write_json(&self, out: &mut String, level: usize) {
        container(out, level, ['{', '}'], self.0.iter().map(|&(key, value)| (Some(key), value)));
    }
}

/// `open`, each item on a line of its own one level deeper (an object's
/// after its key), then `close` on a line back at `level`; with no items,
/// just `open` and `close`.
fn container<'a>(
    out: &mut String,
    level: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a dyn ToJson)>,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, level + 1);
        if let Some(key) = key {
            string(out, key);
            out.push_str(": ");
        }
        value.write_json(out, level + 1);
    }
    if !empty {
        newline(out, level);
    }
    out.push(close);
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    (0..level).for_each(|_| out.push_str("  "));
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: usize) {
        string(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, level: usize) {
        self.as_str().write_json(out, level);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _: usize) {
        let _ = match *self {
            f if !f.is_finite() => write!(out, "null"),
            f if f == f.trunc() && f.abs() < 1e15 => write!(out, "{f:.1}"),
            f => write!(out, "{f}"),
        };
    }
}

macro_rules! displayed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
displayed!(u64, usize, bool);

impl ToJson for SimDuration {
    fn write_json(&self, out: &mut String, level: usize) {
        self.as_micros().write_json(out, level);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, level: usize) {
        container(out, level, ['[', ']'], self.iter().map(|v| (None, v as &dyn ToJson)));
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, out: &mut String, level: usize) {
        let items: [&dyn ToJson; 3] = [&self.0, &self.1, &self.2];
        container(out, level, ['[', ']'], items.into_iter().map(|v| (None, v)));
    }
}

/// Writes each listed struct as an object of every field, in the order
/// given. The closure that is never called builds the struct from the
/// list, so a field the list leaves out fails to compile with an error
/// that names it.
macro_rules! objects {
    ($($ty:ident { $($field:ident),+ })*) => {$(
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, level: usize) {
                use $crate::json::{Fields, ToJson};
                let _ = |$($field),+| $ty { $($field),+ };
                Fields(&[$((stringify!($field), &self.$field as &dyn ToJson)),+]).write_json(out, level);
            }
        }
    )*};
}
pub(crate) use objects;

objects! {
    SampleStats { count, mean, min, max, std_dev }
    HistogramSummary { count, p50_s, p90_s, p99_s, p999_s }
    FaultStats {
        interruptions, retries, abandoned, wasted_bytes, salvaged_bytes, backoff_wait,
        checksums_verified, checksum_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::ChunkingVerdict;

    #[test]
    fn every_shape_the_dumps_use_renders_byte_for_byte() {
        let stats = SampleStats { count: 2, mean: 1.0, min: -0.0, max: 0.1, std_dev: f64::NAN };
        let hist = HistogramSummary {
            count: u64::MAX,
            p50_s: f64::INFINITY,
            p90_s: 1e15,
            p99_s: 2.5,
            p999_s: 3.0,
        };
        let fields: [(&str, &dyn ToJson); 8] = [
            ("nested", &stats),
            ("objects", &vec![hist]),
            ("empty_array", &Vec::<u64>::new()),
            ("empty_object", &Fields(&[])),
            ("tuple", &vec![("user-0".to_string(), 6usize, 0usize)]),
            ("escaped", &"q\"b\\n\nt\tc\u{1}".to_string()),
            ("chunking", &vec![ChunkingVerdict::Fixed { size: 4 }, ChunkingVerdict::Variable]),
            ("flags", &vec![true, false]),
        ];
        let mut out = String::new();
        Fields(&fields).write_json(&mut out, 0);
        let expected = r#"{
  "nested": {
    "count": 2,
    "mean": 1.0,
    "min": -0.0,
    "max": 0.1,
    "std_dev": null
  },
  "objects": [
    {
      "count": 18446744073709551615,
      "p50_s": null,
      "p90_s": 1000000000000000,
      "p99_s": 2.5,
      "p999_s": 3.0
    }
  ],
  "empty_array": [],
  "empty_object": {},
  "tuple": [
    [
      "user-0",
      6,
      0
    ]
  ],
  "escaped": "q\"b\\n\nt\tc\u0001",
  "chunking": [
    {
      "Fixed": {
        "size": 4
      }
    },
    "Variable"
  ],
  "flags": [
    true,
    false
  ]
}"#;
        assert_eq!(out, expected);
    }
}
