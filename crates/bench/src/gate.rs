//! Flat metric files: the `{"metric": number, …}` JSON of the gate metrics.
//!
//! [`render_flat`] writes the shape `repro bench-json` dumps and
//! `bench_baseline.json` holds. The gate is one byte comparison of that
//! render against the committed file, made by a test in [`crate::metrics`]:
//! equal bytes pin every value bit for bit, the key set and the key order.
//! `parse_flat`, the reader `perf/` uses for the same shape, lives in
//! `crate::perf_pins` and is re-exported here, where `perf/` imports it.

use std::fmt::Write as _;

#[doc(hidden)]
pub use crate::perf_pins::parse_flat;

/// Renders a flat metric list as the pretty JSON `bench_baseline.json` holds.
pub fn render_flat(entries: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{key}\": {value}{comma}");
    }
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_rendered_metrics() {
        let metrics = vec![
            ("fig6.completion.dropbox.100x10kB".to_string(), 12.75),
            ("fleet8.dedup_ratio".to_string(), 1.0),
            ("negative.exponent".to_string(), -3.5e-2),
        ];
        let rendered = render_flat(&metrics);
        assert_eq!(parse_flat(&rendered).unwrap(), metrics);
        // And the JSON writer's pretty output parses too.
        let pretty = "{\n  \"a\": 1.0,\n  \"b\": 2.5\n}";
        assert_eq!(
            parse_flat(pretty).unwrap(),
            vec![("a".to_string(), 1.0), ("b".to_string(), 2.5)]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_flat("").is_err());
        assert!(parse_flat("[1, 2]").is_err());
        assert!(parse_flat("{\"a\": \"text\"}").is_err());
        assert!(parse_flat("{\"a\": {\"nested\": 1}}").is_err());
        assert!(parse_flat("{\"a\": 1.0,").is_err());
        assert!(parse_flat("{\"a\" 1.0}").is_err());
        // A concatenated or half-rewritten file: bytes after the closing
        // brace (also after an empty object), or a key written twice.
        assert!(parse_flat("{\"a\":1} junk").unwrap_err().contains("at byte 8"));
        assert!(parse_flat("{} {}").unwrap_err().contains("at byte 3"));
        assert!(parse_flat("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err().contains("key \"a\""));
        assert_eq!(parse_flat("{}").unwrap(), vec![]);
        assert_eq!(parse_flat("  {  }  ").unwrap(), vec![]);
    }

    #[test]
    fn parse_rejects_non_finite_values_naming_the_metric() {
        for (json, spelling) in [
            ("{\"faults.bad_ratio\": NaN}", "NaN"),
            ("{\"faults.bad_ratio\": nan}", "nan"),
            ("{\"faults.bad_ratio\": inf}", "inf"),
            ("{\"faults.bad_ratio\": -Infinity}", "-Infinity"),
            ("{\"faults.bad_ratio\": 1e999}", "1e999"),
        ] {
            let err = parse_flat(json).expect_err(spelling);
            assert!(
                err.contains("faults.bad_ratio") && err.contains("non-finite"),
                "{spelling}: the error must name the poisoned metric, got: {err}"
            );
        }
        // A finite metric after a rejected one never masks the failure —
        // the first poisoned key aborts the whole file.
        let err = parse_flat("{\"a\": NaN, \"b\": 1.0}").unwrap_err();
        assert!(err.contains("\"a\""));
    }
}
