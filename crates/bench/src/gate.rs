//! Flat metric files: the `{"metric": number, …}` JSON of the gate metrics.
//!
//! [`render_flat`] writes the shape `repro bench-json` dumps and
//! `bench_baseline.json` holds. The gate is one byte comparison of that
//! render against the committed file, made by a test in [`crate::metrics`]:
//! equal bytes pin every value bit for bit, the key set and the key order.
//! The vendored `serde_json` stub only serialises, so this module also
//! carries [`parse_flat`], the reader `perf/` uses for the same shape.

use std::fmt::Write as _;

/// Parses a flat JSON object of string keys and finite numbers, preserving
/// key order. Rejects nesting, arrays, non-numeric values, a repeated key and
/// anything after the closing brace: baseline files are machine-written, so
/// anything else is a corrupted (concatenated, half-rewritten) file.
pub fn parse_flat(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut chars = json.char_indices().peekable();
    let mut entries = Vec::new();

    let err = |at: usize, what: &str| Err(format!("{what} at byte {at}"));

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        Some((i, _)) => return err(i, "expected '{'"),
        None => return Err("empty input".to_string()),
    }
    skip_ws(&mut chars);
    let mut open = !matches!(chars.peek(), Some((_, '}')));
    if !open {
        chars.next();
    }

    while open {
        skip_ws(&mut chars);
        // Key.
        match chars.next() {
            Some((_, '"')) => {}
            Some((i, _)) => return err(i, "expected '\"' opening a key"),
            None => return Err("unterminated object".to_string()),
        }
        let mut key = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => break,
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => key.push('\n'),
                    Some((_, 't')) => key.push('\t'),
                    Some((_, c)) => key.push(c),
                    None => return Err("unterminated escape".to_string()),
                },
                Some((_, c)) => key.push(c),
                None => return Err("unterminated key".to_string()),
            }
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            Some((i, _)) => return err(i, "expected ':'"),
            None => return Err("unterminated object".to_string()),
        }
        skip_ws(&mut chars);
        // Number. The charset also lexes non-finite spellings (`NaN`,
        // `inf`, `-Infinity`) so a poisoned metric fails the finiteness
        // check below with its key named, not an opaque lexer error.
        let mut number = String::new();
        while matches!(
            chars.peek(),
            Some((_, c)) if c.is_ascii_digit()
                || c.is_ascii_alphabetic()
                || matches!(c, '-' | '+' | '.')
        ) {
            number.push(chars.next().expect("peeked").1);
        }
        let value: f64 =
            number.parse().map_err(|_| format!("key {key:?}: invalid number {number:?}"))?;
        if !value.is_finite() {
            return Err(format!(
                "key {key:?}: non-finite value {number} — every gate metric must be a finite \
                 number; a NaN/inf here means the producing suite divided by zero or overflowed"
            ));
        }
        entries.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, '}')) => open = false,
            Some((i, _)) => return err(i, "expected ',' or '}'"),
            None => return Err("unterminated object".to_string()),
        }
    }
    skip_ws(&mut chars);
    if let Some((i, _)) = chars.next() {
        return err(i, "unexpected content after the closing '}'");
    }
    let mut keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!("key {:?} appears more than once", pair[0]));
    }
    Ok(entries)
}

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
        // And the serde_json stub's own pretty output parses too.
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
