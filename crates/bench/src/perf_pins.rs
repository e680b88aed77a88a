//! What only `perf/` calls: the reader of flat metric files its
//! `bench.parse_flat_metrics_per_s` row times. The workspace's JSON writer
//! only writes, and the gate compares bytes, so no library code
//! reads a metric file; the reader is re-exported at `crate::gate`, where
//! `perf/` imports it. No library code outside a test calls into this
//! module (`tests/repo_rules.rs` checks); deleting it and re-pointing
//! `perf/`'s imports is ROADMAP item 1c.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::render_flat;

    #[test]
    fn the_reader_reads_back_what_the_gate_renders() {
        let baseline = include_str!("../../../bench_baseline.json");
        let metrics = parse_flat(baseline).unwrap();
        assert_eq!(metrics.len(), 108);
        assert_eq!(render_flat(&metrics), baseline);
    }
}
