//! The bench-regression gate: flat metric files and their exact comparison.
//!
//! The CI perf gate runs `repro bench-json` to produce a flat
//! `{"metric": number, …}` JSON file of deterministic simulation metrics and
//! compares it against the committed `bench_baseline.json`. The gate has one
//! mode, and it is strict: every value must match its baseline entry bit for
//! bit, and a key on either side with no partner on the other fails. The
//! vendored `serde_json` stub only serialises, so this module carries the
//! tiny parser the gate binary needs (flat string→number objects only —
//! exactly the shape `repro bench-json` emits).

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

/// Renders a flat metric list as the pretty JSON the gate parses back.
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

/// One metric's verdict in a gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Bit-identical to the baseline.
    Ok,
    /// Differs from the baseline; carries the relative deviation.
    Regressed(f64),
    /// Present in the baseline but absent from the current run.
    Missing,
    /// Present in the current run but not in the baseline: an unregistered
    /// metric would otherwise pass forever by never being compared.
    New,
}

/// The outcome of comparing a current metric file against the baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// (metric, baseline, current, verdict) rows in baseline order, then new
    /// metrics.
    pub rows: Vec<(String, Option<f64>, Option<f64>, Verdict)>,
}

impl GateReport {
    /// True when every metric is bit-identical to its baseline entry and
    /// neither side has a key the other lacks.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|(_, _, _, v)| *v == Verdict::Ok)
    }

    /// Metrics present in the current run but absent from the baseline.
    pub fn unregistered(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|(_, _, _, v)| matches!(v, Verdict::New))
            .map(|(k, _, _, _)| k.as_str())
            .collect()
    }

    /// The suite prefix a metric belongs to (text before the first `.`), or
    /// `"other"` for unprefixed names — the grouping key of the markdown
    /// summary, which keeps the growing metric table readable per suite.
    fn suite_of(key: &str) -> &str {
        match key.split_once('.') {
            Some((prefix, _)) if !prefix.is_empty() => prefix,
            _ => "other",
        }
    }

    /// The baseline, current and delta cells of one row, with `dash` for an
    /// absent value.
    fn cells(baseline: Option<f64>, current: Option<f64>, dash: &str) -> [String; 3] {
        let value = |v: Option<f64>| v.map_or(dash.to_string(), |v| format!("{v:.4}"));
        let delta = match (baseline, current) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b * 100.0),
            _ => dash.to_string(),
        };
        [value(baseline), value(current), delta]
    }

    /// Renders the comparison as a fixed-width table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>9}  verdict (exact)",
            "metric", "baseline", "current", "delta"
        );
        for (key, baseline, current, verdict) in &self.rows {
            let [baseline, current, delta] = GateReport::cells(*baseline, *current, "-");
            let verdict = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed(d) => format!("REGRESSED ({:+.1}%)", d * 100.0),
                Verdict::Missing => "MISSING".to_string(),
                Verdict::New => "UNREGISTERED".to_string(),
            };
            let _ = writeln!(out, "{key:<44} {baseline:>14} {current:>14} {delta:>9}  {verdict}");
        }
        out
    }

    /// Renders the comparison as GitHub-flavoured markdown — what the CI
    /// job appends to `$GITHUB_STEP_SUMMARY`, so a regression is readable
    /// on the run page without downloading the metrics artifact. Metrics
    /// are grouped by suite prefix (`fig6`, `fleet8`, `fleetscale`,
    /// `hetero`, `gc`, `restore`, `schedule`, …), one table per suite, and
    /// sorted lexicographically within each suite — the collector appends
    /// in simulation order, which interleaves related keys; the summary
    /// table keeps siblings (`restore.goodput_mbps.*`, `restore.ttfb_s.*`)
    /// adjacent instead.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let verdict_cell = |v: &Verdict| match v {
            Verdict::Ok => "ok".to_string(),
            Verdict::Regressed(d) => format!("**REGRESSED** ({:+.1}%)", d * 100.0),
            Verdict::Missing => "**MISSING**".to_string(),
            Verdict::New => "**UNREGISTERED** (no baseline entry)".to_string(),
        };
        let _ = writeln!(
            out,
            "### Bench regression gate ({}, exact match)\n",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        // Suites in first-appearance order.
        let mut suites: Vec<&str> = Vec::new();
        for (key, _, _, _) in &self.rows {
            let suite = GateReport::suite_of(key);
            if !suites.contains(&suite) {
                suites.push(suite);
            }
        }
        for suite in suites {
            let mut members: Vec<_> = self
                .rows
                .iter()
                .filter(|(key, _, _, _)| GateReport::suite_of(key) == suite)
                .collect();
            members.sort_by(|a, b| a.0.cmp(&b.0));
            let flagged = members.iter().filter(|(_, _, _, v)| *v != Verdict::Ok).count();
            let status =
                if flagged > 0 { format!(" — {flagged} flagged") } else { String::new() };
            let _ = writeln!(out, "#### `{suite}` ({} metrics{status})\n", members.len());
            let _ = writeln!(out, "| metric | baseline | observed | delta | verdict |");
            let _ = writeln!(out, "|:---|---:|---:|---:|:---|");
            for (key, baseline, current, verdict) in members {
                let [baseline, current, delta] = GateReport::cells(*baseline, *current, "—");
                let verdict = verdict_cell(verdict);
                let _ = writeln!(out, "| `{key}` | {baseline} | {current} | {delta} | {verdict} |");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Compares `current` against `baseline` exactly: a metric passes only when
/// its value is bit-identical (`to_bits`) to the baseline's. Metrics missing
/// from `current` fail as [`Verdict::Missing`], metrics the baseline does not
/// register as [`Verdict::New`].
pub fn compare(baseline: &[(String, f64)], current: &[(String, f64)]) -> GateReport {
    let mut rows = Vec::new();
    for (key, base) in baseline {
        match current.iter().find(|(k, _)| k == key) {
            Some((_, cur)) => {
                let verdict = if cur.to_bits() == base.to_bits() {
                    Verdict::Ok
                } else {
                    Verdict::Regressed((cur - base) / base.abs().max(1e-12))
                };
                rows.push((key.clone(), Some(*base), Some(*cur), verdict));
            }
            None => rows.push((key.clone(), Some(*base), None, Verdict::Missing)),
        }
    }
    for (key, cur) in current {
        if !baseline.iter().any(|(k, _)| k == key) {
            rows.push((key.clone(), None, Some(*cur), Verdict::New));
        }
    }
    GateReport { rows }
}

/// Like [`compare`], but scoped to the metrics the current run actually
/// emits: baseline keys with no current entry are skipped instead of
/// verdicted [`Verdict::Missing`]. This is the mode for partial dumps —
/// `repro replay --metrics` re-derives only the fleet-scale suite, yet the
/// values it does emit must still match the committed baseline. Current
/// metrics with no baseline entry still fail as [`Verdict::New`].
pub fn compare_subset(baseline: &[(String, f64)], current: &[(String, f64)]) -> GateReport {
    let scoped: Vec<(String, f64)> =
        baseline.iter().filter(|(key, _)| current.iter().any(|(k, _)| k == key)).cloned().collect();
    compare(&scoped, current)
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

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        // The tolerance is zero: the last bit counts.
        let baseline = vec![
            ("stable".to_string(), 10.0),
            ("nudged".to_string(), 10.0),
            ("drifted".to_string(), 10.0),
            ("gone".to_string(), 5.0),
        ];
        let current = vec![
            ("stable".to_string(), 10.0),
            ("nudged".to_string(), f64::from_bits(10.0f64.to_bits() + 1)),
            ("drifted".to_string(), 12.0),
            ("fresh".to_string(), 1.0),
        ];
        let report = compare(&baseline, &current);
        assert!(!report.passed());
        let verdicts: Vec<&Verdict> = report.rows.iter().map(|(_, _, _, v)| v).collect();
        assert_eq!(verdicts[0], &Verdict::Ok);
        assert!(matches!(verdicts[1], Verdict::Regressed(d) if *d > 0.0 && *d < 1e-15));
        assert!(matches!(verdicts[2], Verdict::Regressed(d) if (*d - 0.2).abs() < 1e-9));
        assert_eq!(verdicts[3], &Verdict::Missing);
        assert_eq!(verdicts[4], &Verdict::New);
        let rendered = report.render();
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("MISSING"));
        assert!(rendered.contains("UNREGISTERED"));

        // The markdown summary carries the same verdicts as table rows.
        let markdown = report.render_markdown();
        assert!(markdown.starts_with("### Bench regression gate (FAIL"));
        assert!(markdown.contains("| metric | baseline | observed | delta | verdict |"));
        assert!(markdown
            .contains("| `drifted` | 10.0000 | 12.0000 | +20.0% | **REGRESSED** (+20.0%) |"));
        assert!(markdown.contains("| `gone` | 5.0000 | — | — | **MISSING** |"));
        assert!(markdown
            .contains("| `fresh` | — | 1.0000 | — | **UNREGISTERED** (no baseline entry) |"));
        // Unprefixed metrics fall into one "other" group, with the flagged
        // count in the header.
        assert!(markdown.contains("#### `other` (5 metrics — 4 flagged)"));
        let passing = compare(&baseline[..1], &current[..1]).render_markdown();
        assert!(passing.starts_with("### Bench regression gate (PASS"));
        assert!(passing.contains("#### `other` (1 metrics)"));
    }

    #[test]
    fn markdown_groups_metrics_by_suite_prefix() {
        let baseline = vec![
            ("fig6.completion_s.dropbox".to_string(), 1.0),
            ("fig6.overhead.dropbox".to_string(), 2.0),
            ("fleet8.goodput_mbps".to_string(), 3.0),
            ("schedule.idle_rounds".to_string(), 4.0),
        ];
        let markdown = compare(&baseline, &baseline.clone()).render_markdown();
        assert!(markdown.contains("#### `fig6` (2 metrics)"));
        assert!(markdown.contains("#### `fleet8` (1 metrics)"));
        assert!(markdown.contains("#### `schedule` (1 metrics)"));
        // Suites appear in first-appearance order.
        let fig6 = markdown.find("#### `fig6`").unwrap();
        let fleet8 = markdown.find("#### `fleet8`").unwrap();
        let schedule = markdown.find("#### `schedule`").unwrap();
        assert!(fig6 < fleet8 && fleet8 < schedule);
    }

    #[test]
    fn markdown_sorts_metrics_lexicographically_within_each_suite() {
        // The collector emits goodput/ttfb interleaved per link; the
        // summary must regroup the siblings without reordering the suites.
        let baseline = vec![
            ("restore.goodput_mbps.fiber".to_string(), 1.0),
            ("restore.ttfb_s.fiber".to_string(), 2.0),
            ("restore.goodput_mbps.adsl".to_string(), 3.0),
            ("restore.ttfb_s.adsl".to_string(), 4.0),
            ("fleet8.goodput_mbps".to_string(), 5.0),
        ];
        let markdown = compare(&baseline, &baseline.clone()).render_markdown();
        let keys: Vec<&str> =
            markdown.lines().filter_map(|l| l.strip_prefix("| `")?.split('`').next()).collect();
        assert_eq!(
            keys,
            vec![
                "restore.goodput_mbps.adsl",
                "restore.goodput_mbps.fiber",
                "restore.ttfb_s.adsl",
                "restore.ttfb_s.fiber",
                "fleet8.goodput_mbps",
            ],
            "rows must sort within their suite while suites keep first-appearance order"
        );
        // The fixed-width render keeps raw baseline order (it mirrors the
        // metric files byte for byte).
        let plain = compare(&baseline, &baseline.clone()).render();
        let fiber = plain.find("restore.goodput_mbps.fiber").unwrap();
        let adsl = plain.find("restore.goodput_mbps.adsl").unwrap();
        assert!(fiber < adsl);
    }

    #[test]
    fn strict_mode_rejects_unregistered_metrics() {
        let baseline = vec![("a.x".to_string(), 1.0)];
        let current = vec![("a.x".to_string(), 1.0), ("a.y".to_string(), 2.0)];
        // An unregistered metric would never be compared, so it fails.
        let report = compare(&baseline, &current);
        assert!(!report.passed());
        assert_eq!(report.unregistered(), vec!["a.y"]);
        // The reverse direction (baseline entry with no current metric)
        // fails as MISSING.
        let report = compare(&current, &baseline);
        assert!(!report.passed());
        assert!(report.unregistered().is_empty());
        // Identical sets are hygienic.
        assert!(compare(&baseline, &baseline.clone()).passed());
    }

    #[test]
    fn strict_renders_report_the_failure_they_exit_with() {
        // The step summary of a run that fails on an unregistered metric
        // must not read PASS: the banner says FAIL and the metric is
        // flagged in its suite header and cell.
        let baseline = vec![("a.x".to_string(), 1.0)];
        let current = vec![("a.x".to_string(), 1.0), ("a.y".to_string(), 2.0)];
        let markdown = compare(&baseline, &current).render_markdown();
        assert!(
            markdown.starts_with("### Bench regression gate (FAIL"),
            "an unregistered metric must render FAIL, got: {}",
            markdown.lines().next().unwrap_or_default()
        );
        assert!(markdown.contains("#### `a` (2 metrics — 1 flagged)"));
        assert!(markdown.contains("**UNREGISTERED** (no baseline entry)"));
        // A hygienic run renders PASS.
        let clean = compare(&baseline, &baseline.clone());
        assert!(clean.render_markdown().starts_with("### Bench regression gate (PASS"));
    }

    #[test]
    fn subset_mode_skips_absent_baseline_keys_but_gates_the_present_ones() {
        let baseline = vec![
            ("fleetscale.commits".to_string(), 100.0),
            ("hist.scale_transfer.p50_s".to_string(), 2.5),
            ("fig6.completion_s.dropbox".to_string(), 12.0),
        ];
        // A partial dump covering only the fleet-scale keys: the fig6 key
        // is skipped, not MISSING.
        let partial = vec![
            ("fleetscale.commits".to_string(), 100.0),
            ("hist.scale_transfer.p50_s".to_string(), 2.5),
        ];
        let report = compare_subset(&baseline, &partial);
        assert_eq!(report.rows.len(), 2);
        assert!(report.passed());
        // The full comparison over the same dump fails as MISSING.
        assert!(!compare(&baseline, &partial).passed());
        // A drifted present key still fails.
        let drifted = vec![("fleetscale.commits".to_string(), 101.0)];
        assert!(!compare_subset(&baseline, &drifted).passed());
        // An unregistered key still fails.
        let unregistered = vec![
            ("fleetscale.commits".to_string(), 100.0),
            ("fleetscale.invented".to_string(), 1.0),
        ];
        let report = compare_subset(&baseline, &unregistered);
        assert!(!report.passed());
        assert_eq!(report.unregistered(), vec!["fleetscale.invented"]);
    }

    #[test]
    fn compare_passes_identical_runs_and_handles_zero_baselines() {
        let baseline = vec![("a".to_string(), 0.0), ("b".to_string(), 123.456)];
        let report = compare(&baseline, &baseline.clone());
        assert!(report.passed());
        // A zero baseline accepts only a zero current, and the deviation
        // it reports stays finite.
        let drifted = vec![("a".to_string(), 0.5), ("b".to_string(), 123.456)];
        let report = compare(&baseline, &drifted);
        assert!(!report.passed());
        assert!(matches!(report.rows[0].3, Verdict::Regressed(d) if d.is_finite()));
    }
}
