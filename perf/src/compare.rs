//! Comparing two sets of runs: `perf compare` (parent against change) and
//! the judgement behind `perf aa` (the current build against itself).

use crate::manifest::{Better, END_TO_END};
use crate::record::RunsByWorkload;
use crate::stats::Summary;
use std::fmt::Write;

/// What a pair of run sets says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than A's own interquartile distance, or every run
    /// of B reads better than every run of A.
    Better,
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread exceeds the bound, so a difference the
    /// size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: &'static str,
    /// Side A's runs.
    pub a: Summary,
    /// Side B's runs.
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges one metric from the two sides' runs.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Option<(Summary, Summary, f64, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median;
    let b_always_wins = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    let verdict = if b_always_wins {
        Verdict::Better
    } else if sa.iqr_share().max(sb.iqr_share()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > sa.iqr_share() && -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((sa, sb, worse_by, verdict))
}

/// Compares every end-to-end metric of every workload both sides ran.
pub fn compare(a: &RunsByWorkload, b: &RunsByWorkload) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else { continue };
        for (metric, _, better, bound) in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(metric), b_metrics.get(metric)) else {
                continue;
            };
            if let Some((sa, sb, worse_by, verdict)) = judge(av, bv, better, bound) {
                rows.push(Comparison {
                    workload: workload.clone(),
                    metric,
                    a: sa,
                    b: sb,
                    worse_by,
                    bound,
                    verdict,
                });
            }
        }
    }
    rows
}

/// The delta table, one row per workload and metric.
pub fn render(rows: &[Comparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>3} {:>12} {:>12} {:>12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A q1",
        "A median",
        "A q3",
        "nB",
        "B q1",
        "B median",
        "B q3",
        "worse%",
        "bound%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:<12} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>+8.2} {:>6.1}  {}",
            r.workload,
            r.metric,
            r.a.n,
            r.a.q1,
            r.a.median,
            r.a.q3,
            r.b.n,
            r.b.q1,
            r.b.median,
            r.b.q3,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00];
        let verdict = |b: &[f64], better| judge(&a, b, better, 0.10).unwrap().3;
        assert_eq!(verdict(&[1.02, 1.00, 1.01, 0.99], Better::Lower), Verdict::Same);
        assert_eq!(verdict(&[1.20, 1.21, 1.19, 1.20], Better::Lower), Verdict::Worse);
        assert_eq!(verdict(&[1.20, 1.21, 1.19, 1.20], Better::Higher), Verdict::Better);
        assert_eq!(verdict(&[0.80, 0.81, 0.79, 0.80], Better::Lower), Verdict::Better);
        // A noisy side cannot resolve a difference the size of the bound...
        assert_eq!(verdict(&[0.8, 1.3, 1.0, 1.2], Better::Lower), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(verdict(&[0.5, 0.9, 0.6, 0.8], Better::Lower), Verdict::Better);
        assert!(judge(&[], &a, Better::Lower, 0.1).is_none());
    }

    #[test]
    fn compare_walks_every_shared_workload_and_metric() {
        let side = |wall: f64| {
            let mut metrics = BTreeMap::new();
            metrics.insert("wall_s".to_string(), vec![wall, wall * 1.01, wall * 0.99]);
            metrics.insert("not_a_metric".to_string(), vec![1.0]);
            BTreeMap::from([("scale_commit".to_string(), metrics)])
        };
        let rows = compare(&side(1.0), &side(1.5));
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].metric, rows[0].verdict), ("wall_s", Verdict::Worse));
        assert!(render(&rows).contains("worse"));
        assert!(compare(&side(1.0), &BTreeMap::new()).is_empty());
    }
}
