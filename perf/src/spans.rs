//! Harness-side spans: name, start, end and the span that caused it.
//!
//! The harness is the only writer and it is single-threaded (the library
//! fans out below the calls being timed), so a span is opened and closed on
//! one thread and the open spans form a stack. Everything stays in memory
//! until the run ends; `spans.jsonl` and `ops.csv` are written at exit.
//! With recording off, [`Spans::scope`] is a plain call — the end-to-end
//! run pays nothing for the instrument.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was timed (a layer's public call, or a harness phase).
    pub name: String,
    /// Nanoseconds from the recorder's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Items or bytes the span processed (0 when it has no natural size).
    pub size: u64,
}

impl SpanRecord {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { enabled: false, origin: Instant::now(), inner: RefCell::default() }
    }

    /// A recording recorder whose clock starts now.
    pub fn on() -> Spans {
        Spans { enabled: true, ..Spans::off() }
    }

    /// Runs `f` inside a span called `name`.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.sized(name, 0, f)
    }

    /// Runs `f` inside a span that processed `size` items or bytes.
    pub fn sized<R>(&self, name: &str, size: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.records.len();
            let parent = inner.open.last().copied();
            inner.records.push(SpanRecord {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                size,
            });
            inner.open.push(index);
            index
        };
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.records[index].start_ns = start_ns;
        inner.records[index].end_ns = end_ns;
        inner.open.pop();
        result
    }

    /// Every closed span, in opening order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.borrow().records.clone()
    }

    /// A mark for [`Spans::durations`]: the number of spans opened so far.
    pub fn mark(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Seconds spent in the spans called `name` opened at or after mark
    /// `first`, one entry per span.
    pub fn durations(&self, first: usize, name: &str) -> Vec<f64> {
        let inner = self.inner.borrow();
        inner.records[first..].iter().filter(|r| r.name == name).map(|r| r.secs()).collect()
    }
}

/// Each span's self time in seconds: its duration minus the part its direct
/// children cover. Children of one span never overlap (one thread, a stack
/// of open spans), so the part covered is the sum of their durations.
pub fn self_times(records: &[SpanRecord]) -> Vec<f64> {
    let mut own: Vec<f64> = records.iter().map(SpanRecord::secs).collect();
    for record in records {
        if let Some(parent) = record.parent {
            own[parent] -= record.secs();
        }
    }
    own
}

fn root_of(records: &[SpanRecord], mut index: usize) -> usize {
    while let Some(parent) = records[index].parent {
        index = parent;
    }
    index
}

/// Writes one JSON object per span: `id`, `parent`, `name`, `start_ns`,
/// `end_ns`, `self_ns`, `size`.
pub fn write_jsonl(records: &[SpanRecord], out: &mut impl Write) -> io::Result<()> {
    let own = self_times(records);
    for (id, r) in records.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"size\":{}}}",
            crate::json::quote(&r.name),
            r.start_ns,
            r.end_ns,
            (own[id] * 1e9).round() as i64,
            r.size,
        )?;
    }
    out.flush()
}

/// Writes the leaf spans as per-operation rows in the W1R3 column layout
/// (`Experiment,Task,Iteration,Operation,Size,ElapsedMicroseconds`): the
/// experiment is the span's root, the task is always 0 (one measuring
/// thread), and the iteration counts earlier leaves of the same name under
/// the same root.
pub fn write_ops_csv(records: &[SpanRecord], out: &mut impl Write) -> io::Result<()> {
    let mut has_child = vec![false; records.len()];
    for r in records {
        if let Some(p) = r.parent {
            has_child[p] = true;
        }
    }
    let mut seen: HashMap<(usize, &str), u64> = HashMap::new();
    writeln!(out, "Experiment,Task,Iteration,Operation,Size,ElapsedMicroseconds")?;
    for (id, r) in records.iter().enumerate() {
        if has_child[id] {
            continue;
        }
        let root = root_of(records, id);
        let iteration = seen.entry((root, r.name.as_str())).or_insert(0);
        writeln!(
            out,
            "{},0,{},{},{},{}",
            records[root].name,
            *iteration,
            r.name,
            r.size,
            (r.end_ns - r.start_ns) / 1000,
        )?;
        *iteration += 1;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord { name: name.to_string(), start_ns, end_ns, parent, size: 7 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = vec![
            span("root", 0, 1_000, None),
            span("child", 100, 600, Some(0)),
            span("grandchild", 200, 300, Some(1)),
            span("child", 700, 900, Some(0)),
        ];
        let own = self_times(&records);
        let ns: Vec<i64> = own.iter().map(|s| (s * 1e9).round() as i64).collect();
        assert_eq!(ns, vec![300, 400, 100, 200]);
    }

    #[test]
    fn scopes_nest_and_record_parents() {
        let spans = Spans::on();
        let value = spans.scope("outer", || {
            spans.sized("inner", 3, || ());
            spans.scope("inner", || 42)
        });
        assert_eq!(value, 42);
        let records = spans.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(0));
        assert_eq!(records[2].parent, Some(0));
        assert_eq!(records[1].size, 3);
        assert!(records[0].start_ns <= records[1].start_ns);
        assert!(records[2].end_ns <= records[0].end_ns);
        assert_eq!(spans.durations(0, "inner").len(), 2);
        assert_eq!(spans.durations(2, "inner").len(), 1);
        assert_eq!(spans.mark(), 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.scope("x", || 5), 5);
        assert!(spans.records().is_empty());
    }

    #[test]
    fn ops_csv_has_the_w1r3_columns_and_numbers_leaves_per_root() {
        let records = vec![
            span("layers", 0, 10_000_000, None),
            span("storage.hash", 0, 2_000_000, Some(0)),
            span("storage.hash", 2_000_000, 5_000_000, Some(0)),
        ];
        let mut csv = Vec::new();
        write_ops_csv(&records, &mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Experiment,Task,Iteration,Operation,Size,ElapsedMicroseconds");
        assert_eq!(lines[1], "layers,0,0,storage.hash,7,2000");
        assert_eq!(lines[2], "layers,0,1,storage.hash,7,3000");
        assert_eq!(lines.len(), 3, "the root has children and is not an operation");

        let mut jsonl = Vec::new();
        write_jsonl(&records, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"self_ns\":5000000"));
    }
}
