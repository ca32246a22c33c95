//! Loadgen's own span recorder. Spans are taken around calls into the
//! system under test (the benchmark's side of every layer boundary), kept
//! in memory, and written out once at exit. Off in measured windows.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Shared by every span of one client operation.
    pub query_id: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// A started, not yet finished span.
pub struct Open {
    id: u64,
    parent: u64,
    query_id: u64,
    name: &'static str,
    start_us: f64,
}

pub struct Recorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh id to group the spans of one client operation.
    pub fn next_query_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a span; `None` (one relaxed load) while recording is off.
    pub fn start(&self, name: &'static str, parent: Option<&Open>, query_id: u64) -> Option<Open> {
        if !self.is_enabled() {
            return None;
        }
        Some(Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.id),
            query_id,
            name,
            start_us: self.now_us(),
        })
    }

    pub fn end(&self, open: Option<Open>) {
        let Some(open) = open else { return };
        let span = Span {
            id: open.id,
            parent: open.parent,
            query_id: open.query_id,
            name: open.name,
            start_us: open.start_us,
            end_us: self.now_us(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Write spans as a JSON array, one span per line.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query_id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}{comma}",
            s.id, s.parent, s.query_id, s.name, s.start_us, s.end_us
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a child
/// is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, (s.end_us - s.start_us) - covered)
        })
        .collect()
}

/// Median self time per span name, in microseconds, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let own = self_times(spans);
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(own[&s.id]);
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, v)| (name, crate::stats::median(&v), v.len()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            query_id: 1,
            name: "s",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 30.0),
            // Overlaps span 2: only 30..40 is newly covered.
            span(3, 1, 20.0, 40.0),
            // Runs past its parent: clipped to 90..100.
            span(4, 1, 90.0, 120.0),
            span(5, 2, 10.0, 15.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100.0 - (20.0 + 10.0 + 10.0));
        assert_eq!(own[&2], 20.0 - 5.0);
        assert_eq!(own[&3], 20.0);
        assert_eq!(own[&4], 30.0);
        assert_eq!(own[&5], 5.0);
    }

    #[test]
    fn recorder_is_silent_while_disabled() {
        let rec = Recorder::new();
        let open = rec.start("client.statement", None, 1);
        assert!(open.is_none());
        rec.end(open);
        assert!(rec.snapshot().is_empty());

        rec.set_enabled(true);
        let qid = rec.next_query_id();
        let root = rec.start("client.statement", None, qid);
        let child = rec.start("client.send", root.as_ref(), qid);
        rec.end(child);
        rec.end(root);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "client.send");
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans
            .iter()
            .all(|s| s.query_id == qid && s.end_us >= s.start_us));
    }
}
