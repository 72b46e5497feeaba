//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions. Each span has a name, a start and end
//! (nanoseconds since the recorder was created), the span that caused it,
//! and the id of the pass it belongs to. Spans stay in memory until the run
//! ends and are then written out as one JSON file.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    pass: u64,
    name: &'static str,
    start: u64,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    pass: u64,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    next_pass: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: AtomicU64::new(1),
            next_pass: AtomicU64::new(1),
        }
    }

    /// A fresh pass id; spans of one pass share it.
    pub fn new_pass(&self) -> u64 {
        self.next_pass.fetch_add(1, Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span. A root span takes `parent = None` and its own pass id.
    pub fn open(&self, name: &'static str, parent: Option<&Open>, pass: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.id),
            pass: parent.map_or(pass, |p| p.pass),
            name,
            start: self.now(),
        }
    }

    /// End a span; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = self.now();
        self.spans.lock().expect("span list lock").push(Span {
            id: open.id,
            parent: open.parent,
            pass: open.pass,
            name: open.name,
            start: open.start,
            end,
        });
        end - open.start
    }

    /// Run `f` inside a child span of `parent`.
    pub fn child<R>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, Some(parent), parent.pass);
        let r = f();
        self.close(s);
        r
    }

    /// Totals per span name. Self time is a span's duration minus the
    /// durations of its direct children (the benchmark's spans are nested
    /// and never overlap their siblings).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().expect("span list lock");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end - s.start;
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end - s.start;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Duration of every span named `name` in `pass`, in nanoseconds.
    pub fn pass_total_ns(&self, name: &str, pass: u64) -> u64 {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Write every span as a JSON array of objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"pass\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id,
                s.parent,
                s.pass,
                json_str(s.name),
                s.start,
                s.end
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        let pass = rec.new_pass();
        let root = rec.open("root", None, pass);
        rec.child("leaf", &root, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = rec.close(root);
        let t = rec.totals();
        assert_eq!(t["root"].total_ns, total);
        assert!(t["root"].self_ns < t["leaf"].total_ns);
        assert_eq!(t["leaf"].self_ns, t["leaf"].total_ns);
        assert_eq!(rec.pass_total_ns("leaf", pass), t["leaf"].total_ns);
    }
}
