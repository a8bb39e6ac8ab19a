//! In-memory spans around the benchmark's calls into the crates.
//!
//! A span is `(name, start, end, parent, op)`: `parent` is the span open
//! when it began, `op` the benchmark operation it belongs to. Spans stay in
//! memory until the run ends; a layer's self time is its duration minus the
//! durations of its direct children. A disabled recorder records nothing
//! and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; `exit` closes it.
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts the next benchmark operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times of the spans named `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let own = self.self_ns();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, ns)| ns).collect()
    }

    /// Per name: `(count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent op self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\top\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true, Instant::now());
        s.spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("leaf", 55, 60, Some(2)),
        ];
        assert_eq!(s.self_ns(), vec![30, 30, 35, 5]);
        assert_eq!(s.summary()["op"], (1, 100, 30));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let x = s.time("a", || 7);
        assert_eq!(x, 7);
        assert!(s.summary().is_empty());
    }

    #[test]
    fn nesting_links_parents() {
        let mut s = Spans::new(true, Instant::now());
        let outer = s.enter("outer");
        s.time("inner", || ());
        s.exit(outer);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.self_ns()[0] <= s.spans[0].end_ns - s.spans[0].start_ns);
    }
}
