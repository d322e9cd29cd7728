//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer's public
//! calls (tracing inside the program is a later change): name, start,
//! end, the span that caused it, the request it belongs to and the
//! cell. Counts are recorded at the same boundaries. Everything stays
//! in memory until the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A recorder that is either off (every call returns at once, so the
/// measured path carries one branch per boundary) or collecting.
#[derive(Debug)]
pub struct Recorder {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(cell, name, value)`, one entry per boundary crossing.
    pub counts: Vec<(&'static str, &'static str, f64)>,
    stack: Vec<usize>,
    request: u64,
    cell: &'static str,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            request: 0,
            cell: "",
        }
    }

    /// Starts a new request for `cell`: spans opened until the next call
    /// share its identifier.
    pub fn request(&mut self, cell: &'static str) {
        self.request += 1;
        self.cell = cell;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            cell: self.cell,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `work` inside a span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = work();
        self.exit();
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((self.cell, name, value));
        }
    }

    /// Closes whatever a panicking operation left open.
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.exit();
        }
    }

    /// Every duration (seconds) and count recorded under `name` for
    /// `cell`.
    pub fn values(&self, cell: &str, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .iter()
            .filter(|s| s.cell == cell && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9);
        let counts = self
            .counts
            .iter()
            .filter(|c| c.0 == cell && c.1 == name)
            .map(|c| c.2);
        spans.chain(counts).collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"cell\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.cell, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut r = Recorder::new(true);
        r.request("c");
        r.enter("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit();
        r.count("rows", 3.0);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].request, 1);
        let own = r.self_ns();
        let (outer, inner) = (&r.spans[0], &r.spans[1]);
        assert_eq!(
            own[0],
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(r.values("c", "inner")[0] >= 0.002);
        assert_eq!(r.values("c", "rows"), vec![3.0]);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);

        let mut off = Recorder::new(false);
        off.span("x", || ());
        off.count("rows", 1.0);
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
