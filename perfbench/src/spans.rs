//! In-memory span recorder for the traced runs.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions; phases the program already reports through its
//! `formad-trace/v1` events are attached as derived child spans laid out
//! back to back from their parent's start. Nothing is written until the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans of one thread. Merge several with [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Attach program-reported phases (name, µs) under `parent`, back to
    /// back from the parent's start.
    pub fn derived(&mut self, parent: usize, phases: &[(&'static str, u64)]) {
        let op = self.spans[parent].op;
        let mut t = self.spans[parent].start_ns;
        let limit = self.spans[parent].end_ns;
        for (name, us) in phases {
            let end = (t + us * 1000).min(limit);
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: end,
                parent: Some(parent),
                op,
            });
            t = end;
        }
    }

    /// Move another thread's spans in, re-basing parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per span name (duration minus the part direct children
    /// cover), in ms, summed over every span of that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (s.ms() - child_ms[k]).max(0.0);
        }
        out
    }

    /// Share of the wall time of every span named `op_name` that no
    /// child span covers.
    pub fn unattributed_share(&self, op_name: &str) -> f64 {
        let selfs = self.self_ms();
        let total: f64 = self.durations(op_name).iter().sum();
        if total > 0.0 {
            selfs.get(op_name).copied().unwrap_or(0.0) / total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (k, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {k}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(Instant::now());
        let op = sp.begin("op", 0, None);
        sp.time("child", 0, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.end(op);
        let selfs = sp.self_ms();
        assert!(selfs["child"] >= 2.0);
        assert!(selfs["op"] < sp.spans[op].ms());
        let share = sp.unattributed_share("op");
        assert!((0.0..1.0).contains(&share));
    }
}
