//! In-memory span recorder for the traced ladder pass.
//!
//! A span is recorded around every call into a layer: name, start, end,
//! parent, and workload. Spans stay in memory until the pass ends and are
//! then written out once, each with its self time (its duration minus the
//! part of its interval that its children cover).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans on one thread; a disabled tracer only runs the
/// closures, so a traced and an untraced pass make the same calls.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &'static str) -> Tracer {
        Tracer {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time of each span in nanoseconds: duration minus the union of
    /// its children's intervals.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"start_ms\": {:.6}, \"end_ms\": {:.6}, \"self_ms\": {:.6}}}",
                s.name,
                self.workload,
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
                self_ns as f64 / 1e6,
            );
        }
        out
    }

    /// Total self time per span name, in milliseconds, sorted by name.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let ms = ns as f64 / 1e6;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += ms,
                None => totals.push((s.name, ms)),
            }
        }
        totals.sort_by(|a, b| a.0.cmp(b.0));
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, "w");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let selfs = t.self_ns();
        let outer = t.spans[0].end_ns - t.spans[0].start_ns;
        let inner = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(selfs[0], outer - inner);
        assert_eq!(selfs[1], inner);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "w");
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.jsonl().is_empty());
    }
}
