//! In-memory spans for traced runs, written out as Chrome trace-event JSON
//! when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer: one span per timed op, plus one per layer call in the
//! post-round replay. Nothing inside the program under test is touched.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::check::Failure;
use crate::stats::{p50, self_time};

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.cache_probe`.
    pub name: &'static str,
    /// Start and end, nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<usize>,
    /// The op (request or solve) the span belongs to.
    pub op: u64,
    /// Recording thread (client connection), for the trace viewer.
    pub tid: u32,
}

/// Collects spans against a shared epoch.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
        tid: u32,
    ) -> usize {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            op,
            tid,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let shift = self.at(other.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start += shift;
            s.end += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (ns) of every span named `name`: duration minus the time
    /// its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_time(s.start, s.end, kids))
            .collect()
    }

    /// Nearest-rank median self time of the spans named `name`, µs.
    pub fn p50_us(&self, name: &str) -> Result<f64, Failure> {
        p50(&self.self_times(name))
            .map(|ns| ns as f64 / 1e3)
            .ok_or_else(|| Failure::Io(format!("no {name} span was recorded")))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    /// Per-op spans beyond `max_op_spans` are left out to bound the file;
    /// every replay span is kept.
    pub fn write_chrome(&self, path: &Path, max_op_spans: usize) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut written = 0usize;
        let mut ops = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "op" {
                ops += 1;
                if ops > max_op_spans {
                    continue;
                }
            }
            if written > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            );
            written += 1;
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_follow_parent_links_across_absorbed_recorders() {
        let t0 = Instant::now();
        let ms = |k: u64| t0 + Duration::from_millis(k);
        let mut a = Spans::new(t0);
        let root = a.push("replay.line", ms(0), ms(10), None, 1, 0);
        a.push("serve.parse", ms(1), ms(3), Some(root), 1, 0);
        a.push("serve.render", ms(5), ms(6), Some(root), 1, 0);
        let mut b = Spans::new(ms(100));
        let op = b.push("op", ms(100), ms(104), None, 2, 1);
        b.push("serve.parse", ms(101), ms(102), Some(op), 2, 1);
        a.absorb(b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.self_times("replay.line"), vec![7_000_000]);
        assert_eq!(a.self_times("op"), vec![3_000_000]);
        assert_eq!(a.self_times("serve.parse"), vec![2_000_000, 1_000_000]);
    }
}
