//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it, and a trace
//! id shared by every span of one request (or one flush). Nothing inside
//! the program is instrumented. Spans stay in memory until the run ends and
//! are then written out as ndjson.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. With `on == false` every call is a no-op, so the same
/// drive code gives the untraced wall time the tracing overhead is
/// measured against.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, trace: u64, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, idx: u32) {
        if self.on && idx != ROOT {
            let now = self.now();
            self.spans[idx as usize].end_ns = now;
        }
    }

    /// Records a span whose bounds were taken elsewhere (e.g. a wait that
    /// started before the span's parent was known).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same epoch), re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (self times, total durations), in nanoseconds.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0.push(own as f64);
        e.1.push(s.dur_ns() as f64);
    }
    out
}

/// Writes the span tree as ndjson: one `{"i","name","trace","parent",
/// "start_ns","end_ns"}` object per line, parents before children.
pub fn write_ndjson(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"i\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.trace, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, a: u64, b: u64) -> Span {
        Span {
            name,
            trace: 1,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", ROOT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 20, 40),
            span("c", 0, 60, 70),
            span("leaf", 1, 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![60, 18, 20, 10, 2]);
    }
}
