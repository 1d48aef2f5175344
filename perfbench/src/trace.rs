//! Span tracing for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! of the program: the name of the boundary, start, end and the span
//! that caused it. All spans of one op (session workloads) or one
//! program execution (`ir_sjeng`) share a group id. The tracer keeps
//! exact per-name aggregates — calls, total time, self time and a
//! latency histogram — and a sample of whole groups of raw spans, which
//! the run writes out when it ends.
//!
//! Self time is a span's duration minus the part of it that its child
//! spans cover: the union of the children, so overlapping or nested
//! children are not counted twice.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, Histogram};

/// A layer boundary the benchmark owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One session traffic op, as a client issues it.
    Op,
    /// One interpreted program execution.
    Exec,
    /// `olr_malloc` into the runtime, from the interpreter.
    RtMalloc,
    /// `olr_free` into the runtime, from the interpreter.
    RtFree,
    /// `olr_getptr_ic` into the runtime, from the interpreter.
    RtGetptr,
    /// `olr_memcpy` into the runtime, from the interpreter.
    RtMemcpy,
    /// Any other runtime call from the interpreter (plan lookups, trap
    /// sweeps, compile-time plans).
    RtOther,
    /// A raw sim-heap primitive from the interpreter.
    HeapRaw,
    /// `ShardHandle::read_field`.
    HRead,
    /// `ShardHandle::write_field`.
    HWrite,
    /// `ShardHandle::olr_malloc`.
    HMalloc,
    /// `ShardHandle::olr_free`.
    HFree,
}

impl Name {
    /// Every span name, in aggregate-index order.
    pub const ALL: [Name; 12] = [
        Name::Op,
        Name::Exec,
        Name::RtMalloc,
        Name::RtFree,
        Name::RtGetptr,
        Name::RtMemcpy,
        Name::RtOther,
        Name::HeapRaw,
        Name::HRead,
        Name::HWrite,
        Name::HMalloc,
        Name::HFree,
    ];

    /// The span's name in the written trace.
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "bench.op",
            Name::Exec => "ir.exec",
            Name::RtMalloc => "runtime.olr_malloc",
            Name::RtFree => "runtime.olr_free",
            Name::RtGetptr => "runtime.olr_getptr_ic",
            Name::RtMemcpy => "runtime.olr_memcpy",
            Name::RtOther => "runtime.other",
            Name::HeapRaw => "simheap.raw",
            Name::HRead => "handle.read_field",
            Name::HWrite => "handle.write_field",
            Name::HMalloc => "handle.olr_malloc",
            Name::HFree => "handle.olr_free",
        }
    }
}

/// Running union of child intervals that arrive in non-decreasing start
/// order: the covered length and the furthest end seen so far.
#[derive(Debug, Clone, Copy)]
struct Coverage {
    covered: u64,
    mark: u64,
}

impl Coverage {
    fn new(start: u64) -> Self {
        Coverage {
            covered: 0,
            mark: start,
        }
    }

    fn add(&mut self, start: u64, end: u64) {
        let from = start.max(self.mark);
        if end > from {
            self.covered += end - from;
            self.mark = end;
        }
    }
}

/// Self time of a span over `[start, end)`: its duration minus the union
/// of its children's intervals, clipped to the span. The tracer computes
/// the same union online with [`Coverage`], as its children close.
#[cfg(test)]
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut cover = Coverage::new(start);
    for (s, e) in kids {
        cover.add(s, e);
    }
    end.saturating_sub(start) - cover.covered
}

/// One finished span, as written to the sampled trace.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Boundary name.
    pub name: Name,
    /// Group id shared by every span of one op or execution.
    pub group: u64,
    /// This span's id (unique per tracer).
    pub span: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Client thread that recorded it.
    pub thread: u32,
}

/// Exact per-name totals.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
    /// Span durations.
    pub hist: Histogram,
}

impl Agg {
    /// Mean span duration (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    name: Name,
    span: u64,
    group: u64,
    start: u64,
    cover: Coverage,
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    next_span: u64,
    next_group: u64,
    sample_every: u64,
    sample_cap: usize,
    samples: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer timing against the shared `epoch`, keeping the raw spans
    /// of every `sample_every`-th group: at most `sample_cap` child
    /// spans, and every root.
    pub fn new(epoch: Instant, thread: u32, sample_every: u64, sample_cap: usize) -> Self {
        Tracer {
            epoch,
            thread,
            stack: Vec::with_capacity(8),
            aggs: vec![Agg::default(); Name::ALL.len()],
            next_span: 1,
            // Group ids are unique across threads: the thread index in
            // the top bits.
            next_group: u64::from(thread) << 48,
            sample_every: sample_every.max(1),
            sample_cap,
            samples: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. A span opened with no span open starts a new group;
    /// otherwise it joins the enclosing span's group as its child.
    pub fn enter(&mut self, name: Name) {
        let group = match self.stack.last() {
            Some(parent) => parent.group,
            None => {
                self.next_group += 1;
                self.next_group
            }
        };
        let span = self.next_span;
        self.next_span += 1;
        let start = self.now();
        self.stack.push(Open {
            name,
            span,
            group,
            start,
            cover: Coverage::new(start),
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.name as usize];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - open.cover.covered.min(dur);
        agg.hist.record(dur);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                // Children of one open span close in start order, so the
                // running union is exact.
                p.cover.add(open.start, end);
                p.span
            }
            None => 0,
        };
        // Roots of sampled groups are always kept, so every written
        // span's group has its root.
        let room = parent == 0 || self.samples.len() < self.sample_cap;
        if open.group.is_multiple_of(self.sample_every) && room {
            self.samples.push(SpanRecord {
                name: open.name,
                group: open.group,
                span: open.span,
                parent,
                start: open.start,
                end,
                thread: self.thread,
            });
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The aggregate for `name`.
    pub fn agg(&self, name: Name) -> &Agg {
        &self.aggs[name as usize]
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.hist.merge(&b.hist);
        }
        self.samples.extend(other.samples);
    }

    /// Write the sampled raw spans as JSON lines.
    pub fn write_samples(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.samples {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"group\":{},\"span\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                s.name.label(),
                s.group,
                s.span,
                s.parent,
                s.start,
                s.end,
                s.thread
            )?;
        }
        out.flush()
    }
}

/// Cost of one timer start/stop pair (two clock reads), median of five
/// rounds of 200k pairs.
pub fn timer_pair_ns() -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            const PAIRS: u32 = 200_000;
            let outer = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                black_box(a.elapsed());
            }
            outer.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_and_nested_children() {
        // Parent [0, 100). Children [10, 30) and [20, 40) overlap; [50, 60)
        // nests inside [45, 70); [90, 120) runs past the parent's end.
        let kids = [(20, 40), (10, 30), (50, 60), (45, 70), (90, 120)];
        // Union inside the parent: [10, 40) + [45, 70) + [90, 100) = 65.
        assert_eq!(self_ns(0, 100, &kids), 35);
        assert_eq!(self_ns(0, 100, &[]), 100);
        // Identical children count once.
        assert_eq!(self_ns(0, 10, &[(2, 5), (2, 5)]), 7);
        // Children wholly outside the span do not count.
        assert_eq!(self_ns(10, 20, &[(0, 5), (25, 30)]), 10);
    }

    #[test]
    fn the_tracer_attributes_child_time_to_the_child_only() {
        let mut t = Tracer::new(Instant::now(), 0, 1, 100);
        t.enter(Name::Exec);
        for _ in 0..3 {
            t.span(Name::RtMalloc, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        t.exit();
        let exec = t.agg(Name::Exec);
        let child = t.agg(Name::RtMalloc);
        assert_eq!((exec.calls, child.calls), (1, 3));
        assert_eq!(child.total_ns, child.self_ns);
        assert_eq!(exec.self_ns, exec.total_ns - child.total_ns);
        // Each span shares the root's group; the root has no parent.
        assert_eq!(t.samples.len(), 4);
        let root = t.samples.last().unwrap();
        assert_eq!((root.name, root.parent), (Name::Exec, 0));
        assert!(t.samples[..3]
            .iter()
            .all(|s| s.group == root.group && s.parent == root.span));
    }

    #[test]
    fn every_span_label_is_a_valid_metric_name() {
        for n in Name::ALL {
            assert!(crate::report::valid_name(n.label()), "{}", n.label());
            assert_eq!(Name::ALL[n as usize], n);
        }
    }
}
