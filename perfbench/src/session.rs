//! `session_read` and `session_churn`: a session store of live POLaR
//! objects on the sharded runtime, served by a closed loop of client
//! threads.
//!
//! Each client owns one partition of the sessions, one
//! [`ShardHandle`] and a per-client oracle holding the last value
//! written to every field. Clients run rounds of three batches in
//! rotating order:
//!
//! * **timed** — every op timed alone, for `op_p50_ns`/`op_p99_ns`;
//!   refreshes here also sample the new object's field offsets (outside
//!   the op's timer) for `layout_repeat_share`;
//! * **block** — the batch timed as a whole, for `ops_per_s` and
//!   `exec_ms` (one batch), free of per-op timer cost;
//! * **native** — the same kind of traffic against a plain store of
//!   boxed records on the system allocator, timed as a whole; block
//!   time over native time is `overhead_x`.
//!
//! A traced run replaces the native batch with a traced one (every
//! handle call in a span, under one `bench.op` span per op) and
//! compares it with the timed batch for `trace.overhead_pct`.
//!
//! Every read is checked against the oracle; a mismatch, a runtime
//! error, or any detection counted by the runtime is a failed op.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_rng::{Rng, RngExt, SplitMix64, Zipf};
use polar_runtime::{
    Addr, RandomizeMode, RuntimeConfig, RuntimeStats, ShardHandle, ShardedRuntime,
};

use crate::report::Outcome;
use crate::stats::{median, Histogram};
use crate::trace::{Name, Tracer};
use crate::{peak_rss_mib, Args};

/// Session fields: `vtable`, `id` (the key, never rewritten) and five
/// scalar payload fields.
const FIELDS: usize = 7;
/// Ops per batch.
const BATCH: usize = 2_048;
/// Every this many refreshes in timed batches, sample the new object's
/// offset vector.
const LAYOUT_EVERY: u64 = 8;
/// Rounds every client runs, whatever the deadline: one warm-up round
/// and two measured ones.
const MIN_ROUNDS: u64 = 3;
/// Upper bound on the heap bytes one session takes (block, dummies,
/// traps, alignment), used to size each shard's slice of the heap.
const SESSION_HEAP_BYTES: usize = 256;

/// A traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Live sessions, split evenly across clients.
    pub sessions: u64,
    /// Percent of ops that read one field.
    pub read_pct: u32,
    /// Percent of ops that write one field; the rest are refreshes
    /// (free, malloc, re-initialize every field).
    pub write_pct: u32,
    /// Zipf exponent of the key distribution; `None` for uniform keys.
    pub zipf: Option<f64>,
    /// Segments of an untraced run, each a fresh set-up (construction
    /// plus populate) and then traffic; `setup_s` is their median.
    pub segments: usize,
}

/// 1,048,576 sessions, Zipf(0.99) keys, 95 % reads / 5 % writes.
pub const READ: Shape = Shape {
    sessions: 1 << 20,
    read_pct: 95,
    write_pct: 5,
    zipf: Some(0.99),
    segments: 3,
};

/// 65,536 sessions, uniform keys, 20 % reads / 20 % writes / 60 %
/// refreshes.
pub const CHURN: Shape = Shape {
    sessions: 1 << 16,
    read_pct: 20,
    write_pct: 20,
    zipf: None,
    segments: 9,
};

/// The session record: the class profile of a cache entry.
pub fn session_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Session")
            .field("vtable", FieldKind::VtablePtr)
            .field("id", FieldKind::I64)
            .field("token", FieldKind::I64)
            .field("last_seen", FieldKind::I64)
            .field("hits", FieldKind::I32)
            .field("flags", FieldKind::I32)
            .field("payload", FieldKind::Ptr)
            .build(),
    ))
}

/// One live session and its oracle.
#[derive(Debug, Clone)]
pub struct Slot {
    addr: Addr,
    vals: [u64; FIELDS],
}

/// Field values for a session written from `seed`; field 1 is the key.
fn fresh_values(key: u64, seed: u64) -> [u64; FIELDS] {
    let mut rng = SplitMix64::new(seed);
    let mut vals = [0; FIELDS];
    for (f, v) in vals.iter_mut().enumerate() {
        *v = if f == 1 {
            key
        } else {
            rng.next_u64() & 0xFFFF_FFFF
        };
    }
    vals
}

/// CPUs the host offers this process; clients and shards are the
/// smaller of this and two.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Heap capacity covering `shards` slices of `sessions / shards`
/// sessions each, with a quarter of slack for magazine reservations and
/// refresh churn, rounded so each slice is a power of two (the runtime
/// then routes addresses by shift).
pub fn heap_capacity(sessions: u64, shards: usize) -> usize {
    let per_shard = (sessions as usize).div_ceil(shards) * SESSION_HEAP_BYTES;
    let need = per_shard + per_shard / 4 + (8 << 20);
    need.next_power_of_two() * shards
}

/// A populated store.
pub struct Store {
    /// The runtime.
    pub rt: ShardedRuntime,
    /// Per-client partitions with their oracles.
    pub parts: Vec<Vec<Slot>>,
    /// Ops that failed during populate.
    pub failed: u64,
}

/// Build the runtime and populate it: client `t` allocates and
/// initializes its partition through its own handle.
pub fn populate(mode: RandomizeMode, seed: u64, sessions: u64, clients: usize) -> Store {
    let mut cfg = RuntimeConfig::default();
    cfg.heap.capacity = heap_capacity(sessions, clients);
    cfg.seed = seed;
    let rt = ShardedRuntime::new(mode, cfg, clients);
    let info = session_class();
    let results: Vec<(Vec<Slot>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let (rt, info) = (&rt, &info);
                scope.spawn(move || {
                    let mut h = rt.handle(t as u64);
                    let n = sessions / clients as u64
                        + u64::from((t as u64) < sessions % clients as u64);
                    let mut slots = Vec::with_capacity(n as usize);
                    let mut failed = 0;
                    let mut rng = SplitMix64::stream(seed ^ 0x5E55_0000, t as u64);
                    for key in 0..n {
                        let vals = fresh_values(key, rng.next_u64());
                        match init(&mut h, info, &vals, &mut None) {
                            Some(addr) => slots.push(Slot { addr, vals }),
                            None => failed += 1,
                        }
                    }
                    (slots, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("populate client panicked"))
            .collect()
    });
    let failed = results.iter().map(|r| r.1).sum();
    Store {
        rt,
        parts: results.into_iter().map(|r| r.0).collect(),
        failed,
    }
}

/// Run `f` inside a span when tracing.
#[inline]
fn sp<T>(tr: &mut Option<Tracer>, name: Name, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Allocate a session and write every field; `None` on any error.
fn init(
    h: &mut ShardHandle<'_>,
    info: &Arc<ClassInfo>,
    vals: &[u64; FIELDS],
    tr: &mut Option<Tracer>,
) -> Option<Addr> {
    let addr = sp(tr, Name::HMalloc, || h.olr_malloc(info)).ok()?;
    for (f, &v) in vals.iter().enumerate() {
        sp(tr, Name::HWrite, || h.write_field(addr, info.hash(), f, v)).ok()?;
    }
    Some(addr)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Refresh,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    key: usize,
    kind: Kind,
    field: usize,
    value: u64,
}

/// A client's seeded op stream.
struct OpGen {
    rng: SplitMix64,
    zipf: Option<Zipf>,
    n: u64,
    read_pct: u32,
    write_pct: u32,
}

impl OpGen {
    fn new(shape: &Shape, n: usize, seed: u64, stream: u64) -> Self {
        OpGen {
            rng: SplitMix64::stream(seed ^ 0x7AF1_0000, stream),
            zipf: shape.zipf.map(|s| Zipf::new(n as u64, s)),
            n: n as u64,
            read_pct: shape.read_pct,
            write_pct: shape.write_pct,
        }
    }

    #[inline]
    fn next(&mut self) -> Op {
        // Zipf rank 1 is the hottest session; low indices are the hot set.
        let key = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) - 1,
            None => self.rng.random_range(0..self.n),
        } as usize;
        let roll = self.rng.random_range(0..100u32);
        let kind = if roll < self.read_pct {
            Kind::Read
        } else if roll < self.read_pct + self.write_pct {
            Kind::Write
        } else {
            Kind::Refresh
        };
        // Fields 2..=6 hold payload; 0 is the vtable and 1 the key.
        let field = 2 + self.rng.random_range(0..5usize);
        Op {
            key,
            kind,
            field,
            value: self.rng.next_u64(),
        }
    }
}

/// Serve one op against the POLaR store; false when it failed.
#[inline]
fn serve(
    h: &mut ShardHandle<'_>,
    info: &Arc<ClassInfo>,
    slot: &mut Slot,
    op: Op,
    tr: &mut Option<Tracer>,
) -> bool {
    let hash = info.hash();
    match op.kind {
        Kind::Read => {
            let got = sp(tr, Name::HRead, || h.read_field(slot.addr, hash, op.field));
            matches!(got, Ok(v) if v == slot.vals[op.field])
        }
        Kind::Write => {
            let v = op.value & 0xFFFF_FFFF;
            let ok = sp(tr, Name::HWrite, || {
                h.write_field(slot.addr, hash, op.field, v)
            })
            .is_ok();
            if ok {
                slot.vals[op.field] = v;
            }
            ok
        }
        Kind::Refresh => {
            if sp(tr, Name::HFree, || h.olr_free(slot.addr)).is_err() {
                return false;
            }
            let vals = fresh_values(slot.vals[1], op.value);
            match init(h, info, &vals, tr) {
                Some(addr) => {
                    *slot = Slot { addr, vals };
                    true
                }
                None => {
                    // The old object is gone and the new one is not
                    // whole: every later op on this key fails too.
                    slot.addr = Addr(0);
                    false
                }
            }
        }
    }
}

/// The same op against the native store: boxed records on the system
/// allocator, no randomization, no metadata. A refresh frees the record
/// and allocates a new one, as the POLaR refresh does.
#[inline]
#[allow(clippy::replace_box)]
fn serve_native(store: &mut [Box<[u64; FIELDS]>], op: Op) {
    let rec = &mut store[op.key];
    match op.kind {
        Kind::Read => {
            black_box(rec[op.field]);
        }
        Kind::Write => rec[op.field] = op.value & 0xFFFF_FFFF,
        Kind::Refresh => *rec = Box::new(fresh_values(rec[1], op.value)),
    }
}

/// Field offsets of the object at `addr`, read with `olr_getptr`.
fn offsets(h: &mut ShardHandle<'_>, info: &Arc<ClassInfo>, addr: Addr) -> Option<[u64; FIELDS]> {
    let mut out = [0; FIELDS];
    for (f, o) in out.iter_mut().enumerate() {
        *o = h.olr_getptr(addr, info.hash(), f).ok()?.0 - addr.0;
    }
    Some(out)
}

/// What one client measured.
#[derive(Default)]
pub struct ClientOut {
    /// Per-op latency of the timed batches.
    pub hist: Histogram,
    /// Block-batch wall times, ns.
    pub block_ns: Vec<f64>,
    /// Block over native time, one per round.
    pub ratios: Vec<f64>,
    /// Wall time of the timed batches, ns.
    pub timed_ns: u64,
    /// Wall time of the traced batches, ns.
    pub traced_ns: u64,
    /// POLaR ops attempted.
    pub attempted: u64,
    /// POLaR ops failed.
    pub failed: u64,
    /// Offset vectors compared with the previous sample.
    pub layout_samples: u64,
    /// Samples equal to the previous sample.
    pub layout_repeats: u64,
    tracer: Option<Tracer>,
}

/// Run one client's closed loop until `deadline`, and for at least
/// [`MIN_ROUNDS`] rounds; the first round warms up and is not counted.
/// `native` is the plain store the native batches serve; a traced run
/// has none.
// Each native record is its own allocation, as a heap object is.
#[allow(clippy::too_many_arguments, clippy::vec_box)]
pub fn client(
    rt: &ShardedRuntime,
    info: &Arc<ClassInfo>,
    shape: &Shape,
    t: usize,
    seed: u64,
    slots: &mut [Slot],
    deadline: Instant,
    tracer: Option<Tracer>,
    mut native: Vec<Box<[u64; FIELDS]>>,
) -> ClientOut {
    let mut h = rt.handle(t as u64);
    let traced = tracer.is_some();
    let mut out = ClientOut {
        tracer,
        ..ClientOut::default()
    };
    let mut gen = OpGen::new(shape, slots.len(), seed, t as u64);
    let mut native_gen = OpGen::new(shape, slots.len(), seed, 0x4E00 + t as u64);
    let mut none = None;
    let mut ops: Vec<Op> = Vec::with_capacity(BATCH);
    let (mut refreshes, mut last_layout) = (0u64, None);
    let mut round = 0u64;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        let counted = round > 0;
        let mut block = 0.0;
        let mut native_ns = 0.0;
        for step in 0..3 {
            // Draw the batch's ops before its clock starts: the key
            // sampler is the harness's cost, reported as
            // `driver.ns_per_op`, not the store's.
            let kind = (step + round) % 3;
            let source = if kind == 2 && !traced {
                &mut native_gen
            } else {
                &mut gen
            };
            ops.clear();
            ops.extend((0..BATCH).map(|_| source.next()));
            match kind {
                1 => {
                    // Block batch.
                    let begin = Instant::now();
                    for &op in &ops {
                        let ok = serve(&mut h, info, &mut slots[op.key], op, &mut none);
                        out.attempted += 1;
                        out.failed += u64::from(!ok);
                    }
                    block = begin.elapsed().as_nanos() as f64;
                }
                2 if !traced => {
                    // Native batch.
                    let begin = Instant::now();
                    for &op in &ops {
                        serve_native(&mut native, op);
                    }
                    native_ns = begin.elapsed().as_nanos() as f64;
                }
                _ => {
                    // Timed batch, or in a traced run the same batch
                    // with spans.
                    let tr = if kind == 0 {
                        &mut none
                    } else {
                        &mut out.tracer
                    };
                    let begin = Instant::now();
                    for &op in &ops {
                        let slot = &mut slots[op.key];
                        let t0 = Instant::now();
                        if let Some(t) = tr.as_mut() {
                            t.enter(Name::Op);
                        }
                        let ok = serve(&mut h, info, slot, op, tr);
                        if let Some(t) = tr.as_mut() {
                            t.exit();
                        }
                        let ns = t0.elapsed().as_nanos() as u64;
                        out.attempted += 1;
                        out.failed += u64::from(!ok);
                        if counted && kind == 0 {
                            out.hist.record(ns);
                        }
                        if op.kind == Kind::Refresh && ok {
                            refreshes += 1;
                            if refreshes.is_multiple_of(LAYOUT_EVERY) {
                                let now = offsets(&mut h, info, slot.addr);
                                if counted && now.is_some() && last_layout.is_some() {
                                    out.layout_samples += 1;
                                    out.layout_repeats += u64::from(now == last_layout);
                                }
                                last_layout = now;
                            }
                        }
                    }
                    let ns = begin.elapsed().as_nanos() as u64;
                    match (counted, kind) {
                        (false, _) => {}
                        (true, 0) => out.timed_ns += ns,
                        (true, _) => out.traced_ns += ns,
                    }
                }
            }
        }
        if counted {
            out.block_ns.push(block);
            if !traced {
                out.ratios.push(block / native_ns);
            }
        }
        round += 1;
    }
    out
}

/// Per-op cost of the harness alone: key and op draws plus the oracle
/// compare, with no call into the runtime.
fn harness_ns_per_op(shape: &Shape, slots: &[Slot], seed: u64) -> f64 {
    const OPS: u32 = 1 << 20;
    let mut gen = OpGen::new(shape, slots.len(), seed, 0xD0);
    let begin = Instant::now();
    for _ in 0..OPS {
        let op = gen.next();
        let v = black_box(slots[op.key].vals[op.field]);
        black_box(v == slots[op.key].vals[op.field]);
    }
    begin.elapsed().as_nanos() as f64 / f64::from(OPS)
}

/// `a - b` for the counters the metrics read.
fn delta(a: &RuntimeStats, b: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        allocations: a.allocations - b.allocations,
        frees: a.frees - b.frees,
        member_accesses: a.member_accesses - b.member_accesses,
        cache_hits: a.cache_hits - b.cache_hits,
        site_ic_hits: a.site_ic_hits - b.site_ic_hits,
        site_ic_misses: a.site_ic_misses - b.site_ic_misses,
        stateless_allocs: a.stateless_allocs - b.stateless_allocs,
        pool_hits: a.pool_hits - b.pool_hits,
        pool_refills: a.pool_refills - b.pool_refills,
        unique_plans: a.unique_plans - b.unique_plans,
        dedup_saved: a.dedup_saved - b.dedup_saved,
        lockfree_reads: a.lockfree_reads - b.lockfree_reads,
        lockfree_fallbacks: a.lockfree_fallbacks - b.lockfree_fallbacks,
        magazine_hits: a.magazine_hits - b.magazine_hits,
        magazine_refills: a.magazine_refills - b.magazine_refills,
        fast_frees: a.fast_frees - b.fast_frees,
        remote_drained: a.remote_drained - b.remote_drained,
        ..RuntimeStats::default()
    }
}

/// Everything a session run measured.
pub struct Traffic {
    /// Per-client results.
    pub clients: Vec<ClientOut>,
    /// Runtime counters before traffic.
    pub before: RuntimeStats,
    /// Runtime counters after traffic, handles flushed.
    pub after: RuntimeStats,
}

/// Serve traffic from every client against `store` until `deadline`.
pub fn traffic(
    store: &mut Store,
    shape: &Shape,
    seed: u64,
    deadline: Instant,
    trace: bool,
) -> Traffic {
    let info = session_class();
    let before = store.rt.stats();
    let epoch = Instant::now();
    let rt = &store.rt;
    let clients: Vec<ClientOut> = std::thread::scope(|scope| {
        let workers: Vec<_> = store
            .parts
            .iter_mut()
            .enumerate()
            .map(|(t, slots)| {
                let info = &info;
                let tracer = trace.then(|| Tracer::new(epoch, t as u32, 1_024, 20_000));
                // The native store is built on this thread, so its memory
                // comes back to the same allocator arena every segment
                // and peak RSS does not depend on which arena a new
                // client thread lands in.
                let native = match trace {
                    true => Vec::new(),
                    false => slots.iter().map(|s| Box::new(s.vals)).collect(),
                };
                scope.spawn(move || {
                    client(rt, info, shape, t, seed, slots, deadline, tracer, native)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traffic client panicked"))
            .collect()
    });
    Traffic {
        clients,
        before,
        after: store.rt.stats(),
    }
}

/// Run a session workload and fill `out`.
pub fn run_workload(args: &Args, shape: Shape, out: &mut Outcome) {
    let parallelism = detected_parallelism();
    let clients = parallelism.min(2);
    let mode = RandomizeMode::per_allocation();
    let seed = SplitMix64::stream(args.seed, 0x5E55).next_u64();

    // The run is split into segments, each a fresh set-up followed by
    // traffic, so set-up samples spread over the run the way traffic
    // samples do.
    let segments = if args.trace { 1 } else { shape.segments };
    let segment = Duration::from_secs(args.seconds) / segments as u32;
    let mut setup_s = Vec::new();
    let mut hist = Histogram::default();
    let (mut block_ns, mut ratios) = (Vec::new(), Vec::new());
    let mut per_client = vec![(0usize, 0.0f64); clients];
    let (mut samples, mut repeats, mut detections) = (0, 0, 0);
    let (mut timed_ns, mut traced_ns) = (0u64, 0u64);
    let mut tracer: Option<Tracer> = None;
    let mut harness = 0.0;
    let mut last = None;
    for seg in 0..segments {
        // Drop the previous store first, so stores never overlap.
        drop(last.take());
        let seed = SplitMix64::stream(seed, seg as u64).next_u64();
        let t = Instant::now();
        let mut store = populate(mode, seed, shape.sessions, clients);
        setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += shape.sessions;
        out.failed += store.failed;
        if seg == 0 {
            harness = harness_ns_per_op(&shape, &store.parts[0], seed);
        }
        let deadline = Instant::now() + segment;
        let mut run = traffic(&mut store, &shape, seed, deadline, args.trace);
        for (t, c) in run.clients.iter_mut().enumerate() {
            hist.merge(&c.hist);
            per_client[t].0 += c.block_ns.len() * BATCH;
            per_client[t].1 += c.block_ns.iter().sum::<f64>();
            block_ns.extend(&c.block_ns);
            ratios.extend(&c.ratios);
            out.attempted += c.attempted;
            out.failed += c.failed;
            samples += c.layout_samples;
            repeats += c.layout_repeats;
            timed_ns += c.timed_ns;
            traced_ns += c.traced_ns;
            if let Some(t) = c.tracer.take() {
                match tracer.as_mut() {
                    Some(all) => all.merge(t),
                    None => tracer = Some(t),
                }
            }
        }
        // Any detection on benign traffic is a failure.
        detections += run.after.total_detections();
        last = Some((store, run.before, run.after));
    }
    let (store, before, after) = last.expect("at least one segment");
    out.failed += detections;
    if out.failed > 0 {
        eprintln!(
            "{}: {} failed ops ({detections} detections)",
            args.workload, out.failed
        );
    }
    println!(
        "shape: clients={clients} shards={} detected_parallelism={parallelism} heap_capacity_mib={} \
         sessions={} mix={}/{}/{} read/write/refresh keys={} segments={segments}",
        store.rt.shard_count(),
        store.rt.config().heap.capacity >> 20,
        shape.sessions,
        shape.read_pct,
        shape.write_pct,
        100 - shape.read_pct - shape.write_pct,
        shape.zipf.map_or("uniform".to_string(), |s| format!("zipf({s})")),
    );
    let ops_per_s: f64 = per_client
        .iter()
        .map(|&(ops, ns)| ops as f64 / (ns / 1e9))
        .sum();
    let live = after.allocations - after.frees;
    let footprint = store.rt.heap_footprint();
    let repeat_share = crate::ratio(repeats, samples);
    println!(
        "latency samples {} (p99 has {} beyond it); layout samples {samples}, repeat share {repeat_share:.6}; live {live}",
        hist.count(),
        hist.beyond(0.99)
    );

    if !args.trace {
        out.set("setup_s", median(&setup_s));
        out.set("ops_per_s", ops_per_s);
        out.set("op_p50_ns", hist.quantile(0.50));
        out.set("op_p99_ns", hist.quantile(0.99));
        out.set("exec_ms", median(&block_ns) / 1e6);
        out.set("overhead_x", median(&ratios));
        out.set(
            "meta_bytes_per_live",
            store.rt.estimated_metadata_bytes() as f64 / live.max(1) as f64,
        );
        out.set("peak_rss_mib", peak_rss_mib());
        return;
    }

    let tracer = tracer.expect("traced run");
    let d = delta(&after, &before);
    for name in [
        "instrument.pass_us",
        "instrument.sites",
        "ir.steps",
        "ir.self_ns_per_step",
        "ir.self_share",
        "runtime.olr_malloc.calls",
        "runtime.olr_malloc.ns_per_call",
        "runtime.olr_free.calls",
        "runtime.olr_free.ns_per_call",
        "runtime.olr_getptr_ic.calls",
        "runtime.olr_getptr_ic.ns_per_call",
        "runtime.olr_memcpy.calls",
        "runtime.olr_memcpy.ns_per_call",
        "simheap.raw.calls",
        "simheap.raw.ns_per_call",
    ] {
        // Layers this workload never calls.
        out.set(name, 0.0);
    }
    crate::set_runtime_ratios(out, &d);
    out.set(
        "simheap.heap_bytes_per_live",
        footprint.bytes_live as f64 / live.max(1) as f64,
    );
    out.set(
        "simheap.fragmentation",
        footprint.arena_bytes as f64 / footprint.bytes_peak.max(1) as f64,
    );
    crate::set_handle_metrics(out, Some(&tracer), Some(&d));
    out.set("layout_repeat_share", repeat_share);
    out.set("driver.ns_per_op", harness);
    out.set(
        "trace.overhead_pct",
        (traced_ns as f64 / timed_ns.max(1) as f64 - 1.0) * 100.0,
    );
    crate::write_trace(&tracer, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        sessions: 4_096,
        read_pct: 20,
        write_pct: 20,
        zipf: None,
        segments: 1,
    };

    fn run_small(mode: RandomizeMode, shape: Shape, corrupt: bool) -> Traffic {
        let mut store = populate(mode, 11, shape.sessions, 2);
        assert_eq!(store.failed, 0);
        if corrupt {
            // Plant an oracle mismatch on every session's payload.
            for slot in store.parts.iter_mut().flatten() {
                for v in &mut slot.vals[2..] {
                    *v ^= 1;
                }
            }
        }
        traffic(&mut store, &shape, 11, Instant::now(), false)
    }

    #[test]
    fn clean_traffic_has_no_failures_and_a_pinned_live_set() {
        let run = run_small(RandomizeMode::per_allocation(), SMALL, false);
        assert!(run.clients.iter().all(|c| c.failed == 0 && c.attempted > 0));
        assert_eq!(run.after.allocations - run.after.frees, SMALL.sessions);
        assert_eq!(run.after.total_detections(), 0);
        assert!(run
            .clients
            .iter()
            .all(|c| c.ratios.len() == 2 && c.hist.count() > 0));
    }

    #[test]
    fn a_planted_oracle_mismatch_fails_the_workload() {
        let reads = Shape {
            read_pct: 100,
            write_pct: 0,
            ..SMALL
        };
        let run = run_small(RandomizeMode::per_allocation(), reads, true);
        for c in &run.clients {
            assert_eq!(
                c.failed, c.attempted,
                "every read of a corrupted oracle must fail"
            );
        }
    }

    #[test]
    fn layout_repeat_share_separates_static_from_per_allocation_layouts() {
        let share = |mode| {
            let run = run_small(mode, SMALL, false);
            let samples: u64 = run.clients.iter().map(|c| c.layout_samples).sum();
            let repeats: u64 = run.clients.iter().map(|c| c.layout_repeats).sum();
            assert!(samples >= 50, "only {samples} layout samples");
            repeats as f64 / samples as f64
        };
        let fixed = share(RandomizeMode::static_olr(5));
        let polar = share(RandomizeMode::per_allocation());
        assert!(fixed > 0.99, "static OLR repeat share {fixed}");
        assert!(polar < 0.05, "per-allocation repeat share {polar}");
    }

    #[test]
    fn heap_capacity_gives_each_shard_a_power_of_two_slice_with_slack() {
        let cap = heap_capacity(1 << 20, 2);
        assert!((cap / 2).is_power_of_two());
        assert!(cap / 2 >= (1 << 19) * SESSION_HEAP_BYTES * 5 / 4);
    }
}
