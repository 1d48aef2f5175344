//! Million-object session-store workload for the sharded runtime.
//!
//! This is the ROADMAP's north-star scenario made executable: an
//! in-memory session/KV store holding a large population of live
//! randomized objects while serving Zipf-skewed lookup/update/refresh
//! traffic from several threads. Like [`crate::churn`], it drives a
//! [`ShardedRuntime`] directly (the IR interpreter is single-threaded),
//! each thread through its own handle — a thread's only door into the
//! runtime — and every read is checked against a per-thread oracle, so the
//! workload is simultaneously a throughput benchmark and a correctness
//! stress for the magazine front-end: a stale capsule, a lost
//! generation bump or a mis-drained remote free turns into an oracle
//! mismatch and a panic.
//!
//! Shape of a run:
//!
//! 1. **Populate.** Each thread allocates its partition of
//!    `config.sessions` session objects through its own
//!    [`ShardedRuntime::handle`] and initializes every field — at full
//!    scale this is where the store reaches ≥ 1M live objects.
//! 2. **Traffic.** After a barrier, each thread serves
//!    `config.ops_per_thread` operations against its partition with
//!    Zipf-distributed keys (rank 1 = hottest session): ~60 % field
//!    reads (oracle-checked), ~25 % field writes, ~15 % session
//!    *refreshes* (free + re-allocate + re-initialize — the allocation
//!    churn that exercises magazines, fast frees and remote-free
//!    drains while the live count stays pinned at `sessions`).
//! 3. **Report.** Per-op latencies (sampled on the traffic phase)
//!    merge into one histogram for p50/p99/p999; the quiescent runtime
//!    stats, metadata bytes per live object, heap fragmentation and
//!    magazine hit rate round out the numbers the bench gates pin.

use std::sync::Arc;
use std::time::{Duration, Instant};

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{Addr, RandomizeMode, RuntimeConfig, RuntimeStats, ShardedRuntime};
use polar_rng::{Rng, RngExt, SplitMix64, Zipf};

/// Shape of a session-store run.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Worker threads, each with its own [`ShardedRuntime::handle`],
    /// and the runtime's shard count: one home shard per thread, so
    /// every shard's arena slice is reachable.
    pub threads: u64,
    /// Live sessions held for the whole run, split evenly across
    /// threads. The full-scale benchmark uses ≥ 1M; tests scale down.
    pub sessions: u64,
    /// Traffic operations per thread after the populate phase.
    pub ops_per_thread: u64,
    /// Root seed; the runtime and every thread's drivers derive from it.
    pub seed: u64,
    /// Zipf exponent for the key distribution (0 = uniform; the
    /// classic session-store skew is ~0.99).
    pub zipf_exponent: f64,
    /// Sim-heap capacity in bytes. Must hold `sessions` live objects
    /// plus magazine slack; the full-scale run uses 512 MiB.
    pub heap_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            threads: 4,
            sessions: 40_000,
            ops_per_thread: 25_000,
            seed: 0x5E55_10E5,
            zipf_exponent: 0.99,
            heap_capacity: 256 << 20,
        }
    }
}

/// What a session-store run observed.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Quiescent runtime counters summed over shards and threads.
    pub stats: RuntimeStats,
    /// Sessions still live at the end of the run (populate keeps them
    /// live; refreshes replace, never shrink).
    pub live_objects: u64,
    /// Traffic operations executed across all threads.
    pub ops: u64,
    /// Oracle-verified reads (all matched, or the run panicked).
    pub reads_verified: u64,
    /// Wall time of the traffic phase.
    pub elapsed: Duration,
    /// Traffic throughput, summed over threads.
    pub ops_per_sec: f64,
    /// Traffic-op latency percentiles in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// POLaR bookkeeping bytes per live session: the counted metadata
    /// (slot records, class/plan side tables, plans, registry).
    pub metadata_bytes_per_live: f64,
    /// Allocator bookkeeping bytes per live session that the metadata
    /// count leaves out (the heaps' unit indexes and shuffle buffers).
    pub uncounted_bytes_per_live: f64,
    /// Heap bytes per live session (block + trap + alignment overhead
    /// included) — the figure that sizes `heap_capacity`.
    pub heap_bytes_per_live: f64,
    /// Peak-to-live heap ratio after the run: refresh churn that failed
    /// to recycle blocks would grow the peak while the live set stays
    /// pinned, so values near 1.0 mean the allocator is reusing freed
    /// blocks instead of fragmenting.
    pub fragmentation: f64,
    /// Fraction of allocations served by a magazine pop without
    /// reaching the shard lock.
    pub magazine_hit_rate: f64,
}

/// The session record: a vtable'd object with identity, freshness and
/// payload-pointer fields — the class profile of a cache entry.
fn session_class() -> Arc<ClassInfo> {
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

/// Fixed-layout latency histogram: 1 ns buckets below 4 µs, 64 ns
/// buckets to 256 µs, 4 µs buckets to 16 ms, one overflow bucket.
/// Merging is element-wise addition, so per-thread histograms combine
/// without coordination.
#[derive(Debug, Clone)]
struct LatencyHistogram {
    fine: Vec<u64>,   // [0, 4096) ns, 1 ns wide
    mid: Vec<u64>,    // [4096 ns, 256 µs), 64 ns wide
    coarse: Vec<u64>, // [256 µs, 16 ms), 4 µs wide
    overflow: u64,
    count: u64,
}

const FINE_MAX: u64 = 4_096;
const MID_MAX: u64 = 262_144;
const COARSE_MAX: u64 = 16_777_216;

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            fine: vec![0; FINE_MAX as usize],
            mid: vec![0; ((MID_MAX - FINE_MAX) / 64) as usize],
            coarse: vec![0; ((COARSE_MAX - MID_MAX) / 4_096) as usize],
            overflow: 0,
            count: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        if ns < FINE_MAX {
            self.fine[ns as usize] += 1;
        } else if ns < MID_MAX {
            self.mid[((ns - FINE_MAX) / 64) as usize] += 1;
        } else if ns < COARSE_MAX {
            self.coarse[((ns - MID_MAX) / 4_096) as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        for (a, b) in self.mid.iter_mut().zip(&other.mid) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }

    /// Lower bound of the bucket holding quantile `q` (0.0..=1.0).
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.fine.iter().enumerate() {
            seen += c;
            if seen >= target {
                return i as u64;
            }
        }
        for (i, &c) in self.mid.iter().enumerate() {
            seen += c;
            if seen >= target {
                return FINE_MAX + i as u64 * 64;
            }
        }
        for (i, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= target {
                return MID_MAX + i as u64 * 4_096;
            }
        }
        COARSE_MAX
    }
}

/// One live session and its oracle: the last values written to the
/// scalar fields (index 1..=5; `vtable` and `payload` are set once at
/// populate and checked with the rest).
struct Slot {
    addr: Addr,
    vals: [u64; 7],
}

/// Run the session-store workload and return its report.
///
/// Panics if any thread reads a field value that differs from what it
/// last wrote to that session.
pub fn run_session_store(mode: RandomizeMode, config: SessionConfig) -> SessionReport {
    assert!(config.threads >= 1 && config.sessions >= config.threads);
    let mut rt_config = RuntimeConfig::default();
    rt_config.heap.capacity = config.heap_capacity;
    rt_config.seed = config.seed;
    let rt = ShardedRuntime::new(mode, rt_config, config.threads as usize);
    let info = session_class();

    // Phase 1: populate. A separate scope, not a barrier, fences the
    // phases — if a worker panics (heap undersized, oracle mismatch)
    // the join propagates it instead of hanging the other threads at a
    // barrier that will never fill.
    let partitions: Vec<Vec<Slot>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|t| {
                let (rt, info) = (&rt, &info);
                scope.spawn(move || populate_thread(rt, info, t, config))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("session populate worker panicked"))
            .collect()
    });

    // Phase 2: traffic, timed wall-to-wall around the scope.
    let mut histogram = LatencyHistogram::new();
    let mut reads_verified = 0u64;
    let traffic_start = Instant::now();
    let results: Vec<(LatencyHistogram, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = partitions
            .into_iter()
            .enumerate()
            .map(|(t, slots)| {
                let (rt, info) = (&rt, &info);
                scope.spawn(move || traffic_thread(rt, info, t as u64, config, slots))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("session traffic worker panicked"))
            .collect()
    });
    let elapsed = traffic_start.elapsed();
    for (hist, verified) in &results {
        histogram.merge(hist);
        reads_verified += verified;
    }

    let stats = rt.stats();
    let live_objects = stats.allocations - stats.frees;
    let footprint = rt.heap_footprint();
    let ops = config.threads * config.ops_per_thread;
    let served = stats.magazine_hits + stats.magazine_refills;
    SessionReport {
        live_objects,
        ops,
        reads_verified,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ns: histogram.quantile(0.50),
        p99_ns: histogram.quantile(0.99),
        p999_ns: histogram.quantile(0.999),
        metadata_bytes_per_live: rt.estimated_metadata_bytes() as f64 / live_objects.max(1) as f64,
        uncounted_bytes_per_live: footprint.index_bytes as f64 / live_objects.max(1) as f64,
        heap_bytes_per_live: footprint.bytes_live as f64 / live_objects.max(1) as f64,
        fragmentation: footprint.bytes_peak as f64 / footprint.bytes_live.max(1) as f64,
        magazine_hit_rate: if served == 0 {
            0.0
        } else {
            stats.magazine_hits as f64 / served as f64
        },
        stats,
    }
}

/// Phase-1 worker: allocate and fully initialize this thread's
/// partition of the session population.
fn populate_thread(
    rt: &ShardedRuntime,
    info: &Arc<ClassInfo>,
    thread: u64,
    config: SessionConfig,
) -> Vec<Slot> {
    let mut h = rt.handle(thread);
    let mut driver = SplitMix64::new(config.seed ^ (0x5E55_0000 + thread));
    let partition = (config.sessions / config.threads
        + u64::from(thread < config.sessions % config.threads)) as usize;
    let mut slots: Vec<Slot> = Vec::with_capacity(partition);
    for key in 0..partition as u64 {
        let addr = h.olr_malloc(info).expect("session populate malloc");
        let mut vals = [0u64; 7];
        for (field, v) in vals.iter_mut().enumerate() {
            *v = if field == 1 { key } else { driver.next_u64() & 0xFFFF_FFFF };
            h.write_field(addr, info.hash(), field, *v).expect("session populate write");
        }
        slots.push(Slot { addr, vals });
    }
    slots
}

/// Phase-2 worker: serve Zipf-keyed traffic against this thread's
/// partition. Returns its latency histogram and verified-read count.
fn traffic_thread(
    rt: &ShardedRuntime,
    info: &Arc<ClassInfo>,
    thread: u64,
    config: SessionConfig,
    mut slots: Vec<Slot>,
) -> (LatencyHistogram, u64) {
    let mut h = rt.handle(thread);
    let mut driver = SplitMix64::new(config.seed ^ (0x7AF1_0000 + thread));

    // Zipf rank 1 = hottest session. Map rank r to slot (r - 1)
    // directly — low indices are the hot set.
    let zipf = Zipf::new(slots.len() as u64, config.zipf_exponent);
    let mut hist = LatencyHistogram::new();
    let mut verified = 0u64;
    for _ in 0..config.ops_per_thread {
        let slot = (zipf.sample(&mut driver) - 1) as usize;
        let roll = driver.random_range(0..20u32);
        let begin = Instant::now();
        match roll {
            // 60 %: lookup — read a scalar field, verify the oracle.
            0..=11 => {
                let s = &slots[slot];
                let field = 1 + driver.random_range(0..5usize);
                let got = h.read_field(s.addr, info.hash(), field).expect("session read");
                assert_eq!(
                    got, s.vals[field],
                    "thread {thread}: field {field} of session {slot} lost an update"
                );
                verified += 1;
            }
            // 25 %: update — overwrite a scalar field.
            12..=16 => {
                let s = &mut slots[slot];
                let field = 1 + driver.random_range(0..5usize);
                let v = driver.next_u64() & 0xFFFF_FFFF;
                h.write_field(s.addr, info.hash(), field, v).expect("session write");
                s.vals[field] = v;
            }
            // 15 %: refresh — retire the session object and re-allocate
            // it (new address, new randomized layout), keeping the live
            // count pinned. This is the allocation churn the magazines
            // and the lock-free free path absorb.
            _ => {
                let old = slots[slot].addr;
                h.olr_free(old).expect("session refresh free");
                let addr = h.olr_malloc(info).expect("session refresh malloc");
                let s = &mut slots[slot];
                s.addr = addr;
                for (field, v) in s.vals.iter_mut().enumerate() {
                    if field != 1 {
                        *v = driver.next_u64() & 0xFFFF_FFFF;
                    }
                    h.write_field(addr, info.hash(), field, *v).expect("session refresh write");
                }
            }
        }
        hist.record(begin.elapsed().as_nanos() as u64);
    }
    // The handle drops here: parked capsules return to the shard and
    // pending stats flush, so the caller's quiescent snapshot is exact.
    (hist, verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> SessionConfig {
        SessionConfig {
            threads: 4,
            sessions: 8_000,
            ops_per_thread: 5_000,
            heap_capacity: 64 << 20,
            ..Default::default()
        }
    }

    #[test]
    fn session_store_sustains_its_live_set() {
        let report = run_session_store(RandomizeMode::per_allocation(), smoke_config());
        assert_eq!(report.live_objects, 8_000, "populate minus refreshes must balance");
        assert_eq!(report.ops, 20_000);
        assert!(report.reads_verified > 0);
        assert_eq!(report.stats.total_detections(), 0);
        // Every allocation is magazine-served and the steady-state hit
        // rate clears the tentpole's 90 % floor.
        assert_eq!(
            report.stats.magazine_hits + report.stats.magazine_refills,
            report.stats.allocations
        );
        assert!(
            report.magazine_hit_rate >= 0.90,
            "magazine hit rate {:.3} below the 90% floor",
            report.magazine_hit_rate
        );
        // Refresh frees all take the lock-free path and drain fully.
        assert!(report.stats.fast_frees > 0);
        assert_eq!(report.stats.remote_drained, report.stats.fast_frees);
        // The histogram saw every traffic op.
        assert!(report.p50_ns > 0 && report.p50_ns <= report.p99_ns);
        assert!(report.p99_ns <= report.p999_ns);
        assert!(report.metadata_bytes_per_live > 0.0);
        assert!(report.fragmentation >= 1.0);
    }

    #[test]
    fn session_store_is_deterministic_per_seed() {
        // One thread per shard so remote-free drains interleave
        // identically run to run.
        let cfg = SessionConfig {
            threads: 2,
            sessions: 2_000,
            ops_per_thread: 2_000,
            heap_capacity: 32 << 20,
            ..Default::default()
        };
        let a = run_session_store(RandomizeMode::per_allocation(), cfg);
        let b = run_session_store(RandomizeMode::per_allocation(), cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.reads_verified, b.reads_verified);
        assert_eq!(a.live_objects, b.live_objects);
    }

    #[test]
    fn zipf_traffic_actually_skews_hot() {
        // With exponent 0.99 over 8k keys, rank 1 alone draws ~7% of
        // traffic; a uniform sampler would give it 0.0125%. Count how
        // often the hot session is touched via its oracle-checked id.
        let mut driver = SplitMix64::new(7);
        let zipf = Zipf::new(8_000, 0.99);
        let hot = (0..10_000).filter(|_| zipf.sample(&mut driver) == 1).count();
        assert!(hot > 300, "rank 1 drew only {hot} of 10k samples");
    }
}
