//! Threaded allocation-churn workload for the sharded runtime.
//!
//! The IR interpreter is single-threaded, so the concurrency experiments
//! of DESIGN §3.3 cannot reuse the mini-SPEC programs. This module
//! drives a [`ShardedRuntime`] through per-thread handles — a thread's
//! only door into the runtime: `threads` OS threads each run a seeded
//! mix of `olr_malloc` / field writes / field reads / `olr_memcpy`
//! / `olr_free` against their own oracle of expected field values, so the
//! workload doubles as a cross-thread correctness check — any lost
//! update, mis-routed address or cross-thread plan leak turns into an
//! oracle mismatch and a panic.
//!
//! The op mix is the paper's Table III churn profile boiled down: most
//! operations are member accesses against a bounded live set, with
//! allocation/free keeping the set turning over and an occasional
//! object copy.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{
    Addr, PolarRuntime, RandomizeMode, RuntimeConfig, RuntimeStats, ShardedRuntime,
};
use polar_rng::{Rng, RngExt, SplitMix64};

/// Shape of a churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Worker threads (each gets its own [`ShardedRuntime::handle`]).
    pub threads: u64,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Shard count for the runtime.
    pub shards: usize,
    /// Root seed; the runtime and every thread's op driver derive from it.
    pub seed: u64,
    /// Cap on each thread's live set; above it the next op is a free.
    pub live_cap: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { threads: 4, ops_per_thread: 10_000, shards: 4, seed: 0xC4A9, live_cap: 256 }
    }
}

/// What a churn run observed, for reporting and assertions.
#[derive(Debug, Clone, Copy)]
pub struct ChurnReport {
    /// Quiescent runtime counters summed over shards and threads.
    pub stats: RuntimeStats,
    /// Total operations executed across all threads.
    pub ops: u64,
    /// Field reads checked against the per-thread oracles (all matched,
    /// or the run would have panicked).
    pub reads_verified: u64,
}

/// The two object classes the churn mix allocates.
fn classes() -> [Arc<ClassInfo>; 2] {
    [
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("ChurnNode")
                .field("vtable", FieldKind::VtablePtr)
                .field("key", FieldKind::I64)
                .field("left", FieldKind::Ptr)
                .field("right", FieldKind::Ptr)
                .build(),
        )),
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("ChurnBuf")
                .field("len", FieldKind::I32)
                .field("cap", FieldKind::I32)
                .field("data", FieldKind::Ptr)
                .build(),
        )),
    ]
}

/// Run the churn workload and return its report.
///
/// Panics if any thread reads a field value that differs from what that
/// thread last wrote — the oracle check that makes this a stress test
/// and not just a load generator.
pub fn run_churn(mode: RandomizeMode, config: ChurnConfig) -> ChurnReport {
    let mut rt_config = RuntimeConfig::default();
    rt_config.heap.capacity = 256 << 20;
    rt_config.seed = config.seed;
    let rt = ShardedRuntime::new(mode, rt_config, config.shards);
    let classes = classes();

    let mut reads_verified = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|t| {
                let rt = &rt;
                let classes = &classes;
                scope.spawn(move || churn_thread(rt, classes, t, config))
            })
            .collect();
        for worker in workers {
            reads_verified += worker.join().expect("churn worker panicked");
        }
    });

    ChurnReport {
        stats: rt.stats(),
        ops: config.threads * config.ops_per_thread,
        reads_verified,
    }
}

/// One worker: a seeded op mix against a per-thread oracle. Returns the
/// number of oracle-verified reads.
fn churn_thread(
    rt: &ShardedRuntime,
    classes: &[Arc<ClassInfo>; 2],
    thread: u64,
    config: ChurnConfig,
) -> u64 {
    let mut h = rt.handle(thread);
    let mut driver = SplitMix64::new(config.seed ^ (0xC0FF_EE00 + thread));
    let mut live: Vec<(Addr, usize, Vec<u64>)> = Vec::new();
    let mut verified = 0u64;
    for _ in 0..config.ops_per_thread {
        let roll = if live.len() >= config.live_cap {
            9 // over the cap: force a free
        } else {
            driver.random_range(0..10u32)
        };
        match roll {
            // 30%: allocate and initialize every field.
            0..=2 => {
                let which = driver.random_range(0..classes.len());
                let info = &classes[which];
                let obj = h.olr_malloc(info).expect("churn malloc");
                let mut vals = Vec::with_capacity(info.field_count());
                for field in 0..info.field_count() {
                    let v = driver.next_u64() & 0xFFFF_FFFF;
                    h.write_field(obj, info.hash(), field, v).expect("churn init write");
                    vals.push(v);
                }
                live.push((obj, which, vals));
            }
            // 30%: read a random field, check the oracle.
            3..=5 if !live.is_empty() => {
                let i = driver.random_range(0..live.len());
                let (obj, which, vals) = &live[i];
                let info = &classes[*which];
                let field = driver.random_range(0..info.field_count());
                let got = h.read_field(*obj, info.hash(), field).expect("churn read");
                assert_eq!(
                    got, vals[field],
                    "thread {thread}: field {field} of {obj:?} lost an update"
                );
                verified += 1;
            }
            // 20%: overwrite a random field.
            6..=7 if !live.is_empty() => {
                let i = driver.random_range(0..live.len());
                let (obj, which, vals) = &mut live[i];
                let info = &classes[*which];
                let field = driver.random_range(0..info.field_count());
                let v = driver.next_u64() & 0xFFFF_FFFF;
                h.write_field(*obj, info.hash(), field, v).expect("churn write");
                vals[field] = v;
            }
            // 10%: object copy between two same-class live objects
            // (possibly src == dst: the overlap case).
            8 if live.len() >= 2 => {
                let i = driver.random_range(0..live.len());
                let j = driver.random_range(0..live.len());
                let (src, src_which, src_vals) = live[i].clone();
                let (dst, dst_which, _) = live[j];
                if src_which == dst_which {
                    let info = &classes[src_which];
                    h.olr_memcpy(dst, src, info).expect("churn memcpy");
                    live[j].2 = src_vals;
                }
            }
            // 10% (plus cap overflow): free.
            9 if !live.is_empty() => {
                let (obj, _, _) = live.swap_remove(driver.random_range(0..live.len()));
                h.olr_free(obj).expect("churn free");
            }
            _ => {}
        }
    }
    for (obj, _, _) in live {
        h.olr_free(obj).expect("churn drain free");
    }
    verified
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_balances_and_verifies_reads() {
        let report = run_churn(
            RandomizeMode::per_allocation(),
            ChurnConfig { threads: 4, ops_per_thread: 2_000, ..Default::default() },
        );
        assert!(report.stats.allocations > 0);
        assert_eq!(report.stats.allocations, report.stats.frees);
        assert_eq!(report.stats.total_detections(), 0);
        assert!(report.reads_verified > 0);
        assert_eq!(report.ops, 8_000);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let cfg = ChurnConfig { threads: 2, ops_per_thread: 1_000, ..Default::default() };
        let a = run_churn(RandomizeMode::per_allocation(), cfg);
        let b = run_churn(RandomizeMode::per_allocation(), cfg);
        // Thread-local op drivers and plan streams replay exactly, so the
        // quiescent counters must match run to run.
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.reads_verified, b.reads_verified);
    }
}
