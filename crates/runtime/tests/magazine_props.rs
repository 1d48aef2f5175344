//! Seeded property: the magazine front-end keeps the shard engine's
//! generation discipline (the deterministic half of the recycling
//! torture tests in `sharded.rs`).
//!
//! A generated malloc/free tape is replayed twice — once through a
//! [`ShardHandle`](polar_runtime::ShardHandle) (batched magazine
//! reservations, lock-free frees) and once on a plain [`ObjectRuntime`],
//! the engine every shard runs under its mutex — and both replays must
//! satisfy the same record-generation invariants:
//!
//! * **Fresh slots start at generation 1.** The first record a heap
//!   address ever carries is generation 1, magazine-armed or not.
//! * **Recycling bumps by exactly one.** When an address the tape
//!   freed comes back from a later malloc, its record generation is
//!   exactly the freed generation plus one — the re-arm bumped it once,
//!   whether that re-arm happened in a plain `olr_malloc` or in a
//!   batched magazine refill. No skips (a slot silently cycling through
//!   extra lives) and no stalls (a stale generation surviving reuse,
//!   which would let a dangling pointer's generation check pass).
//! * **Freeing never bumps.** Immediately after a free the record is
//!   `Freed` and keeps the generation it was allocated with; the bump
//!   belongs to the *next* occupant.
//! * **Reference-side freed records are inert.** On the plain engine,
//!   every model-freed address keeps its `Freed` record bit-stable
//!   until reuse. (Through the magazine this sweep is deliberately
//!   skipped: a refill may legitimately re-arm a freed block into a
//!   parked capsule — `Live`, generation bumped — before the tape pops
//!   it, so freed records are only point-checked at the free itself.)
//! * **Counter parity at quiescence.** Both replays execute the same
//!   allocations and frees; the magazine replay must serve every
//!   allocation from the magazine and every free from the lock-free
//!   claim path (`fast_frees == frees`, all claims drained), while the
//!   plain engine must leave every magazine and fast-free counter at
//!   zero.
//!
//! Violations shrink on the op tape, so a failure reports a minimal
//! malloc/free sequence plus a replayable seed.

use std::collections::HashMap;

use polar_check::{just, one_of, vec as vec_of, Config, StrategyExt};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{
    Addr, ObjectRuntime, ObjectState, RandomizeMode, RuntimeConfig, RuntimeError, RuntimeStats,
    ShardHandle, ShardedRuntime,
};
use std::sync::Arc;

/// One tape op. Free indices are reduced modulo the live set at
/// execution time so every generated value stays executable while the
/// shrinker deletes earlier ops.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate one more tracked object.
    Malloc,
    /// Free the `i % live`-th live object.
    Free(usize),
}

fn test_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Recycled")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .build(),
    ))
}

fn config() -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    // Small arena so tapes actually recycle blocks instead of streaming
    // through fresh ones.
    config.heap.capacity = 1 << 16;
    config.seed = 0xB00C_5EED;
    config
}

/// The allocation front-end a tape replays through.
trait FrontEnd {
    /// Label for failure messages.
    const NAME: &'static str;
    /// Whether freed records must stay untouched until the tape reuses
    /// them (false where a refill may re-arm them into parked capsules).
    const FREED_INERT: bool;
    fn malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError>;
    fn free(&mut self, obj: Addr) -> Result<(), RuntimeError>;
    /// `(state, generation)` of the record at `obj`.
    fn record(&self, obj: Addr) -> Option<(ObjectState, u64)>;
    /// Quiescent counters.
    fn quiesce(&mut self) -> RuntimeStats;
}

impl FrontEnd for ObjectRuntime {
    const NAME: &'static str = "object runtime";
    const FREED_INERT: bool = true;

    fn malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        self.olr_malloc(info)
    }

    fn free(&mut self, obj: Addr) -> Result<(), RuntimeError> {
        self.olr_free(obj)
    }

    fn record(&self, obj: Addr) -> Option<(ObjectState, u64)> {
        self.object_meta(obj).map(|m| (m.state, m.generation))
    }

    fn quiesce(&mut self) -> RuntimeStats {
        self.stats()
    }
}

impl FrontEnd for ShardHandle<'_> {
    const NAME: &'static str = "magazine";
    const FREED_INERT: bool = false;

    fn malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        self.olr_malloc(info)
    }

    fn free(&mut self, obj: Addr) -> Result<(), RuntimeError> {
        self.olr_free(obj)
    }

    fn record(&self, obj: Addr) -> Option<(ObjectState, u64)> {
        self.runtime().object_meta(obj).map(|m| (m.state, m.generation))
    }

    fn quiesce(&mut self) -> RuntimeStats {
        self.flush_stats();
        self.runtime().stats()
    }
}

/// Replay `ops` through `fe`, checking the generation discipline after
/// every op. Returns the quiescent counters and the executed
/// `(mallocs, frees)`.
fn replay<F: FrontEnd>(ops: &[Op], fe: &mut F) -> Result<(RuntimeStats, u64, u64), String> {
    let name = F::NAME;
    let info = test_class();
    let mut live: Vec<Addr> = Vec::new();
    // Latest generation observed per address, across lives.
    let mut last_gen: HashMap<u64, u64> = HashMap::new();
    // Model-freed addresses (not yet reused) and their frozen generation.
    let mut freed_gen: HashMap<u64, u64> = HashMap::new();
    let (mut mallocs, mut frees) = (0u64, 0u64);

    for op in ops {
        match op {
            Op::Malloc => {
                let obj = fe.malloc(&info).map_err(|e| format!("{name}: malloc failed: {e}"))?;
                mallocs += 1;
                let (state, generation) = fe
                    .record(obj)
                    .ok_or_else(|| format!("{name}: fresh {obj:?} has no record"))?;
                if state != ObjectState::Live {
                    return Err(format!("{name}: fresh {obj:?} is {state:?}, not Live"));
                }
                match last_gen.get(&obj.0) {
                    None if generation != 1 => {
                        return Err(format!(
                            "{name}: first record of {obj:?} starts at generation {generation}"
                        ));
                    }
                    Some(&g) if generation != g + 1 => {
                        return Err(format!(
                            "{name}: recycled {obj:?} went generation {g} -> {generation}; \
                             recycling must bump by exactly one"
                        ));
                    }
                    _ => {}
                }
                last_gen.insert(obj.0, generation);
                freed_gen.remove(&obj.0);
                live.push(obj);
            }
            Op::Free(i) => {
                if live.is_empty() {
                    continue; // index op on an empty live set: no-op
                }
                let obj = live.remove(i % live.len());
                fe.free(obj).map_err(|e| format!("{name}: free failed: {e}"))?;
                frees += 1;
                let (state, generation) = fe
                    .record(obj)
                    .ok_or_else(|| format!("{name}: freed {obj:?} lost its record"))?;
                if state != ObjectState::Freed {
                    return Err(format!("{name}: just-freed {obj:?} is {state:?}, not Freed"));
                }
                if generation != last_gen[&obj.0] {
                    return Err(format!(
                        "{name}: free of {obj:?} moved its generation {} -> {generation}; \
                         the bump belongs to the next occupant",
                        last_gen[&obj.0]
                    ));
                }
                freed_gen.insert(obj.0, generation);
            }
        }
        if F::FREED_INERT {
            for (&a, &g) in &freed_gen {
                let (state, generation) = fe
                    .record(Addr(a))
                    .ok_or_else(|| format!("{name}: freed {a:#x} lost its record"))?;
                if state != ObjectState::Freed || generation != g {
                    return Err(format!(
                        "{name}: freed {a:#x} drifted to ({state:?}, gen {generation}) \
                         while unreused"
                    ));
                }
            }
        }
    }

    let stats = fe.quiesce();
    if stats.allocations != mallocs || stats.frees != frees {
        return Err(format!(
            "{name}: counter drift: {mallocs} mallocs / {frees} frees executed, \
             stats say {} / {}",
            stats.allocations, stats.frees
        ));
    }
    Ok((stats, mallocs, frees))
}

/// Same tape through the magazine front-end and through the plain
/// engine the shard mutex runs.
#[allow(clippy::ptr_arg)]
fn generation_discipline(ops: &Vec<Op>) -> Result<(), String> {
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config(), 1);
    let (stats, mallocs, frees) = replay(ops, &mut rt.handle(0))?;
    if stats.magazine_hits + stats.magazine_refills != mallocs {
        return Err(format!(
            "magazine served {} of {mallocs} allocations",
            stats.magazine_hits + stats.magazine_refills
        ));
    }
    if stats.fast_frees != frees {
        return Err(format!("{} of {frees} frees fell back to the mutex", stats.fast_frees));
    }
    if stats.remote_drained != stats.fast_frees {
        return Err(format!(
            "{} claims drained of {} fast frees at quiescence",
            stats.remote_drained, stats.fast_frees
        ));
    }

    let mut reference = ObjectRuntime::new(RandomizeMode::per_allocation(), config());
    let (stats, _, _) = replay(ops, &mut reference)?;
    if stats.magazine_hits + stats.magazine_refills + stats.magazine_returns
        + stats.fast_frees
        + stats.remote_drained
        != 0
    {
        return Err(format!(
            "the plain engine counted front-end events: hits {} refills {} returns {} \
             fast {} drained {}",
            stats.magazine_hits,
            stats.magazine_refills,
            stats.magazine_returns,
            stats.fast_frees,
            stats.remote_drained
        ));
    }
    Ok(())
}

#[test]
fn magazine_recycling_matches_mutex_generation_discipline() {
    let op = one_of![just(Op::Malloc), (0usize..64).prop_map(Op::Free)];
    // Tapes long enough to span several 32-capsule refills, so freed
    // blocks come back through a refill within one tape.
    let ops = vec_of(op, 0..160);
    // Fixed config: deterministic in CI regardless of POLAR_CHECK_* env.
    let config = Config { cases: 64, seed: 0x4E0C_9C1E, max_shrink_steps: 4096, regressions: None };
    polar_check::check_with(config, "magazine_generation_discipline", &ops, generation_discipline);
}
