//! A process-wide, append-only registry of interned layout plans,
//! readable without any lock.
//!
//! The lock-free read path cannot chase an `Arc<LayoutPlan>` out of a
//! mutex-guarded shard — the whole point is not to take the mutex. So
//! published object metadata carries a small integer **plan id**
//! instead, and readers resolve it here: ids are handed out once,
//! plans are never removed or replaced, and storage is chunked behind
//! `OnceLock` so a plan's address is stable for the registry's whole
//! lifetime. A reader holding any id observed from a published
//! snapshot can therefore dereference it with two array indexations
//! and zero synchronization beyond one `Acquire` length load.
//!
//! Writers (the shards, during `record_object`) intern through a small
//! mutex; that lock is on the *allocation* path, never the read path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::plan::{LayoutPlan, PlanHash, PlanMap};

/// Plans per chunk; chunks are committed on demand and never moved.
const PLANS_PER_CHUNK: usize = 1024;
/// Chunk-directory size: the registry caps out at
/// `PLANS_PER_CHUNK * MAX_CHUNKS` distinct plans, after which `intern`
/// returns `None` and callers publish metadata without an id (readers
/// for those objects fall back to the lock — degraded, never wrong).
const MAX_CHUNKS: usize = 1024;

/// One on-demand committed chunk of published plans.
type Chunk = Box<[OnceLock<Arc<LayoutPlan>>]>;

/// Append-only shared plan storage: `intern` under a writer mutex,
/// `get` lock-free.
pub struct PlanRegistry {
    chunks: Box<[OnceLock<Chunk>]>,
    /// Number of ids published; `Release`-stored after the slot is
    /// filled, so `get(id < len)` always finds an initialized entry.
    len: AtomicU32,
    /// Writer-side dedup map (plan hash → id).
    ids: Mutex<PlanMap<u32>>,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRegistry").field("len", &self.len()).finish()
    }
}

impl Default for PlanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PlanRegistry {
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            len: AtomicU32::new(0),
            ids: Mutex::new(PlanMap::default()),
        }
    }

    /// Register `plan` (deduplicated by plan hash) and return its id,
    /// or `None` when the registry is full. Takes the writer mutex —
    /// call from allocation paths only.
    pub fn intern(&self, plan: &Arc<LayoutPlan>) -> Option<u32> {
        let mut ids = self.ids.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = ids.get(&plan.plan_hash()) {
            return Some(id);
        }
        let id = self.len.load(Ordering::Relaxed);
        let (chunk, i) = (id as usize / PLANS_PER_CHUNK, id as usize % PLANS_PER_CHUNK);
        let chunk = self.chunks.get(chunk)?;
        let chunk =
            chunk.get_or_init(|| (0..PLANS_PER_CHUNK).map(|_| OnceLock::new()).collect());
        chunk[i].set(Arc::clone(plan)).expect("fresh id slot is unset");
        self.len.store(id + 1, Ordering::Release);
        ids.insert(plan.plan_hash(), id);
        Some(id)
    }

    /// Resolve an id to its plan. Lock-free; `None` for ids never
    /// handed out.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&Arc<LayoutPlan>> {
        if id >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (chunk, i) = (id as usize / PLANS_PER_CHUNK, id as usize % PLANS_PER_CHUNK);
        self.chunks.get(chunk)?.get()?[i].get()
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Whether the registry holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held by registry bookkeeping (chunk directory + committed
    /// chunks + dedup map), excluding the plans themselves (owned by
    /// the interners that created them and counted there).
    pub fn metadata_bytes(&self) -> usize {
        let committed = self.chunks.iter().filter(|c| c.get().is_some()).count();
        std::mem::size_of_val(self.chunks.as_ref())
            + committed * PLANS_PER_CHUNK * std::mem::size_of::<OnceLock<Arc<LayoutPlan>>>()
            + self.ids.lock().unwrap_or_else(|e| e.into_inner()).capacity()
                * (std::mem::size_of::<PlanHash>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayoutEngine, RandomizationPolicy};
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_rng::{rngs::StdRng, SeedableRng};

    fn plans(n: usize) -> Vec<Arc<LayoutPlan>> {
        let info = ClassInfo::from_decl(
            ClassDecl::builder("Reg")
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I64)
                .field("c", FieldKind::I32)
                .field("d", FieldKind::I32)
                .build(),
        );
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(41);
        (0..n).map(|_| Arc::new(engine.generate(&info, &mut rng))).collect()
    }

    #[test]
    fn ids_are_dense_deduplicated_and_stable() {
        let reg = PlanRegistry::new();
        let ps = plans(5);
        let ids: Vec<u32> = ps.iter().map(|p| reg.intern(p).unwrap()).collect();
        for (i, (p, id)) in ps.iter().zip(&ids).enumerate() {
            assert_eq!(reg.intern(p), Some(*id), "re-intern must dedup");
            assert_eq!(
                reg.get(*id).unwrap().plan_hash(),
                p.plan_hash(),
                "id {i} must resolve to its plan"
            );
        }
        assert_eq!(reg.len(), ps.len());
        assert!(reg.get(ids.len() as u32).is_none());
        assert!(reg.metadata_bytes() > 0);
    }

    #[test]
    fn concurrent_readers_see_every_published_id() {
        let reg = Arc::new(PlanRegistry::new());
        let ps = plans(64);
        std::thread::scope(|scope| {
            let reader_reg = Arc::clone(&reg);
            let expected: Vec<PlanHash> = ps.iter().map(|p| p.plan_hash()).collect();
            scope.spawn(move || {
                // Spin over the growing registry: every visible id must
                // resolve, and to the right plan.
                for _ in 0..10_000 {
                    let len = reader_reg.len() as u32;
                    for id in 0..len {
                        let plan = reader_reg.get(id).expect("published id resolves");
                        assert_eq!(plan.plan_hash(), expected[id as usize]);
                    }
                }
            });
            for p in &ps {
                reg.intern(p).unwrap();
            }
        });
        assert_eq!(reg.len(), 64);
    }
}
