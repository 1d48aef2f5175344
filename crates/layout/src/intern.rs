//! Plan interning: the paper's metadata deduplication optimization.

use std::sync::Arc;

use crate::plan::{LayoutPlan, PlanHash, PlanMap};

/// Interns [`LayoutPlan`]s by content hash so that objects which happen to
/// draw structurally identical layouts share one metadata record.
///
/// Section V-B: "Polar remove[s] the duplicate metadata when two objects
/// have the same randomized memory layout." For small classes the number
/// of distinct layouts is tiny (a 3-field class has only a handful), so
/// interning collapses most per-object metadata.
///
/// Each interned plan carries its precomputed dense access table
/// ([`LayoutPlan::access_table`](crate::LayoutPlan::access_table)), so
/// deduplication shares those tables too: one `(offset, width)` table
/// per *distinct layout*, not per object — the memory the hot-path
/// overhaul added is covered by the same dedup argument as the plans
/// themselves.
///
/// ```
/// use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
/// use polar_layout::{LayoutPlan, PlanInterner};
///
/// let info = ClassInfo::from_decl(
///     ClassDecl::builder("T").field("x", FieldKind::I32).build(),
/// );
/// let mut interner = PlanInterner::new();
/// let a = interner.intern(LayoutPlan::natural_for(&info));
/// let b = interner.intern(LayoutPlan::natural_for(&info));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(interner.unique_plans(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanInterner {
    plans: PlanMap<Arc<LayoutPlan>>,
    hits: u64,
    misses: u64,
}

impl PlanInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a plan, returning the shared record.
    pub fn intern(&mut self, plan: LayoutPlan) -> Arc<LayoutPlan> {
        match self.plans.get(&plan.plan_hash()) {
            Some(existing) => {
                self.hits += 1;
                Arc::clone(existing)
            }
            None => {
                self.misses += 1;
                let arc = Arc::new(plan);
                self.plans.insert(arc.plan_hash(), Arc::clone(&arc));
                arc
            }
        }
    }

    /// Look up an already-interned plan by hash.
    pub fn get(&self, hash: PlanHash) -> Option<&Arc<LayoutPlan>> {
        self.plans.get(&hash)
    }

    /// Number of distinct plans stored.
    pub fn unique_plans(&self) -> usize {
        self.plans.len()
    }

    /// How many intern calls were satisfied by an existing record.
    pub fn dedup_hits(&self) -> u64 {
        self.hits
    }

    /// How many intern calls created a new record.
    pub fn dedup_misses(&self) -> u64 {
        self.misses
    }

    /// Iterate over the distinct interned plans.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<LayoutPlan>> {
        self.plans.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LayoutEngine;
    use crate::policy::RandomizationPolicy;
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_rng::rngs::StdRng;
    use polar_rng::SeedableRng;

    fn tiny_class() -> ClassInfo {
        ClassInfo::from_decl(
            ClassDecl::builder("Pair")
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I64)
                .build(),
        )
    }

    #[test]
    fn identical_plans_dedup() {
        let info = tiny_class();
        let mut interner = PlanInterner::new();
        let a = interner.intern(LayoutPlan::natural_for(&info));
        let b = interner.intern(LayoutPlan::natural_for(&info));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.unique_plans(), 1);
        assert_eq!(interner.dedup_hits(), 1);
        assert_eq!(interner.dedup_misses(), 1);
    }

    #[test]
    fn small_class_saturates_plan_space() {
        // A 2-field permute-only class has exactly 2 layouts; hundreds of
        // allocations intern down to at most 2 records.
        let info = tiny_class();
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(11);
        let mut interner = PlanInterner::new();
        for _ in 0..200 {
            interner.intern(engine.generate(&info, &mut rng));
        }
        assert!(interner.unique_plans() <= 2);
        assert!(interner.dedup_hits() >= 198);
    }

    #[test]
    fn lookup_by_hash() {
        let info = tiny_class();
        let mut interner = PlanInterner::new();
        let plan = interner.intern(LayoutPlan::natural_for(&info));
        assert!(interner.get(plan.plan_hash()).is_some());
        assert!(interner.get(crate::plan::PlanHash(0)).is_none());
    }
}
