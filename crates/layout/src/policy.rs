//! Randomization policies: what the layout engine is allowed to do.

use std::fmt;

/// How member order is permuted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PermuteMode {
    /// No permutation (dummies may still be inserted).
    Off,
    /// Full shuffle of the member order — POLaR's default.
    #[default]
    Full,
    /// `randstruct`-style partial shuffle: members are packed into
    /// cache-line-sized groups in declaration order and only shuffled
    /// *within* each group, limiting the locality damage (Section II-C).
    CacheLineAware {
        /// Cache line size in bytes (64 on the paper's testbed).
        line_size: u32,
    },
}

impl fmt::Display for PermuteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermuteMode::Off => write!(f, "off"),
            PermuteMode::Full => write!(f, "full"),
            PermuteMode::CacheLineAware { line_size } => {
                write!(f, "cache-line-aware({line_size})")
            }
        }
    }
}

/// Dummy member insertion policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DummyPolicy {
    /// Minimum number of dummy members inserted per allocation.
    pub min: u32,
    /// Maximum number of dummy members inserted per allocation.
    pub max: u32,
    /// Size of each dummy member in bytes.
    pub size: u32,
    /// Arm dummies as booby traps (canary-filled; the runtime checks them).
    pub booby_trap: bool,
    /// Guarantee a booby-trapped dummy immediately *before* every pointer
    /// member, the overflow-detection trick of Section IV-A3.
    pub guard_pointers: bool,
}

impl Default for DummyPolicy {
    fn default() -> Self {
        DummyPolicy { min: 1, max: 3, size: 8, booby_trap: true, guard_pointers: true }
    }
}

impl DummyPolicy {
    /// A policy that never inserts dummies.
    pub fn none() -> Self {
        DummyPolicy { min: 0, max: 0, size: 8, booby_trap: false, guard_pointers: false }
    }
}

/// The full randomization policy consumed by
/// [`LayoutEngine`](crate::LayoutEngine).
///
/// The default is POLaR's evaluation configuration: full permutation plus
/// one to three booby-trapped dummies with pointer guarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomizationPolicy {
    /// Permutation mode.
    pub permute: PermuteMode,
    /// Dummy insertion policy.
    pub dummies: DummyPolicy,
}

impl RandomizationPolicy {
    /// Permutation only — no dummies, no traps. The closest analogue of
    /// DSLR/RFOR's transformation.
    pub fn permute_only() -> Self {
        RandomizationPolicy { permute: PermuteMode::Full, dummies: DummyPolicy::none() }
    }

    /// The `randstruct` analogue: cache-line-aware shuffle, no dummies.
    pub fn randstruct_like() -> Self {
        RandomizationPolicy {
            permute: PermuteMode::CacheLineAware { line_size: 64 },
            dummies: DummyPolicy::none(),
        }
    }

    /// No randomization at all (the plan collapses to the natural layout).
    pub fn off() -> Self {
        RandomizationPolicy { permute: PermuteMode::Off, dummies: DummyPolicy::none() }
    }
}

impl fmt::Display for RandomizationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "permute={} dummies={}..={}x{}B{}{}",
            self.permute,
            self.dummies.min,
            self.dummies.max,
            self.dummies.size,
            if self.dummies.booby_trap { " trapped" } else { "" },
            if self.dummies.guard_pointers { " ptr-guarded" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_configuration() {
        let p = RandomizationPolicy::default();
        assert_eq!(p.permute, PermuteMode::Full);
        assert!(p.dummies.booby_trap);
        assert!(p.dummies.guard_pointers);
        assert!(p.dummies.min >= 1);
    }

    #[test]
    fn presets_differ() {
        assert_ne!(RandomizationPolicy::default(), RandomizationPolicy::permute_only());
        assert_eq!(
            RandomizationPolicy::randstruct_like().permute,
            PermuteMode::CacheLineAware { line_size: 64 }
        );
        assert_eq!(RandomizationPolicy::off().permute, PermuteMode::Off);
    }

    #[test]
    fn display_summarizes_policy() {
        let s = RandomizationPolicy::default().to_string();
        assert!(s.contains("permute=full"));
        assert!(s.contains("trapped"));
        let s = RandomizationPolicy::randstruct_like().to_string();
        assert!(s.contains("cache-line-aware(64)"));
    }
}
