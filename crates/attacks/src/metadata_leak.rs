//! The Section VI-A limitation, made executable: POLaR's security rests
//! on its metadata staying secret.
//!
//! "POLaR keeps the randomized offset information per each object as its
//! metadata. There are some chances in which vulnerabilities bypass our
//! POLaR protection … and corrupt [or read] the metadata information. At
//! this point, POLaR does not provide a solution for securely keeping its
//! metadata secret" (§VI-A). The paper proposes MPX/SGX/MPK/TrustZone as
//! future work.
//!
//! This module quantifies the exposure: an attacker armed with an
//! arbitrary-read primitive over the runtime's metadata table learns the
//! victim object's layout plan and lands the corrupting write on the
//! first try — POLaR degrades to no defense. The same attacker without
//! the leak is reduced to guessing.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};

/// Outcome of one metadata-leak trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakTrial {
    /// The corrupting write landed on the function pointer.
    pub hijacked: bool,
    /// A booby trap caught the write at free time.
    pub trapped: bool,
}

/// Aggregate over many processes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakReport {
    /// Trials performed.
    pub trials: u32,
    /// Hijack rate with the metadata leak.
    pub with_leak_hijack: f64,
    /// Trap rate with the metadata leak.
    pub with_leak_trapped: f64,
    /// Hijack rate without the leak (natural-offset guessing).
    pub without_leak_hijack: f64,
    /// Trap rate without the leak.
    pub without_leak_trapped: f64,
}

fn victim_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Handler")
            .field("id", FieldKind::I64)
            .field("state", FieldKind::I64)
            .field("callback", FieldKind::FnPtr)
            .field("arg", FieldKind::I64)
            .build(),
    ))
}

const CALLBACK: usize = 2;
const FAKE: u64 = 0x4242_4242_4242_4242;

/// Whether the simulated process shields its metadata (the MPK/SGX
/// deployment the paper proposes as future work in §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataShield {
    /// Metadata readable by any arbitrary-read primitive (the prototype).
    Exposed,
    /// Metadata in a protected region: the leak primitive fails and the
    /// attacker falls back to guessing.
    Protected,
}

fn one_trial(seed: u64, leak: bool) -> LeakTrial {
    one_trial_shielded(seed, leak, MetadataShield::Exposed)
}

fn one_trial_shielded(seed: u64, leak: bool, shield: MetadataShield) -> LeakTrial {
    let info = victim_class();
    let config = RuntimeConfig { seed, ..RuntimeConfig::default() };
    let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
    let victim = rt.olr_malloc(&info).expect("alloc");
    rt.write_field(victim, info.hash(), CALLBACK, 0x1000).expect("init");

    // The attacker's raw 8-byte write primitive at victim + offset.
    let offset = if leak && shield == MetadataShield::Exposed {
        // Arbitrary-read over the metadata table (the §VI-A gap): the
        // plan reveals the callback's true location.
        u64::from(rt.object_meta(victim).expect("meta").plan.offset(CALLBACK))
    } else {
        // No leak (or the read bounced off the protected region): best
        // guess is the natural layout from the source.
        u64::from(info.natural().offset(CALLBACK))
    };
    rt.heap_mut()
        .write_u64(victim.offset(offset), FAKE)
        .expect("raw write stays in the arena");

    let hijacked = rt.read_field(victim, info.hash(), CALLBACK).expect("read") == FAKE;
    let trapped = rt.olr_free(victim).is_err();
    LeakTrial { hijacked, trapped }
}

/// Run the leak experiment against a process whose metadata lives in a
/// protected region (MPK/SGX-style): returns the leak-armed attacker's
/// hijack rate, which collapses back to the guessing rate.
pub fn experiment_protected(trials: u32) -> f64 {
    let mut hijacks = 0u32;
    for t in 0..trials {
        let seed = 0xDEAD ^ (u64::from(t) * 0x9E37_79B9);
        if one_trial_shielded(seed, true, MetadataShield::Protected).hijacked {
            hijacks += 1;
        }
    }
    f64::from(hijacks) / f64::from(trials.max(1))
}

/// Run the experiment over `trials` simulated processes.
pub fn experiment(trials: u32) -> LeakReport {
    let mut report = LeakReport { trials, ..Default::default() };
    for t in 0..trials {
        let seed = 0xDEAD ^ (u64::from(t) * 0x9E37_79B9);
        let with = one_trial(seed, true);
        let without = one_trial(seed, false);
        report.with_leak_hijack += f64::from(u8::from(with.hijacked));
        report.with_leak_trapped += f64::from(u8::from(with.trapped));
        report.without_leak_hijack += f64::from(u8::from(without.hijacked));
        report.without_leak_trapped += f64::from(u8::from(without.trapped));
    }
    let n = f64::from(trials.max(1));
    report.with_leak_hijack /= n;
    report.with_leak_trapped /= n;
    report.without_leak_hijack /= n;
    report.without_leak_trapped /= n;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_leak_defeats_polar() {
        let report = experiment(40);
        // With the leak: every write lands exactly on the callback, no
        // trap is touched — POLaR offers nothing (the §VI-A admission).
        assert_eq!(report.with_leak_hijack, 1.0, "{report:?}");
        assert_eq!(report.with_leak_trapped, 0.0, "{report:?}");
        // Without it, the guess mostly misses and traps fire often.
        assert!(report.without_leak_hijack < 0.5, "{report:?}");
        assert!(report.without_leak_trapped > 0.2, "{report:?}");
    }

    #[test]
    fn protected_metadata_restores_the_defense() {
        let exposed = experiment(40);
        let protected_rate = experiment_protected(40);
        assert_eq!(exposed.with_leak_hijack, 1.0);
        assert!(
            protected_rate <= exposed.without_leak_hijack + 1e-9,
            "shielded metadata must reduce the leak attacker to guessing:              {protected_rate} vs {}",
            exposed.without_leak_hijack
        );
    }

    #[test]
    fn leak_trials_are_deterministic_per_seed() {
        assert_eq!(one_trial(7, true), one_trial(7, true));
        assert_eq!(one_trial(7, false), one_trial(7, false));
    }
}
