//! Cross-crate security properties: the paper's headline claims, checked
//! end to end.

use polar::attacks::harness::{run_attack, trials, AttackOutcome, Attacker, Defense};
use polar::attacks::scenarios::ScenarioKind;
use polar::attacks::search::{run_campaign, CampaignBudget, SecMode};
use polar::attacks::{cve, diversity, scenarios};

#[test]
fn claim_native_binaries_fall_deterministically() {
    for s in scenarios::all() {
        let stats = trials(&s, |_| Defense::Native, Attacker::BinaryAware, 8);
        assert_eq!(stats.hijacked, 8, "{}", s.kind.label());
    }
}

#[test]
fn claim_i_public_binary_breaks_static_olr_but_not_polar() {
    // Paper Section III-B1 (hidden binary problem): once the attacker has
    // the binary, compile-time OLR offers nothing; POLaR's randomization
    // survives binary disclosure.
    //
    // The binary seed must be one whose static permutation leaves every
    // scenario exploitable — the forward-only intra-object write only
    // reaches the pointer when this binary's layout put the buffer before
    // it (see the all-or-nothing note in attacks::harness). Seed 17 is
    // such a binary under the in-tree RNG.
    for s in scenarios::all() {
        let olr = trials(
            &s,
            |_| Defense::StaticOlr { binary_seed: 17 },
            Attacker::BinaryAware,
            10,
        );
        assert_eq!(olr.hijack_rate(), 1.0, "{}: {olr}", s.kind.label());

        let polar = trials(&s, |t| Defense::polar(7000 + t), Attacker::BinaryAware, 30);
        assert!(
            polar.hijack_rate() < 0.35,
            "{}: POLaR hijack rate too high: {polar}",
            s.kind.label()
        );
    }
}

#[test]
fn all_scorecard_modes_meet_their_detection_contract() {
    // Every scenario, every runtime mode of the scorecard, one contract
    // per mode:
    //   native / static-olr (binary known)  -> deterministic hijack, zero
    //                                          detections
    //   polar / polar+placement / sharded   -> probabilistic bypass only;
    //                                          corrupting reads (confusion,
    //                                          UAF) are reliably detected
    //   polar-stateless                     -> keyed permutation still
    //                                          breaks determinism; the
    //                                          metadata checks (not traps)
    //                                          still catch corruption
    type Factory = Box<dyn Fn(u64) -> Defense>;
    let modes: Vec<(&str, Factory)> = vec![
        ("native", Box::new(|_| Defense::Native)),
        ("static-olr", Box::new(|_| Defense::StaticOlr { binary_seed: 17 })),
        ("polar", Box::new(|t| Defense::polar(7000 + t))),
        ("polar+placement", Box::new(|t| Defense::polar_placement(7000 + t))),
        ("polar-stateless", Box::new(|t| Defense::polar_stateless(7000 + t))),
        ("sharded", Box::new(|t| Defense::sharded(7000 + t))),
    ];
    for s in scenarios::all() {
        let corrupting =
            matches!(s.kind, ScenarioKind::TypeConfusion | ScenarioKind::UseAfterFree);
        for (label, defense) in &modes {
            let stats = trials(&s, defense, Attacker::BinaryAware, 16);
            let tag = format!("{}/{label}", s.kind.label());
            match *label {
                "native" | "static-olr" => {
                    assert_eq!(stats.hijacked, 16, "{tag}: {stats}");
                    assert_eq!(stats.detected, 0, "{tag}: {stats}");
                }
                "polar" | "polar+placement" | "sharded" => {
                    assert!(stats.hijack_rate() < 0.5, "{tag}: {stats}");
                    if corrupting {
                        assert!(stats.detection_rate() > 0.9, "{tag}: {stats}");
                    }
                }
                "polar-stateless" => {
                    assert!(stats.hijack_rate() < 1.0, "{tag}: {stats}");
                    if corrupting {
                        assert!(stats.detection_rate() > 0.9, "{tag}: {stats}");
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn adaptive_groomer_defeats_static_layouts_but_not_polar() {
    // The evolved attacker (search loop over allocation/free/spray/probe
    // tapes) lands the heap groom essentially always against a fixed
    // layout, and stays probabilistic against per-allocation
    // randomization — with the booby traps reporting most failed tries.
    let native = run_campaign("heap-groom", SecMode::Native, CampaignBudget::quick(), 0xCAFE);
    let olr = run_campaign("heap-groom", SecMode::StaticOlr, CampaignBudget::quick(), 0xCAFE);
    let polar = run_campaign("heap-groom", SecMode::Polar, CampaignBudget::quick(), 0xCAFE);
    assert!(native.bypass_rate() > 0.9, "{native:?}");
    assert!(olr.bypass_rate() > 0.9, "{olr:?}");
    assert!(polar.bypass_rate() < 0.5, "{polar:?}");
    assert!(polar.detections > 0, "traps should flag failed grooms: {polar:?}");
}

#[test]
fn placement_tightens_the_groom_and_owns_the_distance_bet() {
    // The +placement column's two claims at the pinned gate seed: the
    // Heelan-style groom gets strictly harder than layout-only polar,
    // and the pure distance predictor — which layout randomization
    // cannot touch — collapses only under placement.
    let seed = 0x5EC5_CA4D;
    let polar = run_campaign("heap-groom", SecMode::Polar, CampaignBudget::quick(), seed);
    let placed =
        run_campaign("heap-groom", SecMode::PolarPlacement, CampaignBudget::quick(), seed);
    assert!(
        placed.bypass_rate() < polar.bypass_rate(),
        "placement should lower the groom bypass: {placed:?} vs {polar:?}"
    );

    let layout_only =
        run_campaign("place-groom", SecMode::Polar, CampaignBudget::quick(), seed);
    let placed =
        run_campaign("place-groom", SecMode::PolarPlacement, CampaignBudget::quick(), seed);
    assert!(
        layout_only.bypass_rate() > 0.9,
        "layout randomization leaves addresses predictable: {layout_only:?}"
    );
    assert!(
        placed.bypass_rate() < 0.5,
        "placement should break the distance bet: {placed:?}"
    );
}

#[test]
fn adaptive_campaigns_replay_byte_identically() {
    // The whole campaign — search, minimization, evaluation — is a pure
    // function of (scenario, mode, budget, seed).
    let a = run_campaign("misaligned-probe", SecMode::PolarStateless, CampaignBudget::quick(), 99);
    let b = run_campaign("misaligned-probe", SecMode::PolarStateless, CampaignBudget::quick(), 99);
    assert_eq!(a, b);
}

#[test]
fn claim_ii_replay_is_nondeterministic_under_polar() {
    // Paper Section III-B2 (reproduction problem): static OLR behaves
    // identically on every re-execution; POLaR does not.
    let s = scenarios::overflow();
    let olr = trials(
        &s,
        |_| Defense::StaticOlr { binary_seed: 9 },
        Attacker::BinaryAware,
        12,
    );
    assert_eq!(olr.determinism(), 1.0);

    let polar = trials(&s, |t| Defense::polar(31 + t * 17), Attacker::BinaryAware, 40);
    assert!(polar.determinism() < 1.0, "POLaR replay must vary: {polar}");
}

#[test]
fn metadata_checks_catch_confusion_and_uaf() {
    for s in [scenarios::type_confusion(), scenarios::use_after_free()] {
        let outcome = run_attack(&s, &Defense::polar(0x600D), Attacker::BinaryAware);
        assert_eq!(outcome, AttackOutcome::Detected, "{}", s.kind.label());
    }
}

#[test]
fn disabling_detections_still_leaves_probabilistic_defense() {
    // Ablation: with every check off, the pure layout randomization must
    // still break deterministic exploitation.
    let s = scenarios::overflow();
    let stats = trials(
        &s,
        |t| Defense::Polar { process_seed: 0xAB + t, detect: false },
        Attacker::BinaryAware,
        30,
    );
    assert!(stats.detected == 0);
    assert!(
        stats.hijack_rate() < 0.5,
        "layout entropy alone should defeat most attempts: {stats}"
    );
}

#[test]
fn redzones_stop_inter_but_not_intra_object_overflows() {
    // Paper §VII-C: redzone-based approaches "allow out-of-bound access
    // that falls into other objects" — more precisely, they catch
    // block-crossing accesses but are blind to overflows that stay
    // *inside* one object. POLaR covers both.
    let inter = scenarios::overflow();
    let intra = scenarios::intra_object_overflow();

    // Inter-object: the redzone fires.
    let rz_inter = run_attack(&inter, &Defense::Redzone, Attacker::BinaryAware);
    assert_eq!(rz_inter, AttackOutcome::Detected, "redzone must catch block crossing");

    // Intra-object: the redzone is blind — deterministic hijack.
    let rz_intra = run_attack(&intra, &Defense::Redzone, Attacker::BinaryAware);
    assert_eq!(rz_intra, AttackOutcome::Hijacked, "in-object overflow evades redzones");

    // POLaR handles the intra-object case probabilistically + traps.
    let polar = trials(&intra, |t| Defense::polar(0xF00 + t), Attacker::BinaryAware, 30);
    assert!(
        polar.hijack_rate() < 0.5,
        "POLaR should break the in-object overflow: {polar}"
    );
    assert!(polar.detected > 0, "guard dummies should trip sometimes: {polar}");

    // Redzones (with quarantine) also catch the dangling access — but
    // remain blind to type confusion, which POLaR detects.
    let rz_uaf = run_attack(&scenarios::use_after_free(), &Defense::Redzone, Attacker::BinaryAware);
    assert_eq!(rz_uaf, AttackOutcome::Detected, "ASan-style quarantine catches UAF");
    let rz_conf =
        run_attack(&scenarios::type_confusion(), &Defense::Redzone, Attacker::BinaryAware);
    assert_eq!(rz_conf, AttackOutcome::Hijacked, "redzones cannot see type confusion");
}

#[test]
fn figure2_diversity_ordering() {
    let rows = diversity::figure2(48);
    let native = &rows[0];
    let olr = &rows[1];
    let polar = &rows[2];
    assert_eq!(native.distinct_within_run, 1);
    assert!(native.identical_across_runs);
    assert_eq!(olr.distinct_within_run, 1);
    assert!(olr.identical_across_runs);
    assert!(polar.distinct_within_run > 10);
    assert!(!polar.identical_across_runs);
}

#[test]
fn cve_suite_native_exploits_polar_mitigations() {
    let evals = cve::evaluate_all(0x1234);
    assert_eq!(evals.len(), 6);
    for eval in &evals {
        assert!(eval.native_exploited, "{eval}");
    }
    // Memory-corruption CVEs (all but the null-deref DoS) are either
    // stopped or detected by POLaR.
    for eval in evals.iter().filter(|e| e.info.id != "CVE-2016-10087") {
        assert!(!eval.polar_exploited() || eval.polar_detected(), "{eval}");
    }
}

#[test]
fn table4_ground_truth_is_fully_discovered() {
    for row in cve::table4() {
        assert!(row.covered, "{row}");
    }
}
