//! TaintClass demo: discover which classes untrusted input can influence,
//! then harden only those (the paper's Figure 3 feedback loop), including
//! the coverage-guided fuzzing variant of Section IV-B2.
//!
//! ```text
//! cargo run --release --example taint_discovery
//! ```

use polar::fuzz::taintclass_campaign;
use polar::prelude::*;
use polar::workloads::minipng;

fn main() {
    // ------------------------------------------------------------------
    // 1. Direct TaintClass analysis of the minipng parser on a
    //    well-formed image.
    // ------------------------------------------------------------------
    let png = minipng::build();
    let input = minipng::safe_input();
    let (report, exec) =
        analyze(&png.module, &input, ExecLimits::default(), &TaintConfig::default());
    assert!(exec.result.is_ok());
    println!("TaintClass over minipng (single benign input):");
    print!("{}", report.render(&png.module.registry));

    // ------------------------------------------------------------------
    // 2. The full campaign: coverage-guided fuzzing discovers inputs that
    //    reach more code, and taint analysis of the corpus widens the
    //    object list (Section IV-B2's DFSan + libFuzzer combination).
    // ------------------------------------------------------------------
    println!("\nfuzzing for coverage (2 000 execs) + corpus-wide taint analysis…");
    let (campaign_report, stats) = taintclass_campaign(
        &png.module,
        &[input.clone(), vec![0x89]],
        2_000,
        ExecLimits::steps(200_000),
        0xF00D,
    );
    println!("  fuzzer: {stats}");
    println!(
        "  campaign-tainted classes: {}",
        campaign_report.tainted_class_count()
    );

    // ------------------------------------------------------------------
    // 3. Feed the findings back into the instrumentation pass: only the
    //    input-dependent classes get randomized.
    // ------------------------------------------------------------------
    let (polar, feedback) = Polar::new().targets_from_taintclass(
        &png.module,
        std::slice::from_ref(&input),
        ExecLimits::default(),
    );
    let hardened = polar.harden(&png.module);
    println!(
        "\nselective hardening: {} target classes → {}",
        feedback.tainted_class_count(),
        hardened.report
    );
    let run = hardened.run(&input);
    assert!(run.result.is_ok());
    println!("hardened parser on the benign image: OK ({})", run.stats);
}
