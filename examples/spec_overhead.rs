//! Measure POLaR's runtime overhead on a few mini-SPEC workloads — a
//! self-contained slice of the Figure 6 experiment (run the full sweep
//! with `cargo run --release -p polar-bench --bin tables -- fig6`).
//!
//! ```text
//! cargo run --release --example spec_overhead
//! ```

use std::time::Instant;

use polar::instrument::{instrument, InstrumentOptions};
use polar::ir::interp::run;
use polar::ir::trace::NopTracer;
use polar::prelude::*;
use polar::workloads::spec;

fn measure(module: &polar::ir::Module, mode: RandomizeMode, input: &[u8], limits: ExecLimits) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..3 {
        let mut config = RuntimeConfig { seed: 100 + rep, ..RuntimeConfig::default() };
        config.heap.capacity = 512 << 20;
        let mut rt = ObjectRuntime::new(mode, config);
        let start = Instant::now();
        let report = run(module, &mut rt, input, limits, &mut NopTracer);
        assert!(report.result.is_ok(), "{:?}", report.result);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    println!("{:<14} {:>12} {:>12} {:>10}", "app", "native (ms)", "POLaR (ms)", "overhead");
    println!("{}", "-".repeat(52));
    for name in ["429.mcf", "456.hmmer", "458.sjeng"] {
        let w = spec::by_name(name).expect("workload exists");
        let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
        let native = measure(&w.module, RandomizeMode::Native, &w.input, w.limits);
        let polar = measure(&hardened, RandomizeMode::per_allocation(), &w.input, w.limits);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.1}%",
            name,
            native,
            polar,
            (polar / native - 1.0) * 100.0
        );
    }
    println!("\nexpected shape (paper Figure 6): low single digits everywhere,");
    println!("except 458.sjeng — allocation-bound, the paper's ~30% worst case.");
}
