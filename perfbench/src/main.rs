//! POLaR benchmark: end-to-end and per-layer metrics on three workloads.
//!
//! ```text
//! perfbench --workload <ir_sjeng|session_read|session_churn|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `all` runs the three workloads in turn and names each metric in the
//! result line `<workload>.<metric>`.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) records spans at every layer boundary the
//! benchmark calls across and reports the per-layer metrics. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The lines before it restate every metric by
//! name and unit, plus the failed-op share and the run's shape. Any
//! failed op (an oracle mismatch, a runtime error, or a detection on
//! benign traffic) makes the run exit with code 1.

mod ir;
mod report;
mod session;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use polar_runtime::RuntimeStats;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::{Name, Tracer};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for runtime randomization, key streams and program input.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runtime-layer ratios from a stats delta.
pub fn set_runtime_ratios(out: &mut Outcome, s: &RuntimeStats) {
    out.set(
        "runtime.site_ic_hit_ratio",
        ratio(s.site_ic_hits, s.site_ic_hits + s.site_ic_misses),
    );
    out.set(
        "runtime.offset_cache_hit_ratio",
        ratio(s.cache_hits, s.member_accesses),
    );
    out.set("runtime.pool_hit_ratio", ratio(s.pool_hits, s.allocations));
    out.set(
        "runtime.stateless_share",
        ratio(s.stateless_allocs, s.allocations),
    );
    out.set("layout.unique_plans", s.unique_plans as f64);
    out.set("layout.dedup_saved", s.dedup_saved as f64);
    out.set("layout.pool_refills", s.pool_refills as f64);
}

/// Handle-layer metrics from the traced clients' spans and the traffic
/// stats delta; all zero for a workload that never calls a handle.
pub fn set_handle_metrics(out: &mut Outcome, tracer: Option<&Tracer>, s: Option<&RuntimeStats>) {
    for (name, [calls, ns, p99]) in [
        (
            Name::HRead,
            [
                "handle.read_field.calls",
                "handle.read_field.ns_per_call",
                "handle.read_field.p99_ns",
            ],
        ),
        (
            Name::HWrite,
            [
                "handle.write_field.calls",
                "handle.write_field.ns_per_call",
                "handle.write_field.p99_ns",
            ],
        ),
        (
            Name::HMalloc,
            [
                "handle.olr_malloc.calls",
                "handle.olr_malloc.ns_per_call",
                "handle.olr_malloc.p99_ns",
            ],
        ),
        (
            Name::HFree,
            [
                "handle.olr_free.calls",
                "handle.olr_free.ns_per_call",
                "handle.olr_free.p99_ns",
            ],
        ),
    ] {
        let agg = tracer.map(|t| t.agg(name));
        out.set(calls, agg.map_or(0.0, |a| a.calls as f64));
        out.set(ns, agg.map_or(0.0, |a| a.ns_per_call()));
        out.set(p99, agg.map_or(0.0, |a| a.hist.quantile(0.99)));
    }
    let s = s.copied().unwrap_or_default();
    out.set(
        "handle.lockfree_read_ratio",
        ratio(s.lockfree_reads, s.lockfree_reads + s.lockfree_fallbacks),
    );
    out.set(
        "handle.magazine_hit_ratio",
        ratio(s.magazine_hits, s.magazine_hits + s.magazine_refills),
    );
    out.set("handle.magazine_refills", s.magazine_refills as f64);
    out.set("handle.fast_free_ratio", ratio(s.fast_frees, s.frees));
    out.set(
        "handle.remote_drain_balance",
        ratio(s.remote_drained, s.fast_frees),
    );
}

/// Write the sampled raw spans next to the benchmark's sources.
pub fn write_trace(tracer: &Tracer, args: &Args) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_samples(&path) {
        Ok(()) => println!("sampled spans: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Run one workload and print its metrics by name and unit; `None` for
/// an unknown name.
fn run_one(args: &Args) -> Option<Outcome> {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "ir_sjeng" => ir::run_workload(args, &mut out),
        "session_read" => session::run_workload(args, session::READ, &mut out),
        "session_churn" => session::run_workload(args, session::CHURN, &mut out),
        _ => return None,
    }
    if args.trace {
        out.set("trace.timer_ns", trace::timer_pair_ns());
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for metric in metrics(args) {
        let value = out.values.get(metric.name).copied().unwrap_or(f64::NAN);
        println!("  {:<36} {:>16.4} {}", metric.name, value, metric.unit);
    }
    println!(
        "  {:<36} {:>16.4} share ({} of {} ops failed)",
        "failed_op_share",
        out.failed_share(),
        out.failed,
        out.attempted
    );
    Some(out)
}

fn metrics(args: &Args) -> &'static [report::Metric] {
    if args.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["ir_sjeng", "session_read", "session_churn"],
        one => vec![one],
    };
    let mut outcomes = Vec::new();
    for name in &names {
        let one = Args {
            workload: (*name).to_string(),
            ..args.clone()
        };
        match run_one(&one) {
            Some(out) => outcomes.push(out),
            None => {
                eprintln!("perfbench: unknown workload {name}");
                return ExitCode::from(2);
            }
        }
    }
    let runs: Vec<(&str, &Outcome)> = names.iter().copied().zip(&outcomes).collect();
    println!("{}", report::result_line(&runs, metrics(&args)));
    if outcomes.iter().all(|o| o.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
