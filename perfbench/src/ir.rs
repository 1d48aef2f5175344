//! `ir_sjeng`: the instrumented-program workload (the paper's Fig. 6
//! view, at its worst case).
//!
//! One client, closed loop: it alternates a native execution of
//! `458.sjeng` (the uninstrumented module on a native-mode runtime)
//! with a POLaR execution (the instrumented module on a per-allocation
//! runtime), swapping which goes first every pair, on one 96-byte game
//! record drawn from the seed. Each POLaR execution must return what the
//! native one returned and raise no detection.
//!
//! Both builds run on a [`Probe`]: the runtime behind a hook that sees
//! every call the interpreter makes into it. Untraced, the hook is a
//! [`Sampler`] that counts the instrumented calls (`olr_*`) and times a
//! random 1/64 of them, so an op here is one instrumented object
//! operation: `ops_per_s` counts them per second of POLaR execution and
//! `op_p50_ns`/`op_p99_ns` are their latencies. `exec_ms` is the median
//! POLaR execution and `overhead_x` the median over pairs of POLaR time
//! over native time.
//!
//! Traced, the hook records a span around every call, under one
//! `ir.exec` span per execution; untraced POLaR executions run in the
//! same loop, so the cost of the spans shows as `trace.overhead_pct`.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polar_classinfo::{ClassHash, ClassInfo};
use polar_instrument::{instrument, InstrumentOptions};
use polar_ir::interp::{run, ExecReport};
use polar_ir::trace::{NopTracer, TraceEvent};
use polar_ir::Module;
use polar_layout::LayoutPlan;
use polar_rng::{Rng, SplitMix64};
use polar_runtime::{
    Addr, ObjectRuntime, PolarRuntime, RandomizeMode, RuntimeConfig, RuntimeError, RuntimeStats,
    SiteCache, TrapReport,
};
use polar_simheap::HeapError;
use polar_workloads::Workload;

use crate::report::Outcome;
use crate::stats::{median, Histogram};
use crate::trace::{Name, Tracer};
use crate::{peak_rss_mib, Args};

/// Set-up repeats per pair: set-up takes microseconds.
const SETUP_REPEATS: usize = 11;

/// What a [`Probe`] does around each call into the runtime.
pub trait Hook {
    /// Run the call `f`, named `name`.
    fn around<T>(&self, name: Name, f: impl FnOnce() -> T) -> T;
    /// An execution starts.
    fn begin_exec(&self) {}
    /// The execution ends.
    fn end_exec(&self) {}
}

/// Traced: a span around every call and every execution.
impl Hook for RefCell<Tracer> {
    fn around<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        self.borrow_mut().span(name, f)
    }

    fn begin_exec(&self) {
        self.borrow_mut().enter(Name::Exec);
    }

    fn end_exec(&self) {
        self.borrow_mut().exit();
    }
}

/// Untraced: counts the instrumented calls and times a pseudo-random
/// 1/64 of them. Other calls pass straight through.
pub struct Sampler {
    state: Cell<u64>,
    calls: Cell<u64>,
    hist: RefCell<Histogram>,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Sampler {
            state: Cell::new(seed | 1),
            calls: Cell::new(0),
            hist: RefCell::default(),
        }
    }
}

impl Hook for Sampler {
    #[inline]
    fn around<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        if !matches!(
            name,
            Name::RtMalloc | Name::RtFree | Name::RtGetptr | Name::RtMemcpy
        ) {
            return f();
        }
        self.calls.set(self.calls.get() + 1);
        // xorshift64: random sampling cannot alias with the program's
        // own call pattern the way every-Nth sampling can.
        let mut x = self.state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.set(x);
        if x >> 58 != 0 {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.hist.borrow_mut().record(t.elapsed().as_nanos() as u64);
        out
    }
}

/// A [`PolarRuntime`] that forwards every call to an [`ObjectRuntime`]
/// through its hook.
pub struct Probe<H> {
    /// The runtime under test.
    pub rt: ObjectRuntime,
    /// What happens around each call.
    pub hook: H,
}

impl<H: Hook> PolarRuntime for Probe<H> {
    fn config(&self) -> &RuntimeConfig {
        // A field read on every load and store; not a layer boundary.
        self.rt.config()
    }

    fn stats(&self) -> RuntimeStats {
        self.rt.stats()
    }

    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        self.hook
            .around(Name::RtOther, || self.rt.compile_time_plan(info))
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        self.hook
            .around(Name::RtMalloc, || self.rt.olr_malloc(info))
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        self.hook.around(Name::RtFree, || self.rt.olr_free(base))
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.hook.around(Name::RtGetptr, || {
            self.rt.olr_getptr_ic(base, expected, field, ic)
        })
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        self.hook
            .around(Name::RtMemcpy, || self.rt.olr_memcpy(dst, src, site_class))
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        self.hook
            .around(Name::RtOther, || self.rt.read_field(base, expected, field))
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        self.hook.around(Name::RtOther, || {
            self.rt.write_field(base, expected, field, value)
        })
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        self.hook
            .around(Name::RtOther, || self.rt.check_traps(base))
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        self.hook
            .around(Name::RtOther, || PolarRuntime::plan_size(&self.rt, base))
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_malloc(&mut self.rt, size)
        })
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_free(&mut self.rt, addr)
        })
    }

    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_read_uint(&self.rt, addr, width)
        })
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::probe_read_uint(&mut self.rt, addr, width)
        })
    }

    fn heap_write_uint(&mut self, addr: Addr, value: u64, width: usize) -> Result<(), HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_write_uint(&mut self.rt, addr, value, width)
        })
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_write(&mut self.rt, addr, bytes)
        })
    }

    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_memmove(&mut self.rt, dst, src, len)
        })
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        self.hook.around(Name::HeapRaw, || {
            PolarRuntime::heap_check_in_block(&self.rt, addr, len)
        })
    }
}

/// Counts live objects through the interpreter's own event hook, for the
/// untimed probe execution that sizes `meta_bytes_per_live`.
#[derive(Default)]
struct LiveCounter {
    live: u64,
    peak: u64,
}

impl polar_ir::trace::Tracer for LiveCounter {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::ObjAlloc { .. } => {
                self.live += 1;
                self.peak = self.peak.max(self.live);
            }
            TraceEvent::ObjFree { .. } => self.live = self.live.saturating_sub(1),
            _ => {}
        }
    }
}

/// The 96-byte game record: one move byte per (depth, move) pair.
pub fn game_record(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::stream(seed, 0x5EE6);
    (0..96).map(|_| rng.next_u64() as u8).collect()
}

/// Runtime configuration for execution `exec` of the run seeded `seed`.
fn config(seed: u64, exec: u64) -> RuntimeConfig {
    RuntimeConfig {
        seed: SplitMix64::stream(seed, exec).next_u64(),
        ..RuntimeConfig::default()
    }
}

/// One execution of `module` on a fresh runtime behind `hook`; the wall
/// time covers `run` only. The hook is handed back.
fn execute<H: Hook>(
    w: &Workload,
    module: &Module,
    mode: RandomizeMode,
    cfg: RuntimeConfig,
    input: &[u8],
    hook: H,
) -> (ExecReport, Duration, H) {
    let mut probe = Probe {
        rt: ObjectRuntime::new(mode, cfg),
        hook,
    };
    probe.hook.begin_exec();
    let t = Instant::now();
    let report = run(module, &mut probe, input, w.limits, &mut NopTracer);
    let dt = t.elapsed();
    probe.hook.end_exec();
    (report, dt, probe.hook)
}

/// Whether an execution returned what the native reference did.
fn same_outcome(reference: &ExecReport, run: &ExecReport) -> bool {
    reference.result.is_ok() && run.result == reference.result && run.output == reference.output
}

/// Whether a POLaR execution matches the native reference and raised
/// no detection.
fn matches(reference: &ExecReport, polar: &ExecReport) -> bool {
    same_outcome(reference, polar) && polar.stats.total_detections() == 0
}

/// Run `ir_sjeng` and fill `out` with its end-to-end (untraced) or
/// per-layer (traced) metrics.
pub fn run_workload(args: &Args, out: &mut Outcome) {
    let w = polar_workloads::spec::by_name("458.sjeng").expect("458.sjeng is a mini-SPEC workload");
    let input = game_record(args.seed);
    let polar = RandomizeMode::per_allocation();

    // Set-up: the instrument pass plus construction of the runtime.
    // Every pair repeats it, so its samples spread over the whole run
    // the way the execution samples do.
    let (mut setup_s, mut pass_us) = (Vec::new(), Vec::new());
    let mut set_up = |k: u64| {
        let mut pass = None;
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let p = instrument(&w.module, &InstrumentOptions::default());
            let t1 = Instant::now();
            black_box(ObjectRuntime::new(polar, config(args.seed, k)));
            setup_s.push(t0.elapsed().as_secs_f64());
            pass_us.push((t1 - t0).as_secs_f64() * 1e6);
            pass = Some(p);
        }
        pass.expect("set-up ran")
    };
    let (hardened, sites) = set_up(0);

    // Untimed reference and probe executions: the native result every
    // execution must reproduce, and the live-set peak and metadata of
    // one POLaR execution.
    let reference = polar_ir::interp::run_native(&w.module, &input, w.limits);
    let mut probe_rt = ObjectRuntime::new(polar, config(args.seed, u64::MAX));
    let mut live = LiveCounter::default();
    let probe = run(&hardened, &mut probe_rt, &input, w.limits, &mut live);
    let peak_live = live.peak.max(1);
    let heap = probe_rt.heap().stats();
    out.attempted += 1;
    if !matches(&reference, &probe) {
        out.failed += 1;
        eprintln!(
            "ir_sjeng: probe execution diverged from native: {:?}",
            probe.result
        );
    }

    println!(
        "shape: clients=1 shards=1 (plain ObjectRuntime) detected_parallelism={} heap_capacity_mib={} \
         game_record_bytes={}",
        crate::session::detected_parallelism(),
        probe_rt.config().heap.capacity >> 20,
        input.len()
    );
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let epoch = Instant::now();
    let (mut native_ns, mut polar_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_ns, mut harness_ns) = (Vec::new(), 0u128);
    let mut sampler = Sampler::new(args.seed);
    let (mut polar_tr, mut native_tr) = (None, None);
    if args.trace {
        polar_tr = Some(RefCell::new(Tracer::new(epoch, 0, 1, 20_000)));
        native_tr = Some(RefCell::new(Tracer::new(epoch, 1, 1, 20_000)));
    }
    let mut last = probe;
    let mut pair = 0u64;
    while pair < 3 || Instant::now() < deadline {
        if pair > 0 {
            set_up(pair);
        }
        let mut polar_time = Duration::ZERO;
        let mut native_time = Duration::ZERO;
        let mut failed = false;
        // Which build goes first alternates from pair to pair.
        for polar_turn in [!pair.is_multiple_of(2), pair.is_multiple_of(2)] {
            if polar_turn {
                // Harness time: everything around `run` — building and
                // dropping the runtime, checking the outcome.
                let t = Instant::now();
                let cfg = config(args.seed, pair);
                let (rep, dt) = match polar_tr.take() {
                    Some(tr) => {
                        let (rep, dt, tr) = execute(&w, &hardened, polar, cfg, &input, tr);
                        polar_tr = Some(tr);
                        (rep, dt)
                    }
                    None => {
                        let (rep, dt, s) = execute(&w, &hardened, polar, cfg, &input, sampler);
                        sampler = s;
                        (rep, dt)
                    }
                };
                failed |= !matches(&reference, &rep);
                harness_ns += (t.elapsed() - dt).as_nanos();
                polar_time = dt;
                last = rep;
            } else {
                let (mode, cfg) = (RandomizeMode::Native, RuntimeConfig::default());
                let (rep, dt) = match native_tr.take() {
                    Some(tr) => {
                        let (rep, dt, tr) = execute(&w, &w.module, mode, cfg, &input, tr);
                        native_tr = Some(tr);
                        (rep, dt)
                    }
                    None => {
                        // Native runs make no instrumented calls; the
                        // sampler only passes through.
                        let (rep, dt, s) = execute(&w, &w.module, mode, cfg, &input, sampler);
                        sampler = s;
                        (rep, dt)
                    }
                };
                failed |= !same_outcome(&reference, &rep);
                native_time = dt;
            }
        }
        if args.trace {
            // An untraced POLaR execution, for the cost of the spans.
            let cfg = config(args.seed, pair);
            let (rep, dt, s) = execute(&w, &hardened, polar, cfg, &input, sampler);
            sampler = s;
            failed |= !matches(&reference, &rep);
            untraced_ns.push(dt.as_nanos() as f64);
        }
        out.attempted += 1;
        out.failed += u64::from(failed);
        if failed {
            eprintln!("ir_sjeng: pair {pair} diverged: {:?}", last.result);
        }
        native_ns.push(native_time.as_nanos() as f64);
        polar_ns.push(polar_time.as_nanos() as f64);
        ratios.push(polar_time.as_secs_f64() / native_time.as_secs_f64());
        pair += 1;
    }

    if !args.trace {
        let polar_s: f64 = polar_ns.iter().sum::<f64>() / 1e9;
        let hist = sampler.hist.into_inner();
        out.set("setup_s", median(&setup_s));
        out.set("ops_per_s", sampler.calls.get() as f64 / polar_s);
        out.set("op_p50_ns", hist.quantile(0.50));
        out.set("op_p99_ns", hist.quantile(0.99));
        out.set("exec_ms", median(&polar_ns) / 1e6);
        out.set("overhead_x", median(&ratios));
        out.set(
            "meta_bytes_per_live",
            probe_rt.estimated_metadata_bytes() as f64 / peak_live as f64,
        );
        out.set("peak_rss_mib", peak_rss_mib());
        println!(
            "ir_sjeng: {pair} pairs; POLaR exec median {:.1} ms, native median {:.1} ms; \
             {} instrumented calls, {} latency samples ({} beyond p99); peak live objects {peak_live}",
            median(&polar_ns) / 1e6,
            median(&native_ns) / 1e6,
            sampler.calls.get(),
            hist.count(),
            hist.beyond(0.99),
        );
        return;
    }

    let polar_tr = polar_tr.expect("traced run").into_inner();
    let mut both = native_tr.expect("traced run").into_inner();
    let execs = pair as f64;
    out.set("instrument.pass_us", median(&pass_us));
    out.set("instrument.sites", sites.total() as f64);
    let exec = polar_tr.agg(Name::Exec);
    out.set("ir.steps", last.steps as f64);
    out.set(
        "ir.self_ns_per_step",
        exec.self_ns as f64 / (last.steps as f64 * execs),
    );
    out.set("ir.self_share", crate::ratio(exec.self_ns, exec.total_ns));
    for (name, calls, ns) in [
        (
            Name::RtMalloc,
            "runtime.olr_malloc.calls",
            "runtime.olr_malloc.ns_per_call",
        ),
        (
            Name::RtFree,
            "runtime.olr_free.calls",
            "runtime.olr_free.ns_per_call",
        ),
        (
            Name::RtGetptr,
            "runtime.olr_getptr_ic.calls",
            "runtime.olr_getptr_ic.ns_per_call",
        ),
        (
            Name::RtMemcpy,
            "runtime.olr_memcpy.calls",
            "runtime.olr_memcpy.ns_per_call",
        ),
    ] {
        let agg = polar_tr.agg(name);
        out.set(calls, agg.calls as f64 / execs);
        out.set(ns, agg.ns_per_call());
    }
    crate::set_runtime_ratios(out, &last.stats);
    both.merge(polar_tr);
    let raw = both.agg(Name::HeapRaw);
    out.set("simheap.raw.calls", raw.calls as f64 / (2.0 * execs));
    out.set("simheap.raw.ns_per_call", raw.ns_per_call());
    out.set(
        "simheap.heap_bytes_per_live",
        heap.bytes_peak as f64 / peak_live as f64,
    );
    out.set(
        "simheap.fragmentation",
        probe_rt.heap().arena_len() as f64 / heap.bytes_peak.max(1) as f64,
    );
    crate::set_handle_metrics(out, None, None);
    out.set("layout_repeat_share", 0.0);
    out.set("driver.ns_per_op", harness_ns as f64 / execs);
    out.set(
        "trace.overhead_pct",
        (median(&polar_ns) / median(&untraced_ns) - 1.0) * 100.0,
    );
    crate::write_trace(&both, args);
}
