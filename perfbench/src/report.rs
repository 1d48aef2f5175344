//! The metric catalogue and the result line.
//!
//! Every run prints, as the last line of its standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. An untraced
//! run reports every end-to-end metric; a traced run reports every
//! per-layer metric. Each workload computes every metric in the list it
//! reports (see `perfbench/README.md` for what each means on each
//! workload).

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("op_p50_ns", "ns"),
    m("op_p99_ns", "ns"),
    m("exec_ms", "ms"),
    m("overhead_x", "x"),
    m("meta_bytes_per_live", "B"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[Metric] = &[
    m("instrument.pass_us", "us"),
    m("instrument.sites", "count"),
    m("ir.steps", "count"),
    m("ir.self_ns_per_step", "ns"),
    m("ir.self_share", "ratio"),
    m("runtime.olr_malloc.calls", "count"),
    m("runtime.olr_malloc.ns_per_call", "ns"),
    m("runtime.olr_free.calls", "count"),
    m("runtime.olr_free.ns_per_call", "ns"),
    m("runtime.olr_getptr_ic.calls", "count"),
    m("runtime.olr_getptr_ic.ns_per_call", "ns"),
    m("runtime.olr_memcpy.calls", "count"),
    m("runtime.olr_memcpy.ns_per_call", "ns"),
    m("runtime.site_ic_hit_ratio", "ratio"),
    m("runtime.offset_cache_hit_ratio", "ratio"),
    m("runtime.pool_hit_ratio", "ratio"),
    m("runtime.stateless_share", "ratio"),
    m("simheap.raw.calls", "count"),
    m("simheap.raw.ns_per_call", "ns"),
    m("simheap.heap_bytes_per_live", "B"),
    m("simheap.fragmentation", "ratio"),
    m("handle.read_field.calls", "count"),
    m("handle.read_field.ns_per_call", "ns"),
    m("handle.read_field.p99_ns", "ns"),
    m("handle.write_field.calls", "count"),
    m("handle.write_field.ns_per_call", "ns"),
    m("handle.write_field.p99_ns", "ns"),
    m("handle.olr_malloc.calls", "count"),
    m("handle.olr_malloc.ns_per_call", "ns"),
    m("handle.olr_malloc.p99_ns", "ns"),
    m("handle.olr_free.calls", "count"),
    m("handle.olr_free.ns_per_call", "ns"),
    m("handle.olr_free.p99_ns", "ns"),
    m("handle.lockfree_read_ratio", "ratio"),
    m("handle.magazine_hit_ratio", "ratio"),
    m("handle.magazine_refills", "count"),
    m("handle.fast_free_ratio", "ratio"),
    m("handle.remote_drain_balance", "ratio"),
    m("layout.unique_plans", "count"),
    m("layout.dedup_saved", "count"),
    m("layout.pool_refills", "count"),
    m("layout_repeat_share", "ratio"),
    m("driver.ns_per_op", "ns"),
    m("trace.timer_ns", "ns"),
    m("trace.overhead_pct", "%"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (traffic ops, or program executions).
    pub attempted: u64,
    /// Operations that failed: oracle mismatches, runtime errors, and
    /// detections on benign traffic.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Failed ops over attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The JSON entries of `metrics`, each name prefixed by `prefix`.
/// Panics when a metric in the list was not measured or is not a finite
/// number: either is a bug in the workload, not a measurement.
fn entries(outcome: &Outcome, metrics: &[Metric], prefix: &str) -> Vec<String> {
    metrics
        .iter()
        .map(|metric| {
            let value = *outcome
                .values
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            assert!(
                value.is_finite(),
                "metric {} is not finite: {value}",
                metric.name
            );
            assert!(
                valid_name(metric.name),
                "metric name {} is not valid",
                metric.name
            );
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            )
        })
        .collect()
}

/// The result line of one or more workload runs. With more than one,
/// counts are summed and each metric is named `<workload>.<metric>`.
pub fn result_line(runs: &[(&str, &Outcome)], metrics: &[Metric]) -> String {
    let mut body = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (name, outcome) in runs {
        let prefix = if runs.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        body.extend(entries(outcome, metrics, &prefix));
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    /// The catalogue here and the one in `BENCHMARK.json` list the same
    /// names with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = start + text[start..].find(']').expect("section closes");
            text[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at =
                            entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("string closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), expect(END_TO_END));
        assert_eq!(section("per_layer"), expect(PER_LAYER));
    }

    #[test]
    fn the_result_line_lists_metrics_in_catalogue_order() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        o.set("b", 2.5);
        o.set("a", 1.0);
        let metrics = [m("b", "s"), m("a", "ns")];
        assert_eq!(
            result_line(&[("w", &o)], &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2.5, \"unit\": \"s\"}, \"a\": {\"value\": 1, \"unit\": \"ns\"}}}"
        );
        let bad = Outcome {
            attempted: 2,
            failed: 1,
            ..Default::default()
        };
        let mut bad = bad;
        bad.set("b", 0.5);
        bad.set("a", 7.0);
        assert_eq!(
            result_line(&[("w", &o), ("v", &bad)], &metrics[..1]),
            "{\"correct\": false, \"attempted\": 5, \"failed\": 1, \"metrics\": \
             {\"w.b\": {\"value\": 2.5, \"unit\": \"s\"}, \"v.b\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
