//! The `BENCH_runtime.json` schema: entry type, hand-rolled JSON in/out
//! (the workspace is registry-free by policy), and the snapshot-merge
//! rule shared by `bench_json` and its tests.
//!
//! A snapshot file accumulates rows from multiple runs, each tagged with
//! a `snapshot` label and a `quick` flag. The merge rule is
//! *like-for-like replacement*: a full run owns its label outright and
//! evicts every prior row under it, while a `--quick` run (which makes
//! no timing claims — its `ns_per_op` is 0) may only evict prior *quick*
//! rows, never a full-run measurement. Without that distinction a CI
//! smoke run rewriting the file would silently zero out a committed
//! measurement under the same label.

use std::fmt::Write as _;

/// One measurement row of `BENCH_runtime.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Which run produced this row (`"current"` or the baseline label).
    pub snapshot: String,
    /// Benchmark name, e.g. `olr_malloc_free` or `olr_malloc_free_mt4`.
    pub bench: String,
    /// Runtime mode label (`polar`, `static-olr`, `polar-unpooled`, …).
    pub mode: String,
    /// Best-of-samples nanoseconds per operation (0 for quick rows), or
    /// the median over rounds for rows that carry `iqr_ns`.
    pub ns_per_op: f64,
    /// Interquartile range of the per-round samples, for rows reported
    /// as a median over interleaved rounds; `None` for best-of rows.
    pub iqr_ns: Option<f64>,
    /// Offset-cache hit rate over the timed loop, when meaningful.
    pub cache_hit_rate: Option<f64>,
    /// `estimated_metadata_bytes` at the end of the timed loop.
    pub metadata_bytes: usize,
    /// True when the row came from a `--quick` run: the bench body was
    /// executed but not timed, so `ns_per_op` carries no information.
    pub quick: bool,
    /// Hardware parallelism detected when the row was measured
    /// (`std::thread::available_parallelism`). Multi-thread rows only
    /// make scaling claims at or below this count; the regression gate
    /// skips a pinned `_mt*` row when the current machine detects less
    /// parallelism than the pin was measured with. Rows written before
    /// the field existed parse as 1 — the weakest claim, so legacy
    /// single-thread pins still gate everywhere.
    pub parallelism: usize,
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize entries as the `entries` array body (one object per line).
pub fn write_entries(buf: &mut String, entries: &[Entry]) {
    for (i, e) in entries.iter().enumerate() {
        let hit = match e.cache_hit_rate {
            Some(r) => format!("{r:.6}"),
            None => "null".to_owned(),
        };
        let iqr = e.iqr_ns.map_or(String::new(), |v| format!(", \"iqr_ns\": {v:.2}"));
        let _ = write!(
            buf,
            "    {{\"snapshot\": \"{}\", \"bench\": \"{}\", \"mode\": \"{}\", \
             \"ns_per_op\": {:.2}{}, \"cache_hit_rate\": {}, \"metadata_bytes\": {}, \
             \"quick\": {}, \"parallelism\": {}}}",
            json_escape(&e.snapshot),
            json_escape(&e.bench),
            json_escape(&e.mode),
            e.ns_per_op,
            iqr,
            hit,
            e.metadata_bytes,
            e.quick,
            e.parallelism
        );
        buf.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
}

/// Parse entries out of a JSON file `bench_json` previously wrote. Only
/// the flat per-entry objects are read; anything else is ignored. Rows
/// written before the `quick` tag existed parse as full measurements
/// (`quick: false`), which errs on the side of preserving them.
pub fn parse_entries(text: &str, default_snapshot: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = match obj.split('}').next() {
            Some(o) => o,
            None => continue,
        };
        let field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\":");
            let rest = &obj[obj.find(&pat)? + pat.len()..];
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(stripped.split('"').next()?.to_owned())
            } else {
                Some(
                    rest.split([',', '}'])
                        .next()?
                        .trim()
                        .to_owned(),
                )
            }
        };
        let (bench, mode) = match (field("bench"), field("mode")) {
            (Some(b), Some(m)) => (b, m),
            _ => continue,
        };
        let ns: f64 = match field("ns_per_op").and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => continue,
        };
        out.push(Entry {
            snapshot: field("snapshot").unwrap_or_else(|| default_snapshot.to_owned()),
            bench,
            mode,
            ns_per_op: ns,
            iqr_ns: field("iqr_ns").and_then(|v| v.parse().ok()),
            cache_hit_rate: field("cache_hit_rate").and_then(|v| v.parse().ok()),
            metadata_bytes: field("metadata_bytes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            quick: field("quick").is_some_and(|v| v == "true"),
            parallelism: field("parallelism").and_then(|v| v.parse().ok()).unwrap_or(1),
        });
    }
    out
}

/// Apply the snapshot-replace rule: which prior rows survive a new run
/// under `label`? A full run (`current_quick == false`) evicts every row
/// with its label; a quick run evicts only the quick ones, so it can
/// never overwrite a full-run measurement.
pub fn retain_prior(prior: Vec<Entry>, label: &str, current_quick: bool) -> Vec<Entry> {
    prior
        .into_iter()
        .filter(|e| e.snapshot != label || (current_quick && !e.quick))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(snapshot: &str, bench: &str, ns: f64, quick: bool) -> Entry {
        Entry {
            snapshot: snapshot.to_owned(),
            bench: bench.to_owned(),
            mode: "polar".to_owned(),
            ns_per_op: ns,
            iqr_ns: None,
            cache_hit_rate: if quick { None } else { Some(0.75) },
            metadata_bytes: 4096,
            quick,
            parallelism: 1,
        }
    }

    #[test]
    fn entries_round_trip_through_json() {
        let mut mt = row("lockfree", "olr_getptr_mt4", 9.8, false);
        mt.parallelism = 4;
        let mut refill = row("current", "magazine_refill", 9100.0, false);
        refill.iqr_ns = Some(1250.5);
        let entries = vec![
            row("seed", "olr_malloc_free", 118.9, false),
            row("current", "olr_getptr_cached", 0.0, true),
            mt,
            refill,
        ];
        let mut buf = String::new();
        write_entries(&mut buf, &entries);
        let parsed = parse_entries(&buf, "fallback");
        assert_eq!(parsed, entries);
    }

    #[test]
    fn legacy_rows_without_quick_parse_as_full() {
        let legacy = "{\"snapshot\": \"seed\", \"bench\": \"olr_malloc_free\", \
                      \"mode\": \"polar\", \"ns_per_op\": 120.00, \
                      \"cache_hit_rate\": null, \"metadata_bytes\": 0}";
        let parsed = parse_entries(legacy, "seed");
        assert_eq!(parsed.len(), 1);
        assert!(!parsed[0].quick, "pre-tag rows must count as measurements");
        assert_eq!(
            parsed[0].parallelism, 1,
            "pre-field rows were single-threaded: default to the weakest claim"
        );
    }

    #[test]
    fn merge_keeps_legacy_single_thread_rows_beside_mt_rows() {
        // A new "lockfree" full run must evict only its own label; the
        // legacy rows (no parallelism field, parsed as 1) under other
        // labels survive untouched next to the freshly stamped mt rows.
        let legacy = parse_entries(
            "{\"snapshot\": \"sharded\", \"bench\": \"olr_getptr_cached\", \
             \"mode\": \"polar\", \"ns_per_op\": 8.44, \
             \"cache_hit_rate\": null, \"metadata_bytes\": 0, \"quick\": false}",
            "sharded",
        );
        let mut stale = row("lockfree", "olr_getptr_mt4", 23.45, false);
        stale.parallelism = 4;
        let mut prior = legacy;
        prior.push(stale);

        let mut kept = retain_prior(prior, "lockfree", false);
        assert_eq!(kept.len(), 1, "the stale lockfree row is evicted");
        assert_eq!(kept[0].snapshot, "sharded");
        assert_eq!(kept[0].parallelism, 1);

        let mut fresh = row("lockfree", "olr_getptr_mt4", 9.8, false);
        fresh.parallelism = 8;
        kept.push(fresh);
        let mut buf = String::new();
        write_entries(&mut buf, &kept);
        let reread = parse_entries(&buf, "fallback");
        assert_eq!(reread, kept, "mixed legacy + mt rows round-trip");
    }

    #[test]
    fn full_run_evicts_its_whole_label() {
        let prior = vec![
            row("sharded", "olr_malloc_free", 120.0, false),
            row("sharded", "olr_malloc_free", 0.0, true),
            row("seed", "olr_malloc_free", 140.0, false),
        ];
        let kept = retain_prior(prior, "sharded", false);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].snapshot, "seed");
    }

    #[test]
    fn quick_run_cannot_evict_full_measurements() {
        let prior = vec![
            row("sharded", "olr_malloc_free", 120.0, false),
            row("sharded", "olr_getptr_cached", 0.0, true),
            row("seed", "olr_malloc_free", 140.0, false),
        ];
        let kept = retain_prior(prior, "sharded", true);
        // The full sharded row and the foreign-label row survive; only
        // the stale quick row under the same label is replaced.
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|e| e.snapshot == "sharded" && !e.quick));
        assert!(kept.iter().any(|e| e.snapshot == "seed"));
    }

    #[test]
    fn escaping_survives_hostile_labels() {
        let mut e = row("odd\"label\\x", "b", 1.0, false);
        e.mode = "m".to_owned();
        let mut buf = String::new();
        write_entries(&mut buf, &[e]);
        assert!(buf.contains("odd\\\"label\\\\x"));
    }
}
