//! The six minipng CVEs: crafted exploits and the Table IV comparison.
//!
//! For each planted CVE this module carries the exploit input a
//! binary-aware attacker would send against the *native* build, a
//! success predicate, and the TaintClass-vs-ground-truth check of the
//! paper's Table IV ("TaintClass successfully included all the objects
//! that we discovered by manually analyzing the exploitation").

use std::collections::BTreeSet;
use std::fmt;

use polar_instrument::{instrument, InstrumentOptions};
use polar_ir::interp::{run_with_mode, ExecLimits, ExecReport};
use polar_runtime::{RandomizeMode, RuntimeConfig};
use polar_taint::{analyze_corpus, TaintConfig};
use polar_workloads::minipng::{self, build, file, safe_input, CveInfo, COLOR16_SECRET};

/// Craft the exploit input for a CVE id (natural-layout targeting — what
/// a binary-aware attacker computes against the unhardened build).
///
/// # Panics
///
/// Panics on an unknown CVE id.
pub fn exploit_input(id: &str) -> Vec<u8> {
    match id {
        // `Z` before any header: info.row_buf is NULL.
        "CVE-2016-10087" => file(&[(b'Z', vec![])]),
        // 32 palette entries (96 bytes): bytes 88..96 land on
        // png_struct_def.row_fn (palette block 64 + natural offset 24).
        "CVE-2015-8126" => {
            let mut payload = vec![32u8];
            payload.extend(std::iter::repeat_n(0u8, 96));
            for k in 0..8 {
                payload[1 + 88 + k] = 0x42;
            }
            file(&[(b'P', payload)])
        }
        // tIME with extra=40: the scratch string is 8 bytes in a 16-byte
        // block; the adjacent png_color16's `red` (natural offset 2)
        // leaks at positions 18/19.
        "CVE-2015-7981" => file(&[(b'M', vec![0, 0, 1, 1, 1, 0, 40])]),
        // Valid header (128-byte rows), then an IDAT-like chunk of 152
        // bytes: bytes 144..152 land on the adjacent victim's `size`
        // (row block 128 + natural offset 16).
        "CVE-2015-0973" => {
            let mut payload = vec![0u8; 152];
            payload[144..152].fill(0x42);
            file(&[(b'H', vec![16, 0, 8, 0, 8, 0]), (b'O', payload)])
        }
        // width·depth = 512 but the allocation truncates to 0 (→ a
        // 16-byte block); a big unknown chunk extends the heap, then the
        // row copy writes 512 bytes: bytes 32..40 land on the victim's
        // `size` (row block 16 + natural offset 16).
        "CVE-2013-7353" => {
            let mut row = vec![0u8; 512];
            row[32..40].fill(0x42);
            file(&[
                (b'H', vec![32, 0, 8, 0, 16, 0]),
                (b'U', vec![0u8; 600]),
                (b'R', row),
            ])
        }
        // 48-byte text chunk: bytes 40..48 land on png_text_struct.key
        // (text block 32 + natural offset 8).
        "CVE-2011-3048" => {
            let mut payload = vec![0u8; 48];
            payload[40..48].fill(0x42);
            file(&[(b'T', payload)])
        }
        other => panic!("unknown CVE id {other}"),
    }
}

const ATTACK: u64 = 0x4242_4242_4242_4242;

/// Whether the exploit achieved its goal in this execution.
pub fn exploited(id: &str, report: &ExecReport) -> bool {
    match id {
        // Denial of service: the null dereference fired.
        "CVE-2016-10087" => report.crashed(),
        // Control-flow hijack: row_fn reads back the planted value.
        "CVE-2015-8126" => report.output.first() == Some(&ATTACK),
        // Information leak: the secret's bytes appear at the predicted
        // leak positions.
        "CVE-2015-7981" => {
            report.output.get(18) == Some(&(COLOR16_SECRET & 0xFF))
                && report.output.get(19) == Some(&(COLOR16_SECRET >> 8))
        }
        // Neighbour corruption: the victim's size field took the value.
        "CVE-2015-0973" | "CVE-2013-7353" => report.output.get(1) == Some(&ATTACK),
        // Neighbour corruption: the text object's untouched key pointer
        // took the value (output[2] for an input without H or M chunks).
        "CVE-2011-3048" => report.output.get(2) == Some(&ATTACK),
        other => panic!("unknown CVE id {other}"),
    }
}

/// Evaluation of one CVE under native and POLaR builds. The POLaR side is
/// probabilistic (per-execution layouts), so it is measured over several
/// process seeds.
#[derive(Debug, Clone)]
pub struct CveEvaluation {
    /// CVE metadata.
    pub info: CveInfo,
    /// Exploit succeeded against the native build (deterministic).
    pub native_exploited: bool,
    /// Fraction of POLaR executions the exploit succeeded in.
    pub polar_exploit_rate: f64,
    /// Fraction of POLaR executions ended by a detection.
    pub polar_detect_rate: f64,
    /// POLaR executions measured.
    pub polar_trials: u32,
}

impl CveEvaluation {
    /// Whether the exploit remains reliable against POLaR.
    pub fn polar_exploited(&self) -> bool {
        self.polar_exploit_rate >= 0.5
    }

    /// Whether POLaR detected at least one attempt.
    pub fn polar_detected(&self) -> bool {
        self.polar_detect_rate > 0.0
    }
}

impl fmt::Display for CveEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:<24} native: {:<9} polar: {:>3.0}% exploited, {:>3.0}% detected ({} runs)",
            self.info.id,
            self.info.kind,
            if self.native_exploited { "exploited" } else { "survived" },
            self.polar_exploit_rate * 100.0,
            self.polar_detect_rate * 100.0,
            self.polar_trials,
        )
    }
}

/// Run every CVE exploit against the native build (once — it is
/// deterministic) and the POLaR build (across `trials` process seeds
/// derived from `polar_seed`).
pub fn evaluate_all(polar_seed: u64) -> Vec<CveEvaluation> {
    const TRIALS: u32 = 12;
    let png = build();
    let (hardened, _) = instrument(&png.module, &InstrumentOptions::default());
    minipng::cve_catalog()
        .into_iter()
        .map(|info| {
            let input = exploit_input(info.id);
            let native = run_with_mode(
                &png.module,
                RandomizeMode::Native,
                RuntimeConfig::default(),
                &input,
                ExecLimits::default(),
            );
            let mut exploited_runs = 0u32;
            let mut detected_runs = 0u32;
            for t in 0..TRIALS {
                let config = RuntimeConfig {
                    seed: polar_seed.wrapping_add(u64::from(t).wrapping_mul(0x9E37)),
                    ..RuntimeConfig::default()
                };
                let polar = run_with_mode(
                    &hardened,
                    RandomizeMode::per_allocation(),
                    config,
                    &input,
                    ExecLimits::default(),
                );
                if exploited(info.id, &polar) {
                    exploited_runs += 1;
                }
                if polar.detected() {
                    detected_runs += 1;
                }
            }
            CveEvaluation {
                native_exploited: exploited(info.id, &native),
                polar_exploit_rate: f64::from(exploited_runs) / f64::from(TRIALS),
                polar_detect_rate: f64::from(detected_runs) / f64::from(TRIALS),
                polar_trials: TRIALS,
                info,
            }
        })
        .collect()
}

/// One row of the reproduced Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// CVE metadata and ground-truth object list.
    pub info: CveInfo,
    /// Classes TaintClass discovered from the corpus.
    pub discovered: BTreeSet<String>,
    /// Whether every exploit-related class was discovered.
    pub covered: bool,
}

impl fmt::Display for Table4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:<26} {} [{}]",
            self.info.id,
            self.info.kind,
            if self.covered { "all discovered" } else { "MISSED" },
            self.info.exploit_classes.join(", "),
        )
    }
}

/// Reproduce Table IV: run TaintClass over a corpus containing the benign
/// file and each exploit, then check that every exploit-related object
/// was discovered.
pub fn table4() -> Vec<Table4Row> {
    let png = build();
    minipng::cve_catalog()
        .into_iter()
        .map(|info| {
            let exploit = exploit_input(info.id);
            let safe = safe_input();
            let corpus: Vec<&[u8]> = vec![&safe[..], &exploit[..]];
            let report = analyze_corpus(
                &png.module,
                corpus,
                ExecLimits::default(),
                &TaintConfig::default(),
            );
            let discovered: BTreeSet<String> = report
                .tainted_classes()
                .into_iter()
                .filter_map(|c| {
                    png.module.registry.get_checked(c).map(|i| i.name().to_owned())
                })
                .collect();
            let covered = info
                .exploit_classes
                .iter()
                .all(|name| discovered.contains(*name));
            Table4Row { info, discovered, covered }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cve_exploits_the_native_build() {
        for eval in evaluate_all(0xA77AC4) {
            assert!(eval.native_exploited, "{eval}");
        }
    }

    #[test]
    fn polar_stops_the_corruption_cves() {
        // The null-deref (DoS) is out of scope for layout randomization;
        // every memory-corruption CVE must become unreliable (< 50 %
        // success) or be detected under POLaR.
        for eval in evaluate_all(0xA77AC4) {
            if eval.info.id == "CVE-2016-10087" {
                continue;
            }
            assert!(
                !eval.polar_exploited() || eval.polar_detected(),
                "{eval}"
            );
        }
    }

    #[test]
    fn table4_covers_every_exploit_object() {
        for row in table4() {
            assert!(row.covered, "{row}: discovered {:?}", row.discovered);
        }
    }
}
