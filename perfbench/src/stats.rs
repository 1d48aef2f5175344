//! Quantiles: a fixed-bucket latency histogram for per-op timings and
//! interpolated quantiles for small sample sets (set-up repeats,
//! program executions).

/// Latency histogram with fixed buckets: 1 ns wide below 4 µs, 64 ns
/// wide to 256 µs, 4 µs wide to 16 ms, and one overflow bucket.
/// Merging is element-wise addition, so per-client histograms combine
/// without coordination.
#[derive(Debug, Clone)]
pub struct Histogram {
    fine: Vec<u64>,
    mid: Vec<u64>,
    coarse: Vec<u64>,
    overflow: u64,
    count: u64,
}

const FINE_MAX: u64 = 4_096;
const MID_MAX: u64 = 262_144;
const MID_W: u64 = 64;
const COARSE_MAX: u64 = 16_777_216;
const COARSE_W: u64 = 4_096;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            fine: vec![0; FINE_MAX as usize],
            mid: vec![0; ((MID_MAX - FINE_MAX) / MID_W) as usize],
            coarse: vec![0; ((COARSE_MAX - MID_MAX) / COARSE_W) as usize],
            overflow: 0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        if ns < FINE_MAX {
            self.fine[ns as usize] += 1;
        } else if ns < MID_MAX {
            self.mid[((ns - FINE_MAX) / MID_W) as usize] += 1;
        } else if ns < COARSE_MAX {
            self.coarse[((ns - MID_MAX) / COARSE_W) as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Add `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        for (a, b) in self.mid.iter_mut().zip(&other.mid) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile `q` in `[0, 1]`: the midpoint of the bucket holding the
    /// sample of rank `ceil(q * count)` (1-based), so the reported value
    /// is off by at most half a bucket width. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let tiers: [(&[u64], u64, u64); 3] = [
            (&self.fine, 0, 1),
            (&self.mid, FINE_MAX, MID_W),
            (&self.coarse, MID_MAX, COARSE_W),
        ];
        for (buckets, base, width) in tiers {
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return base as f64 + (i as u64 * width) as f64 + (width - 1) as f64 / 2.0;
                }
            }
        }
        COARSE_MAX as f64
    }

    /// Samples strictly above quantile `q`'s rank: the guide for whether
    /// a percentile has enough tail samples behind it.
    pub fn beyond(&self, q: f64) -> u64 {
        self.count - ((self.count as f64) * q).ceil() as u64
    }
}

/// Quantile of a sample set by linear interpolation between closest
/// ranks (the "inclusive" method). 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample set (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_in_the_fine_tier_are_exact() {
        let mut h = Histogram::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.beyond(0.99), 1);
    }

    #[test]
    fn histogram_quantiles_report_bucket_midpoints_in_wide_tiers() {
        let mut h = Histogram::default();
        // 98 fast samples, then one in the 64 ns tier and one in the
        // 4 µs tier.
        for _ in 0..98 {
            h.record(500);
        }
        h.record(5_000);
        h.record(300_000);
        assert_eq!(h.quantile(0.5), 500.0);
        // Rank 99 lands in the mid bucket [4992, 5056).
        assert_eq!(h.quantile(0.99), 4_992.0 + 31.5);
        // Rank 100 lands in the coarse bucket [299008, 303104).
        assert_eq!(h.quantile(1.0), 299_008.0 + 2_047.5);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), COARSE_MAX as f64);
    }

    #[test]
    fn merged_histograms_equal_one_histogram_of_all_samples() {
        let (mut a, mut b, mut all) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for ns in (0..20_000u64).map(|i| i * 37 % 9_000) {
            if ns % 3 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
            all.record(ns);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn interpolated_quantiles_match_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }
}
