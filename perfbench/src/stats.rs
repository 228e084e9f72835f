//! Order statistics and ratios over the benchmark's own raw samples.
//!
//! Every timing the benchmark reports is computed here from samples it
//! took itself, never from `dtp-obs` histograms (whose log2 buckets round
//! a tail to the nearest power of two).

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so a
/// spread computed here matches one computed over saved results.
/// `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The percentiles the benchmark may report, highest first.
const PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// The highest reportable percentile for `n` samples: the highest one with
/// at least ten samples beyond it. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// True when `p` is reportable for `n` samples under the tail rule.
pub fn reportable(n: usize, p: f64) -> bool {
    tail_percentile(n).is_some_and(|tail| p <= tail)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer basis points so that e.g. 99.9 % of 10 000 is exactly 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let bp = (p * 100.0).round().clamp(0.0, 10_000.0) as usize;
    (bp * n).div_ceil(10_000).max(1)
}

/// Nearest-rank `p`-th percentile of ascending `sorted` samples.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    (n > 0).then(|| sorted[nearest_rank(n, p).min(n) - 1])
}

/// Integer samples (nanoseconds, or lags in ticks) kept without loss in
/// fixed memory: a count per value below a cap, and the raw values at or
/// above it.
#[derive(Debug, Clone)]
pub struct IntSamples {
    counts: Vec<u32>,
    over: Vec<u32>,
    len: usize,
}

impl IntSamples {
    /// Exact counts below `cap`; room for `over` larger values before the
    /// first reallocation.
    pub fn new(cap: usize, over: usize) -> Self {
        Self {
            counts: vec![0; cap],
            over: Vec::with_capacity(over),
            len: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: u32) {
        match self.counts.get_mut(x as usize) {
            Some(c) => *c += 1,
            None => self.over.push(x),
        }
        self.len += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Nearest-rank `p`-th percentile, exactly as over the sorted raw
    /// samples.
    pub fn percentile(&self, p: f64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let rank = nearest_rank(self.len, p).min(self.len);
        let mut seen = 0usize;
        for (x, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return u32::try_from(x).ok();
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over.get(rank - seen - 1).copied()
    }
}

/// Uniform in [0, 1) from the top 53 bits of a random word.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A ratio that keeps its base: `num / den`, both reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`; `NaN` for a zero denominator.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            f64::NAN
        } else {
            self.num / self.den
        }
    }

    /// `"num/den"` for reports.
    pub fn base(&self) -> String {
        format!("{}/{}", short(self.num), short(self.den))
    }
}

/// Share of a capture-on session's simulation time that capture costs:
/// `(on − off) / on`, over the same sessions.
pub fn capture_share(on_ms: f64, off_ms: f64) -> Ratio {
    Ratio {
        num: on_ms - off_ms,
        den: on_ms,
    }
}

/// Table 4's memory ratio: packet records held per TLS record held.
pub fn memory_ratio(packets: usize, tls_records: usize) -> Ratio {
    Ratio {
        num: packets as f64,
        den: tls_records as f64,
    }
}

/// Table 4's compute ratio: packet extraction time per TLS extraction time
/// over the same sessions.
pub fn compute_ratio(packet_extract_s: f64, tls_extract_s: f64) -> Ratio {
    Ratio {
        num: packet_extract_s,
        den: tls_extract_s,
    }
}

/// Compact number formatting for bases and tables.
pub fn short(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(reportable(1000, 99.0));
        assert!(!reportable(999, 99.0));
        assert!(reportable(999, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), Some(50));
        assert_eq!(percentile_sorted(&xs, 99.0), Some(99));
        assert_eq!(percentile_sorted(&xs, 100.0), Some(100));
        assert_eq!(percentile_sorted(&xs, 0.0), Some(1));
        assert_eq!(percentile_sorted::<u32>(&[], 50.0), None);
    }

    #[test]
    fn int_samples_match_sorted_raw_samples() {
        let raw: Vec<u32> = (0..5000u32)
            .map(|i| (i * 7919) % 1300 + (i % 97) * 11)
            .collect();
        let mut hist = IntSamples::new(1000, 16);
        for &ns in &raw {
            hist.record(ns);
        }
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        assert_eq!(hist.len(), raw.len());
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
            assert_eq!(hist.percentile(p), percentile_sorted(&sorted, p), "p{p}");
        }
        assert_eq!(IntSamples::new(10, 0).percentile(50.0), None);
    }

    #[test]
    fn ratios_keep_their_bases() {
        let share = capture_share(13.6, 0.8);
        assert_eq!((share.num, share.den), (13.6 - 0.8, 13.6));
        assert!((share.value() - 12.8 / 13.6).abs() < 1e-12);
        // Capture cannot be cheaper than no capture; a negative share is
        // reported as measured, not clamped.
        assert!(capture_share(1.0, 2.0).value() < 0.0);

        let mem = memory_ratio(130_000, 20);
        assert_eq!(mem.value(), 6500.0);
        assert_eq!(mem.base(), "130000/20");

        let cpu = compute_ratio(0.5, 0.002);
        assert!((cpu.value() - 250.0).abs() < 1e-9);
        assert!(
            compute_ratio(1.0, 0.0).value().is_nan(),
            "no base, no ratio"
        );
    }
}
