//! Order statistics, process memory and the seeded generator the workloads
//! draw their request mixes from.

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail latency: the highest of the usual percentiles (p50, p75, p90,
/// p95, p99, p99.9) that still has at least [`TAIL_BEYOND`] samples above
/// it, so the value never rests on one outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples measured.
    pub samples: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Tail of `v` by the [`Tail`] rule. With fewer than `2 * TAIL_BEYOND`
/// samples no percentile above the median qualifies and p50 is reported.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            samples: 0,
        };
    }
    // Nearest rank (1-based) of the per-mille `q`.
    let rank = |q: usize| (q * n).div_ceil(1000).max(1);
    let q = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&q| n - rank(q) >= TAIL_BEYOND)
        .unwrap_or(500);
    Tail {
        pct: q as f64 / 10.0,
        value: s[rank(q) - 1],
        samples: n,
    }
}

/// A run made of rounds, each one repetition of the measurement: each
/// round's median latency, tail latency and rate, and for each the run's
/// figure, the median over its rounds. A stretch of host contention that
/// slows one round then does not set the run's figures, as it would
/// pooled, where the slowed round's requests fill the top percentiles.
#[derive(Debug, Default)]
pub struct Rounds {
    p50: Vec<f64>,
    tail: Vec<Tail>,
    rate: Vec<f64>,
}

impl Rounds {
    /// Record one round: its request latencies and its rate.
    pub fn push(&mut self, latencies: &[f64], rate: f64) {
        self.p50.push(median(latencies));
        self.tail.push(tail(latencies));
        self.rate.push(rate);
    }

    /// Median over the rounds of each round's median latency.
    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    /// Median over the rounds of each round's tail latency, with the
    /// percentile and sample count of the first round.
    pub fn tail(&self) -> Tail {
        let values: Vec<f64> = self.tail.iter().map(|t| t.value).collect();
        Tail {
            value: median(&values),
            ..self.tail.first().copied().unwrap_or(tail(&[]))
        }
    }

    /// Median over the rounds of each round's rate.
    pub fn rate(&self) -> f64 {
        median(&self.rate)
    }
}

/// Ratio `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process (`Threads` in `/proc/self/status`), `None`
/// where the kernel does not report it.
pub fn threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("Threads:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: a tiny seeded generator, so the request mix depends on the
/// seed alone and on no crate's stream layout.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Draw an index from `weights` (not necessarily normalised).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        let t = tail(&v[..35]);
        assert_eq!((t.pct, t.value), (50.0, 18.0));
        assert_eq!(tail(&v[..40]).pct, 75.0);
        let many: Vec<f64> = (1..=640).map(f64::from).collect();
        assert_eq!(tail(&many).pct, 95.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
