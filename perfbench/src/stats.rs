//! Exact order statistics over the benchmark's own samples.

/// A sorted sample set. Percentiles are exact (nearest rank), never
/// read from a bucketed histogram.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `values` into a distribution.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median (mean of the two middle samples for an even count);
    /// 0 for an empty set.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p) - 1]
    }

    /// How many samples lie strictly beyond the nearest-rank
    /// percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        self.sorted.len() - self.rank(p).min(self.sorted.len())
    }

    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len() as f64;
        ((p / 100.0 * n).ceil() as usize).clamp(1, self.sorted.len().max(1))
    }
}

/// Splits `(offset, value)` samples taken over `[0, span)` into
/// `windows` equal time windows (a late sample joins the last one).
pub fn windowed(samples: impl Iterator<Item = (f64, f64)>, span: f64, windows: usize) -> Vec<Dist> {
    let windows = windows.max(1);
    let mut parts = vec![Vec::new(); windows];
    for (offset, value) in samples {
        let w = ((offset / span * windows as f64).max(0.0) as usize).min(windows - 1);
        parts[w].push(value);
    }
    parts.into_iter().map(Dist::new).collect()
}

/// Per-window statistics summarised by their medians, so a burst of
/// interference in one window moves the run's figure little.
#[derive(Clone, Debug)]
pub struct Windows {
    /// Median over windows of the window's median.
    pub p50: f64,
    /// Median over windows of the window's p99.
    pub p99: f64,
    /// Median over windows of samples per second.
    pub rate: f64,
    /// Samples in all windows.
    pub samples: usize,
    /// Fewest samples beyond p99 in any window.
    pub min_beyond_p99: usize,
    /// Number of windows.
    pub windows: usize,
    /// Each window's rate, in order.
    pub rates: Vec<f64>,
    /// Each window's median, in order.
    pub p50s: Vec<f64>,
}

impl Windows {
    /// Summarises `parts`, each window `seconds` long.
    pub fn of(parts: &[Dist], seconds: f64) -> Self {
        let each = |f: &dyn Fn(&Dist) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        Self {
            p50: each(&|d| d.median()),
            p99: each(&|d| d.pct(99.0)),
            rate: each(&|d| d.len() as f64 / seconds),
            samples: parts.iter().map(Dist::len).sum(),
            min_beyond_p99: parts.iter().map(|d| d.beyond(99.0)).min().unwrap_or(0),
            windows: parts.len(),
            rates: parts.iter().map(|d| d.len() as f64 / seconds).collect(),
            p50s: parts.iter().map(Dist::median).collect(),
        }
    }
}

/// Median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).median()
}

/// FNV-1a 64-bit, the digest behind request streams and answers.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a sorted answer.
pub fn answer_digest(ids: &[u32]) -> u64 {
    let mut h = Fnv::default();
    h.word(ids.len() as u64);
    for &id in ids {
        h.word(u64::from(id));
    }
    h.finish()
}

/// A small seeded generator (SplitMix64) for the benchmark's own
/// choices, so the inputs depend on the seed alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.pct(99.0), 990.0);
        assert_eq!(d.beyond(99.0), 10);
        assert_eq!(d.median(), 500.5);
        assert_eq!(Dist::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Dist::default().pct(99.0), 0.0);
    }
}
