//! Seeded randomness, order statistics and the metric report.

use std::collections::BTreeMap;

/// SplitMix64: a tiny, well-mixed generator. The whole benchmark draws its
/// inputs from one of these seeded by `--seed`, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one phase, so adding draws to one phase
    /// leaves the inputs of the others unchanged.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with the given integer weights.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut pick = (self.next() % total as u64) as u32;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        unreachable!("pick is below the weight total")
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Writes a metric's samples to standard error (`RAW <name> [..]`), for
/// studying how a statistic over them spreads from run to run.
pub fn raw(name: &str, values: &[f64]) {
    eprintln!("RAW {name} {values:?}");
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One reported metric: its value, unit and the number of samples behind
/// it (1 for a count or a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics a run reports, by name, plus the operation tallies of the
/// result line.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let old = self.metrics.insert(
            name.clone(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(old.is_none(), "metric {name} reported twice");
    }

    /// A count (exact, one sample).
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, value, "count", 1);
    }

    /// A ratio; 0 when the base is 0.
    pub fn ratio(&mut self, name: impl Into<String>, num: f64, den: f64) {
        self.put(name, if den > 0.0 { num / den } else { 0.0 }, "ratio", 1);
    }
}
