//! Seeds, fingerprints and order statistics.

use std::fmt;

/// The splitmix64 finaliser: every cell seed of every workload is
/// `splitmix64(seed + index)`, so one `--seed` fixes all inputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of cell `index` under the run seed `seed`.
pub fn cell_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed.wrapping_add(index))
}

/// A 64-bit FNV-1a hash over everything a workload outputs, folded in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A `fmt::Write` sink that hashes a value's `Debug` rendering without
/// allocating it, and notes whether the rendering holds a non-finite
/// float (`NaN`, `inf`, `-inf` render as those bare tokens).
#[derive(Debug, Default)]
pub struct DebugFold {
    hash: Fnv,
    token: Vec<u8>,
    non_finite: bool,
}

impl DebugFold {
    /// Hashes `value`'s `Debug` rendering.
    pub fn of(value: &impl fmt::Debug) -> DebugFold {
        use fmt::Write as _;
        let mut fold = DebugFold {
            token: Vec::with_capacity(8),
            ..DebugFold::default()
        };
        // writing into a hasher cannot fail
        let _ = write!(fold, "{value:?}");
        fold.end_token();
        fold
    }

    /// The fingerprint of the rendering.
    pub fn fingerprint(&self) -> u64 {
        self.hash.value()
    }

    /// True when every float in the rendering is finite.
    pub fn all_finite(&self) -> bool {
        !self.non_finite
    }

    fn end_token(&mut self) {
        if self.token == b"NaN" || self.token == b"inf" {
            self.non_finite = true;
        }
        self.token.clear();
    }
}

impl fmt::Write for DebugFold {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.hash.bytes(s.as_bytes());
        for b in s.bytes() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                // only 3-letter tokens matter; longer ones cannot match
                if self.token.len() < 4 {
                    self.token.push(b);
                }
            } else {
                self.end_token();
            }
        }
        Ok(())
    }
}

/// Linear-interpolation quantile of an ascending slice; `q` in `[0, 1]`.
/// `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Samples of an `n`-sample set that lie beyond its `permille`
/// quantile (exact integer arithmetic, so 990 of 1000 gives 10).
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    let at = (n as u64 * u64::from(permille)).div_ceil(1000);
    n.saturating_sub(at as usize)
}

/// The `permille` quantile of an ascending slice, refused (`None`) for a
/// tail percentile (above the median) with fewer than ten samples
/// beyond it: such a number is one or two outliers, not a percentile.
pub fn tail(sorted: &[f64], permille: u32) -> Option<f64> {
    if permille > 500 && samples_beyond(sorted.len(), permille) < 10 {
        return None;
    }
    quantile(sorted, f64::from(permille) / 1000.0)
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Sample count.
    pub n: u64,
}

/// Median and quartiles of `values` (zeros when empty).
pub fn spread(values: &[f64]) -> Spread {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q| quantile(&sorted, q).unwrap_or(0.0);
    Spread {
        median: at(0.5),
        p25: at(0.25),
        p75: at(0.75),
        n: sorted.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(
            tail(&sorted, 990).is_some(),
            "1000 samples leave 10 beyond p99"
        );
        assert!(tail(&sorted[..990], 990).is_none(), "990 samples leave 9");
        assert!(tail(&sorted[..990], 980).is_some());
        assert!(
            tail(&sorted[..9], 500).is_some(),
            "the median is never refused"
        );
        assert_eq!(samples_beyond(200, 950), 10, "p95 needs 200 samples");
        assert_eq!(samples_beyond(199, 950), 9);
        assert_eq!(samples_beyond(40, 750), 10, "p75 needs 40 samples");
        assert_eq!(samples_beyond(33, 750), 8);
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        let s = spread(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.p25, s.p75, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn debug_fold_flags_non_finite_floats_only() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct R {
            info: f64,
            inference: Vec<f64>,
        }
        let finite = DebugFold::of(&R {
            info: 1e-7,
            inference: vec![2.5],
        });
        assert!(finite.all_finite());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let fold = DebugFold::of(&R {
                info: 0.0,
                inference: vec![1.0, bad],
            });
            assert!(!fold.all_finite(), "{bad} must be flagged");
        }
        assert_ne!(
            finite.fingerprint(),
            DebugFold::of(&R {
                info: 1e-7,
                inference: vec![2.5000000000000004],
            })
            .fingerprint(),
            "one ulp changes the fingerprint"
        );
    }

    #[test]
    fn cell_seeds_are_distinct_and_reproducible() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        assert_ne!(cell_seed(7, 3), cell_seed(7, 4));
        assert_ne!(cell_seed(7, 3), cell_seed(8, 3));
    }
}
