//! Fixed-width histograms of f64 samples.

/// A histogram with equally sized bins over `[min, max]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub min: f64,
    /// Upper edge of the last bin.
    pub max: f64,
    /// Bin counts.
    pub counts: Vec<usize>,
    /// Number of samples that fell outside `[min, max]`.
    pub outliers: usize,
}

impl Histogram {
    /// Builds a histogram of `samples` with `bins` equal-width bins over
    /// `[min, max]`. Values exactly equal to `max` land in the last bin.
    ///
    /// Returns `None` if `bins == 0`, `min >= max`, or either bound is not
    /// finite.
    pub fn with_range(samples: &[f64], bins: usize, min: f64, max: f64) -> Option<Histogram> {
        if bins == 0 || !(min.is_finite() && max.is_finite()) || min >= max {
            return None;
        }
        let width = (max - min) / bins as f64;
        let mut counts = vec![0usize; bins];
        let mut outliers = 0usize;
        for &x in samples {
            if x.is_nan() || x < min || x > max {
                outliers += 1;
                continue;
            }
            let mut idx = ((x - min) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        Some(Histogram {
            min,
            max,
            counts,
            outliers,
        })
    }

    /// Builds a histogram spanning the observed sample range.
    pub fn auto(samples: &[f64], bins: usize) -> Option<Histogram> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if min == max {
            // Degenerate sample: one bin holding everything.
            return Some(Histogram {
                min,
                max,
                counts: vec![samples.len()],
                outliers: 0,
            });
        }
        Self::with_range(samples, bins, min, max)
    }

    /// Total number of binned samples (excludes outliers).
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Index of the most populated bin.
    pub fn mode_bin(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Renders a compact ASCII bar chart (one line per bin) for quick visual
    /// inspection.
    pub fn render_ascii(&self, width: usize) -> String {
        let max_count = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.min + self.bin_width() * i as f64;
            let hi = lo + self.bin_width();
            let bar_len = (c * width).div_ceil(max_count);
            out.push_str(&format!(
                "[{lo:10.2}, {hi:10.2}) {:>8} {}\n",
                c,
                "#".repeat(if c == 0 { 0 } else { bar_len })
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_expected_bins() {
        let h = Histogram::with_range(&[0.1, 0.9, 1.5, 2.9, 3.0], 3, 0.0, 3.0).unwrap();
        assert_eq!(h.counts, vec![2, 1, 2]);
        assert_eq!(h.outliers, 0);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_width(), 1.0);
    }

    #[test]
    fn outliers_are_counted_not_binned() {
        let h = Histogram::with_range(&[-1.0, 0.5, 10.0], 2, 0.0, 1.0).unwrap();
        assert_eq!(h.total(), 1);
        assert_eq!(h.outliers, 2);
    }

    #[test]
    fn auto_range_covers_sample() {
        let h = Histogram::auto(&[2.0, 4.0, 6.0, 8.0], 4).unwrap();
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.outliers, 0);
    }

    #[test]
    fn degenerate_and_invalid_inputs() {
        assert!(Histogram::with_range(&[1.0], 0, 0.0, 1.0).is_none());
        assert!(Histogram::with_range(&[1.0], 3, 2.0, 1.0).is_none());
        assert!(Histogram::auto(&[], 3).is_none());
        let constant = Histogram::auto(&[5.0, 5.0], 3).unwrap();
        assert_eq!(constant.counts, vec![2]);
    }

    #[test]
    fn mode_and_render() {
        let h = Histogram::with_range(&[0.1, 0.2, 0.3, 1.5], 2, 0.0, 2.0).unwrap();
        assert_eq!(h.mode_bin(), 0);
        let art = h.render_ascii(10);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
    }
}
