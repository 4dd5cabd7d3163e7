use std::fmt;

/// Density accounting for one activation map (or an aggregate of several).
///
/// The paper defines per-layer average output activation density
/// (`AVGdensity`) as non-zero activations over total activations, measured
/// across a minibatch (Section IV-A), and reports *network-wide* density
/// weighted by the size of each layer's activation maps — early layers have
/// much larger maps, so an unweighted mean would overstate sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DensityStats {
    /// Non-zero element count.
    pub nonzero: u64,
    /// Total element count.
    pub total: u64,
}

impl DensityStats {
    /// Measures a tensor.
    #[cfg(test)]
    fn of_tensor(t: &cdma_tensor::Tensor) -> Self {
        DensityStats {
            nonzero: t.count_nonzero() as u64,
            total: t.len() as u64,
        }
    }

    /// Measures a raw activation slice.
    #[cfg(test)]
    fn of_slice(data: &[f32]) -> Self {
        DensityStats {
            nonzero: data.iter().filter(|v| v.to_bits() != 0).count() as u64,
            total: data.len() as u64,
        }
    }

    /// Builds stats from a known density and element count (for modelled
    /// rather than measured layers).
    #[cfg(test)]
    fn from_density(density: f64, total: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        DensityStats {
            nonzero: (density * total as f64).round() as u64,
            total,
        }
    }

    /// Non-zero fraction (`AVGdensity`); 1.0 for empty input.
    pub fn density(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.nonzero as f64 / self.total as f64
    }

    /// Zero fraction (`1 - AVGdensity`).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Merges two measurements (element-weighted).
    pub fn merge(&self, other: &DensityStats) -> DensityStats {
        DensityStats {
            nonzero: self.nonzero + other.nonzero,
            total: self.total + other.total,
        }
    }
}

impl fmt::Display for DensityStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} non-zero ({:.1}% dense)",
            self.nonzero,
            self.total,
            self.density() * 100.0
        )
    }
}

/// Element-weighted network-wide average density over `(element_count,
/// density)` pairs — the aggregation behind the paper's "average 62%
/// network-wide activation sparsity" claim.
///
/// ```
/// use cdma_sparsity::weighted_average_density;
/// // A huge 50%-dense early layer dominates a tiny 2%-dense fc layer.
/// let d = weighted_average_density([(1_000_000, 0.5), (4_096, 0.02)]);
/// assert!(d > 0.49 && d < 0.5);
/// ```
///
/// # Panics
///
/// Panics if any density is outside `[0, 1]`.
pub fn weighted_average_density<I>(layers: I) -> f64
where
    I: IntoIterator<Item = (u64, f64)>,
{
    let mut nonzero = 0f64;
    let mut total = 0u64;
    for (elems, density) in layers {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        nonzero += elems as f64 * density;
        total += elems;
    }
    if total == 0 {
        return 1.0;
    }
    nonzero / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_tensor::{Layout, Shape4, Tensor};

    #[test]
    fn of_tensor_counts_zeros() {
        let mut t = Tensor::zeros(Shape4::new(1, 1, 2, 2), Layout::Nchw);
        t.set(0, 0, 0, 0, 1.0);
        let s = DensityStats::of_tensor(&t);
        assert_eq!(s.nonzero, 1);
        assert_eq!(s.total, 4);
        assert_eq!(s.density(), 0.25);
        assert_eq!(s.sparsity(), 0.75);
    }

    #[test]
    fn of_slice_treats_negative_zero_as_nonzero() {
        // Bit-exact semantics match the ZVC hardware: -0.0 has payload bits.
        let s = DensityStats::of_slice(&[0.0, -0.0, 1.0]);
        assert_eq!(s.nonzero, 2);
    }

    #[test]
    fn merge_is_element_weighted() {
        let a = DensityStats::from_density(1.0, 100);
        let b = DensityStats::from_density(0.0, 300);
        let m = a.merge(&b);
        assert_eq!(m.density(), 0.25);
    }

    #[test]
    fn weighted_average_examples() {
        assert_eq!(weighted_average_density([(100, 0.5), (100, 0.5)]), 0.5);
        let d = weighted_average_density([(300, 1.0), (100, 0.0)]);
        assert!((d - 0.75).abs() < 1e-12);
        assert_eq!(weighted_average_density(std::iter::empty()), 1.0);
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn invalid_density_rejected() {
        let _ = weighted_average_density([(10, 1.5)]);
    }

    #[test]
    fn display_mentions_percentage() {
        let s = DensityStats::from_density(0.5, 10);
        assert!(s.to_string().contains("50.0%"));
    }
}
