use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// Byte accounting for one or more compression operations.
///
/// The paper reports two aggregates built from exactly this accounting
/// (Fig. 11): the **maximum per-layer** ratio (which sets the DRAM read
/// bandwidth cDMA must provision) and the **average network-wide** ratio
/// *weighted by offloaded bytes* (which sets the PCIe traffic reduction).
/// `CompressionStats` values add up, so summing per-layer stats yields the
/// correctly-weighted network aggregate. (Ratios describe *bytes saved*,
/// not time: ZVC's ratio depends only on density, while its *throughput*
/// is density-sensitive — the benchmark's `offload_zvc` workload reports
/// the GB/s side of the story, `compress.zvc.*`.)
///
/// ```
/// use cdma_compress::CompressionStats;
/// let a = CompressionStats::new(1000, 250); // 4.0x on 1 KB
/// let b = CompressionStats::new(3000, 3000); // 1.0x on 3 KB
/// let total = a + b;
/// // Weighted: 4000 / 3250, not the unweighted mean of 4.0 and 1.0.
/// assert!((total.ratio() - 4000.0 / 3250.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressionStats {
    /// Bytes before compression.
    pub uncompressed_bytes: u64,
    /// Bytes after compression.
    pub compressed_bytes: u64,
}

impl CompressionStats {
    /// Creates a stats record.
    pub fn new(uncompressed_bytes: u64, compressed_bytes: u64) -> Self {
        CompressionStats {
            uncompressed_bytes,
            compressed_bytes,
        }
    }

    /// Compression ratio (`uncompressed / compressed`); 1.0 for empty input.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            if self.uncompressed_bytes == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        self.uncompressed_bytes as f64 / self.compressed_bytes as f64
    }

    /// Compressed size as a fraction of the original (the y-axis of
    /// Fig. 12, "offload size normalized to vDNN").
    pub fn normalized_size(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes as f64 / self.uncompressed_bytes as f64
    }
}

impl Add for CompressionStats {
    type Output = CompressionStats;

    fn add(self, rhs: CompressionStats) -> CompressionStats {
        CompressionStats {
            uncompressed_bytes: self.uncompressed_bytes + rhs.uncompressed_bytes,
            compressed_bytes: self.compressed_bytes + rhs.compressed_bytes,
        }
    }
}

impl Sum for CompressionStats {
    fn sum<I: Iterator<Item = CompressionStats>>(iter: I) -> CompressionStats {
        iter.fold(CompressionStats::default(), Add::add)
    }
}

impl fmt::Display for CompressionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} bytes ({:.2}x)",
            self.uncompressed_bytes,
            self.compressed_bytes,
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_normalized_size_are_reciprocal() {
        let s = CompressionStats::new(1024, 256);
        assert_eq!(s.ratio(), 4.0);
        assert_eq!(s.normalized_size(), 0.25);
    }

    #[test]
    fn empty_is_identity() {
        let s = CompressionStats::default();
        assert_eq!(s.ratio(), 1.0);
        assert_eq!(s.normalized_size(), 1.0);
    }

    #[test]
    fn sum_weights_by_bytes() {
        let parts = vec![
            CompressionStats::new(100, 10),
            CompressionStats::new(900, 900),
        ];
        let total: CompressionStats = parts.into_iter().sum();
        assert_eq!(total.uncompressed_bytes, 1000);
        assert_eq!(total.compressed_bytes, 910);
        // Weighted ratio is near 1.1x, far from the unweighted mean ~5.5x.
        assert!((total.ratio() - 1000.0 / 910.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_ratio() {
        let s = CompressionStats::new(200, 100);
        assert!(s.to_string().contains("2.00x"));
    }
}
