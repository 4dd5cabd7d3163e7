/// Cycle model of the ZVC (de)compression engine of Fig. 10.
///
/// The compression engine operates on one 32-byte sector (8 words, one DRAM
/// burst) per cycle through a 3-stage pipeline: (1) parallel zero-compare +
/// prefix sum, (2) bubble-collapsing shift, (3) shift-and-append into the
/// 128-byte compression window. A 128-byte line is four sectors, so its last
/// sector leaves the pipeline at cycle `3 + 4 - 1 = 6` — "the total latency
/// to compress a 128-byte line is six cycles".
///
/// Decompression also processes 32 bytes per cycle but "requires only two
/// additional cycles of latency ... because decompression can start as soon
/// as the first part of the data arrives".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZvcEngine {
    /// Clock frequency in Hz (memory-controller domain).
    pub clock: f64,
}

/// Bytes handled per pipeline cycle (one DRAM burst / internal data-path
/// width).
pub const SECTOR_BYTES: usize = 32;

/// Compression pipeline depth (compare/prefix-sum, shift, append).
const COMPRESS_STAGES: u64 = 3;

/// Extra latency cycles of the decompression engine beyond streaming.
const DECOMPRESS_EXTRA: u64 = 2;

impl ZvcEngine {
    /// Creates an engine model at `clock` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is not positive.
    pub fn new(clock: f64) -> Self {
        assert!(clock > 0.0, "clock must be positive, got {clock}");
        ZvcEngine { clock }
    }

    /// Cycles to compress `bytes` of uncompressed data streaming through
    /// the pipeline (latency of the last byte).
    pub fn compress_cycles(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let sectors = bytes.div_ceil(SECTOR_BYTES) as u64;
        COMPRESS_STAGES + sectors - 1
    }

    /// Cycles until the last output byte of a `bytes`-sized line is
    /// decompressed, counted from first input arrival.
    pub fn decompress_cycles(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let sectors = bytes.div_ceil(SECTOR_BYTES) as u64;
        sectors + DECOMPRESS_EXTRA
    }

    /// Steady-state throughput of one engine in bytes/second
    /// (`SECTOR_BYTES × clock`).
    pub fn throughput(&self) -> f64 {
        SECTOR_BYTES as f64 * self.clock
    }

    /// Aggregate steady-state throughput of `engines` engines — one per
    /// memory controller in the cDMA design.
    pub fn aggregate_throughput(&self, engines: usize) -> f64 {
        self.throughput() * engines as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_latency_matches_paper() {
        // "The total latency to compress a 128-byte line is six cycles,
        // four 32B sectors moving through a three-stage pipeline."
        let e = ZvcEngine::new(1e9);
        assert_eq!(e.compress_cycles(128), 6);
        // "only two additional cycles of latency to decompress a 128-byte
        // line": 4 streaming cycles + 2.
        assert_eq!(e.decompress_cycles(128), 6);
    }

    #[test]
    fn pipelining_amortizes_depth() {
        let e = ZvcEngine::new(1e9);
        // 1 KB = 32 sectors: 3 + 31 = 34 cycles, not 8 * 6.
        assert_eq!(e.compress_cycles(1024), 34);
        // Back-to-back lines stream at ~1 sector/cycle.
        let per_line_amortized = e.compress_cycles(128 * 1000) as f64 / 1000.0;
        assert!(per_line_amortized < 4.1, "{per_line_amortized}");
    }

    #[test]
    fn partial_sectors_round_up() {
        let e = ZvcEngine::new(1e9);
        assert_eq!(e.compress_cycles(1), e.compress_cycles(32));
        assert_eq!(e.compress_cycles(33), e.compress_cycles(64));
        assert_eq!(e.compress_cycles(0), 0);
        assert_eq!(e.decompress_cycles(0), 0);
    }

    #[test]
    fn six_engines_cover_the_provisioned_comp_bw() {
        // 6 MCs x 32 B/cycle x ~1.05 GHz ≈ 201.6 GB/s — consistent with the
        // 200 GB/s COMP_BW the paper provisions.
        let e = ZvcEngine::new(1.05e9);
        let agg = e.aggregate_throughput(6);
        assert!(
            (agg - 200e9).abs() / 200e9 < 0.02,
            "aggregate {agg:.3e} should be ~200 GB/s"
        );
    }

    #[test]
    fn throughput_scales_with_clock() {
        let slow = ZvcEngine::new(0.5e9);
        let fast = ZvcEngine::new(1.0e9);
        assert!((fast.throughput() / slow.throughput() - 2.0).abs() < 1e-12);
        // Wall-clock time to stream a 4 KB line through one engine.
        let time = |e: &ZvcEngine| e.compress_cycles(4096) as f64 / e.clock;
        assert!(time(&fast) < time(&slow));
    }
}
