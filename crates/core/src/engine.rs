use cdma_compress::{windowed, Algorithm, Codec, CompressionStats, DecodeError};
use cdma_gpusim::{DmaPipeline, OffloadSimResult, SystemConfig};
use cdma_tensor::Tensor;
use cdma_vdnn::timeline::prefetch_seconds;

/// The compressing DMA engine (Section V).
///
/// Wraps an algorithm choice and a platform configuration. Offloads
/// compress activation data in 4 KB windows (the paper's evaluation
/// window), then run the compressed line sizes through the discrete-event
/// DMA pipeline to obtain transfer timing under the engine's bandwidth
/// provisioning and buffer capacity.
///
/// The codec is statically dispatched ([`Codec`]) and every hot-path buffer
/// can be recycled across offloads: [`CdmaEngine::offload_into`] reuses an
/// [`OffloadScratch`]'s stream storage and pipeline, and
/// [`CdmaEngine::memcpy_decompressed_into`] decompresses into a caller-owned
/// buffer — so a steady-state train loop performs no per-layer allocation.
#[derive(Debug, Clone, Copy)]
pub struct CdmaEngine {
    cfg: SystemConfig,
    algorithm: Algorithm,
}

/// The result of a `cudaMemcpyCompressed()`-style offload: the compressed
/// payload plus byte accounting and simulated timing. The proposed API
/// "will be extended beyond the typical cudaMemcpy to also return the
/// compressed size of a region on completion" — that is
/// [`CompressedCopy::stats`].
#[derive(Debug, Clone)]
pub struct CompressedCopy {
    stream: windowed::WindowedStream,
    algorithm: Algorithm,
    /// Byte accounting (uncompressed vs on-wire bytes).
    pub stats: CompressionStats,
    /// Simulated offload timing through the DMA pipeline.
    pub transfer: OffloadSimResult,
}

impl CompressedCopy {
    /// Compressed bytes that crossed the link.
    pub fn wire_bytes(&self) -> usize {
        self.stream.compressed_bytes()
    }

    /// The algorithm that produced this copy.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The contiguous compressed stream (window payloads back to back).
    pub fn stream(&self) -> &windowed::WindowedStream {
        &self.stream
    }

    /// Per-window `(uncompressed, compressed)` line sizes — the DMA
    /// pipeline's native currency, and the payload of the timeline's
    /// measured fidelity level
    /// ([`cdma_vdnn::timeline::MeasuredStream`]).
    pub fn lines(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        stream_lines(&self.stream)
    }
}

/// Per-window `(uncompressed, compressed)` line sizes of a stream — the
/// one place the line-table encoding (f32 elements × 4 bytes per window)
/// is spelled out.
fn stream_lines(stream: &windowed::WindowedStream) -> impl Iterator<Item = (u32, u32)> + '_ {
    stream
        .window_sizes()
        .enumerate()
        .map(|(i, c)| ((stream.window_elements(i) * 4) as u32, c as u32))
}

/// Reusable state for [`CdmaEngine::offload_into`]: one compressed-stream
/// buffer plus one persistent [`DmaPipeline`], both recycled across
/// offloads.
///
/// A long-running service (one offload per request, thousands of requests
/// per second) cannot afford a stream and a line schedule that regrow from
/// empty on every call. The scratch keeps both alive and
/// [`DmaPipeline::reset`]s the pipeline instead, so repeated same-shape
/// offloads allocate nothing (pinned by the workspace's
/// counting-allocator test). [`CdmaEngine::memcpy_compressed`] is the same
/// path on a scratch it builds and gives away.
#[derive(Debug, Clone)]
pub struct OffloadScratch {
    stream: windowed::WindowedStream,
    pipeline: DmaPipeline,
    cfg: SystemConfig,
}

impl OffloadScratch {
    /// Scratch bound to `engine`'s platform configuration.
    pub fn for_engine(engine: &CdmaEngine) -> Self {
        OffloadScratch {
            stream: windowed::WindowedStream::default(),
            pipeline: DmaPipeline::new(engine.cfg),
            cfg: engine.cfg,
        }
    }

    /// The compressed stream of the most recent
    /// [`CdmaEngine::offload_into`] call.
    pub fn stream(&self) -> &windowed::WindowedStream {
        &self.stream
    }
}

impl CdmaEngine {
    /// Creates an engine with an explicit algorithm.
    pub fn new(cfg: SystemConfig, algorithm: Algorithm) -> Self {
        CdmaEngine { cfg, algorithm }
    }

    /// The paper's hardware design point: zero-value compression.
    pub fn zvc(cfg: SystemConfig) -> Self {
        CdmaEngine::new(cfg, Algorithm::Zvc)
    }

    /// The platform configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The statically-dispatched codec for the selected algorithm.
    pub fn codec(&self) -> Codec {
        self.algorithm.codec()
    }

    /// Offloads an activation buffer GPU→CPU with on-the-fly compression:
    /// the `cudaMemcpyCompressed()` analogue. This is
    /// [`CdmaEngine::offload_into`] on a fresh scratch whose stream the copy
    /// keeps.
    pub fn memcpy_compressed(&self, data: &[f32]) -> CompressedCopy {
        let mut scratch = OffloadScratch::for_engine(self);
        let (stats, transfer) = self.offload_into(data, &mut scratch);
        CompressedCopy {
            stream: scratch.stream,
            algorithm: self.algorithm,
            stats,
            transfer,
        }
    }

    /// Offloads a tensor (its raw stream in its own layout).
    pub fn offload_tensor(&self, tensor: &Tensor) -> CompressedCopy {
        self.memcpy_compressed(tensor.as_slice())
    }

    /// Compresses `data` and reports only the byte accounting and the
    /// per-window `(uncompressed, compressed)` line table, skipping the
    /// transfer simulation — for callers that feed the lines into their own
    /// pipeline or timeline (e.g. `cdma_core::measured` building a
    /// [`cdma_vdnn::timeline::MeasuredStream`]) and would otherwise pay for
    /// a discrete-event run whose timing they discard. Recompresses into
    /// the caller-owned `scratch` stream and rewrites `lines` in place
    /// (cleared first, capacity kept), so loops that build line tables
    /// recycle one stream buffer and one line vector across all calls.
    pub fn compress_lines_into(
        &self,
        data: &[f32],
        scratch: &mut windowed::WindowedStream,
        lines: &mut Vec<(u32, u32)>,
    ) -> CompressionStats {
        self.compress_windows(data, scratch);
        lines.clear();
        lines.extend(stream_lines(scratch));
        scratch.stats()
    }

    /// The fully-recycled offload: compresses `data` into the scratch's
    /// stream and times the transfer on the scratch's persistent
    /// [`DmaPipeline`] (reset, not reallocated), with **zero** steady-state
    /// allocation, which makes it the entry point the `cdma-serve` request
    /// loop and any other per-request caller should use.
    ///
    /// If the scratch was built for a different platform configuration,
    /// its pipeline is rebuilt once (an allocation) and retained.
    pub fn offload_into(
        &self,
        data: &[f32],
        scratch: &mut OffloadScratch,
    ) -> (CompressionStats, OffloadSimResult) {
        if scratch.cfg != self.cfg {
            scratch.pipeline = DmaPipeline::new(self.cfg);
            scratch.cfg = self.cfg;
        }
        self.compress_windows(data, &mut scratch.stream);
        scratch.pipeline.reset();
        for (u, c) in stream_lines(&scratch.stream) {
            scratch.pipeline.push_line(0.0, u, c);
        }
        (scratch.stream.stats(), scratch.pipeline.result())
    }

    /// The one window-compression dispatch: recompresses `data` into
    /// `recycled` (cleared first) in 4 KB windows.
    fn compress_windows(&self, data: &[f32], recycled: &mut windowed::WindowedStream) {
        recycled.recompress(
            &self.algorithm.codec(),
            data,
            windowed::DEFAULT_WINDOW_BYTES,
        );
    }

    /// The CPU→GPU prefetch direction: decompresses a copy back into
    /// activation words.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is corrupt (a transfer
    /// fault).
    pub fn memcpy_decompressed(&self, copy: &CompressedCopy) -> Result<Vec<f32>, DecodeError> {
        let mut out = Vec::new();
        self.memcpy_decompressed_into(copy, &mut out)?;
        Ok(out)
    }

    /// Streaming prefetch: decompresses into a caller-owned buffer (cleared
    /// first), so per-layer prefetches in a training loop reuse one
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is corrupt (a transfer
    /// fault); `out` is left unspecified on error.
    pub fn memcpy_decompressed_into(
        &self,
        copy: &CompressedCopy,
        out: &mut Vec<f32>,
    ) -> Result<(), DecodeError> {
        let codec = copy.algorithm.codec();
        copy.stream.decompress_into(&codec, out)
    }

    /// Estimated prefetch (CPU→GPU) time: the link moves the compressed
    /// bytes while the memory-controller engines decompress at their
    /// aggregate throughput, whichever is slower. Delegates to the
    /// timeline's [`prefetch_seconds`] — the single source of truth for the
    /// CPU→GPU direction.
    pub fn prefetch_time(&self, copy: &CompressedCopy) -> f64 {
        prefetch_seconds(
            &self.cfg,
            copy.stats.uncompressed_bytes,
            copy.stats.compressed_bytes,
        )
    }

    /// Speedup of this engine's offload over an uncompressed vDNN copy of
    /// the same data.
    pub fn offload_speedup(&self, copy: &CompressedCopy) -> f64 {
        let uncompressed_time = copy.stats.uncompressed_bytes as f64 / self.cfg.pcie_bw;
        uncompressed_time / copy.transfer.total_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_sparsity::ActivationGen;
    use cdma_tensor::{Layout, Shape4};

    fn sparse_data(density_pct: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if (i * 2654435761) % 100 < density_pct {
                    (i % 97) as f32 + 0.5
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn memcpy_roundtrip_all_algorithms() {
        let data = sparse_data(40, 10_000);
        for alg in Algorithm::ALL {
            let engine = CdmaEngine::new(SystemConfig::titan_x_pcie3(), alg);
            let copy = engine.memcpy_compressed(&data);
            assert_eq!(engine.memcpy_decompressed(&copy).unwrap(), data, "{alg}");
            assert_eq!(copy.algorithm(), alg);
        }
    }

    #[test]
    fn sparse_data_offloads_faster() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let sparse = engine.memcpy_compressed(&sparse_data(20, 1 << 20));
        let dense = engine.memcpy_compressed(&sparse_data(100, 1 << 20));
        assert!(sparse.transfer.total_time < dense.transfer.total_time / 2.0);
        assert!(engine.offload_speedup(&sparse) > 2.0);
        assert!(engine.offload_speedup(&dense) < 1.1);
    }

    #[test]
    fn transfer_accounting_matches_stream() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let data = sparse_data(40, 100_000);
        let copy = engine.memcpy_compressed(&data);
        assert_eq!(copy.transfer.compressed_bytes, copy.wire_bytes() as u64);
        assert_eq!(copy.transfer.uncompressed_bytes, (data.len() * 4) as u64);
        assert_eq!(copy.stats.compressed_bytes, copy.wire_bytes() as u64);
    }

    #[test]
    fn decompress_into_reuses_buffer_across_layers() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let mut out = Vec::new();
        for n in [10_000usize, 8_000, 12_000] {
            let data = sparse_data(30, n);
            let copy = engine.memcpy_compressed(&data);
            engine.memcpy_decompressed_into(&copy, &mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn offload_tensor_uses_raw_layout_stream() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let mut gen = ActivationGen::seeded(3);
        let t = gen.generate(Shape4::new(2, 16, 13, 13), Layout::Nchw, 0.3);
        let copy = engine.offload_tensor(&t);
        let back = engine.memcpy_decompressed(&copy).unwrap();
        assert_eq!(back, t.as_slice());
    }

    #[test]
    fn compress_lines_matches_full_memcpy() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let data = sparse_data(35, 40_000);
        let copy = engine.memcpy_compressed(&data);
        let mut scratch = windowed::WindowedStream::default();
        let mut lines = Vec::new();
        let stats = engine.compress_lines_into(&data, &mut scratch, &mut lines);
        assert_eq!(stats, copy.stats);
        assert_eq!(lines, copy.lines().collect::<Vec<_>>());
    }

    #[test]
    fn compress_lines_into_recycles_and_matches() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let mut scratch = windowed::WindowedStream::default();
        let mut lines = Vec::new();
        for n in [40_000usize, 30_000, 50_000] {
            let data = sparse_data(35, n);
            let fresh = engine.memcpy_compressed(&data);
            let stats = engine.compress_lines_into(&data, &mut scratch, &mut lines);
            assert_eq!(stats, fresh.stats);
            assert_eq!(lines, fresh.lines().collect::<Vec<_>>());
        }
        // Steady state: a second same-sized pass allocates nothing.
        let data = sparse_data(35, 50_000);
        engine.compress_lines_into(&data, &mut scratch, &mut lines);
        let cap = lines.capacity();
        engine.compress_lines_into(&data, &mut scratch, &mut lines);
        assert_eq!(lines.capacity(), cap);
    }

    /// `memcpy_compressed` is `offload_into` on a fresh scratch, so a warm,
    /// previously-used scratch (bigger and smaller streams before it) must
    /// give the same stream bytes, `stats` and `transfer` — nothing may leak
    /// through `DmaPipeline::reset` — and both must equal a pipeline built
    /// from nothing for that one transfer.
    #[test]
    fn offload_into_matches_memcpy_compressed() {
        for alg in [Algorithm::Zvc, Algorithm::Rle] {
            let engine = CdmaEngine::new(SystemConfig::titan_x_pcie3(), alg);
            let mut scratch = OffloadScratch::for_engine(&engine);
            for (density, n) in [(35, 40_000usize), (90, 25_000), (10, 60_000)] {
                let data = sparse_data(density, n);
                let fresh = engine.memcpy_compressed(&data);
                let (stats, transfer) = engine.offload_into(&data, &mut scratch);
                assert_eq!(stats, fresh.stats);
                assert_eq!(transfer, fresh.transfer);
                assert_eq!(scratch.stream().as_bytes(), fresh.stream().as_bytes());
                let lines: Vec<(u32, u32)> = fresh.lines().collect();
                let mut pipeline = DmaPipeline::new(engine.config());
                pipeline.push_table(0.0, &lines, 1);
                assert_eq!(transfer, pipeline.result());
            }
        }
    }

    #[test]
    fn offload_into_rebinds_on_config_change() {
        let data = sparse_data(40, 30_000);
        let pcie = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let nvlink = CdmaEngine::zvc(SystemConfig::titan_x_nvlink());
        let mut scratch = OffloadScratch::for_engine(&pcie);
        pcie.offload_into(&data, &mut scratch);
        let (_, via_scratch) = nvlink.offload_into(&data, &mut scratch);
        assert_eq!(via_scratch, nvlink.memcpy_compressed(&data).transfer);
    }

    #[test]
    fn prefetch_is_link_bound_for_modest_ratios() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let copy = engine.memcpy_compressed(&sparse_data(40, 1 << 20));
        let t = engine.prefetch_time(&copy);
        let link_time = copy.stats.compressed_bytes as f64 / 12.8e9;
        assert!((t - link_time).abs() / link_time < 1e-6);
    }

    #[test]
    fn empty_copy_is_trivial() {
        let engine = CdmaEngine::zvc(SystemConfig::titan_x_pcie3());
        let copy = engine.memcpy_compressed(&[]);
        assert_eq!(copy.wire_bytes(), 0);
        assert_eq!(
            engine.memcpy_decompressed(&copy).unwrap(),
            Vec::<f32>::new()
        );
    }
}
