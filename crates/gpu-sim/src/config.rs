/// CPU–GPU interconnect generation (Section IX discusses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// PCIe gen3 x16: 16 GB/s peak, ~12.8 GB/s effective for DMA copies.
    PcieGen3,
    /// NVLink to an IBM Power host: 80 GB/s peak.
    NvLink,
}

impl LinkKind {
    /// Effective DMA bandwidth in bytes/second. The paper measures
    /// 12.8 GB/s achieved on PCIe gen3 (Section III); NVLink sustains
    /// close to peak.
    pub fn effective_bw(&self) -> f64 {
        match self {
            LinkKind::PcieGen3 => 12.8e9,
            LinkKind::NvLink => 72e9,
        }
    }
}

/// The modelled DNN training platform (Section VI, "GPU node topology").
///
/// Defaults follow the paper's Titan X (Maxwell) testbed. All bandwidths
/// are bytes/second, latency is seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// GPU DRAM peak bandwidth (336 GB/s GDDR5 on Titan X).
    pub dram_bw: f64,
    /// Average DRAM bandwidth consumed by cuDNN compute (<100 GB/s measured
    /// with nvprof, Section VI), leaving `dram_bw - compute_bw` for cDMA.
    pub compute_dram_bw: f64,
    /// Read bandwidth provisioned to the cDMA engine (`COMP_BW`, capped at
    /// 200 GB/s in the paper's conservative evaluation).
    pub comp_bw: f64,
    /// Effective CPU–GPU link bandwidth used by DMA transfers.
    pub pcie_bw: f64,
    /// Round-trip latency from DMA read request to data arrival (350 ns,
    /// from the Wong et al. microbenchmarks the paper cites).
    pub mem_latency: f64,
    /// DMA staging-buffer capacity in bytes (70 KB per Section V-C).
    pub dma_buffer: usize,
    /// Number of memory controllers / compression engines (6 on Titan X:
    /// 384-bit bus = 6 × 64-bit channels).
    pub mem_controllers: usize,
    /// Compression-engine clock in Hz (memory-controller domain).
    pub engine_clock: f64,
}

impl SystemConfig {
    /// The paper's evaluated platform: Titan X (Maxwell) + PCIe gen3.
    pub fn titan_x_pcie3() -> Self {
        SystemConfig {
            dram_bw: 336e9,
            compute_dram_bw: 100e9,
            comp_bw: 200e9,
            pcie_bw: LinkKind::PcieGen3.effective_bw(),
            mem_latency: 350e-9,
            dma_buffer: 70 * 1024,
            mem_controllers: 6,
            engine_clock: 1.05e9,
        }
    }

    /// A future platform with an NVLink host interconnect (Section IX).
    pub fn titan_x_nvlink() -> Self {
        SystemConfig {
            pcie_bw: LinkKind::NvLink.effective_bw(),
            ..SystemConfig::titan_x_pcie3()
        }
    }

    /// Same platform with the host link shared by `gpus` GPUs (the
    /// multi-GPU DGX-style sharing of Section IX: 4–8 GPUs leave each with
    /// 10–20 GB/s).
    pub fn shared_link(self, gpus: usize) -> Self {
        assert!(gpus > 0, "at least one GPU required");
        SystemConfig {
            pcie_bw: self.pcie_bw / gpus as f64,
            ..self
        }
    }

    /// DRAM bandwidth left over for cDMA after compute traffic
    /// (336 − 100 = 236 GB/s in the paper).
    pub fn leftover_dram_bw(&self) -> f64 {
        (self.dram_bw - self.compute_dram_bw).max(0.0)
    }

    /// The read bandwidth the engine may actually use: provisioned, but
    /// never more than what DRAM has left.
    pub fn usable_comp_bw(&self) -> f64 {
        self.comp_bw.min(self.leftover_dram_bw())
    }

    /// Maximum compression ratio the engine can exploit at full PCIe rate
    /// (`COMP_BW / PCIe`); beyond this, compressed data cannot be produced
    /// fast enough and the paper inflates the transfer latency by
    /// `ratio / max_ratio`.
    fn max_exploitable_ratio(&self) -> f64 {
        self.usable_comp_bw() / self.pcie_bw
    }

    /// Bandwidth-delay product of the compression read path — the minimum
    /// DMA buffer that avoids pipeline bubbles (Section V-C: 200 GB/s ×
    /// 350 ns = 70 KB).
    pub fn bandwidth_delay_bytes(&self) -> f64 {
        self.usable_comp_bw() * self.mem_latency
    }

    /// Effective link bandwidth for data that compresses by `ratio`:
    /// `pcie_bw × min(ratio, max_exploitable_ratio)` uncompressed bytes per
    /// second — the paper's analytical throttling model (Section VI).
    pub fn effective_offload_bw(&self, ratio: f64) -> f64 {
        assert!(ratio > 0.0, "compression ratio must be positive");
        self.pcie_bw
            * ratio
                .min(self.max_exploitable_ratio())
                .max(1.0f64.min(ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_x_matches_paper_numbers() {
        let c = SystemConfig::titan_x_pcie3();
        assert_eq!(c.dram_bw, 336e9);
        assert_eq!(c.pcie_bw, 12.8e9);
        assert_eq!(c.leftover_dram_bw(), 236e9);
        assert_eq!(c.usable_comp_bw(), 200e9);
        assert_eq!(c.dma_buffer, 70 * 1024);
    }

    #[test]
    fn buffer_equals_bandwidth_delay_product() {
        // Section V-C: 200 GB/s x 350 ns = 70 KB.
        let c = SystemConfig::titan_x_pcie3();
        let bdp = c.bandwidth_delay_bytes();
        assert!((bdp - 70_000.0).abs() < 100.0, "bdp {bdp}");
        // The 70 KiB buffer covers it.
        assert!(c.dma_buffer as f64 >= bdp);
    }

    #[test]
    fn max_exploitable_ratio_is_comp_bw_over_pcie() {
        let c = SystemConfig::titan_x_pcie3();
        // 200 / 12.8 = 15.6x: the paper's observed max of 13.8x fits.
        assert!((c.max_exploitable_ratio() - 15.625).abs() < 1e-9);
        assert!(c.max_exploitable_ratio() > 13.8);
    }

    #[test]
    fn effective_bw_caps_at_comp_bw() {
        let c = SystemConfig::titan_x_pcie3();
        assert!((c.effective_offload_bw(1.0) - 12.8e9).abs() < 1.0);
        assert!((c.effective_offload_bw(2.6) - 2.6 * 12.8e9).abs() < 1.0);
        // A hypothetical 30x ratio cannot exceed COMP_BW of uncompressed
        // fetch rate.
        assert!((c.effective_offload_bw(30.0) - 200e9).abs() < 1.0);
    }

    #[test]
    fn nvlink_raises_the_roof() {
        let n = SystemConfig::titan_x_nvlink();
        assert_eq!(n.pcie_bw, 72e9);
        // But sharing across 8 GPUs brings it back to PCIe territory.
        let shared = n.shared_link(8);
        assert!((shared.pcie_bw - 9e9).abs() < 1.0);
    }

    #[test]
    fn link_kinds_expose_bandwidths() {
        assert!(LinkKind::NvLink.effective_bw() > LinkKind::PcieGen3.effective_bw());
    }
}
