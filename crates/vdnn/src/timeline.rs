//! # Event-driven training-step timeline
//!
//! [`TimelineSim`] simulates one training step as a stream of timestamped
//! events over three shared resources — the GPU **compute** stream, the
//! cDMA **read path** (DRAM fetch + per-memory-controller compression), and
//! the **PCIe link**. With the [`UniformRatio`] source it reproduces the
//! closed-form per-layer `max(compute, offload)` arithmetic of vDNN's
//! Fig. 2b model exactly (`tests/timeline_cross_validation.rs` keeps the
//! closed form).
//!
//! What crosses the link is abstracted behind the [`TransferSource`] trait,
//! giving the same timeline **three fidelity levels**:
//!
//! | source | transfer payload | used by |
//! |---|---|---|
//! | [`UniformRatio`] | the paper's analytic model: per-layer scalar ratios through [`SystemConfig::effective_offload_bw`] | Fig. 3b, Fig. 13 |
//! | [`ProfiledDensity`] | analytic ratios derived from `cdma-sparsity` density trajectories at a training checkpoint | Fig. 13 per-checkpoint variants, training-run projections |
//! | [`MeasuredStream`] | real per-window `(uncompressed, compressed)` line sizes produced by `CdmaEngine::memcpy_compressed` on actual activations, driven through the incremental [`DmaPipeline`] | Fig. 2 timeline, measured-fidelity experiments |
//!
//! At the measured level each offload's 4 KB lines are pushed into one
//! [`DmaPipeline`] shared across the whole step, released at their stage's
//! start time — the transfer is scheduled on the step's own clock and
//! overlaps that layer's compute, rather than being timed as an isolated
//! standalone run. (Under vDNN's stage barrier the pipeline always drains
//! before the next stage begins; the incremental form is what lets looser
//! schedules interleave lines across stages.) A layer's payload is a
//! per-image line table repeated once per image of the minibatch, and
//! [`DmaPipeline::push_table`] steps it only until its schedule turns
//! periodic; the offload's read-path and link busy time come back as exact
//! femtosecond totals rather than per-line intervals.
//!
//! The simulation reproduces vDNN's synchronization (Fig. 2 of the paper):
//! forward stage *n* computes layer *n* while offloading layer *n−1*'s
//! output, and stage *n+1* starts only when both finish; backward stage *n*
//! overlaps its computation with the prefetch for stage *n−1*, after a
//! serial prefetch of the deepest offloaded input.
//!
//! The CPU→GPU (prefetch) direction has one source of truth,
//! [`prefetch_seconds`]: the link moves compressed bytes while the
//! memory-controller engines decompress at their aggregate throughput,
//! whichever is slower. `CdmaEngine::prefetch_time` delegates here.

use std::sync::Arc;

use cdma_compress::Algorithm;
use cdma_gpusim::{fs_to_seconds, DmaPipeline, SystemConfig, ZvcEngine};
use cdma_models::profiles::NetworkProfile;
use cdma_models::NetworkSpec;
use cdma_tensor::Layout;

use crate::{ComputeModel, RatioTable};

/// Seconds to move `compressed_bytes` CPU→GPU and re-inflate them to
/// `uncompressed_bytes`: the link drains the compressed stream while the
/// memory-controller engines decompress at their aggregate throughput, so
/// the slower of the two dominates. The single source of truth for the
/// prefetch direction (`CdmaEngine::prefetch_time` and the timeline's
/// measured prefetch path both call this).
pub fn prefetch_seconds(cfg: &SystemConfig, uncompressed_bytes: u64, compressed_bytes: u64) -> f64 {
    let link = compressed_bytes as f64 / cfg.pcie_bw;
    let engines = ZvcEngine::new(cfg.engine_clock);
    let decompress = uncompressed_bytes as f64 / engines.aggregate_throughput(cfg.mem_controllers);
    link.max(decompress)
}

/// Arbitration policy of a host link shared by several DMA streams
/// (Section IX: 4–8 GPUs on one channel).
///
/// The policy decides how a tier of the
/// [`FluidFabric`](crate::fabric::FluidFabric) splits its wire among
/// concurrently backlogged flows; [`LinkPolicy::BandwidthShare`] is the
/// idealized fair split whose contention-free symmetric case reduces to
/// the paper's static `PCIe / g` division, [`LinkPolicy::RoundRobin`] is
/// the quantum-serialized arbitration real DMA engines implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPolicy {
    /// Fluid fair sharing: backlogged flows split the wire evenly, with
    /// water-filling redistribution when a flow is capped below its fair
    /// share (e.g. its compression engine cannot feed the link faster).
    BandwidthShare,
    /// Quantum round-robin: the link serves one flow at a time, a bounded
    /// burst per turn, cycling over backlogged flows in submission order.
    /// Quantum-exact on a flat fabric; the tiers of a hierarchical one
    /// run its fluid limit (see [`fabric`](crate::fabric)).
    RoundRobin,
}

impl LinkPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [LinkPolicy; 2] = [LinkPolicy::BandwidthShare, LinkPolicy::RoundRobin];

    /// The stable label used in scenario keys and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            LinkPolicy::BandwidthShare => "bandwidth-share",
            LinkPolicy::RoundRobin => "round-robin",
        }
    }
}

impl std::fmt::Display for LinkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for LinkPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bandwidth-share" | "share" | "fair" => Ok(LinkPolicy::BandwidthShare),
            "round-robin" | "rr" => Ok(LinkPolicy::RoundRobin),
            other => Err(format!(
                "unknown link policy {other:?} (expected bandwidth-share|round-robin)"
            )),
        }
    }
}

/// Handle of one DMA stream registered with a
/// [`FluidFabric`](crate::fabric::FluidFabric) (a GPU's offload/prefetch
/// path, or a tenant's gradient all-reduce stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(usize);

impl FlowId {
    /// Mints a flow handle.
    pub(crate) fn from_index(i: usize) -> Self {
        FlowId(i)
    }

    /// The flow's registration index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle of one transfer submitted to a
/// [`FluidFabric`](crate::fabric::FluidFabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(usize);

impl RequestId {
    /// Mints a request handle.
    pub(crate) fn from_index(i: usize) -> Self {
        RequestId(i)
    }

    /// The request's submission index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Default round-robin quantum in **wire bytes per turn**: 65536 bytes,
/// i.e. sixteen 4 KB DMA lines. Every quantum in this module is measured
/// in wire bytes (the compressed size for offloads), never in lines or
/// flits — [`FluidFabric::with_quantum`](crate::fabric::FluidFabric::with_quantum)
/// takes the same unit.
///
/// ```
/// use cdma_vdnn::timeline::DEFAULT_LINK_QUANTUM;
///
/// // The unit is wire bytes: sixteen 4 KB lines, not 16 "flits".
/// assert_eq!(DEFAULT_LINK_QUANTUM, 65536.0);
/// assert_eq!(DEFAULT_LINK_QUANTUM, 16.0 * 4096.0);
/// ```
pub const DEFAULT_LINK_QUANTUM: f64 = 16.0 * 4096.0;

/// The timeline's fidelity level as a first-class value.
///
/// Experiments used to pick a fidelity by calling three different
/// constructors at three call sites; carrying the level as a value lets a
/// scenario descriptor name it declaratively and lets one call site build
/// the matching [`TransferSource`] (see [`FidelitySource`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// The paper's coarsest analytic model: one scalar ratio per layer
    /// (or uniformly across the network) through the effective-bandwidth
    /// throttling formula.
    UniformRatio,
    /// Per-layer analytic ratios from the calibrated density trajectories
    /// sampled at a training checkpoint.
    ProfiledDensity,
    /// Real per-window `(uncompressed, compressed)` line sizes through the
    /// incremental DMA pipeline.
    MeasuredStream,
}

impl Fidelity {
    /// Every fidelity level, coarsest first.
    pub const ALL: [Fidelity; 3] = [
        Fidelity::UniformRatio,
        Fidelity::ProfiledDensity,
        Fidelity::MeasuredStream,
    ];

    /// The stable label used in experiment tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::UniformRatio => "uniform-ratio",
            Fidelity::ProfiledDensity => "profiled-density",
            Fidelity::MeasuredStream => "measured-stream",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform-ratio" | "uniform" => Ok(Fidelity::UniformRatio),
            "profiled-density" | "profiled" => Ok(Fidelity::ProfiledDensity),
            "measured-stream" | "measured" => Ok(Fidelity::MeasuredStream),
            other => Err(format!(
                "unknown fidelity {other:?} (expected uniform|profiled|measured)"
            )),
        }
    }
}

/// A [`TransferSource`] whose fidelity level was chosen at runtime from a
/// [`Fidelity`] value — the single dispatch point that replaces picking one
/// of the three concrete source types at every call site.
#[derive(Debug, Clone)]
pub enum FidelitySource {
    /// A [`UniformRatio`] source.
    Uniform(UniformRatio),
    /// A [`ProfiledDensity`] source.
    Profiled(ProfiledDensity),
    /// A [`MeasuredStream`] source, shared: a stream is up to millions of
    /// line sizes, and whoever memoised it hands the same one out again.
    Measured(Arc<MeasuredStream>),
}

impl FidelitySource {
    /// The fidelity level this source realizes.
    pub fn level(&self) -> Fidelity {
        match self {
            FidelitySource::Uniform(_) => Fidelity::UniformRatio,
            FidelitySource::Profiled(_) => Fidelity::ProfiledDensity,
            FidelitySource::Measured(_) => Fidelity::MeasuredStream,
        }
    }

    fn inner(&self) -> &dyn TransferSource {
        match self {
            FidelitySource::Uniform(s) => s,
            FidelitySource::Profiled(s) => s,
            FidelitySource::Measured(s) => s.as_ref(),
        }
    }
}

impl TransferSource for FidelitySource {
    fn fidelity(&self) -> &'static str {
        self.inner().fidelity()
    }

    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_> {
        self.inner().input_payload(spec)
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        self.inner().layer_payload(spec, layer)
    }
}

impl From<UniformRatio> for FidelitySource {
    fn from(s: UniformRatio) -> Self {
        FidelitySource::Uniform(s)
    }
}

impl From<ProfiledDensity> for FidelitySource {
    fn from(s: ProfiledDensity) -> Self {
        FidelitySource::Profiled(s)
    }
}

impl From<MeasuredStream> for FidelitySource {
    fn from(s: MeasuredStream) -> Self {
        FidelitySource::Measured(Arc::new(s))
    }
}

impl From<Arc<MeasuredStream>> for FidelitySource {
    fn from(s: Arc<MeasuredStream>) -> Self {
        FidelitySource::Measured(s)
    }
}

/// What travels over the CPU–GPU link during a training step.
#[derive(Debug, Clone)]
pub enum TransferPolicy {
    /// No transfers (the paper's "orac" baseline: offload/prefetch latency
    /// always hidden).
    Oracle,
    /// Offload every layer output; element `i` is the compression ratio of
    /// layer `i`'s activations (1.0 everywhere = plain vDNN).
    OffloadAll(Vec<f64>),
    /// Offload only convolution-layer outputs (vDNN's memory-saving
    /// alternative policy), with per-layer ratios as above.
    OffloadConv(Vec<f64>),
}

impl TransferPolicy {
    /// Offload-all with one uniform ratio (1.0 reproduces baseline vDNN).
    pub fn uniform(spec: &NetworkSpec, ratio: f64) -> Self {
        TransferPolicy::OffloadAll(vec![ratio; spec.layers().len()])
    }
}

/// Timing breakdown of one simulated training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// Forward compute + stalls, seconds.
    pub forward: f64,
    /// Backward compute + stalls, seconds.
    pub backward: f64,
    /// Seconds of forward time attributable to offload stalls.
    pub forward_stall: f64,
    /// Seconds of backward time attributable to prefetch stalls.
    pub backward_stall: f64,
}

impl StepBreakdown {
    /// Total step latency.
    pub fn total(&self) -> f64 {
        self.forward + self.backward
    }

    /// Fraction of the step spent stalled on PCIe.
    pub fn stall_fraction(&self) -> f64 {
        (self.forward_stall + self.backward_stall) / self.total()
    }
}

/// What one transfer moves across the link.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// Nothing (the data is not offloaded under the active policy, or the
    /// oracle hides it).
    None,
    /// `bytes` of data compressing uniformly by `ratio` — the paper's
    /// analytic throttling model (Section VI).
    Analytic {
        /// Uncompressed bytes.
        bytes: u64,
        /// Compression ratio (1.0 = uncompressed vDNN).
        ratio: f64,
    },
    /// Measured per-window `(uncompressed, compressed)` line sizes of a
    /// real compressed stream: `lines`, back to back `repeat` times.
    Lines {
        /// One pass of the line table.
        lines: &'a [(u32, u32)],
        /// How many passes cross the link.
        repeat: usize,
    },
}

/// Supplies the transfer payloads of one simulated training step — the
/// fidelity knob of [`TimelineSim`].
pub trait TransferSource {
    /// Short label of the fidelity level (for experiment tables).
    fn fidelity(&self) -> &'static str;

    /// Payload of the network input offload (overlapped with forward
    /// stage 0).
    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_>;

    /// Payload of layer `layer`'s output activations.
    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_>;
}

/// The analytic fidelity level (the vDNN Fig. 2b / Fig. 13 model). Wraps a
/// [`TransferPolicy`] (oracle, uniform or per-layer scalar ratios,
/// offload-all or conv-only).
#[derive(Debug, Clone)]
pub struct UniformRatio {
    policy: TransferPolicy,
}

impl UniformRatio {
    /// Wraps a transfer policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's ratio vector length does not match the layer
    /// count of `spec`.
    pub fn new(spec: &NetworkSpec, policy: TransferPolicy) -> Self {
        match &policy {
            TransferPolicy::OffloadAll(r) | TransferPolicy::OffloadConv(r) => {
                assert_eq!(
                    r.len(),
                    spec.layers().len(),
                    "one compression ratio per layer required"
                );
            }
            TransferPolicy::Oracle => {}
        }
        UniformRatio { policy }
    }

    /// Offload-all with one uniform ratio (1.0 reproduces baseline vDNN).
    pub fn uniform(spec: &NetworkSpec, ratio: f64) -> Self {
        UniformRatio::new(spec, TransferPolicy::uniform(spec, ratio))
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &TransferPolicy {
        &self.policy
    }
}

impl TransferSource for UniformRatio {
    fn fidelity(&self) -> &'static str {
        Fidelity::UniformRatio.label()
    }

    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_> {
        match &self.policy {
            TransferPolicy::Oracle => Payload::None,
            // The network input is dense (ratio 1) under both offload
            // policies.
            _ => Payload::Analytic {
                bytes: (spec.input().per_image() * spec.batch() * 4) as u64,
                ratio: 1.0,
            },
        }
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        let (offload_all, ratios) = match &self.policy {
            TransferPolicy::Oracle => return Payload::None,
            TransferPolicy::OffloadAll(r) => (true, r),
            TransferPolicy::OffloadConv(r) => (false, r),
        };
        let l = &spec.layers()[layer];
        if !offload_all && !l.is_conv() {
            return Payload::None;
        }
        Payload::Analytic {
            bytes: l.activation_bytes(spec.batch()),
            ratio: ratios[layer],
        }
    }
}

/// The profiled fidelity level: per-layer analytic ratios derived from the
/// calibrated density trajectories of `cdma-models`, looked up through the
/// measured [`RatioTable`] — the methodology behind Fig. 11–13, now feeding
/// the event-driven timeline directly.
#[derive(Debug, Clone)]
pub struct ProfiledDensity {
    ratios: Vec<f64>,
}

impl ProfiledDensity {
    /// Ratios at training checkpoint `t` in `[0, 1]`: each layer's density
    /// trajectory is sampled at `t` and mapped through the ratio table.
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover every layer of `spec`.
    pub fn at_checkpoint(
        spec: &NetworkSpec,
        profile: &NetworkProfile,
        t: f64,
        alg: Algorithm,
        layout: Layout,
        table: &RatioTable,
    ) -> Self {
        let ratios = spec
            .layers()
            .iter()
            .map(|l| {
                let d = profile
                    .trajectory(&l.name)
                    .unwrap_or_else(|| panic!("profile missing layer {}", l.name))
                    .density_at(t);
                table.ratio(alg, layout, d)
            })
            .collect();
        ProfiledDensity { ratios }
    }

    /// The per-layer ratios.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }
}

impl TransferSource for ProfiledDensity {
    fn fidelity(&self) -> &'static str {
        Fidelity::ProfiledDensity.label()
    }

    fn input_payload(&self, spec: &NetworkSpec) -> Payload<'_> {
        Payload::Analytic {
            bytes: (spec.input().per_image() * spec.batch() * 4) as u64,
            ratio: 1.0,
        }
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        Payload::Analytic {
            bytes: spec.layers()[layer].activation_bytes(spec.batch()),
            ratio: self.ratios[layer],
        }
    }
}

/// The measured fidelity level: real per-window `(uncompressed,
/// compressed)` line sizes, one table per layer output (plus one for the
/// network input), as produced by `CdmaEngine::memcpy_compressed` on actual
/// activation data. Offloads run line by line through the shared
/// [`DmaPipeline`]; prefetches use [`prefetch_seconds`] on the table's byte
/// totals.
#[derive(Debug, Clone)]
pub struct MeasuredStream {
    input: Vec<(u32, u32)>,
    layers: Vec<Vec<(u32, u32)>>,
    /// Every table stands for this many back-to-back copies of itself.
    repeat: usize,
}

impl MeasuredStream {
    /// Builds a stream from the input's line table and one line table per
    /// layer (in layer order).
    pub fn new(input: Vec<(u32, u32)>, layers: Vec<Vec<(u32, u32)>>) -> Self {
        MeasuredStream::replicated(input, layers, 1)
    }

    /// A stream whose every table is `repeat` back-to-back copies of the
    /// given one — a minibatch of `repeat` images with the same per-image
    /// line table, stored once.
    pub fn replicated(input: Vec<(u32, u32)>, layers: Vec<Vec<(u32, u32)>>, repeat: usize) -> Self {
        MeasuredStream {
            input,
            layers,
            repeat,
        }
    }

    /// The lines of layer `i`'s output, every repeat included.
    pub fn layer_lines(&self, i: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let table = &self.layers[i];
        (0..self.repeat).flat_map(move |_| table.iter().copied())
    }

    /// Layer `i`'s per-image line table and how many times it repeats.
    pub fn layer_table(&self, i: usize) -> (&[(u32, u32)], usize) {
        (&self.layers[i], self.repeat)
    }

    /// Number of layer tables.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total uncompressed bytes across the input and every layer.
    pub fn total_uncompressed(&self) -> u64 {
        self.tables().map(|(u, _)| u).sum()
    }

    /// Total compressed bytes across the input and every layer.
    pub fn total_compressed(&self) -> u64 {
        self.tables().map(|(_, c)| c).sum()
    }

    fn tables(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::once(&self.input)
            .chain(self.layers.iter())
            .map(|t| line_totals(t, self.repeat))
    }
}

/// Appends a busy interval to a time-ordered list, coalescing with the
/// previous one when they touch — the one implementation shared by the
/// timeline recorder, the fabric's tiers and the cluster's per-GPU books.
pub(crate) fn push_busy(v: &mut Vec<(f64, f64)>, start: f64, end: f64) {
    if end <= start {
        return;
    }
    if let Some(last) = v.last_mut() {
        debug_assert!(start >= last.1 - 1e-12, "resource double-booked");
        if start <= last.1 {
            last.1 = last.1.max(end);
            return;
        }
    }
    v.push((start, end));
}

/// Seconds covered by a busy-interval list, added in time order: the
/// interval half of [`StepTimeline::busy_seconds`], and the whole of a
/// shared cluster run's link busy time.
pub(crate) fn busy_total(v: &[(f64, f64)]) -> f64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// `(uncompressed, compressed)` byte totals of `repeat` passes of a line
/// table.
pub(crate) fn line_totals(lines: &[(u32, u32)], repeat: usize) -> (u64, u64) {
    let (u, c) = lines.iter().fold((0u64, 0u64), |(u, c), &(lu, lc)| {
        (u + lu as u64, c + lc as u64)
    });
    (u * repeat as u64, c * repeat as u64)
}

impl TransferSource for MeasuredStream {
    fn fidelity(&self) -> &'static str {
        Fidelity::MeasuredStream.label()
    }

    fn input_payload(&self, _spec: &NetworkSpec) -> Payload<'_> {
        Payload::Lines {
            lines: &self.input,
            repeat: self.repeat,
        }
    }

    fn layer_payload(&self, spec: &NetworkSpec, layer: usize) -> Payload<'_> {
        assert_eq!(
            self.layers.len(),
            spec.layers().len(),
            "measured stream covers {} layers but the spec has {}",
            self.layers.len(),
            spec.layers().len()
        );
        Payload::Lines {
            lines: &self.layers[layer],
            repeat: self.repeat,
        }
    }
}

/// The three contended resources of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The GPU compute stream.
    Compute,
    /// The cDMA engine path at the memory controllers: `COMP_BW`-paced
    /// DRAM fetch + compression on offloads, decompression on prefetches.
    /// Busy only at the measured fidelity level; the analytic levels fold
    /// engine throttling into the effective link bandwidth.
    DmaRead,
    /// The PCIe link (offloads forward, prefetches backward).
    Link,
}

/// Training-step phase of a stage or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
}

/// What happened at one timeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A layer's computation began.
    ComputeStart {
        /// Phase it belongs to.
        phase: Phase,
        /// Layer index.
        layer: usize,
    },
    /// A layer's computation finished.
    ComputeEnd {
        /// Phase it belongs to.
        phase: Phase,
        /// Layer index.
        layer: usize,
    },
    /// A GPU→CPU offload began (`None` = the network input).
    OffloadStart {
        /// Offloaded layer output (`None` = the network input).
        layer: Option<usize>,
    },
    /// A GPU→CPU offload's last byte crossed the link.
    OffloadEnd {
        /// Offloaded layer output (`None` = the network input).
        layer: Option<usize>,
    },
    /// A CPU→GPU prefetch began.
    PrefetchStart {
        /// Prefetched layer output.
        layer: usize,
    },
    /// A CPU→GPU prefetch finished decompressing.
    PrefetchEnd {
        /// Prefetched layer output.
        layer: usize,
    },
}

/// One timestamped entry of the event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Absolute time in seconds from step start.
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Per-stage summary: one forward or backward pipeline stage with its
/// overlapped transfer (the rows of a Fig. 2-style Gantt chart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Phase the stage belongs to.
    pub phase: Phase,
    /// The layer computed during the stage.
    pub layer: usize,
    /// Stage start time.
    pub start: f64,
    /// Seconds of layer computation.
    pub compute: f64,
    /// Seconds until the overlapped transfer finished, measured from stage
    /// start (0 = no transfer).
    pub transfer: f64,
    /// Stage end time (`start + max(compute, transfer)`).
    pub end: f64,
}

impl StageRecord {
    /// Seconds the GPU sat stalled on the transfer during this stage.
    pub fn stall(&self) -> f64 {
        (self.transfer - self.compute).max(0.0)
    }
}

/// The result of one simulated training step: the timing breakdown plus the
/// full chronological event log, per-stage records and per-resource busy
/// time.
#[derive(Debug, Clone)]
pub struct StepTimeline {
    /// Timing breakdown of the step.
    pub breakdown: StepBreakdown,
    fidelity: &'static str,
    events: Vec<Event>,
    stages: Vec<StageRecord>,
    busy: [Vec<(f64, f64)>; 3],
    /// Busy femtoseconds of the DMA pipeline's lines, which keep no
    /// intervals.
    busy_fs: [u64; 3],
    events_processed: u64,
    lines_stepped: u64,
}

impl StepTimeline {
    /// Assembles a timeline from per-GPU records produced by the cluster
    /// simulator (`cdma_vdnn::cluster`).
    pub(crate) fn from_parts(
        breakdown: StepBreakdown,
        fidelity: &'static str,
        events: Vec<Event>,
        stages: Vec<StageRecord>,
        busy: [Vec<(f64, f64)>; 3],
        events_processed: u64,
    ) -> Self {
        StepTimeline {
            breakdown,
            fidelity,
            events,
            stages,
            busy,
            busy_fs: [0; 3],
            events_processed,
            lines_stepped: 0,
        }
    }

    /// Total step latency.
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// Fidelity label of the source that produced this timeline.
    pub fn fidelity(&self) -> &'static str {
        self.fidelity
    }

    /// The chronological event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-stage records in execution order (forward stages, then backward
    /// stages).
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Busy intervals of one resource, in time order, coalesced where they
    /// touch — intervals never overlap (a resource does one thing at a
    /// time). The measured level's offload lines are not among them: the
    /// DMA pipeline reports their busy time as one exact total, which
    /// [`StepTimeline::busy_seconds`] adds.
    pub fn busy(&self, r: Resource) -> &[(f64, f64)] {
        &self.busy[r as usize]
    }

    /// Seconds one resource was busy over the step: its intervals, added
    /// in time order, plus the DMA pipeline's total for the offload lines
    /// no interval covers. A link
    /// utilisation printed from a [`StepSummary`] and one printed from the
    /// cluster's dedicated path take this same sum, so they agree to the
    /// bit.
    pub fn busy_seconds(&self, r: Resource) -> f64 {
        busy_total(&self.busy[r as usize]) + self.line_busy_seconds(r)
    }

    /// Seconds of one resource's busy time that no interval of
    /// [`StepTimeline::busy`] covers: the DMA pipeline's femtosecond total
    /// for the measured level's offload lines.
    pub(crate) fn line_busy_seconds(&self, r: Resource) -> f64 {
        fs_to_seconds(self.busy_fs[r as usize])
    }

    /// Total events processed: the log plus the line-granularity DMA
    /// pipeline events of the measured fidelity level (the
    /// "events/second" denominator of the timeline micro-benchmark).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// DMA lines the pipeline stepped one at a time. The rest of each
    /// repeated line table was extrapolated from its period
    /// ([`DmaPipeline::push_table`]); they count in
    /// [`StepTimeline::events_processed`] all the same.
    pub fn lines_stepped(&self) -> u64 {
        self.lines_stepped
    }
}

/// What a memo keeps of a finished [`StepTimeline`]: the breakdown, the
/// event log and the stage records (a few hundred entries), and each
/// resource's total busy seconds in place of its interval list — a
/// measured step's `DmaRead` list runs to millions of entries, its sum
/// is one number. It is a type of its own so that nobody can ask a
/// summary for intervals it no longer holds.
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Timing breakdown of the step.
    pub breakdown: StepBreakdown,
    fidelity: &'static str,
    events: Vec<Event>,
    stages: Vec<StageRecord>,
    busy_seconds: [f64; 3],
    events_processed: u64,
}

impl From<StepTimeline> for StepSummary {
    /// Keeps each resource's [`StepTimeline::busy_seconds`] and drops the
    /// intervals.
    fn from(tl: StepTimeline) -> Self {
        StepSummary {
            breakdown: tl.breakdown,
            fidelity: tl.fidelity,
            busy_seconds: [Resource::Compute, Resource::DmaRead, Resource::Link]
                .map(|r| tl.busy_seconds(r)),
            events: tl.events,
            stages: tl.stages,
            events_processed: tl.events_processed,
        }
    }
}

impl StepSummary {
    /// Total step latency.
    pub fn total(&self) -> f64 {
        self.breakdown.total()
    }

    /// Fidelity label of the source that produced the step.
    pub fn fidelity(&self) -> &'static str {
        self.fidelity
    }

    /// The chronological event log.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-stage records in execution order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Seconds one resource was busy over the step.
    pub fn busy_seconds(&self, r: Resource) -> f64 {
        self.busy_seconds[r as usize]
    }

    /// Total events processed, line-granularity pipeline events included.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// What rides the link during one stage of the schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transfer {
    /// Nothing: backward stages 1 and 0 have no input left to fetch.
    Idle,
    /// GPU→CPU offload of a layer's output (`None` = the network input).
    Offload(Option<usize>),
    /// CPU→GPU prefetch of a layer's output.
    Prefetch(usize),
}

/// One stage of vDNN's per-GPU schedule (Fig. 2 of the paper): the layer
/// it computes and the transfer it overlaps, closed by a barrier on both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stage {
    pub(crate) phase: Phase,
    pub(crate) layer: usize,
    pub(crate) transfer: Transfer,
    /// Whether the stage computes and emits a [`StageRecord`]; only the
    /// serial head prefetch does neither.
    pub(crate) record: bool,
}

impl Stage {
    /// The stage program of a `layers`-deep network, in execution order:
    /// forward stage *i* computes layer *i* while offloading its input
    /// (layer *i−1*'s output; the network input for stage 0 — the last
    /// layer's output feeds the loss directly and is never offloaded);
    /// then a serial prefetch of the deepest offloaded input, with nothing
    /// to overlap; then backward stage *i* computes layer *i* while
    /// prefetching the input of layer *i−1* (= the output of layer *i−2*).
    pub(crate) fn program(layers: usize) -> impl Iterator<Item = Stage> {
        let forward = (0..layers).map(|i| Stage {
            phase: Phase::Forward,
            layer: i,
            transfer: Transfer::Offload(i.checked_sub(1)),
            record: true,
        });
        let head = (layers > 0).then(|| Stage {
            phase: Phase::Backward,
            layer: layers.saturating_sub(2),
            transfer: Transfer::Prefetch(layers.saturating_sub(2)),
            record: false,
        });
        let backward = (0..layers).rev().map(|i| Stage {
            phase: Phase::Backward,
            layer: i,
            transfer: i.checked_sub(2).map_or(Transfer::Idle, Transfer::Prefetch),
            record: true,
        });
        forward.chain(head).chain(backward)
    }

    /// Full-batch seconds of the stage's computation (0 for the head).
    pub(crate) fn compute(&self, model: &ComputeModel, spec: &NetworkSpec) -> f64 {
        if !self.record {
            return 0.0;
        }
        let layer = &spec.layers()[self.layer];
        match self.phase {
            Phase::Forward => model.forward_time(layer, spec.batch()),
            Phase::Backward => model.backward_time(layer, spec.batch()),
        }
    }

    /// What `source` moves during the stage.
    pub(crate) fn payload<'a>(
        &self,
        spec: &NetworkSpec,
        source: &'a dyn TransferSource,
    ) -> Payload<'a> {
        match self.transfer {
            Transfer::Idle => Payload::None,
            Transfer::Offload(None) => source.input_payload(spec),
            Transfer::Offload(Some(layer)) | Transfer::Prefetch(layer) => {
                source.layer_payload(spec, layer)
            }
        }
    }
}

/// The record-keeping the simulation threads through every stage.
struct Recorder {
    /// In scheduling order; [`TimelineSim::simulate`] sorts them by time.
    events: Vec<Event>,
    stages: Vec<StageRecord>,
    busy: [Vec<(f64, f64)>; 3],
    busy_fs: [u64; 3],
    /// Line-granularity DMA pipeline events, which never enter the log.
    line_events: u64,
    lines_stepped: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            events: Vec::new(),
            stages: Vec::new(),
            busy: [Vec::new(), Vec::new(), Vec::new()],
            busy_fs: [0; 3],
            line_events: 0,
            lines_stepped: 0,
        }
    }

    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.events.push(Event { time, kind });
    }

    /// Records a busy interval, coalescing with the previous one when they
    /// touch.
    fn busy(&mut self, r: Resource, start: f64, end: f64) {
        push_busy(&mut self.busy[r as usize], start, end);
    }
}

/// Event-driven simulator of one training step. See the [module
/// docs](self) for the fidelity levels and synchronization model.
#[derive(Debug, Clone, Copy)]
pub struct TimelineSim {
    cfg: SystemConfig,
    compute: ComputeModel,
}

impl TimelineSim {
    /// Creates a simulator.
    pub fn new(cfg: SystemConfig, compute: ComputeModel) -> Self {
        TimelineSim { cfg, compute }
    }

    /// The platform configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The compute model.
    pub fn compute_model(&self) -> ComputeModel {
        self.compute
    }

    /// Simulates one training step of `spec` with transfers supplied by
    /// `source`.
    pub fn simulate(&self, spec: &NetworkSpec, source: &dyn TransferSource) -> StepTimeline {
        let mut rec = Recorder::new();
        // One pipeline for the whole step: layer offloads contend for the
        // read path and the staging buffer across stage boundaries.
        let mut pipeline = DmaPipeline::new(self.cfg);

        let mut t = 0.0f64;
        let mut breakdown = StepBreakdown {
            forward: 0.0,
            backward: 0.0,
            forward_stall: 0.0,
            backward_stall: 0.0,
        };
        for stage in Stage::program(spec.layers().len()) {
            let Stage { phase, layer, .. } = stage;
            let compute = stage.compute(&self.compute, spec);
            let payload = stage.payload(spec, source);
            let transfer = match stage.transfer {
                Transfer::Idle => 0.0,
                Transfer::Offload(src) => {
                    pipeline.advance_to(t);
                    self.offload(&mut rec, &mut pipeline, t, src, payload)
                }
                Transfer::Prefetch(src) => self.prefetch(&mut rec, t, src, payload),
            };
            if compute > 0.0 {
                rec.schedule(t, EventKind::ComputeStart { phase, layer });
                rec.schedule(t + compute, EventKind::ComputeEnd { phase, layer });
                rec.busy(Resource::Compute, t, t + compute);
            }
            // The stage barrier: the next stage may start only when both
            // the computation and the transfer have finished.
            let dur = compute.max(transfer);
            let (total, stall) = match phase {
                Phase::Forward => (&mut breakdown.forward, &mut breakdown.forward_stall),
                Phase::Backward => (&mut breakdown.backward, &mut breakdown.backward_stall),
            };
            *total += dur;
            *stall += (transfer - compute).max(0.0);
            if stage.record {
                rec.stages.push(StageRecord {
                    phase,
                    layer,
                    start: t,
                    compute,
                    transfer,
                    end: t + dur,
                });
            }
            t += dur;
        }
        // Time order, ties in scheduling order (the sort is stable).
        rec.events.sort_by(|a, b| a.time.total_cmp(&b.time));

        StepTimeline {
            breakdown,
            fidelity: source.fidelity(),
            events_processed: rec.events.len() as u64 + rec.line_events,
            events: rec.events,
            stages: rec.stages,
            busy: rec.busy,
            busy_fs: rec.busy_fs,
            lines_stepped: rec.lines_stepped,
        }
    }

    /// Performance with `source`'s transfers normalized to the oracle
    /// baseline (the y-axis of Fig. 13; 1.0 = no virtualization overhead).
    pub fn normalized_performance(&self, spec: &NetworkSpec, source: &dyn TransferSource) -> f64 {
        let oracle = self.simulate(spec, &UniformRatio::new(spec, TransferPolicy::Oracle));
        oracle.total() / self.simulate(spec, source).total()
    }

    /// Starts an offload at stage start `t`; returns the transfer's
    /// duration measured from `t`.
    fn offload(
        &self,
        rec: &mut Recorder,
        pipeline: &mut DmaPipeline,
        t: f64,
        layer: Option<usize>,
        payload: Payload<'_>,
    ) -> f64 {
        match payload {
            Payload::None => 0.0,
            Payload::Analytic { bytes, ratio } => {
                let dur = bytes as f64 / self.cfg.effective_offload_bw(ratio);
                if dur > 0.0 {
                    rec.schedule(t, EventKind::OffloadStart { layer });
                    rec.schedule(t + dur, EventKind::OffloadEnd { layer });
                    rec.busy(Resource::Link, t, t + dur);
                }
                dur
            }
            Payload::Lines { lines, repeat } => {
                if lines.is_empty() || repeat == 0 {
                    return 0.0;
                }
                rec.schedule(t, EventKind::OffloadStart { layer });
                let run = pipeline.push_table(t, lines, repeat);
                rec.busy_fs[Resource::DmaRead as usize] += run.read_busy_fs;
                rec.busy_fs[Resource::Link as usize] += run.link_busy_fs;
                // Issue, arrival and drain of every line each count as a
                // processed pipeline event, extrapolated lines included.
                rec.line_events += 3 * (lines.len() * repeat) as u64;
                rec.lines_stepped += (lines.len() * run.stepped) as u64;
                rec.schedule(run.end, EventKind::OffloadEnd { layer });
                run.end - t
            }
        }
    }

    /// Starts a prefetch at stage start `t`; returns its duration.
    fn prefetch(&self, rec: &mut Recorder, t: f64, layer: usize, payload: Payload<'_>) -> f64 {
        let dur = match payload {
            Payload::None => 0.0,
            // The analytic levels keep the paper's symmetric-bandwidth
            // model; the whole duration books the link (the analytic model
            // does not separate wire time from decompression).
            Payload::Analytic { bytes, ratio } => {
                let dur = bytes as f64 / self.cfg.effective_offload_bw(ratio);
                rec.busy(Resource::Link, t, t + dur);
                dur
            }
            Payload::Lines { lines, repeat } => {
                let (u, c) = line_totals(lines, repeat);
                let dur = prefetch_seconds(&self.cfg, u, c);
                // The link is busy only while compressed bytes cross it;
                // the engines at the memory controllers hold the
                // decompression for the rest of the duration.
                rec.busy(Resource::Link, t, t + c as f64 / self.cfg.pcie_bw);
                rec.busy(Resource::DmaRead, t, t + dur);
                dur
            }
        };
        if dur > 0.0 {
            rec.schedule(t, EventKind::PrefetchStart { layer });
            rec.schedule(t + dur, EventKind::PrefetchEnd { layer });
        }
        dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CudnnVersion;
    use cdma_models::zoo;

    fn sim() -> TimelineSim {
        sim_at(CudnnVersion::V5)
    }

    fn sim_at(v: CudnnVersion) -> TimelineSim {
        TimelineSim::new(SystemConfig::titan_x_pcie3(), ComputeModel::titan_x(v))
    }

    /// The breakdown of one step at the analytic level.
    fn step(spec: &NetworkSpec, policy: TransferPolicy) -> StepBreakdown {
        sim()
            .simulate(spec, &UniformRatio::new(spec, policy))
            .breakdown
    }

    /// Plain vDNN's normalized performance (every ratio 1.0).
    fn vdnn_performance(sim: TimelineSim, spec: &NetworkSpec) -> f64 {
        sim.normalized_performance(spec, &UniformRatio::uniform(spec, 1.0))
    }

    #[test]
    fn oracle_equals_pure_compute() {
        let spec = zoo::alexnet();
        let oracle = step(&spec, TransferPolicy::Oracle);
        let compute = ComputeModel::titan_x(CudnnVersion::V5).step_compute_time(&spec);
        assert!((oracle.total() - compute).abs() / compute < 1e-9);
        assert_eq!(oracle.forward_stall, 0.0);
        assert_eq!(oracle.backward_stall, 0.0);
    }

    #[test]
    fn vdnn_is_never_faster_than_oracle() {
        for spec in zoo::all_networks() {
            let perf = vdnn_performance(sim(), &spec);
            assert!(perf <= 1.0 + 1e-9, "{}: {perf}", spec.name());
        }
    }

    #[test]
    fn vdnn_overhead_matches_paper_band_on_v5() {
        // Section I / Fig. 3b: vDNN loses 31% on average (worst 52%)
        // versus the oracle on cuDNN v5-class compute.
        let perfs: Vec<f64> = zoo::all_networks()
            .iter()
            .map(|spec| vdnn_performance(sim(), spec))
            .collect();
        let avg_loss = 1.0 - perfs.iter().sum::<f64>() / perfs.len() as f64;
        let worst_loss = 1.0 - perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (0.18..0.45).contains(&avg_loss),
            "avg vDNN loss {avg_loss:.3}, paper ~0.31 (perfs {perfs:?})"
        );
        assert!(
            (0.35..0.65).contains(&worst_loss),
            "worst vDNN loss {worst_loss:.3}, paper ~0.52"
        );
    }

    #[test]
    fn overhead_grows_with_cudnn_version() {
        // Fig. 3(b): faster compute shrinks the overlap window, so the
        // vDNN penalty grows from v1 to v5.
        let spec = zoo::squeezenet();
        let mut prev_perf = 0.0;
        for v in CudnnVersion::ALL {
            let perf = vdnn_performance(sim_at(v), &spec);
            if prev_perf > 0.0 {
                assert!(
                    perf <= prev_perf + 1e-9,
                    "{}: perf {perf} should not exceed {prev_perf}",
                    v.label()
                );
            }
            prev_perf = perf;
        }
    }

    #[test]
    fn compression_recovers_performance() {
        for spec in zoo::all_networks() {
            let vdnn = vdnn_performance(sim(), &spec);
            let cdma = sim().normalized_performance(&spec, &UniformRatio::uniform(&spec, 2.6));
            assert!(
                cdma > vdnn,
                "{}: cDMA {cdma} should beat vDNN {vdnn}",
                spec.name()
            );
        }
    }

    #[test]
    fn infinite_compression_approaches_oracle() {
        let spec = zoo::vgg();
        // Ratio beyond COMP_BW/PCIe: transfers still take bytes/COMP_BW, so
        // performance approaches but does not exceed the oracle.
        let perf = sim().normalized_performance(&spec, &UniformRatio::uniform(&spec, 1000.0));
        assert!(perf > 0.9 && perf <= 1.0 + 1e-9, "perf {perf}");
    }

    #[test]
    fn conv_only_policy_transfers_less() {
        let spec = zoo::vgg();
        let all = step(&spec, TransferPolicy::uniform(&spec, 1.0)).total();
        let conv = step(
            &spec,
            TransferPolicy::OffloadConv(vec![1.0; spec.layers().len()]),
        )
        .total();
        assert!(conv <= all);
    }

    #[test]
    fn stall_fraction_is_consistent() {
        let spec = zoo::squeezenet();
        let b = step(&spec, TransferPolicy::uniform(&spec, 1.0));
        assert!(b.stall_fraction() > 0.0 && b.stall_fraction() < 1.0);
        assert!(b.forward_stall <= b.forward);
    }

    #[test]
    #[should_panic(expected = "one compression ratio per layer")]
    fn wrong_conv_ratio_length_rejected() {
        let spec = zoo::alexnet();
        let _ = step(&spec, TransferPolicy::OffloadConv(vec![1.0; 3]));
    }

    #[test]
    fn oracle_timeline_has_no_transfers() {
        let spec = zoo::alexnet();
        let tl = sim().simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
        assert!(tl.busy(Resource::Link).is_empty());
        assert!(tl.busy(Resource::DmaRead).is_empty());
        assert_eq!(tl.breakdown.forward_stall, 0.0);
        assert_eq!(tl.breakdown.backward_stall, 0.0);
        // 2 stages per layer, 2 events per stage.
        assert_eq!(tl.events().len(), 4 * spec.layers().len());
    }

    #[test]
    fn events_are_chronological_and_stall_accounting_closes() {
        let spec = zoo::squeezenet();
        let tl = sim().simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
        let mut prev = 0.0;
        for e in tl.events() {
            assert!(e.time >= prev, "event log out of order");
            prev = e.time;
        }
        let compute = ComputeModel::titan_x(CudnnVersion::V5).step_compute_time(&spec);
        let stalls = tl.breakdown.forward_stall + tl.breakdown.backward_stall;
        assert!(
            ((tl.total() - stalls) - compute).abs() / compute < 1e-9,
            "total - stalls should equal pure compute"
        );
    }

    #[test]
    fn stage_records_tile_the_step() {
        let spec = zoo::vgg();
        let tl = sim().simulate(&spec, &UniformRatio::uniform(&spec, 2.6));
        assert_eq!(tl.stages().len(), 2 * spec.layers().len());
        let mut t = 0.0;
        for (k, s) in tl.stages().iter().enumerate() {
            if k == spec.layers().len() {
                // The serial head prefetch sits between forward and
                // backward without a stage record.
                assert!(s.start >= t);
                t = s.start;
            }
            assert!((s.start - t).abs() < 1e-12, "stage {k} does not abut");
            assert!((s.end - (s.start + s.compute.max(s.transfer))).abs() < 1e-15);
            t = s.end;
        }
        assert!((t - tl.total()).abs() / tl.total() < 1e-9);
    }

    #[test]
    fn busy_intervals_never_overlap() {
        let spec = zoo::googlenet();
        for ratio in [1.0, 2.6, 13.8] {
            let tl = sim().simulate(&spec, &UniformRatio::uniform(&spec, ratio));
            for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
                let mut prev_end = f64::NEG_INFINITY;
                for &(s, e) in tl.busy(r) {
                    assert!(e > s, "empty interval");
                    assert!(s >= prev_end - 1e-12, "{r:?} double-booked");
                    prev_end = e;
                }
            }
        }
    }

    #[test]
    fn measured_lines_drive_the_dma_read_path() {
        let spec = zoo::alexnet();
        // Synthetic line tables: every window 4 KB, compressing 2x; the
        // input dense.
        let table_for = |bytes: u64, ratio: u32| -> Vec<(u32, u32)> {
            (0..bytes.div_ceil(4096))
                .map(|_| (4096u32, 4096 / ratio))
                .collect()
        };
        let input_bytes = (spec.input().per_image() * spec.batch() * 4) as u64;
        let stream = MeasuredStream::new(
            table_for(input_bytes, 1),
            spec.layers()
                .iter()
                .map(|l| table_for(l.activation_bytes(spec.batch()), 2))
                .collect(),
        );
        let tl = sim().simulate(&spec, &stream);
        assert_eq!(tl.fidelity(), "measured-stream");
        // Offloads keep the read path busy for exactly their lines' read
        // time, 4096 B at 5 000 fs a byte each (three events a line); the
        // interval list holds only the prefetches.
        let lines = (tl.events_processed() - tl.events().len() as u64) / 3;
        assert_eq!(
            tl.busy_seconds(Resource::DmaRead),
            busy_total(tl.busy(Resource::DmaRead)) + fs_to_seconds(lines * 4096 * 5_000)
        );
        assert!(tl.busy_seconds(Resource::Link) > busy_total(tl.busy(Resource::Link)));
        assert!(tl.lines_stepped() > 0);
        // 2x compression beats uncompressed vDNN, loses to the oracle.
        let vdnn = sim().simulate(&spec, &UniformRatio::uniform(&spec, 1.0));
        let oracle = sim().simulate(&spec, &UniformRatio::new(&spec, TransferPolicy::Oracle));
        assert!(tl.total() < vdnn.total());
        assert!(tl.total() >= oracle.total() - 1e-12);
        // Line-level pipeline events dominate the processed-event count.
        assert!(tl.events_processed() > tl.events().len() as u64);
    }

    #[test]
    fn a_repeated_table_simulates_as_its_materialised_copies() {
        // A minibatch of `k` images sharing per-image line tables, stored
        // once, against the same tables written out `k` times: the first
        // replays each table until its period shows, the second steps every
        // line.
        let spec = zoo::alexnet();
        let k = 128;
        let table = |seed: u32, lines: u32| -> Vec<(u32, u32)> {
            (0..lines)
                .map(|i| (4096, 256 + (i + seed).wrapping_mul(2_654_435_761) % 3841))
                .collect()
        };
        let input = table(1, 37);
        let layers: Vec<_> = (0..spec.layers().len() as u32)
            .map(|l| table(l + 2, 11 + 7 * l))
            .collect();
        let copies = |t: &Vec<(u32, u32)>| t.repeat(k);
        let materialised = MeasuredStream::new(copies(&input), layers.iter().map(copies).collect());
        let repeated = MeasuredStream::replicated(input, layers, k);
        assert_eq!(
            repeated.total_uncompressed(),
            materialised.total_uncompressed()
        );
        assert_eq!(repeated.total_compressed(), materialised.total_compressed());
        for i in 0..spec.layers().len() {
            assert!(repeated.layer_lines(i).eq(materialised.layer_lines(i)));
        }

        let a = sim().simulate(&spec, &repeated);
        let b = sim().simulate(&spec, &materialised);
        assert_eq!(a.total().to_bits(), b.total().to_bits());
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.stages(), b.stages());
        for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            assert_eq!(a.busy(r), b.busy(r), "{r:?}");
            assert_eq!(
                a.busy_seconds(r).to_bits(),
                b.busy_seconds(r).to_bits(),
                "{r:?}"
            );
        }
        assert_eq!(
            b.lines_stepped() * 3,
            b.events_processed() - b.events().len() as u64
        );
        assert!(
            a.lines_stepped() * 4 < b.lines_stepped(),
            "{} of {} lines stepped",
            a.lines_stepped(),
            b.lines_stepped()
        );
    }

    #[test]
    fn prefetch_seconds_is_link_bound_for_modest_compression() {
        let cfg = SystemConfig::titan_x_pcie3();
        let t = prefetch_seconds(&cfg, 4 << 20, 2 << 20);
        assert!((t - (2 << 20) as f64 / cfg.pcie_bw).abs() < 1e-12);
        // Extreme compression: decompression throughput dominates.
        let t2 = prefetch_seconds(&cfg, 4 << 20, 1024);
        let engines = ZvcEngine::new(cfg.engine_clock);
        let floor = (4 << 20) as f64 / engines.aggregate_throughput(cfg.mem_controllers);
        assert!((t2 - floor).abs() / floor < 1e-9);
    }

    #[test]
    fn profiled_density_matches_equivalent_uniform_ratios() {
        let spec = zoo::alexnet();
        let profile = cdma_models::profiles::density_profile(&spec);
        let table = RatioTable::build_fast(3);
        let profiled = ProfiledDensity::at_checkpoint(
            &spec,
            &profile,
            0.5,
            Algorithm::Zvc,
            Layout::Nchw,
            &table,
        );
        let via_policy = UniformRatio::new(
            &spec,
            TransferPolicy::OffloadAll(profiled.ratios().to_vec()),
        );
        let a = sim().simulate(&spec, &profiled);
        let b = sim().simulate(&spec, &via_policy);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn fidelity_values_round_trip_labels_and_sources() {
        for f in Fidelity::ALL {
            assert_eq!(f.label().parse::<Fidelity>().unwrap(), f);
        }
        assert_eq!(
            "uniform".parse::<Fidelity>().unwrap(),
            Fidelity::UniformRatio
        );
        assert!("bogus".parse::<Fidelity>().is_err());

        let spec = zoo::alexnet();
        let src: FidelitySource = UniformRatio::uniform(&spec, 2.0).into();
        assert_eq!(src.level(), Fidelity::UniformRatio);
        assert_eq!(src.fidelity(), Fidelity::UniformRatio.label());
        // Dispatching through the enum gives the same timeline as the
        // concrete source.
        let a = sim().simulate(&spec, &src);
        let b = sim().simulate(&spec, &UniformRatio::uniform(&spec, 2.0));
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    #[should_panic(expected = "one compression ratio per layer")]
    fn wrong_ratio_length_rejected() {
        let spec = zoo::alexnet();
        let _ = UniformRatio::new(&spec, TransferPolicy::OffloadAll(vec![1.0; 3]));
    }
}
