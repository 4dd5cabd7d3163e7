//! # The declarative scenario API
//!
//! The paper's evaluation (Section VII) is a grid: network × activation
//! layout × compression algorithm × timeline fidelity × system
//! configuration. This module makes one cell of that grid a first-class
//! value — a [`Scenario`] — and gives the experiment layer three tools
//! around it:
//!
//! * [`ScenarioSet`] — cartesian sweep builders ([`ScenarioSet::builder`])
//!   plus the canonical [`ScenarioSet::paper_grid`] (every zoo network ×
//!   every layout × every algorithm) that Fig. 11/12/13 and the traffic
//!   drivers used to re-implement as copy-pasted triple loops;
//! * [`Context`] — a memo of the expensive shared inputs (network
//!   specs, density profiles, the measured [`RatioTable`], per-cell
//!   [`NetworkTraffic`], synthesized measured streams) and of the
//!   simulated single-GPU step itself ([`Context::step`]), so a sweep
//!   computes each intermediate once instead of once per cell — and
//!   [`Context::transfer_source`] is the *single* call site that turns a
//!   scenario's [`Fidelity`] value into a live [`FidelitySource`];
//! * [`ScenarioFilter`] — the CLI's `--filter key=value` allow-lists.
//!
//! A sweep is a plain iterator map over the set, on the caller's thread:
//!
//! ```
//! use cdma_core::scenario::{Context, ScenarioSet};
//!
//! let ctx = Context::fast(); // coarse ratio table, fine for examples
//! let grid = ScenarioSet::paper_grid();
//! assert_eq!(grid.len(), 6 * 3 * 3);
//! let ratios: Vec<f64> = grid
//!     .scenarios()
//!     .iter()
//!     .map(|s| ctx.traffic(&s.network, s.algorithm, s.layout).avg_ratio())
//!     .collect();
//! assert_eq!(ratios.len(), grid.len());
//! assert!(ratios.iter().all(|&r| r > 0.5));
//! ```

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use cdma_compress::Algorithm;
use cdma_gpusim::SystemConfig;
use cdma_infer::InferEngine;
use cdma_models::profiles::{self, NetworkProfile};
use cdma_models::{zoo, NetworkSpec};
use cdma_tensor::Layout;
use cdma_vdnn::timeline::MeasuredStream;
use cdma_vdnn::traffic::{self, NetworkTraffic};
use cdma_vdnn::{
    FabricShape, Fidelity, FidelitySource, ProfiledDensity, RatioTable, StepTimeline, TimelineSim,
    UniformRatio,
};

use crate::CdmaEngine;
use crate::{experiment, measured};

/// One cell of the evaluation grid: which network, under which layout,
/// algorithm, fidelity level, training checkpoint, seed and platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Zoo network name (e.g. `"AlexNet"`).
    pub network: String,
    /// Activation memory layout.
    pub layout: Layout,
    /// Compression algorithm.
    pub algorithm: Algorithm,
    /// Timeline fidelity level.
    pub fidelity: Fidelity,
    /// Training checkpoint in `[0, 1]` (used by the profiled and measured
    /// levels).
    pub checkpoint: f64,
    /// Seed for synthesized activations.
    pub seed: u64,
    /// Platform configuration.
    pub config: SystemConfig,
    /// Data-parallel GPU count sharing the host link (1 = the dedicated
    /// single-GPU platform of the core figures).
    pub gpus: usize,
    /// Inference engine (only observable in the inference experiments;
    /// the training figures run at the `Dense` default).
    pub engine: InferEngine,
    /// Inference batch size (batch 1 = latency-bound serving; the
    /// training figures use the network's own minibatch and ignore this).
    pub batch: usize,
    /// Fabric topology (only observable in the datacenter experiments;
    /// everything else runs on the [`FabricShape::Flat`] default).
    pub fabric: FabricShape,
}

impl Scenario {
    /// A compact human-readable label (`AlexNet/NCHW/ZV@0.5`, with an
    /// ` x4` suffix on multi-GPU cells and a `csc+act b32` suffix on
    /// non-default inference cells — default axes stay invisible so
    /// every pre-inference golden label is unchanged).
    pub fn label(&self) -> String {
        let mut base = format!(
            "{}/{}/{}@{}",
            self.network,
            self.layout,
            self.algorithm.label(),
            self.checkpoint
        );
        if self.gpus > 1 {
            base = format!("{base} x{}", self.gpus);
        }
        if self.engine != InferEngine::Dense {
            base = format!("{base} {}", self.engine.label());
        }
        if self.batch != 1 {
            base = format!("{base} b{}", self.batch);
        }
        if self.fabric != FabricShape::Flat {
            base = format!("{base} {}", self.fabric.label());
        }
        base
    }
}

/// An ordered collection of scenarios — the unit a sweep iterates.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Starts a cartesian sweep builder with the workspace defaults: all
    /// six zoo networks, NCHW, ZVC, profiled-density fidelity, checkpoint
    /// 0.5, seed 42, the Titan X / PCIe 3 platform.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The canonical Fig. 11 grid — every zoo network × every layout ×
    /// every algorithm — in the row order of the paper's figures
    /// (network-major, then layout, then algorithm). This replaces the
    /// triple loop that `fig11`/`fig12`/`fig13` and the traffic drivers
    /// each had a private copy of.
    pub fn paper_grid() -> Self {
        ScenarioSet::builder()
            .layouts(Layout::ALL)
            .algorithms(Algorithm::ALL)
            .build()
    }

    /// Wraps an explicit scenario list.
    pub fn from_vec(scenarios: Vec<Scenario>) -> Self {
        ScenarioSet { scenarios }
    }

    /// Keeps only the scenarios matching `filter`.
    pub fn filtered(mut self, filter: &ScenarioFilter) -> Self {
        self.scenarios.retain(|s| filter.matches(s));
        self
    }

    /// The scenarios, in sweep order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty (e.g. after an over-restrictive filter).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The distinct network names, in first-appearance order.
    pub fn networks(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for s in &self.scenarios {
            if !names.contains(&s.network) {
                names.push(s.network.clone());
            }
        }
        names
    }
}

impl<'a> IntoIterator for &'a ScenarioSet {
    type Item = &'a Scenario;
    type IntoIter = std::slice::Iter<'a, Scenario>;

    fn into_iter(self) -> Self::IntoIter {
        self.scenarios.iter()
    }
}

/// Cartesian sweep builder for [`ScenarioSet`]: the product of every
/// axis, nested network → layout → algorithm → fidelity → checkpoint →
/// GPU count → engine → batch → fabric.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    networks: Vec<String>,
    layouts: Vec<Layout>,
    algorithms: Vec<Algorithm>,
    fidelities: Vec<Fidelity>,
    checkpoints: Vec<f64>,
    seed: u64,
    gpu_counts: Vec<usize>,
    engines: Vec<InferEngine>,
    batches: Vec<usize>,
    fabrics: Vec<FabricShape>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            networks: zoo::all_networks()
                .iter()
                .map(|s| s.name().to_owned())
                .collect(),
            layouts: vec![Layout::Nchw],
            algorithms: vec![Algorithm::Zvc],
            fidelities: vec![Fidelity::ProfiledDensity],
            checkpoints: vec![0.5],
            seed: 42,
            gpu_counts: vec![1],
            engines: vec![InferEngine::Dense],
            batches: vec![1],
            fabrics: vec![FabricShape::Flat],
        }
    }
}

impl ScenarioBuilder {
    /// Restricts the network axis.
    pub fn networks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.networks = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the layout axis.
    pub fn layouts<I: IntoIterator<Item = Layout>>(mut self, layouts: I) -> Self {
        self.layouts = layouts.into_iter().collect();
        self
    }

    /// Sets the algorithm axis.
    pub fn algorithms<I: IntoIterator<Item = Algorithm>>(mut self, algorithms: I) -> Self {
        self.algorithms = algorithms.into_iter().collect();
        self
    }

    /// Sets the fidelity axis.
    pub fn fidelities<I: IntoIterator<Item = Fidelity>>(mut self, fidelities: I) -> Self {
        self.fidelities = fidelities.into_iter().collect();
        self
    }

    /// Sets the training-checkpoint axis.
    pub fn checkpoints<I: IntoIterator<Item = f64>>(mut self, checkpoints: I) -> Self {
        self.checkpoints = checkpoints.into_iter().collect();
        self
    }

    /// Sets the activation-synthesis seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the data-parallel GPU-count axis (the Section IX sweep passes
    /// `[1, 2, 4, 8]`).
    ///
    /// ```
    /// use cdma_core::scenario::ScenarioSet;
    ///
    /// let set = ScenarioSet::builder()
    ///     .networks(["AlexNet"])
    ///     .gpu_counts([1, 2, 4, 8])
    ///     .build();
    /// assert_eq!(set.len(), 4);
    /// assert_eq!(set.scenarios()[3].gpus, 8);
    /// assert!(set.scenarios()[3].label().ends_with("x8"));
    /// ```
    pub fn gpu_counts<I: IntoIterator<Item = usize>>(mut self, gpus: I) -> Self {
        self.gpu_counts = gpus.into_iter().collect();
        self
    }

    /// Sets the inference-engine axis (the `fig_inference` sweep passes
    /// [`InferEngine::ALL`]).
    ///
    /// ```
    /// use cdma_core::scenario::ScenarioSet;
    /// use cdma_infer::InferEngine;
    ///
    /// let set = ScenarioSet::builder()
    ///     .networks(["AlexNet"])
    ///     .engines(InferEngine::ALL)
    ///     .build();
    /// assert_eq!(set.len(), 3);
    /// assert_eq!(set.scenarios()[2].engine, InferEngine::CscAct);
    /// assert!(set.scenarios()[2].label().ends_with("csc+act"));
    /// ```
    pub fn engines<I: IntoIterator<Item = InferEngine>>(mut self, engines: I) -> Self {
        self.engines = engines.into_iter().collect();
        self
    }

    /// Sets the inference batch-size axis (batch 1 = latency-bound,
    /// larger = throughput-bound serving).
    ///
    /// ```
    /// use cdma_core::scenario::ScenarioSet;
    ///
    /// let set = ScenarioSet::builder()
    ///     .networks(["AlexNet"])
    ///     .batches([1, 32])
    ///     .build();
    /// assert_eq!(set.len(), 2);
    /// assert_eq!(set.scenarios()[1].batch, 32);
    /// assert!(set.scenarios()[1].label().ends_with("b32"));
    /// ```
    pub fn batches<I: IntoIterator<Item = usize>>(mut self, batches: I) -> Self {
        self.batches = batches.into_iter().collect();
        self
    }

    /// Sets the fabric-shape axis (the `fig_datacenter` sweep passes
    /// [`FabricShape::ALL`]).
    ///
    /// ```
    /// use cdma_core::scenario::ScenarioSet;
    /// use cdma_vdnn::FabricShape;
    ///
    /// let set = ScenarioSet::builder()
    ///     .networks(["AlexNet"])
    ///     .fabrics(FabricShape::ALL)
    ///     .build();
    /// assert_eq!(set.len(), 2);
    /// assert_eq!(set.scenarios()[0].fabric, FabricShape::Flat);
    /// assert!(set.scenarios()[1].label().ends_with("node8"));
    /// ```
    pub fn fabrics<I: IntoIterator<Item = FabricShape>>(mut self, fabrics: I) -> Self {
        self.fabrics = fabrics.into_iter().collect();
        self
    }

    /// Materializes the cartesian product.
    pub fn build(self) -> ScenarioSet {
        let mut scenarios = Vec::with_capacity(
            self.networks.len()
                * self.layouts.len()
                * self.algorithms.len()
                * self.fidelities.len()
                * self.checkpoints.len()
                * self.gpu_counts.len()
                * self.engines.len()
                * self.batches.len()
                * self.fabrics.len(),
        );
        for network in &self.networks {
            for &layout in &self.layouts {
                for &algorithm in &self.algorithms {
                    for &fidelity in &self.fidelities {
                        for &checkpoint in &self.checkpoints {
                            for &gpus in &self.gpu_counts {
                                for &engine in &self.engines {
                                    for &batch in &self.batches {
                                        for &fabric in &self.fabrics {
                                            scenarios.push(Scenario {
                                                network: network.clone(),
                                                layout,
                                                algorithm,
                                                fidelity,
                                                checkpoint,
                                                seed: self.seed,
                                                config: SystemConfig::titan_x_pcie3(),
                                                gpus,
                                                engine,
                                                batch,
                                                fabric,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        ScenarioSet { scenarios }
    }
}

/// A conjunction of per-axis allow-lists parsed from the CLI's
/// `--filter key=value` arguments. An empty axis matches everything.
#[derive(Debug, Clone, Default)]
pub struct ScenarioFilter {
    networks: Vec<String>,
    layouts: Vec<Layout>,
    algorithms: Vec<Algorithm>,
    engines: Vec<InferEngine>,
    batches: Vec<usize>,
    fabrics: Vec<FabricShape>,
}

impl ScenarioFilter {
    /// The match-everything filter.
    pub fn all() -> Self {
        ScenarioFilter::default()
    }

    /// Parses filter specs of the form `net=AlexNet,VGG`, `layout=nchw`,
    /// `alg=zv`, `engine=csc`, `batch=32`. Keys may repeat; values are
    /// comma-separated and case-insensitive. Every key and value is
    /// validated — a typo'd network name errors here instead of silently
    /// filtering every sweep to empty, and so does a key with no value
    /// (`net=`), which would otherwise match everything.
    ///
    /// The inference axes round-trip through the same labels the
    /// scenarios print:
    ///
    /// ```
    /// use cdma_core::scenario::{ScenarioFilter, ScenarioSet};
    /// use cdma_infer::InferEngine;
    ///
    /// let set = ScenarioSet::builder()
    ///     .networks(["AlexNet"])
    ///     .engines(InferEngine::ALL)
    ///     .batches([1, 32])
    ///     .build();
    /// let filter = ScenarioFilter::parse(&["engine=csc+act", "batch=32"]).unwrap();
    /// let hits: Vec<_> = set.scenarios().iter().filter(|s| filter.matches(s)).collect();
    /// assert_eq!(hits.len(), 1);
    /// assert_eq!(hits[0].engine, InferEngine::CscAct);
    /// assert_eq!(hits[0].batch, 32);
    /// // ...and the label suffix parses back as a filter value.
    /// let suffix = hits[0].label();
    /// let engine_label = InferEngine::CscAct.label();
    /// assert!(suffix.contains(engine_label));
    /// assert!(ScenarioFilter::parse(&[format!("engine={engine_label}")]).is_ok());
    /// ```
    pub fn parse<S: AsRef<str>>(specs: &[S]) -> Result<Self, String> {
        let mut filter = ScenarioFilter::default();
        for spec in specs {
            let spec = spec.as_ref();
            let (key, values) = spec
                .split_once('=')
                .ok_or_else(|| format!("filter {spec:?} is not key=value"))?;
            // The key is checked before its values, so a spec with none
            // (`tenancy=`, `=`) cannot slip through as match-everything.
            let add: fn(&mut ScenarioFilter, &str) -> Result<(), String> = match key {
                "net" | "network" => |f, v| parse_network(v).map(|x| f.networks.push(x)),
                "layout" => |f, v| parse_layout(v).map(|x| f.layouts.push(x)),
                "alg" | "algorithm" => |f, v| parse_algorithm(v).map(|x| f.algorithms.push(x)),
                "engine" => |f, v| parse_engine(v).map(|x| f.engines.push(x)),
                "batch" => |f, v| parse_batch(v).map(|x| f.batches.push(x)),
                "fabric" => |f, v| parse_fabric(v).map(|x| f.fabrics.push(x)),
                other => {
                    return Err(format!(
                        "unknown filter key {other:?} \
                         (expected net|layout|alg|engine|batch|fabric)"
                    ))
                }
            };
            let mut values = values.split(',').filter(|v| !v.is_empty()).peekable();
            if values.peek().is_none() {
                return Err(format!("filter key {key:?} has no values"));
            }
            for value in values {
                add(&mut filter, value)?;
            }
        }
        Ok(filter)
    }

    /// Restricts the network axis (builder-style convenience).
    pub fn network<S: Into<String>>(mut self, name: S) -> Self {
        self.networks.push(name.into());
        self
    }

    /// Restricts the layout axis (builder-style convenience; drivers use
    /// this to pin the paper grid to NCHW).
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layouts.push(layout);
        self
    }

    /// Restricts the algorithm axis (builder-style convenience).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithms.push(algorithm);
        self
    }

    /// Restricts the inference-engine axis (builder-style convenience).
    pub fn engine(mut self, engine: InferEngine) -> Self {
        self.engines.push(engine);
        self
    }

    /// Restricts the inference batch axis (builder-style convenience).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batches.push(batch);
        self
    }

    /// Restricts the fabric-shape axis (builder-style convenience).
    pub fn fabric(mut self, fabric: FabricShape) -> Self {
        self.fabrics.push(fabric);
        self
    }

    /// Whether every axis is unrestricted.
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty()
            && self.layouts.is_empty()
            && self.algorithms.is_empty()
            && self.engines.is_empty()
            && self.batches.is_empty()
            && self.fabrics.is_empty()
    }

    /// Whether `scenario` passes every axis.
    pub fn matches(&self, scenario: &Scenario) -> bool {
        self.matches_network(&scenario.network)
            && (self.layouts.is_empty() || self.layouts.contains(&scenario.layout))
            && (self.algorithms.is_empty() || self.algorithms.contains(&scenario.algorithm))
            && (self.engines.is_empty() || self.engines.contains(&scenario.engine))
            && (self.batches.is_empty() || self.batches.contains(&scenario.batch))
            && (self.fabrics.is_empty() || self.fabrics.contains(&scenario.fabric))
    }

    /// Whether the network axis admits `name` (for drivers that loop over
    /// networks without a full scenario in hand).
    pub fn matches_network(&self, name: &str) -> bool {
        self.networks.is_empty() || self.networks.iter().any(|n| n.eq_ignore_ascii_case(name))
    }

    /// Whether the algorithm axis admits `algorithm` (for reports that
    /// add codecs beyond a scenario set's own algorithm axis).
    pub fn matches_algorithm(&self, algorithm: Algorithm) -> bool {
        self.algorithms.is_empty() || self.algorithms.contains(&algorithm)
    }
}

fn parse_network(s: &str) -> Result<String, String> {
    zoo::all_networks()
        .iter()
        .find(|n| n.name().eq_ignore_ascii_case(s))
        .map(|n| n.name().to_owned())
        .ok_or_else(|| {
            let known: Vec<&str> = zoo::all_networks().iter().map(|n| n.name()).collect();
            format!("unknown network {s:?} (zoo has {})", known.join(", "))
        })
}

fn parse_layout(s: &str) -> Result<Layout, String> {
    Layout::ALL
        .into_iter()
        .find(|l| l.to_string().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown layout {s:?} (expected nchw|nhwc|chwn)"))
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    let wanted = s.to_ascii_lowercase();
    Algorithm::EXTENDED
        .into_iter()
        .find(|a| {
            a.label().eq_ignore_ascii_case(&wanted)
                || format!("{a:?}").eq_ignore_ascii_case(&wanted)
        })
        .ok_or_else(|| {
            format!(
                "unknown algorithm {s:?} (expected rl|zv|zl|cs|hf|ad or rle|zvc|zlib|csc|huff|adaptive)"
            )
        })
}

fn parse_engine(s: &str) -> Result<InferEngine, String> {
    s.parse::<InferEngine>()
        .map_err(|_| format!("unknown engine {s:?} (expected dense|csc|csc+act)"))
}

fn parse_batch(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&b| b > 0)
        .ok_or_else(|| format!("batch {s:?} is not a positive integer"))
}

fn parse_fabric(s: &str) -> Result<FabricShape, String> {
    s.to_ascii_lowercase().parse::<FabricShape>()
}

/// Cache-effectiveness counters of a [`Context`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
}

/// How a [`Context`] obtains its [`RatioTable`].
#[derive(Debug, Clone, Copy)]
enum TableKind {
    /// Full-resolution grid (17 density points) — the bench default.
    Full(u64),
    /// Coarse grid — fast enough for tests and `--fast` CLI runs.
    Fast(u64),
}

/// The memo of everything expensive a sweep touches more than once:
/// network specs, density profiles, the measured [`RatioTable`],
/// per-cell traffic summaries, synthesized measured streams, and
/// simulated single-GPU steps. One
/// `Context` outlives a whole `experiments all` run, so e.g. the ratio
/// table is built once and shared by all 23 experiments (the deleted
/// per-figure `cdma-bench` bins each rebuilt it from scratch), and a
/// measured step that three of them report is replayed line by line
/// once.
///
/// All methods take `&self`: a sweep's closures share one `Context` on
/// the caller's thread.
#[derive(Debug)]
pub struct Context {
    table_kind: TableKind,
    table: OnceCell<Arc<RatioTable>>,
    prebuilt_table: Option<Arc<RatioTable>>,
    specs: OnceCell<Vec<Arc<NetworkSpec>>>,
    profiles: RefCell<HashMap<String, Arc<NetworkProfile>>>,
    traffic: RefCell<HashMap<TrafficKey, Arc<NetworkTraffic>>>,
    streams: RefCell<HashMap<StreamKey, Arc<MeasuredStream>>>,
    steps: RefCell<HashMap<StepKey, Arc<StepTimeline>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Traffic memo key: network × algorithm × layout.
type TrafficKey = (String, Algorithm, Layout);
/// Measured-stream memo key: network × algorithm × layout × checkpoint
/// bits × seed. No platform here: a stream is the compressed size of
/// every fixed 4 KB window, and no [`SystemConfig`] field enters that.
type StreamKey = (String, Algorithm, Layout, u64, u64);
/// Step memo key: the stream key's axes plus the fidelity level
/// and the platform ([`config_bits`]), which sets every duration of the
/// step. The compute model is not an axis: [`Context::step`] simulates on
/// [`experiment::compute_model`] alone.
type StepKey = (String, Fidelity, Algorithm, Layout, u64, u64, [u64; 8]);

/// Every field of a platform configuration as key bits. The destructuring
/// is exhaustive on purpose: a field added to [`SystemConfig`] does not
/// compile until it is part of the step key.
fn config_bits(cfg: &SystemConfig) -> [u64; 8] {
    let SystemConfig {
        dram_bw,
        compute_dram_bw,
        comp_bw,
        pcie_bw,
        mem_latency,
        dma_buffer,
        mem_controllers,
        engine_clock,
    } = *cfg;
    [
        dram_bw.to_bits(),
        compute_dram_bw.to_bits(),
        comp_bw.to_bits(),
        pcie_bw.to_bits(),
        mem_latency.to_bits(),
        dma_buffer as u64,
        mem_controllers as u64,
        engine_clock.to_bits(),
    ]
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl Context {
    fn with_kind(table_kind: TableKind, prebuilt: Option<RatioTable>) -> Self {
        Context {
            table_kind,
            table: OnceCell::new(),
            prebuilt_table: prebuilt.map(Arc::new),
            specs: OnceCell::new(),
            profiles: RefCell::default(),
            traffic: RefCell::default(),
            streams: RefCell::default(),
            steps: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// A context with the full-resolution ratio table (seed 42 — the
    /// seed the golden tests pin the figures to).
    pub fn new() -> Self {
        Context::with_kind(TableKind::Full(42), None)
    }

    /// A context with the coarse ratio table — for tests and `--fast`
    /// CLI runs.
    pub fn fast() -> Self {
        Context::with_kind(TableKind::Fast(42), None)
    }

    /// A context around a caller-built ratio table (golden tests pin
    /// numbers by sharing the exact table with a legacy reimplementation).
    pub fn with_table(table: RatioTable) -> Self {
        Context::with_kind(TableKind::Fast(0), Some(table))
    }

    /// Whether this context was built for coarse/fast runs
    /// ([`Context::fast`] or [`Context::with_table`]) rather than the
    /// full-resolution grid — experiments with their own notion of
    /// "smaller" (shorter load horizons, fewer sweep points) key off this
    /// instead of growing a parallel flag.
    pub fn is_fast(&self) -> bool {
        matches!(self.table_kind, TableKind::Fast(_))
    }

    /// The memoized ratio table (built on first use).
    pub fn ratio_table(&self) -> Arc<RatioTable> {
        if let Some(t) = &self.prebuilt_table {
            return t.clone();
        }
        self.table
            .get_or_init(|| {
                Arc::new(match self.table_kind {
                    TableKind::Full(seed) => RatioTable::build(seed),
                    TableKind::Fast(seed) => RatioTable::build_fast(seed),
                })
            })
            .clone()
    }

    /// Every zoo network spec (memoized).
    pub fn specs(&self) -> &[Arc<NetworkSpec>] {
        self.specs
            .get_or_init(|| zoo::all_networks().into_iter().map(Arc::new).collect())
    }

    /// The spec of one zoo network, by (case-insensitive) name.
    ///
    /// # Panics
    ///
    /// Panics if the name matches no zoo network.
    pub fn spec(&self, network: &str) -> Arc<NetworkSpec> {
        self.specs()
            .iter()
            .find(|s| s.name().eq_ignore_ascii_case(network))
            .unwrap_or_else(|| {
                let known: Vec<&str> = self.specs().iter().map(|s| s.name()).collect();
                panic!("unknown network {network:?} (zoo has {known:?})")
            })
            .clone()
    }

    /// The calibrated density profile of one network (memoized).
    pub fn profile(&self, network: &str) -> Arc<NetworkProfile> {
        let key = self.spec(network).name().to_owned();
        self.memo(&self.profiles, key.clone(), || {
            profiles::density_profile(&self.spec(&key))
        })
    }

    /// The offloaded-traffic summary of one grid cell (memoized): the
    /// network's per-layer training-averaged compression under
    /// `algorithm`/`layout`, through the shared ratio table.
    pub fn traffic(
        &self,
        network: &str,
        algorithm: Algorithm,
        layout: Layout,
    ) -> Arc<NetworkTraffic> {
        let spec = self.spec(network);
        let key = (spec.name().to_owned(), algorithm, layout);
        self.memo(&self.traffic, key, || {
            traffic::network_traffic(
                &spec,
                &self.profile(spec.name()),
                algorithm,
                layout,
                &self.ratio_table(),
            )
        })
    }

    /// A synthesized measured stream for `scenario` (memoized by network,
    /// algorithm, layout, checkpoint and seed): one image's worth of
    /// clustered activations per layer at the profiled density, generated
    /// in the scenario's layout, compressed for real through the engine
    /// and replicated across the minibatch.
    pub fn measured_stream(&self, scenario: &Scenario) -> Arc<MeasuredStream> {
        let spec = self.spec(&scenario.network);
        let key = (
            spec.name().to_owned(),
            scenario.algorithm,
            scenario.layout,
            scenario.checkpoint.to_bits(),
            scenario.seed,
        );
        self.memo(&self.streams, key, || {
            let engine = CdmaEngine::new(scenario.config, scenario.algorithm);
            measured::synthesized_stream_with_layout(
                &engine,
                &spec,
                &self.profile(spec.name()),
                scenario.layout,
                scenario.checkpoint,
                scenario.seed,
            )
        })
    }

    /// Builds the live [`TransferSource`](cdma_vdnn::TransferSource) for a
    /// scenario — the single place a [`Fidelity`] *value* becomes one of
    /// the three concrete source types.
    pub fn transfer_source(&self, scenario: &Scenario) -> FidelitySource {
        let spec = self.spec(&scenario.network);
        match scenario.fidelity {
            Fidelity::UniformRatio => {
                let t = self.traffic(&scenario.network, scenario.algorithm, scenario.layout);
                UniformRatio::uniform(&spec, t.avg_ratio()).into()
            }
            Fidelity::ProfiledDensity => ProfiledDensity::at_checkpoint(
                &spec,
                &self.profile(spec.name()),
                scenario.checkpoint,
                scenario.algorithm,
                scenario.layout,
                &self.ratio_table(),
            )
            .into(),
            Fidelity::MeasuredStream => self.measured_stream(scenario).into(),
        }
    }

    /// The single-GPU training step of `scenario` (memoized by network,
    /// fidelity, algorithm, layout, checkpoint, seed and platform): one
    /// [`TimelineSim`] run on the catalogue's compute model with the
    /// scenario's [`Context::transfer_source`], kept whole: a few hundred
    /// log entries and stage records, and busy lists of a few dozen
    /// intervals (the DMA pipeline books a measured replay's lines as
    /// femtosecond totals, not intervals). `gpus` and the inference /
    /// fabric axes are not part of a single-GPU step and not part of the
    /// key.
    pub fn step(&self, scenario: &Scenario) -> Arc<StepTimeline> {
        let spec = self.spec(&scenario.network);
        let key = (
            spec.name().to_owned(),
            scenario.fidelity,
            scenario.algorithm,
            scenario.layout,
            scenario.checkpoint.to_bits(),
            scenario.seed,
            config_bits(&scenario.config),
        );
        self.memo(&self.steps, key, || {
            TimelineSim::new(scenario.config, experiment::compute_model())
                .simulate(&spec, &self.transfer_source(scenario))
        })
    }

    /// Cache counters (hits vs computed misses) across every memoized
    /// lookup.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Looks `key` up, else computes and inserts it. No borrow of `map` is
    /// held while `make` runs, so `make` may consult other memos.
    fn memo<K, V>(
        &self,
        map: &RefCell<HashMap<K, Arc<V>>>,
        key: K,
        make: impl FnOnce() -> V,
    ) -> Arc<V>
    where
        K: std::hash::Hash + Eq,
    {
        if let Some(v) = map.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return v.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let v = Arc::new(make());
        map.borrow_mut().insert(key, v.clone());
        v
    }
}

/// Kept so that callers which still construct one compile: every sweep
/// runs on the caller's thread, and [`experiment::run`] ignores its
/// runner.
#[derive(Debug)]
pub struct Runner;

impl Runner {
    /// The runner; `_jobs` is ignored.
    pub fn with_jobs(_jobs: usize) -> Self {
        Runner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_covers_the_triple_loop_in_legacy_order() {
        let grid = ScenarioSet::paper_grid();
        assert_eq!(grid.len(), 6 * 3 * 3);
        assert_eq!(grid.networks().len(), 6);
        // Network-major, then layout, then algorithm — the legacy
        // `for spec { for layout { for alg { … } } }` order.
        let s = grid.scenarios();
        assert_eq!(s[0].network, s[8].network);
        assert_ne!(s[8].network, s[9].network);
        assert_eq!(s[0].layout, s[2].layout);
        assert_ne!(s[2].layout, s[3].layout);
        assert_ne!(s[0].algorithm, s[1].algorithm);
    }

    #[test]
    fn builder_takes_the_cartesian_product() {
        let set = ScenarioSet::builder()
            .networks(["AlexNet", "VGG"])
            .layouts([Layout::Nchw, Layout::Nhwc])
            .algorithms([Algorithm::Zvc])
            .fidelities(Fidelity::ALL)
            .checkpoints([0.1, 0.9])
            .build();
        // 2 networks x 2 layouts x 1 algorithm x 3 fidelities x 2 checkpoints.
        assert_eq!(set.len(), 24);
        // Innermost axis varies fastest.
        assert_eq!(set.scenarios()[0].checkpoint, 0.1);
        assert_eq!(set.scenarios()[1].checkpoint, 0.9);
        assert_eq!(set.scenarios()[0].fidelity, set.scenarios()[1].fidelity);
    }

    #[test]
    fn filter_parses_and_matches() {
        let f = ScenarioFilter::parse(&["net=alexnet,VGG", "layout=nchw", "alg=zv"]).unwrap();
        assert!(!f.is_empty());
        assert!(f.matches_network("AlexNet"));
        assert!(f.matches_network("VGG"));
        assert!(!f.matches_network("NiN"));
        let grid = ScenarioSet::paper_grid().filtered(&f);
        assert_eq!(grid.len(), 2);
        assert!(grid
            .scenarios()
            .iter()
            .all(|s| s.layout == Layout::Nchw && s.algorithm == Algorithm::Zvc));

        // Every extended codec parses by label and by debug name.
        let f = ScenarioFilter::parse(&["alg=rl,zvc,ZLIB,cs,hf,adaptive"]).unwrap();
        assert_eq!(f.algorithms.len(), Algorithm::EXTENDED.len());

        assert!(ScenarioFilter::parse(&["bogus"]).is_err());
        assert!(ScenarioFilter::parse(&["k=v"]).is_err());
        assert!(ScenarioFilter::parse(&["layout=xyz"]).is_err());
        assert!(ScenarioFilter::parse(&["alg=xyz"]).is_err());
        // A typo'd network errors at parse time instead of silently
        // filtering every sweep to empty.
        assert!(ScenarioFilter::parse(&["net=AlexNte"]).is_err());
        assert!(ScenarioFilter::all().matches(&ScenarioSet::paper_grid().scenarios()[0]));

        // The fabric axis parses, validates and matches.
        let f = ScenarioFilter::parse(&["fabric=node8"]).unwrap();
        assert!(!f.is_empty());
        let set = ScenarioSet::builder()
            .networks(["AlexNet"])
            .fabrics(FabricShape::ALL)
            .build();
        let hits: Vec<_> = set.scenarios().iter().filter(|s| f.matches(s)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].fabric,
            FabricShape::Hierarchical { gpus_per_node: 8 }
        );
        assert!(ScenarioFilter::parse(&["fabric=mesh"]).is_err());

        // No scenario sets a tenancy, so the key is unknown rather than a
        // filter that empties every sweep; the error lists the keys left.
        let err = ScenarioFilter::parse(&["tenancy=churn"]).unwrap_err();
        assert!(err.contains("net|layout|alg|engine|batch|fabric)"), "{err}");
    }

    #[test]
    fn filter_keys_are_checked_before_their_values() {
        // Without values the key is the only thing to check: an unknown
        // one is still unknown, a known one has nothing to filter by.
        for spec in ["tenancy=", "=", "bogus=,,"] {
            let err = ScenarioFilter::parse(&[spec]).unwrap_err();
            assert!(err.contains("unknown filter key"), "{spec}: {err}");
        }
        let err = ScenarioFilter::parse(&["net="]).unwrap_err();
        assert_eq!(err, "filter key \"net\" has no values");
        assert!(ScenarioFilter::parse(&["layout=,,"]).is_err());
        assert!(ScenarioFilter::parse(&["net=,VGG,"]).is_ok());
    }

    #[test]
    fn context_memoizes_profiles_and_traffic() {
        let ctx = Context::fast();
        let a = ctx.profile("AlexNet");
        let b = ctx.profile("alexnet");
        assert!(Arc::ptr_eq(&a, &b));
        let t1 = ctx.traffic("AlexNet", Algorithm::Zvc, Layout::Nchw);
        let t2 = ctx.traffic("AlexNet", Algorithm::Zvc, Layout::Nchw);
        assert!(Arc::ptr_eq(&t1, &t2));
        let stats = ctx.stats();
        assert!(stats.hits >= 2, "stats {stats:?}");
        assert!(stats.misses >= 2, "stats {stats:?}");
    }

    #[test]
    #[should_panic(expected = "unknown network")]
    fn unknown_network_panics_with_the_zoo_list() {
        Context::fast().spec("ResNet-50");
    }

    #[test]
    fn transfer_source_dispatches_on_the_fidelity_value() {
        let ctx = Context::fast();
        let mut scenario = ScenarioSet::builder()
            .networks(["AlexNet"])
            .build()
            .scenarios()[0]
            .clone();
        for fidelity in Fidelity::ALL {
            scenario.fidelity = fidelity;
            let source = ctx.transfer_source(&scenario);
            assert_eq!(source.level(), fidelity, "{fidelity:?}");
        }
        // The measured stream is cached across calls.
        let s1 = ctx.measured_stream(&scenario);
        let s2 = ctx.measured_stream(&scenario);
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn measured_streams_respect_the_layout_axis() {
        // RLE is layout-sensitive (Fig. 11), so the measured streams of
        // two layouts must differ — and must not share a cache slot.
        let ctx = Context::fast();
        let mut scenario = ScenarioSet::builder()
            .networks(["AlexNet"])
            .algorithms([Algorithm::Rle])
            .fidelities([Fidelity::MeasuredStream])
            .build()
            .scenarios()[0]
            .clone();
        let nchw = ctx.measured_stream(&scenario);
        scenario.layout = Layout::Nhwc;
        let nhwc = ctx.measured_stream(&scenario);
        assert!(!Arc::ptr_eq(&nchw, &nhwc));
        assert_eq!(nchw.total_uncompressed(), nhwc.total_uncompressed());
        assert_ne!(
            nchw.total_compressed(),
            nhwc.total_compressed(),
            "RLE wire bytes should differ across layouts"
        );
    }
}
