//! `offload_zvc` and `offload_entropy`: per-image activations of zoo
//! networks through `CdmaEngine::offload_into` (offload direction) and
//! `memcpy_decompressed_into` (prefetch direction), one pass after
//! another, single-threaded.
//!
//! The two workloads share every line of driver code and differ only in
//! networks and codecs: ZVC makes windowing and DMA line stepping a
//! visible share of the pass, the entropy coders bury both under the
//! codec kernel — so a change to one side must leave the other still.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cdma_compress::windowed::{WindowedStream, DEFAULT_WINDOW_BYTES};
use cdma_compress::{Algorithm, Codec, Compressor};
use cdma_core::{CdmaEngine, CompressedCopy, OffloadScratch};
use cdma_gpusim::{DmaPipeline, SystemConfig};
use cdma_models::{profiles, zoo, NetworkSpec};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4, Tensor};

use super::{finish_steps, timed_setup, RunArgs};
use crate::metrics::{codec_layer, Outcome};
use crate::refclock;
use crate::stats::{self, Sections};
use crate::trace::Tracer;

/// Training checkpoint the layer densities are read at (mid-training,
/// the sparse bottom of the paper's U-curve).
const CHECKPOINT: f64 = 0.5;

/// Share of a traced run spent untraced first, as the baseline of
/// `bench.trace.overhead_share`.
const UNTRACED_SHARE: f64 = 0.25;

/// What distinguishes the two offload workloads.
pub struct Kind {
    networks: &'static [fn() -> NetworkSpec],
    algorithms: &'static [Algorithm],
    /// Percentile of passes printed as `step_ms_p90`, where enough passes
    /// fit a run to support one.
    tail_p: Option<f64>,
    /// Whether the traced run also measures the parallel window pool
    /// (only worth it where windows are a visible share of the time).
    workers: bool,
    /// What the workload's times are referred to (see [`refclock`]).
    reference: Reference,
}

/// The canary a workload's times are referred to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reference {
    /// The clock canary, read at every codec boundary. Right for the
    /// entropy coders, which are core-bound: where the host's cores step
    /// between turbo bins their wall time follows the bin exactly. What
    /// the host's other tenants add on top comes in bursts, so the
    /// workload's numbers are the quiet time of its calls
    /// ([`Sections`]), not the median pass.
    Clock,
    /// A plain copy of the same tensors, once a pass. Right for ZVC, which
    /// moves at the speed of a memory system shared with the host's other
    /// tenants: the roadmap's "ceiling for codecs" doubles as the canary.
    /// The state of the memory system lasts whole runs and the copy
    /// follows it pass by pass, so the workload's numbers are medians over
    /// the passes of the referred time.
    Memcpy,
}

/// The paper's hardware design point on the training path.
pub const ZVC: Kind = Kind {
    networks: &[zoo::alexnet, zoo::squeezenet, zoo::vgg],
    algorithms: &[Algorithm::Zvc],
    tail_p: Some(90.0),
    workers: true,
    reference: Reference::Memcpy,
};

/// The same path where the codec kernel is nearly all of the time. A
/// pass takes about a second, so no tail is supported.
pub const ENTROPY: Kind = Kind {
    networks: &[zoo::alexnet],
    algorithms: &[
        Algorithm::Rle,
        Algorithm::Huff,
        Algorithm::Zlib,
        Algorithm::Adaptive,
    ],
    tail_p: None,
    workers: false,
    reference: Reference::Clock,
};

/// One codec's engine, reference copies and reusable scratch.
struct Lane {
    engine: CdmaEngine,
    codec: Codec,
    /// Set-up `memcpy_compressed` copies: the prefetch source and the
    /// reference the offload stream is compared against.
    copies: Vec<CompressedCopy>,
    scratch: OffloadScratch,
}

struct Inputs {
    tensors: Vec<Tensor>,
    lanes: Vec<Lane>,
    out: Vec<f32>,
    /// Uncompressed bytes of all tensors (one lane's share of a pass).
    lane_bytes: u64,
    /// [`Kind::reference`].
    reference: Reference,
}

fn build(kind: &Kind, seed: u64, outcome: &mut Outcome) -> Inputs {
    let mut gen = ActivationGen::seeded(seed);
    let mut tensors = Vec::new();
    for net in kind.networks {
        let spec = net();
        let profile = profiles::density_profile(&spec);
        for layer in spec.layers() {
            let density = profile
                .trajectory(&layer.name)
                .unwrap_or_else(|| panic!("{}: no profile for {}", spec.name(), layer.name))
                .density_at(CHECKPOINT);
            let shape = Shape4::new(1, layer.out.c, layer.out.h, layer.out.w);
            tensors.push(gen.generate(shape, Layout::Nchw, density));
        }
    }
    let lanes = kind
        .algorithms
        .iter()
        .map(|&alg| {
            // `CdmaEngine::new` compresses on the calling thread
            // (threads = 1): the workload is single-threaded by design.
            let engine = CdmaEngine::new(SystemConfig::titan_x_pcie3(), alg);
            Lane {
                engine,
                codec: engine.codec(),
                copies: tensors
                    .iter()
                    .map(|t| engine.memcpy_compressed(t.as_slice()))
                    .collect(),
                scratch: OffloadScratch::for_engine(&engine),
            }
        })
        .collect();
    let mut inputs = Inputs {
        lane_bytes: tensors.iter().map(|t| t.bytes() as u64).sum(),
        reference: kind.reference,
        tensors,
        lanes,
        out: Vec::new(),
    };
    // Warm-up pass, checked: the first of the two gated passes.
    checked_pass(&mut inputs, outcome);
    inputs
}

/// One pass with the correctness gate on and no timing: the offload
/// stream must equal the set-up copy's bytes, and the prefetch output
/// must equal the input word for word by `to_bits()`.
fn checked_pass(inputs: &mut Inputs, outcome: &mut Outcome) {
    let Inputs {
        tensors,
        lanes,
        out,
        ..
    } = inputs;
    for lane in lanes.iter_mut() {
        let label = lane.engine.algorithm().label();
        for (i, t) in tensors.iter().enumerate() {
            lane.engine.offload_into(t.as_slice(), &mut lane.scratch);
            outcome.check(
                lane.scratch.stream().as_bytes() == lane.copies[i].stream().as_bytes(),
                || format!("{label} tensor {i}: offload stream differs from set-up copy"),
            );
            let decoded = lane.engine.memcpy_decompressed_into(&lane.copies[i], out);
            let same = decoded.is_ok()
                && out.len() == t.len()
                && out
                    .iter()
                    .zip(t.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            outcome.check(same, || {
                format!("{label} tensor {i}: prefetch output differs from input")
            });
        }
    }
}

/// The traced run's layer-by-layer sweeps: after the engine has been
/// through every tensor, the bare codec, the windowed stream and the DMA
/// push loop each go through every tensor too. Sweeping layer by layer —
/// not layer after layer on one tensor — gives every layer the cache
/// state the engine had: a tensor last touched a whole sweep ago.
struct Siblings {
    /// Whole-tensor (unwindowed) codec streams, `[lane][tensor]`.
    kernel_streams: Vec<Vec<Vec<u8>>>,
    kernel_buf: Vec<u8>,
    stream: WindowedStream,
    /// Line table of every `(lane, tensor)`, lane-major.
    lines: Vec<Vec<(u32, u32)>>,
    pipeline: DmaPipeline,
    words: Vec<f32>,
    /// Windows (= DMA lines) of one pass.
    windows: u64,
}

impl Siblings {
    fn new(inputs: &Inputs) -> Self {
        let kernel_streams = inputs
            .lanes
            .iter()
            .map(|lane| {
                inputs
                    .tensors
                    .iter()
                    .map(|t| lane.codec.compress(t.as_slice()))
                    .collect()
            })
            .collect();
        Siblings {
            kernel_streams,
            kernel_buf: Vec::new(),
            stream: WindowedStream::default(),
            lines: vec![Vec::new(); inputs.lanes.len() * inputs.tensors.len()],
            pipeline: DmaPipeline::new(SystemConfig::titan_x_pcie3()),
            words: Vec::new(),
            windows: 0,
        }
    }

    /// The offload direction beneath the engine: codec, windows, DMA.
    fn offload_side(&mut self, lanes: &[Lane], tensors: &[Tensor], req: u64, tracer: &mut Tracer) {
        for lane in lanes {
            let (span_c, _) = kernel_spans(lane.engine.algorithm());
            for t in tensors {
                tracer.timed(span_c, req, || {
                    lane.codec.compress_into(t.as_slice(), &mut self.kernel_buf)
                });
            }
        }
        for (l, lane) in lanes.iter().enumerate() {
            for (i, t) in tensors.iter().enumerate() {
                tracer.timed(SPAN_WINDOWED_C, req, || {
                    self.stream
                        .recompress(&lane.codec, t.as_slice(), DEFAULT_WINDOW_BYTES)
                });
                let stream = &self.stream;
                let lines = &mut self.lines[l * tensors.len() + i];
                lines.clear();
                lines.extend(
                    stream
                        .window_sizes()
                        .enumerate()
                        .map(|(w, c)| ((stream.window_elements(w) * 4) as u32, c as u32)),
                );
            }
        }
        self.windows = 0;
        for lines in &self.lines {
            self.windows += lines.len() as u64;
            tracer.timed(SPAN_DMA, req, || {
                self.pipeline.reset();
                for &(u, c) in lines {
                    self.pipeline.push_line(0.0, u, c);
                }
                black_box(self.pipeline.result())
            });
        }
    }

    /// The prefetch direction beneath the engine, plus the codec ceiling:
    /// a plain copy of the same words. Returns decode errors.
    fn prefetch_side(
        &mut self,
        lanes: &[Lane],
        tensors: &[Tensor],
        req: u64,
        tracer: &mut Tracer,
    ) -> u64 {
        let mut errors = 0;
        for (l, lane) in lanes.iter().enumerate() {
            let (_, span_d) = kernel_spans(lane.engine.algorithm());
            for (i, t) in tensors.iter().enumerate() {
                let kernel = &self.kernel_streams[l][i];
                let (r, _) = tracer.timed(span_d, req, || {
                    lane.codec.decompress_into(kernel, t.len(), &mut self.words)
                });
                errors += u64::from(r.is_err());
            }
        }
        for lane in lanes {
            for copy in &lane.copies {
                let (r, _) = tracer.timed(SPAN_WINDOWED_D, req, || {
                    copy.stream().decompress_into(&lane.codec, &mut self.words)
                });
                errors += u64::from(r.is_err());
            }
        }
        for t in tensors {
            self.words.resize(t.len(), 0.0);
            tracer.timed(SPAN_MEMCPY, req, || {
                self.words.copy_from_slice(t.as_slice())
            });
            black_box(self.words.last());
        }
        errors
    }
}

/// Span names of a codec's bare kernel, `(compress, decompress)`.
fn kernel_spans(algorithm: Algorithm) -> (&'static str, &'static str) {
    match algorithm {
        Algorithm::Zvc => ("compress.zvc.compress", "compress.zvc.decompress"),
        Algorithm::Rle => ("compress.rle.compress", "compress.rle.decompress"),
        Algorithm::Zlib => ("compress.deflate.compress", "compress.deflate.decompress"),
        Algorithm::Huff => ("compress.huff.compress", "compress.huff.decompress"),
        Algorithm::Adaptive => ("compress.adaptive.compress", "compress.adaptive.decompress"),
        Algorithm::Csc => unreachable!("CSC is a weight codec; no offload workload uses it"),
    }
}

const SPAN_OFFLOAD: &str = "core.engine.offload";
const SPAN_PREFETCH: &str = "core.engine.prefetch";
const SPAN_WINDOWED_C: &str = "compress.windowed.compress";
const SPAN_WINDOWED_D: &str = "compress.windowed.decompress";
const SPAN_DMA: &str = "gpusim.dma.push";
const SPAN_MEMCPY: &str = "bench.memcpy";

/// Times of one pass: wall seconds, or reference seconds where
/// at the reference of [`Kind::reference`].
struct Pass {
    offload_s: f64,
    prefetch_s: f64,
    wire_bytes: u64,
    decode_errors: u64,
    /// Every canary reading taken during the pass, as multiples of the
    /// reference.
    states: Vec<f64>,
    /// Offload + prefetch on the wall clock.
    wall_s: f64,
    /// Every engine call of the pass in call order — offload calls lane
    /// by lane, then prefetch calls — in seconds at the lane's clock.
    calls: Vec<f64>,
}

/// One pass: every tensor through every lane's `offload_into`, then
/// every stored copy through `memcpy_decompressed_into`. With `siblings`
/// (traced run) each direction is followed by the same sweep through the
/// layers beneath the engine.
fn pass(
    inputs: &mut Inputs,
    req: u64,
    tracer: &mut Tracer,
    mut siblings: Option<&mut Siblings>,
) -> Pass {
    let Inputs {
        tensors,
        lanes,
        out,
        reference,
        lane_bytes,
        ..
    } = inputs;
    let read_clock = || match reference {
        Reference::Clock => refclock::scale(),
        Reference::Memcpy => 1.0,
    };
    let mut p = Pass {
        offload_s: 0.0,
        prefetch_s: 0.0,
        wire_bytes: 0,
        decode_errors: 0,
        states: Vec::new(),
        wall_s: 0.0,
        calls: Vec::with_capacity(2 * lanes.len() * tensors.len()),
    };
    // The clock is read at every lane boundary: a lane of an entropy
    // coder runs for hundreds of milliseconds, long enough for a turbo
    // bin to change under it.
    let mut clock = read_clock();
    for lane in lanes.iter_mut() {
        let mut lane_s = 0.0;
        for t in tensors.iter() {
            let ((stats, transfer), secs) = tracer.timed(SPAN_OFFLOAD, req, || {
                lane.engine.offload_into(t.as_slice(), &mut lane.scratch)
            });
            black_box(transfer);
            lane_s += secs;
            p.calls.push(secs);
            p.wire_bytes += stats.compressed_bytes;
        }
        let after = read_clock();
        p.wall_s += lane_s;
        p.offload_s += refclock::at_reference(lane_s, clock, after);
        refer_lane(&mut p.calls, tensors.len(), clock, after);
        clock = after;
    }
    if let Some(s) = siblings.as_deref_mut() {
        s.offload_side(lanes, tensors, req, tracer);
    }
    let mut clock = read_clock();
    for lane in lanes.iter() {
        let mut lane_s = 0.0;
        for copy in &lane.copies {
            let (decoded, secs) = tracer.timed(SPAN_PREFETCH, req, || {
                lane.engine.memcpy_decompressed_into(copy, out)
            });
            lane_s += secs;
            p.calls.push(secs);
            p.decode_errors += u64::from(decoded.is_err());
            black_box(out.last());
        }
        let after = read_clock();
        p.states.push(after);
        p.wall_s += lane_s;
        p.prefetch_s += refclock::at_reference(lane_s, clock, after);
        refer_lane(&mut p.calls, lane.copies.len(), clock, after);
        clock = after;
    }
    if *reference == Reference::Memcpy {
        // The memory system as this pass met it: the same tensors, the
        // same footprint, through a plain copy.
        let t0 = Instant::now();
        for t in tensors.iter() {
            out.resize(t.len(), 0.0);
            out.copy_from_slice(t.as_slice());
            black_box(out.last());
        }
        let gbps = *lane_bytes as f64 / t0.elapsed().as_secs_f64() / 1e9;
        let scale = gbps / refclock::REFERENCE_MEMCPY_GBPS;
        p.states = vec![scale];
        p.offload_s *= scale;
        p.prefetch_s *= scale;
    }
    if let Some(s) = siblings {
        p.decode_errors += s.prefetch_side(lanes, tensors, req, tracer);
    }
    p
}

/// Refers the last `n` calls — one lane's — to the clock read at the
/// lane's two ends.
fn refer_lane(calls: &mut [f64], n: usize, clock_before: f64, clock_after: f64) {
    let from = calls.len() - n;
    for secs in &mut calls[from..] {
        *secs = refclock::at_reference(*secs, clock_before, clock_after);
    }
}

/// Samples collected over a run of passes.
struct Samples {
    /// Every pass's engine calls ([`Pass::calls`]).
    calls: Sections,
    offload_gbps: Vec<f64>,
    prefetch_gbps: Vec<f64>,
    step_ms: Vec<f64>,
    /// Canary readings, as multiples of the reference.
    states: Vec<f64>,
    /// Offload + prefetch of each pass on the wall clock, ms.
    wall_ms: Vec<f64>,
    wire_bytes: Option<u64>,
    /// Pass ids (span `req`) of the passes run.
    ids: Vec<u64>,
}

/// Runs passes for `budget_s` seconds (at least one).
fn run_passes(
    inputs: &mut Inputs,
    outcome: &mut Outcome,
    budget_s: f64,
    first_id: u64,
    tracer: &mut Tracer,
    mut siblings: Option<&mut Siblings>,
) -> Samples {
    let pass_bytes = (inputs.lane_bytes * inputs.lanes.len() as u64) as f64;
    let ops = (inputs.tensors.len() * inputs.lanes.len() * 2) as u64;
    let mut s = Samples {
        calls: Sections::new(ops as usize),
        offload_gbps: Vec::new(),
        prefetch_gbps: Vec::new(),
        step_ms: Vec::new(),
        states: Vec::new(),
        wall_ms: Vec::new(),
        wire_bytes: None,
        ids: Vec::new(),
    };
    let t0 = Instant::now();
    let mut id = first_id;
    while s.ids.is_empty() || t0.elapsed().as_secs_f64() < budget_s {
        let p = pass(inputs, id, tracer, siblings.as_deref_mut());
        s.offload_gbps.push(pass_bytes / p.offload_s / 1e9);
        s.prefetch_gbps.push(pass_bytes / p.prefetch_s / 1e9);
        s.step_ms.push((p.offload_s + p.prefetch_s) * 1e3);
        s.states.extend(&p.states);
        s.wall_ms.push(p.wall_s * 1e3);
        s.calls.push_step(&p.calls);
        s.ids.push(id);
        id += 1;
        outcome.attempted += ops;
        outcome.failed += p.decode_errors;
        outcome.wrong += p.decode_errors;
        // The wire size is a pure function of the inputs: it repeats.
        let first = *s.wire_bytes.get_or_insert(p.wire_bytes);
        outcome.check(p.wire_bytes == first, || {
            format!(
                "pass {id}: wire bytes {} differ from the first pass's {first}",
                p.wire_bytes
            )
        });
    }
    s
}

/// Runs one of the two offload workloads.
pub fn run(kind: &Kind, args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut inputs = timed_setup(&mut outcome, |o| build(kind, args.seed, o));
    let pass_bytes = inputs.lane_bytes * inputs.lanes.len() as u64;
    outcome.notes.push(format!(
        "{} tensors, {:.1} MB per pass across {} codec(s)",
        inputs.tensors.len(),
        pass_bytes as f64 / 1e6,
        inputs.lanes.len()
    ));

    if tracer.enabled() {
        traced(kind, args, &mut inputs, &mut outcome, tracer);
    } else {
        let s = run_passes(&mut inputs, &mut outcome, args.seconds, 0, tracer, None);
        let n = s.step_ms.len();
        let states = stats::sorted(s.states.clone());
        outcome.notes.push(format!(
            "times are at the reference {:?}; the canary read x{:.3} of it at the median \
             ({:.3}-{:.3}), and the median pass took {:.3} ms on the wall",
            kind.reference,
            stats::percentile(&states, 50.0),
            states[0],
            states[states.len() - 1],
            stats::median(&s.wall_ms)
        ));
        let wire_ratio = pass_bytes as f64 / s.wire_bytes.expect("at least one pass ran") as f64;
        // Offload calls fill the first half of a pass's sections, prefetch
        // calls the second.
        let half = s.calls.width() / 2;
        let (offload_gbps, prefetch_gbps, step_ms) = match kind.reference {
            Reference::Clock => (
                pass_bytes as f64 / s.calls.quiet_s(0..half) / 1e9,
                pass_bytes as f64 / s.calls.quiet_s(half..2 * half) / 1e9,
                s.calls.quiet_step_s() * 1e3,
            ),
            Reference::Memcpy => (
                stats::median(&s.offload_gbps),
                stats::median(&s.prefetch_gbps),
                stats::median(&s.step_ms),
            ),
        };
        outcome.e2e("offload_gbps", offload_gbps, n);
        outcome.e2e("prefetch_gbps", prefetch_gbps, n);
        outcome.e2e("wire_ratio", wire_ratio, n);
        // Step: one pass, offload + prefetch.
        finish_steps(&mut outcome, step_ms, &s.step_ms, kind.tail_p);
    }

    let wire: u64 = inputs
        .lanes
        .iter()
        .flat_map(|l| &l.copies)
        .map(|c| c.wire_bytes() as u64)
        .sum();
    outcome.exact("core.engine.pass_bytes", pass_bytes);
    outcome.exact("core.engine.wire_bytes", wire);

    // The last gated pass.
    checked_pass(&mut inputs, &mut outcome);
    outcome
}

/// Seconds per `(span name, pass)` of the traced passes.
struct PassSums<'a> {
    sums: BTreeMap<(&'static str, u64), f64>,
    ids: &'a [u64],
}

impl PassSums<'_> {
    /// Median over passes of `bytes / seconds` in GB/s for one span name.
    fn gbps(&self, name: &'static str, bytes: f64) -> (f64, usize) {
        let rates: Vec<f64> = self
            .ids
            .iter()
            .filter_map(|&id| self.sums.get(&(name, id)))
            .map(|&secs| bytes / secs / 1e9)
            .collect();
        if rates.is_empty() {
            (0.0, 0)
        } else {
            (stats::median(&rates), rates.len())
        }
    }

    /// Total seconds of one span name over the traced passes.
    fn total_s(&self, name: &'static str) -> f64 {
        self.ids
            .iter()
            .filter_map(|&id| self.sums.get(&(name, id)))
            .sum()
    }
}

fn traced(
    kind: &Kind,
    args: RunArgs,
    inputs: &mut Inputs,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) {
    // Baseline slice with the recorder out of the loop.
    let mut off = Tracer::off();
    let base = run_passes(
        inputs,
        outcome,
        args.seconds * UNTRACED_SHARE,
        0,
        &mut off,
        None,
    );
    let mut siblings = Siblings::new(inputs);
    let first_id = base.ids.len() as u64;
    let s = run_passes(
        inputs,
        outcome,
        args.seconds * (1.0 - UNTRACED_SHARE),
        first_id,
        tracer,
        Some(&mut siblings),
    );
    let lane_bytes = inputs.lane_bytes as f64;
    let pass_bytes = lane_bytes * inputs.lanes.len() as f64;

    if kind.workers {
        measure_workers(inputs, outcome, tracer);
    }

    let rec = tracer.recorder().expect("traced run has a recorder");
    let sums = PassSums {
        sums: rec.seconds_by_name_req(),
        ids: &s.ids,
    };
    let passes = s.ids.len();
    let (offload, n) = sums.gbps(SPAN_OFFLOAD, pass_bytes);
    let (prefetch, _) = sums.gbps(SPAN_PREFETCH, pass_bytes);
    outcome.layer("core.engine.offload_gbps", offload, n);
    outcome.layer("core.engine.prefetch_gbps", prefetch, n);
    let wire = s.wire_bytes.expect("at least one traced pass ran") as f64;
    outcome.layer("core.engine.wire_ratio", pass_bytes / wire, n);

    let mut kernel_c_s = 0.0;
    for (l, lane) in inputs.lanes.iter().enumerate() {
        let alg = lane.engine.algorithm();
        let layer = codec_layer(alg);
        let (span_c, span_d) = kernel_spans(alg);
        let (c, n) = sums.gbps(span_c, lane_bytes);
        let (d, _) = sums.gbps(span_d, lane_bytes);
        outcome.layer(format!("{layer}.compress_gbps"), c, n);
        outcome.layer(format!("{layer}.decompress_gbps"), d, n);
        let stream_bytes: usize = siblings.kernel_streams[l].iter().map(Vec::len).sum();
        outcome.layer(
            format!("{layer}.ratio"),
            lane_bytes / stream_bytes as f64,
            1,
        );
        kernel_c_s += sums.total_s(span_c);
    }
    let (mem, n) = sums.gbps(SPAN_MEMCPY, lane_bytes);
    outcome.layer("bench.memcpy_gbps", mem, n);

    let (wc, n) = sums.gbps(SPAN_WINDOWED_C, pass_bytes);
    let (wd, _) = sums.gbps(SPAN_WINDOWED_D, pass_bytes);
    let windowed_c_s = sums.total_s(SPAN_WINDOWED_C);
    let dma_s = sums.total_s(SPAN_DMA);
    let engine_c_s = sums.total_s(SPAN_OFFLOAD);
    outcome.layer("compress.windowed.compress_gbps", wc, n);
    outcome.layer("compress.windowed.decompress_gbps", wd, n);
    // Windowed rate as a share of the bare kernel's on the same bytes.
    outcome.layer(
        "compress.windowed.share_of_kernel",
        kernel_c_s / windowed_c_s,
        n,
    );
    outcome.layer("compress.windowed.windows", siblings.windows as f64, 1);
    outcome.layer("gpusim.dma.lines", siblings.windows as f64, 1);
    outcome.layer(
        "gpusim.dma.mlines_per_s",
        siblings.windows as f64 * passes as f64 / dma_s / 1e6,
        passes,
    );
    // What the engine adds over the two layers it drives.
    outcome.layer(
        "core.engine.self_share",
        1.0 - (windowed_c_s + dma_s) / engine_c_s,
        passes,
    );

    // Tracing overhead: engine throughput with the recorder and the
    // sibling calls in the loop, against the baseline slice without.
    let rate = |s: &Samples| 2.0 * pass_bytes / (stats::median(&s.step_ms) / 1e3);
    outcome.layer(
        "bench.trace.overhead_share",
        1.0 - rate(&s) / rate(&base),
        s.step_ms.len().min(base.step_ms.len()),
    );
}

/// `compress.workers`: the parallel window pool on the largest tensor,
/// against the sequential path on the same bytes. The engine runs
/// `threads = 1`, so nothing end to end moves with this today; it is
/// reported so that merging the worker pools cannot slow it unseen.
fn measure_workers(inputs: &Inputs, outcome: &mut Outcome, tracer: &mut Tracer) {
    const REPS: usize = 9;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let largest = inputs
        .tensors
        .iter()
        .max_by_key(|t| t.len())
        .expect("the workload has tensors");
    let codec = inputs.lanes[0].codec;
    let mut stream = WindowedStream::default();
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for rep in 0..=REPS {
        let (_, s) = tracer.timed("compress.workers.seq", rep as u64, || {
            stream.recompress(&codec, largest.as_slice(), DEFAULT_WINDOW_BYTES)
        });
        let (_, p) = tracer.timed("compress.workers.par", rep as u64, || {
            stream.recompress_parallel(&codec, largest.as_slice(), DEFAULT_WINDOW_BYTES, threads)
        });
        if rep > 0 {
            seq.push(s);
            par.push(p);
        }
    }
    let par_s = stats::median(&par);
    outcome.layer(
        "compress.workers.par_gbps",
        largest.bytes() as f64 / par_s / 1e9,
        REPS,
    );
    outcome.layer(
        "compress.workers.par_speedup",
        stats::median(&seq) / par_s,
        REPS,
    );
    outcome.notes.push(format!(
        "compress.workers measured with {threads} thread(s)"
    ));
}
