//! `sim_step`: host-time cost of the three simulators on fixed inputs,
//! event recording off. The event core (`CalendarQueue`, the stage
//! machines, `FluidFabric`) does all the work and no codec runs, so this
//! is the guard under "collapse the simulation substrate": host time may
//! not get worse, and every *simulated* statistic must repeat to the bit.

use std::hint::black_box;
use std::time::Instant;

use cdma_compress::Algorithm;
use cdma_core::{measured, CdmaEngine};
use cdma_gpusim::SystemConfig;
use cdma_models::{profiles, zoo, NetworkSpec};
use cdma_tensor::Layout;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::fabric::{churn_trace, FabricShape, FabricSim, Job, JobTemplate};
use cdma_vdnn::timeline::{MeasuredStream, ProfiledDensity, TimelineSim, UniformRatio};
use cdma_vdnn::{
    CalendarQueue, ComputeModel, CudnnVersion, FidelitySource, LinkPolicy, RatioTable,
};

use super::{finish_steps, timed_setup, RunArgs};
use crate::metrics::Outcome;
use crate::refclock;
use crate::stats::{self, Sections};
use crate::trace::Tracer;

/// Data-parallel width of the cluster step (the widest cell of
/// `fig_datacenter`).
const CLUSTER_GPUS: usize = 1024;
/// The uniform compression ratio the cluster step runs at (the paper's
/// ZVC average).
const CLUSTER_RATIO: f64 = 2.6;

/// The churn run of `fig_datacenter`: four-network mix on a 4-node x
/// 8-GPU fabric, each job walking three density checkpoints. Only the
/// horizon is longer (32 s instead of 2 s, ~130 jobs instead of ~8): the
/// trace is drawn from the seed, and over a short one the mix of job
/// sizes — and with it the host time per event — swung 12-18 M events/s
/// from seed to seed; over this one it holds within 4%.
const CHURN_MIX: [fn() -> NetworkSpec; 4] =
    [zoo::alexnet, zoo::vgg, zoo::googlenet, zoo::squeezenet];
const CHURN_CHECKPOINTS: [f64; 3] = [0.1, 0.5, 0.9];
const CHURN_HORIZON_S: f64 = 32.0;
const CHURN_MEAN_INTERARRIVAL_S: f64 = 0.25;
const CHURN_GPUS: usize = 32;
const CHURN_MAX_JOB_GPUS: usize = 16;

const UNTRACED_SHARE: f64 = 0.25;

const SPAN_FLAT: &str = "vdnn.cluster.flat_g1024";
const SPAN_NODE8: &str = "vdnn.cluster.node8_g1024";
const SPAN_TIMELINE: &str = "vdnn.timeline.measured_step";
const SPAN_CHURN: &str = "vdnn.fabric.churn";

struct Inputs {
    alexnet: NetworkSpec,
    uniform: UniformRatio,
    flat: ClusterSim,
    node8: ClusterSim,
    timeline: TimelineSim,
    stream: MeasuredStream,
    churn_specs: Vec<NetworkSpec>,
    churn_sources: Vec<Vec<FidelitySource>>,
    trace: Vec<JobTemplate>,
    fabric: FabricSim,
    /// Simulated statistics of the warm-up round; every later round must
    /// reproduce them bit for bit.
    reference: Simulated,
}

/// The simulated (not host) statistics of one round, as bit patterns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Simulated {
    flat_events: u64,
    flat_makespan: u64,
    node8_events: u64,
    node8_makespan: u64,
    timeline_events: u64,
    timeline_total: u64,
    churn_events: u64,
    churn_makespan: u64,
    churn_spine_utilisation: u64,
}

/// Host seconds of the four calls of one round, at the reference clock.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    flat_s: f64,
    node8_s: f64,
    timeline_s: f64,
    churn_s: f64,
    /// The clock as the round began, as a multiple of the reference.
    clock: f64,
}

impl Round {
    fn total_ms(&self) -> f64 {
        (self.flat_s + self.node8_s + self.timeline_s + self.churn_s) * 1e3
    }
}

fn build(seed: u64) -> Inputs {
    let cfg = SystemConfig::titan_x_pcie3();
    let compute = ComputeModel::titan_x(CudnnVersion::V5);
    let policy = LinkPolicy::BandwidthShare;
    let alexnet = zoo::alexnet();
    let node8_shape = FabricShape::Hierarchical { gpus_per_node: 8 };

    let flat = ClusterSim::new(cfg, compute, policy).record_events(false);
    let node8 = flat.with_fabric(
        node8_shape
            .spec_for(&cfg, CLUSTER_GPUS, policy)
            .expect("hierarchical shapes always concretize"),
    );
    let stream = measured::synthesized_stream(
        &CdmaEngine::zvc(cfg),
        &alexnet,
        &profiles::density_profile(&alexnet),
        0.5,
        seed,
    );

    let table = RatioTable::build_fast(seed);
    let churn_specs: Vec<NetworkSpec> = CHURN_MIX.iter().map(|net| net()).collect();
    let churn_sources = churn_specs
        .iter()
        .map(|spec| {
            let profile = profiles::density_profile(spec);
            CHURN_CHECKPOINTS
                .iter()
                .map(|&t| {
                    ProfiledDensity::at_checkpoint(
                        spec,
                        &profile,
                        t,
                        Algorithm::Zvc,
                        Layout::Nchw,
                        &table,
                    )
                    .into()
                })
                .collect()
        })
        .collect();
    let fabric = FabricSim::new(
        ClusterSim::new(cfg, compute, policy)
            .with_fabric(
                node8_shape
                    .spec_for(&cfg, CHURN_GPUS, policy)
                    .expect("hierarchical shapes always concretize"),
            )
            .record_events(false),
    );
    let mut inputs = Inputs {
        uniform: UniformRatio::uniform(&alexnet, CLUSTER_RATIO),
        alexnet,
        flat,
        node8,
        timeline: TimelineSim::new(cfg, compute),
        stream,
        churn_specs,
        churn_sources,
        trace: churn_trace(
            seed,
            CHURN_HORIZON_S,
            CHURN_MEAN_INTERARRIVAL_S,
            CHURN_MIX.len(),
            CHURN_MAX_JOB_GPUS,
        ),
        fabric,
        reference: Simulated::default(),
    };
    // Warm-up round; its simulated statistics become the reference.
    inputs.reference = round(&inputs, 0, &mut Tracer::off()).1;
    inputs
}

/// One round: each simulator once, each call timed from outside.
fn round(inputs: &Inputs, req: u64, tracer: &mut Tracer) -> (Round, Simulated) {
    let tenants = [Tenant {
        spec: &inputs.alexnet,
        source: &inputs.uniform,
        gpus: CLUSTER_GPUS,
    }];
    let jobs: Vec<Job<'_>> = inputs
        .trace
        .iter()
        .map(|t| Job {
            spec: &inputs.churn_specs[t.network],
            gpus: t.gpus,
            arrival: t.arrival,
            steps: t.steps,
            departure: t.departure,
            checkpoints: &inputs.churn_sources[t.network],
        })
        .collect();

    // Each call between two clock readings, its time at the reference
    // clock (see `refclock`); the spans keep the wall time.
    let mut clock = refclock::scale();
    let first_clock = clock;
    let mut at_reference = |wall_s: f64| {
        let after = refclock::scale();
        let reference_s = refclock::at_reference(wall_s, clock, after);
        clock = after;
        reference_s
    };
    let (flat, flat_s) = tracer.timed(SPAN_FLAT, req, || inputs.flat.simulate(&tenants));
    let flat_s = at_reference(flat_s);
    let (node8, node8_s) = tracer.timed(SPAN_NODE8, req, || inputs.node8.simulate(&tenants));
    let node8_s = at_reference(node8_s);
    let (step, timeline_s) = tracer.timed(SPAN_TIMELINE, req, || {
        inputs.timeline.simulate(&inputs.alexnet, &inputs.stream)
    });
    let timeline_s = at_reference(timeline_s);
    let (churn, churn_s) = tracer.timed(SPAN_CHURN, req, || inputs.fabric.run(&jobs));
    let churn_s = at_reference(churn_s);
    let simulated = Simulated {
        flat_events: flat.events_processed(),
        flat_makespan: flat.makespan().to_bits(),
        node8_events: node8.events_processed(),
        node8_makespan: node8.makespan().to_bits(),
        timeline_events: step.events_processed(),
        timeline_total: step.total().to_bits(),
        churn_events: churn.events_processed,
        churn_makespan: churn.makespan.to_bits(),
        churn_spine_utilisation: churn.spine_utilisation().to_bits(),
    };
    (
        Round {
            flat_s,
            node8_s,
            timeline_s,
            churn_s,
            clock: first_clock,
        },
        simulated,
    )
}

/// Runs rounds for `budget_s` seconds (at least one), gating each on the
/// reference statistics.
fn run_rounds(
    inputs: &Inputs,
    outcome: &mut Outcome,
    budget_s: f64,
    first_id: u64,
    tracer: &mut Tracer,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < budget_s {
        let id = first_id + rounds.len() as u64;
        let (r, simulated) = round(inputs, id, tracer);
        rounds.push(r);
        // Four simulate/run calls compared as one: the check counts the
        // fourth attempt.
        outcome.attempted += 3;
        outcome.check(simulated == inputs.reference, || {
            format!(
                "round {id}: simulated statistics {simulated:?} differ from {:?}",
                inputs.reference
            )
        });
    }
    rounds
}

fn column(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Runs the workload.
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let inputs = timed_setup(&mut outcome, |_| build(args.seed));
    let r = inputs.reference;
    let cluster_events = (r.flat_events + r.node8_events) as f64;
    outcome.exact("vdnn.cluster.events", r.flat_events + r.node8_events);
    outcome.exact("vdnn.cluster.makespan_s", f64::from_bits(r.flat_makespan));
    outcome.exact("vdnn.timeline.events", r.timeline_events);
    outcome.exact(
        "vdnn.timeline.step_total_s",
        f64::from_bits(r.timeline_total),
    );
    outcome.exact("vdnn.fabric.events", r.churn_events);
    outcome.exact("vdnn.fabric.jobs", inputs.trace.len());
    outcome.exact(
        "vdnn.fabric.spine_utilisation",
        f64::from_bits(r.churn_spine_utilisation),
    );

    if !tracer.enabled() {
        let rounds = run_rounds(&inputs, &mut outcome, args.seconds, 0, tracer);
        let n = rounds.len();
        // One section per simulator call; each rate is its events over
        // its call's quiet time (see `stats::Sections`).
        let mut sections = Sections::new(4);
        for r in &rounds {
            sections.push_step(&[r.flat_s, r.node8_s, r.timeline_s, r.churn_s]);
        }
        outcome.notes.push(format!(
            "times are at the reference clock; the clock read x{:.3} of it at the median round",
            stats::median(&column(&rounds, |r| r.clock))
        ));
        let cluster = cluster_events / sections.quiet_s(0..2) / 1e6;
        let timeline = r.timeline_events as f64 / sections.quiet_s(2..3) / 1e6;
        let churn = r.churn_events as f64 / sections.quiet_s(3..4) / 1e6;
        outcome.e2e("sim_cluster_mevents_per_s", cluster, n);
        outcome.e2e("sim_timeline_mevents_per_s", timeline, n);
        // The churn trace, and with it the event count and the host time
        // of a run over it, changes with the seed; the time per event
        // does not.
        outcome.e2e("sim_fabric_mevents_per_s", churn, n);
        outcome.native(
            "sim_churn_ms_p50",
            stats::median(&column(&rounds, |r| r.churn_s)) * 1e3,
            n,
        );
        // Step: one round, each simulator once.
        finish_steps(
            &mut outcome,
            sections.quiet_step_s() * 1e3,
            &sections.step_ms(),
            None,
        );
        return outcome;
    }

    let base = run_rounds(
        &inputs,
        &mut outcome,
        args.seconds * UNTRACED_SHARE,
        0,
        &mut Tracer::off(),
    );
    let rounds = run_rounds(
        &inputs,
        &mut outcome,
        args.seconds * (1.0 - UNTRACED_SHARE),
        base.len() as u64,
        tracer,
    );
    let n = rounds.len();
    let rec = tracer.recorder().expect("traced run has a recorder");
    let med = |name: &str| stats::median(&rec.durations_s(name));
    let (flat_s, node8_s, timeline_s, churn_s) = (
        med(SPAN_FLAT),
        med(SPAN_NODE8),
        med(SPAN_TIMELINE),
        med(SPAN_CHURN),
    );
    outcome.layer("vdnn.cluster.flat_g1024_ms", flat_s * 1e3, n);
    outcome.layer("vdnn.cluster.node8_g1024_ms", node8_s * 1e3, n);
    outcome.layer(
        "vdnn.cluster.ns_per_event",
        (flat_s + node8_s) * 1e9 / cluster_events,
        n,
    );
    outcome.layer("vdnn.cluster.events", cluster_events, 1);
    outcome.layer(
        "vdnn.cluster.makespan_s",
        f64::from_bits(r.flat_makespan),
        1,
    );
    outcome.layer("vdnn.timeline.measured_step_ms", timeline_s * 1e3, n);
    outcome.layer(
        "vdnn.timeline.ns_per_event",
        timeline_s * 1e9 / r.timeline_events as f64,
        n,
    );
    outcome.layer("vdnn.timeline.events", r.timeline_events as f64, 1);
    outcome.layer(
        "vdnn.timeline.step_total_s",
        f64::from_bits(r.timeline_total),
        1,
    );
    outcome.layer("vdnn.fabric.churn_ms", churn_s * 1e3, n);
    outcome.layer("vdnn.fabric.events", r.churn_events as f64, 1);
    outcome.layer(
        "vdnn.fabric.spine_utilisation",
        f64::from_bits(r.churn_spine_utilisation),
        1,
    );
    let (mops, ops) = calendar_hold(args.seed);
    outcome.layer("vdnn.calendar.mops_per_s", mops, ops);
    let rate = |rounds: &[Round]| 1e3 / stats::median(&column(rounds, Round::total_ms));
    outcome.layer(
        "bench.trace.overhead_share",
        1.0 - rate(&rounds) / rate(&base),
        n.min(base.len()),
    );
    outcome
}

/// The classic hold model on `CalendarQueue`: 10 000 events pending, pop
/// the earliest and push it back a random increment later. Returns
/// millions of hold operations (one pop + one push) per second.
fn calendar_hold(seed: u64) -> (f64, usize) {
    const PENDING: usize = 10_000;
    const HOLDS: usize = 2_000_000;
    let mut state = seed;
    // splitmix64, mapped to an increment in [0, 2) — mean one time unit.
    let mut increment = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64
    };
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..PENDING {
        queue.push(increment() * PENDING as f64 / 2.0, i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..HOLDS {
        let (t, v) = queue.pop().expect("the hold model never drains");
        queue.push(t + increment(), v);
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(queue.len());
    (HOLDS as f64 / secs / 1e6, HOLDS)
}
