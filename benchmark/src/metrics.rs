//! The metric registry: every name the benchmark may print, with its
//! unit, direction and regression bound. `BENCHMARK.json` is generated
//! from these tables (`cdma-benchmark manifest`) and a unit test keeps
//! the committed file equal to them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cdma_core::experiment;

use crate::trace::escape_json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, at most 200 characters).
    pub why: &'static str,
}

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "offload_zvc",
        why: "ZVC offload+prefetch of AlexNet+SqueezeNet+VGG activations: the training path where kernel, \
              windowing and DMA stepping do all the work and scheduler, simulators and entropy coders none",
    },
    WorkloadInfo {
        name: "offload_entropy",
        why: "same engine path with RLE, Huffman, DEFLATE and Adaptive: the codec kernel is >99% of the time, \
              so entropy-coder fixes must show here and a ZVC-only change must show nothing",
    },
    WorkloadInfo {
        name: "serve_4k",
        why: "two-tenant open loop at 40k req/s plus closed-loop saturation on 4 KB windows: admission, \
              worker deques, parking and buffer recycling dominate; the kernel is ~1% of the latency",
    },
    WorkloadInfo {
        name: "sim_step",
        why: "host time of ClusterSim, TimelineSim and FabricSim on fixed inputs: the event core does all \
              the work, no codec runs, and every simulated statistic must stay bit-identical",
    },
    WorkloadInfo {
        name: "repro_all",
        why: "all 23 catalogue experiments on one Context, rendered to JSON: what a reader of the paper \
              runs; it crosses every crate, so it is the net under any simplification",
    },
];

/// A metric with a regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Workloads that measure it.
    pub workloads: &'static [&'static str],
}

impl Bounded {
    /// Whether `workload` measures this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> Bounded {
    Bounded {
        name,
        unit,
        better,
        bound,
        workloads,
    }
}

const ALL: &[&str] = &[
    "offload_zvc",
    "offload_entropy",
    "serve_4k",
    "sim_step",
    "repro_all",
];
const OFFLOADS: &[&str] = &["offload_zvc", "offload_entropy"];
const SERVE: &[&str] = &["serve_4k"];
const SIM: &[&str] = &["sim_step"];

/// What a workload reports for an end-to-end metric it does not measure:
/// the driver wants every metric from every workload, and never a zero.
pub const NOT_APPLICABLE: f64 = 1.0;

/// The end-to-end metrics of `BENCHMARK.json`, the ones a later change is
/// accepted or refused on.
///
/// The driver wants every one of them from every workload and rejects a
/// time that reads the same on every run, so the one time is phrased per
/// *step* — the workload's unit of work: one offload + prefetch pass, one
/// request, one round of the simulators, one suite of experiments — and
/// every workload measures it. The rates belong to the workloads named
/// beside them; the others report [`NOT_APPLICABLE`].
///
/// Every timing carries the widest bound the contract allows: the
/// sandbox is a few cores of a shared host, and ten runs in a row of one
/// build have to spread less than the bound for the benchmark to be
/// accepted at all (README, "Bounds").
pub const END_TO_END: [Bounded; 10] = [
    bounded("setup_s", "s", Better::Lower, 0.25, ALL),
    bounded("peak_rss_mb", "MB", Better::Lower, 0.10, ALL),
    bounded("step_ms", "ms", Better::Lower, 0.25, ALL),
    bounded("offload_gbps", "GB/s", Better::Higher, 0.25, OFFLOADS),
    bounded("prefetch_gbps", "GB/s", Better::Higher, 0.25, OFFLOADS),
    bounded("wire_ratio", "ratio", Better::Higher, 0.02, OFFLOADS),
    bounded("serve_capacity_rps", "req/s", Better::Higher, 0.25, SERVE),
    bounded(
        "sim_cluster_mevents_per_s",
        "Mevents/s",
        Better::Higher,
        0.25,
        SIM,
    ),
    bounded(
        "sim_timeline_mevents_per_s",
        "Mevents/s",
        Better::Higher,
        0.25,
        SIM,
    ),
    bounded(
        "sim_fabric_mevents_per_s",
        "Mevents/s",
        Better::Higher,
        0.25,
        SIM,
    ),
];

/// How a bound is applied when two runs are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The bound is a share of the median.
    Share,
    /// The bound is an absolute difference.
    Absolute,
    /// A share of the median, but a disagreement is printed, not failed.
    Advisory,
}

impl Rule {
    /// The spelling the result files use.
    pub fn label(self) -> &'static str {
        match self {
            Rule::Share => "share",
            Rule::Absolute => "absolute",
            Rule::Advisory => "advisory",
        }
    }
}

/// A number printed beside the end-to-end metrics and compared by
/// `aa.sh`, but not in `BENCHMARK.json`: the plain median of the steps as
/// they came (what the host made of them), and the issue's end-to-end
/// metrics that the file cannot carry under their own names — a time
/// only one workload measures, or a share that is normally zero. The
/// driver sees those as that workload's `step_ms` (in ms), as
/// `sim_fabric_mevents_per_s`, or as the result line's `failed` count.
#[derive(Debug, Clone, Copy)]
pub struct Native {
    /// Name, unit, direction, bound and workload.
    pub metric: Bounded,
    /// How `compare` applies the bound.
    pub rule: Rule,
}

const fn native(metric: Bounded, rule: Rule) -> Native {
    Native { metric, rule }
}

/// See [`Native`].
pub const NATIVE: [Native; 7] = [
    // The median of the steps on the wall clock follows the host's other
    // tenants (README, "The step"): printed and compared, no verdict.
    native(
        bounded("step_ms_p50", "ms", Better::Lower, 0.10, ALL),
        Rule::Advisory,
    ),
    native(
        bounded("step_ms_p90", "ms", Better::Lower, 0.15, &["offload_zvc"]),
        Rule::Share,
    ),
    native(
        bounded("serve_p50_us", "us", Better::Lower, 0.10, SERVE),
        Rule::Share,
    ),
    // On the knee of the latency distribution (see the README): reported,
    // compared, but no verdict rests on it.
    native(
        bounded("serve_p99_us", "us", Better::Lower, 0.15, SERVE),
        Rule::Advisory,
    ),
    native(
        bounded("serve_fail_share", "share", Better::Lower, 0.005, SERVE),
        Rule::Absolute,
    ),
    native(
        bounded("sim_churn_ms_p50", "ms", Better::Lower, 0.10, SIM),
        Rule::Advisory,
    ),
    native(
        bounded("repro_all_s", "s", Better::Lower, 0.10, &["repro_all"]),
        Rule::Share,
    ),
];

/// A per-layer metric (no bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// `<module path>.<metric>`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Codec layers and the algorithm behind each.
pub const CODEC_LAYERS: [(&str, cdma_compress::Algorithm); 5] = [
    ("compress.zvc", cdma_compress::Algorithm::Zvc),
    ("compress.rle", cdma_compress::Algorithm::Rle),
    ("compress.deflate", cdma_compress::Algorithm::Zlib),
    ("compress.huff", cdma_compress::Algorithm::Huff),
    ("compress.adaptive", cdma_compress::Algorithm::Adaptive),
];

/// The layer name of a codec.
pub fn codec_layer(algorithm: cdma_compress::Algorithm) -> &'static str {
    CODEC_LAYERS
        .iter()
        .find(|(_, a)| *a == algorithm)
        .map(|(l, _)| *l)
        .expect("every activation codec has a layer name")
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not drive reports 0 there.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher as H, Lower as L};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(Layer { name, unit, better });
    };
    for (layer, _) in CODEC_LAYERS {
        add(format!("{layer}.compress_gbps"), "GB/s", H);
        add(format!("{layer}.decompress_gbps"), "GB/s", H);
        add(format!("{layer}.ratio"), "ratio", H);
    }
    let fixed: &[(&str, &'static str, Better)] = &[
        ("bench.memcpy_gbps", "GB/s", H),
        ("bench.trace.overhead_share", "share", L),
        ("compress.windowed.compress_gbps", "GB/s", H),
        ("compress.windowed.decompress_gbps", "GB/s", H),
        ("compress.windowed.share_of_kernel", "share", H),
        ("compress.windowed.windows", "count", L),
        ("compress.workers.par_gbps", "GB/s", H),
        ("compress.workers.par_speedup", "ratio", H),
        ("gpusim.dma.mlines_per_s", "Mlines/s", H),
        ("gpusim.dma.lines", "count", L),
        ("gpusim.staging.mops_per_s", "Mops/s", H),
        ("core.engine.offload_gbps", "GB/s", H),
        ("core.engine.prefetch_gbps", "GB/s", H),
        ("core.engine.self_share", "share", L),
        ("core.engine.wire_ratio", "ratio", H),
        ("serve.sched.submit_us_p50", "us", L),
        ("serve.sched.submit_us_p99", "us", L),
        ("serve.sched.shed_trainer", "count", L),
        ("serve.sched.shed_prefetch", "count", L),
        ("serve.server.sojourn_us_p50", "us", L),
        ("serve.server.sojourn_us_p99", "us", L),
        ("serve.server.harvest_us_p50", "us", L),
        ("serve.server.overhead_us_p50", "us", L),
        ("serve.server.steals", "count", L),
        ("serve.server.buffer_pool_misses", "count", L),
        ("serve.server.staging_high_water_bytes", "B", L),
        ("serve.server.p99_us_at_40k", "us", L),
        ("serve.server.p99_us_at_100k", "us", L),
        ("serve.server.p99_us_at_200k", "us", L),
        ("serve.server.p99_us_at_300k", "us", L),
        ("serve.server.max_rate_in_slo_rps", "req/s", H),
        ("serve.server.gen_late_us_p99", "us", L),
        ("serve.server.capacity_rps", "req/s", H),
        ("serve.server.fail_share", "share", L),
        ("serve.exec.kernel_us_p50", "us", L),
        ("serve.exec.goodput_share_of_kernel", "share", H),
        ("vdnn.calendar.mops_per_s", "Mops/s", H),
        ("vdnn.cluster.flat_g1024_ms", "ms", L),
        ("vdnn.cluster.node8_g1024_ms", "ms", L),
        ("vdnn.cluster.ns_per_event", "ns", L),
        ("vdnn.cluster.events", "count", L),
        ("vdnn.cluster.makespan_s", "s", L),
        ("vdnn.timeline.measured_step_ms", "ms", L),
        ("vdnn.timeline.ns_per_event", "ns", L),
        ("vdnn.timeline.events", "count", L),
        ("vdnn.timeline.step_total_s", "s", L),
        ("vdnn.fabric.churn_ms", "ms", L),
        ("vdnn.fabric.events", "count", L),
        ("vdnn.fabric.spine_utilisation", "share", H),
        ("core.scenario.cache_hits", "count", H),
        ("core.scenario.cache_misses", "count", L),
        ("core.report.json_bytes", "B", L),
    ];
    for &(name, unit, better) in fixed {
        add(name.to_owned(), unit, better);
    }
    for e in experiment::CATALOGUE {
        add(format!("core.experiment.{}_s", e.name), "s", L);
    }
    out
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Samples it summarises.
    pub n: usize,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked or counted.
    pub attempted: u64,
    /// Operations that were shed, errored or returned wrong bytes.
    pub failed: u64,
    /// Mismatches that make the output *wrong* (a shed is a failure but
    /// not a wrong answer).
    pub wrong: u64,
    /// [`END_TO_END`] metrics by name (untraced run).
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// [`NATIVE`] metrics by name (untraced run).
    pub native: BTreeMap<&'static str, Value>,
    /// Per-layer metrics by name (traced run).
    pub layers: BTreeMap<String, Value>,
    /// Counts that are a pure function of the inputs: two runs with the
    /// same seed must print the same string (`compare` insists).
    pub exact: BTreeMap<String, String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets an end-to-end metric of `BENCHMARK.json`.
    pub fn e2e(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(END_TO_END.iter().any(|m| m.name == name), "unknown {name}");
        self.end_to_end.insert(name, Value { value, n });
    }

    /// Sets one of the issue's metrics that is printed beside them.
    pub fn native(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            NATIVE.iter().any(|m| m.metric.name == name),
            "unknown {name}"
        );
        self.native.insert(name, Value { value, n });
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.layers.insert(name.into(), Value { value, n });
    }

    /// Sets an exact count.
    pub fn exact(&mut self, name: &str, value: impl ToString) {
        self.exact.insert(name.to_owned(), value.to_string());
    }

    /// Counts one check; `ok == false` is a wrong answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            if self.wrong <= 8 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// Formats a number for JSON / TSV with every digit `f64` carries.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metrics must be finite numbers, got {v}");
    format!("{v}")
}

/// The last line of a run: the JSON object the driver reads.
pub fn result_json(outcome: &Outcome, workload: &str, trace: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    let mut first = true;
    let mut put = |name: &str, value: f64, unit: &str| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape_json(name),
            number(value),
            escape_json(unit)
        );
    };
    if trace {
        for m in per_layer() {
            let v = outcome.layers.get(&m.name).map_or(0.0, |v| v.value);
            put(&m.name, v, m.unit);
        }
    } else {
        for m in END_TO_END {
            let v = match outcome.end_to_end.get(m.name) {
                Some(v) => v.value,
                None if !m.applies_to(workload) => NOT_APPLICABLE,
                None => panic!("{workload} did not report {}", m.name),
            };
            put(m.name, v, m.unit);
        }
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(why.chars().count() <= 200, "{}: why too long", w.name);
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            escape_json(&why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.label(),
            number(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.label(),
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} layers", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_owned()));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25 && seen.insert(m.name.to_owned()));
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for m in END_TO_END.iter().chain(NATIVE.iter().map(|m| &m.metric)) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.workloads.is_empty());
            for w in m.workloads {
                assert!(WORKLOADS.iter().any(|x| x.name == *w));
            }
        }
        // The driver rejects a time that reads the same on every run, so
        // no time may fall back to the not-applicable constant.
        for m in END_TO_END {
            if ["s", "ms", "us", "ns"].contains(&m.unit) {
                assert_eq!(m.workloads.len(), WORKLOADS.len(), "{}", m.name);
            }
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(crate::RUN_SECONDS),
            "regenerate with `cdma-benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        for m in END_TO_END.iter().filter(|m| m.applies_to("serve_4k")) {
            o.e2e(m.name, 1.25, 3);
        }
        o.check(true, String::new);
        let line = result_json(&o, "serve_4k", false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"serve_capacity_rps\": {\"value\": 1.25, \"unit\": \"req/s\"}"));
        // A metric the workload does not measure is there all the same.
        assert!(line.contains("\"offload_gbps\": {\"value\": 1, \"unit\": \"GB/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        o.layer("vdnn.calendar.mops_per_s", 31.5, 1);
        let traced = result_json(&o, "serve_4k", true);
        assert_eq!(traced.matches("\"value\"").count(), per_layer().len());
        assert!(traced.contains("\"vdnn.calendar.mops_per_s\": {\"value\": 31.5"));
        assert!(traced.contains("\"compress.zvc.ratio\": {\"value\": 0,"));
        o.check(false, || "x".into());
        assert!(result_json(&o, "serve_4k", false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    #[should_panic(expected = "did not report step_ms")]
    fn a_workload_must_measure_what_applies_to_it() {
        let mut o = Outcome::default();
        o.e2e("setup_s", 1.0, 1);
        o.e2e("peak_rss_mb", 1.0, 1);
        result_json(&o, "repro_all", false);
    }
}
