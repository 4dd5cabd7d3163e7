//! `cdma-benchmark` — one benchmark for the whole cDMA stack.
//!
//! ```text
//! cdma-benchmark --workload <name> [--seed 42] [--seconds 20] [--trace 0|1] [--out-dir benchmark/out]
//! cdma-benchmark manifest                 # prints BENCHMARK.json
//! cdma-benchmark compare <dirA> <dirB>    # A/A comparison of two result directories
//! cdma-benchmark reconcile <dir>          # memcpy -> kernel -> windowed -> engine -> serve goodput
//! ```
//!
//! A run drives the stack only through public functions and times those
//! calls from outside. It prints every metric as
//! `name unit value n=<samples>` and, as its last line, the JSON object
//! the benchmark contract asks for; the same numbers go to
//! `<out-dir>/result-*.tsv` for `compare`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod compare;
mod metrics;
mod refclock;
mod stats;
mod trace;
mod workloads;

use metrics::{Outcome, Rule, END_TO_END, NATIVE, WORKLOADS};
use trace::Tracer;
use workloads::RunArgs;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// Spans a traced run keeps (56 bytes each); later ones are counted as
/// dropped.
const SPAN_CAP: usize = 1_500_000;
/// Spans written to the Chrome trace file.
const TRACE_FILE_SPANS: usize = 200_000;

const USAGE: &str =
    "usage: cdma-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
       cdma-benchmark manifest
       cdma-benchmark compare <dirA> <dirB>
       cdma-benchmark reconcile <dir>";

struct Cli {
    workload: String,
    args: RunArgs,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        args: RunArgs {
            seed: 42,
            seconds: f64::from(RUN_SECONDS),
        },
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == cli.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            names.join(", "),
            cli.workload
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json(RUN_SECONDS));
            ExitCode::SUCCESS
        }
        Some("compare") if argv.len() == 3 => {
            compare::run(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("reconcile") if argv.len() == 2 => compare::reconcile(Path::new(&argv[1])),
        _ => match parse(&argv) {
            Ok(cli) => run(cli),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

fn run(cli: Cli) -> ExitCode {
    let mut tracer = if cli.trace {
        Tracer::on(SPAN_CAP)
    } else {
        Tracer::off()
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        cli.workload,
        cli.args.seed,
        cli.args.seconds,
        u8::from(cli.trace)
    );
    let outcome = workloads::run(&cli.workload, cli.args, &mut tracer)
        .expect("parse() checked the workload name");
    for note in &outcome.notes {
        println!("# {note}");
    }
    let rows = rows(&cli, &outcome);
    for r in &rows {
        if r.kind == "exact" {
            println!("{} exact {}", r.name, r.value);
        } else {
            println!("{} {} {} n={}", r.name, r.unit, r.value, r.n);
        }
    }
    if let Some(rec) = tracer.recorder() {
        print_span_table(rec);
    }
    println!(
        "# attempted {} failed {} wrong {}",
        outcome.attempted, outcome.failed, outcome.wrong
    );
    if let Err(e) = write_files(&cli, &rows, &tracer) {
        eprintln!("error: cannot write under {}: {e}", cli.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "{}",
        metrics::result_json(&outcome, &cli.workload, cli.trace)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} output(s) were wrong", outcome.wrong);
        ExitCode::from(1)
    }
}

/// Where the traced time went, by span name: calls, total time, and
/// self time (total minus what child spans cover).
fn print_span_table(rec: &trace::Recorder) {
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (span, self_ns) in rec.spans().iter().zip(rec.self_times_ns()) {
        let e = by_name.entry(span.name).or_default();
        *e = (e.0 + 1, e.1 + span.dur_ns(), e.2 + self_ns);
    }
    println!(
        "# {:<34} {:>9} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, own)) in by_name {
        println!(
            "# {name:<34} {calls:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if rec.dropped() > 0 {
        println!("# recorder full: {} spans dropped", rec.dropped());
    }
}

/// One printed / stored metric.
struct Row {
    kind: &'static str,
    name: String,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    /// How `compare` applies the bound (`share`, `absolute`, `advisory`),
    /// or `exact` / `none`.
    rule: &'static str,
    value: String,
    n: usize,
}

/// Everything the run reports, in print order: the end-to-end metrics
/// this workload measures, the exact counts — or, traced, the per-layer
/// table restricted to the layers this workload drove.
fn rows(cli: &Cli, outcome: &Outcome) -> Vec<Row> {
    let mut rows = Vec::new();
    if cli.trace {
        for m in metrics::per_layer() {
            if let Some(v) = outcome.layers.get(&m.name) {
                rows.push(Row {
                    kind: "layer",
                    name: m.name,
                    unit: m.unit,
                    better: m.better.label(),
                    bound: 0.0,
                    rule: "none",
                    value: metrics::number(v.value),
                    n: v.n,
                });
            }
        }
    } else {
        let workload = cli.workload.as_str();
        let e2e = END_TO_END.iter().map(|m| ("e2e", *m, Rule::Share));
        let native = NATIVE.iter().map(|m| ("native", m.metric, m.rule));
        for (kind, m, rule) in e2e.chain(native).filter(|(_, m, _)| m.applies_to(workload)) {
            let values = if kind == "e2e" {
                &outcome.end_to_end
            } else {
                &outcome.native
            };
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("{workload} did not report {}", m.name));
            rows.push(Row {
                kind,
                name: m.name.to_owned(),
                unit: m.unit,
                better: m.better.label(),
                bound: m.bound,
                rule: rule.label(),
                value: metrics::number(v.value),
                n: v.n,
            });
        }
    }
    for (name, value) in &outcome.exact {
        rows.push(Row {
            kind: "exact",
            name: name.clone(),
            unit: "exact",
            better: "same",
            bound: 0.0,
            rule: "exact",
            value: value.clone(),
            n: 1,
        });
    }
    rows
}

fn write_files(cli: &Cli, rows: &[Row], tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(&cli.out_dir)?;
    let mut tsv = String::from("kind\tworkload\tseed\tname\tunit\tbetter\tbound\trule\tvalue\tn\n");
    for r in rows {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.kind,
            cli.workload,
            cli.args.seed,
            r.name,
            r.unit,
            r.better,
            r.bound,
            r.rule,
            r.value,
            r.n
        ));
    }
    let stem = if cli.trace { "layers" } else { "result" };
    std::fs::write(
        cli.out_dir
            .join(format!("{stem}-{}-seed{}.tsv", cli.workload, cli.args.seed)),
        tsv,
    )?;
    if let Some(rec) = tracer.recorder() {
        std::fs::write(
            cli.out_dir.join(format!("trace-{}.json", cli.workload)),
            rec.chrome_json(&cli.workload, TRACE_FILE_SPANS),
        )?;
    }
    Ok(())
}
