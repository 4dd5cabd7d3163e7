//! Reading result files back: `compare <dirA> <dirB>` (the A/A check
//! behind `aa.sh`) and `reconcile <dir>` (the layer-on-layer chain).
//!
//! `compare` reads the `result-*.tsv` files two runs of the whole
//! benchmark left behind and prints, per (metric, workload), both
//! medians, the relative difference and the bound. Any end-to-end pair
//! further apart than its bound — in either direction, since neither
//! side is "the change" — or any exact count that differs fails the
//! comparison; advisory metrics are printed and never fail it.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::stats;

/// One line of a result file.
struct Line {
    kind: String,
    workload: String,
    seed: String,
    name: String,
    bound: f64,
    rule: String,
    value: String,
}

/// Every line of the `<stem>-*.tsv` files in `dir`.
fn read(dir: &Path, stem: &str) -> Result<Vec<Line>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(stem) && n.ends_with(".tsv"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no {stem}*.tsv files", dir.display()));
    }
    let mut lines = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let [kind, workload, seed, name, _unit, _better, bound, rule, value, _n] = f[..] else {
                return Err(format!("{}: malformed line {line:?}", file.display()));
            };
            lines.push(Line {
                kind: kind.into(),
                workload: workload.into(),
                seed: seed.into(),
                name: name.into(),
                bound: bound
                    .parse()
                    .map_err(|e| format!("{}: bound {bound:?}: {e}", file.display()))?,
                rule: rule.into(),
                value: value.into(),
            });
        }
    }
    Ok(lines)
}

/// `(workload, metric)`.
type Key = (String, String);

#[derive(Default)]
struct Side {
    /// Bounded metrics: every value seen (one per seed), bound and rule.
    bounded: BTreeMap<Key, (Vec<f64>, f64, String)>,
    /// Exact counts per `(workload, metric, seed)`.
    exact: BTreeMap<(String, String, String), String>,
}

fn side(dir: &Path) -> Result<Side, String> {
    let mut side = Side::default();
    for l in read(dir, "result-")? {
        if l.kind == "exact" {
            side.exact.insert((l.workload, l.name, l.seed), l.value);
            continue;
        }
        let value: f64 = l
            .value
            .parse()
            .map_err(|e| format!("{} {}: {:?}: {e}", l.workload, l.name, l.value))?;
        side.bounded
            .entry((l.workload, l.name))
            .or_insert((Vec::new(), l.bound, l.rule))
            .0
            .push(value);
    }
    Ok(side)
}

/// Distance between two medians, in the unit the bound is stated in.
fn distance(a: f64, b: f64, rule: &str) -> f64 {
    if rule == "absolute" {
        (a - b).abs()
    } else {
        (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
    }
}

/// Compares two result directories; non-zero exit when they disagree.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (side(a), side(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0usize;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    for (key, (values_a, bound, rule)) in &a.bounded {
        let (workload, name) = key;
        let Some((values_b, _, _)) = b.bounded.get(key) else {
            println!("{workload:<16} {name:<28} missing from the second run");
            bad += 1;
            continue;
        };
        let (ma, mb) = (stats::median(values_a), stats::median(values_b));
        let d = distance(ma, mb, rule);
        let verdict = match (d <= *bound, rule.as_str()) {
            (true, _) => "ok",
            (false, "advisory") => "disagree (advisory)",
            (false, _) => {
                bad += 1;
                "DISAGREE"
            }
        };
        let show = |x: f64| {
            if rule == "absolute" {
                format!("{x:.4}")
            } else {
                format!("{:.2}%", x * 100.0)
            }
        };
        println!(
            "{workload:<16} {name:<28} {ma:>14.6} {mb:>14.6} {:>9} {:>7} {verdict}",
            show(d),
            show(*bound),
        );
    }
    for (key, value_a) in &a.exact {
        let (workload, name, seed) = key;
        let value_b = b.exact.get(key);
        let same = value_b == Some(value_a);
        bad += usize::from(!same);
        println!(
            "{workload:<16} {name:<28} {value_a:>14} {:>14} seed {seed} {}",
            value_b.map_or("missing", String::as_str),
            if same { "exact" } else { "DIFFERS" }
        );
    }
    if bad == 0 {
        println!("A/A: every end-to-end pair within its bound, every exact count equal");
        ExitCode::SUCCESS
    } else {
        println!("A/A: {bad} pair(s) disagree");
        ExitCode::from(1)
    }
}

/// Prints the reconciliation the roadmap asks for from a directory's
/// `layers-*.tsv`: memcpy -> ZVC kernel -> windowed stream -> engine ->
/// serve goodput per worker, each as a fraction of the layer beneath.
pub fn reconcile(dir: &Path) -> ExitCode {
    let lines = match read(dir, "layers-") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Median over seeds of one workload's layer metric.
    let get = |workload: &str, name: &str| -> Option<f64> {
        let values: Vec<f64> = lines
            .iter()
            .filter(|l| l.workload == workload && l.name == name)
            .filter_map(|l| l.value.parse().ok())
            .collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };
    let zvc = |name: &str| get("offload_zvc", name);
    let serve = |name: &str| get("serve_4k", name);
    println!("reconciliation (offload direction, GB/s; each line as a share of the one above)");
    let mut above: Option<f64> = None;
    for (label, rate) in [
        ("memcpy (copy_from_slice)", zvc("bench.memcpy_gbps")),
        (
            "ZVC kernel, whole tensor",
            zvc("compress.zvc.compress_gbps"),
        ),
        (
            "windowed stream, 4 KB windows",
            zvc("compress.windowed.compress_gbps"),
        ),
        ("CdmaEngine::offload_into", zvc("core.engine.offload_gbps")),
    ] {
        match (rate, above) {
            (Some(r), Some(a)) => println!("  {label:<32} {r:>8.3}   {:>6.1}%", r / a * 100.0),
            (Some(r), None) => println!("  {label:<32} {r:>8.3}"),
            (None, _) => println!(
                "  {label:<32}  (no traced offload_zvc run in {})",
                dir.display()
            ),
        }
        above = rate.or(above);
    }
    if let Some(s) = zvc("core.engine.self_share") {
        println!(
            "  engine self share (engine time not in windowing or DMA stepping): {:.1}%",
            s * 100.0
        );
    }
    match (
        serve("compress.zvc.compress_gbps"),
        serve("serve.server.capacity_rps"),
        serve("serve.exec.goodput_share_of_kernel"),
    ) {
        (Some(kernel), Some(rps), Some(share)) => {
            println!("  ZVC kernel on the serve ring's 4 KB windows {kernel:>8.3}");
            println!(
                "  serve goodput per worker ({rps:.0} req/s closed loop) {:>8.3}   {:>6.1}%",
                kernel * share,
                share * 100.0
            );
        }
        _ => println!("  (no traced serve_4k run in {})", dir.display()),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_honours_absolute_bounds() {
        assert!((distance(100.0, 110.0, "share") - 0.1).abs() < 1e-12);
        assert_eq!(
            distance(100.0, 110.0, "share"),
            distance(110.0, 100.0, "share")
        );
        assert_eq!(
            distance(100.0, 110.0, "advisory"),
            distance(100.0, 110.0, "share")
        );
        assert!((distance(0.0, 0.004, "absolute") - 0.004).abs() < 1e-12);
        // Exact metrics (bound 0) agree only when equal.
        assert_eq!(distance(2.5, 2.5, "share"), 0.0);
        assert!(distance(2.5, 2.500001, "share") > 0.0);
    }
}
