//! The append-only bench trajectory file (`BENCH_infer.json`).
//!
//! Every recorded run of the `infer` bench becomes **one JSON line** — git
//! revision, UTC date, and a flat `metrics` map — appended to
//! `BENCH_infer.json` at the workspace root. Append, never overwrite: the
//! file is committed, so the repo's history carries the trajectory across
//! PRs. (Every other layer's numbers come from `bash benchmark/run.sh`;
//! `infer` is the one lane it has no workload for.)
//!
//! ```text
//! {"bench":"infer","rev":"81e4d4c","utc_date":"2026-08-08","unix_s":...,"metrics":{...}}
//! ```
//!
//! The bench binary calls this behind a `--record` flag so ordinary
//! `cargo bench` runs stay read-only.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The workspace root, resolved at compile time so records land in the
/// same place no matter where `cargo bench` was invoked from.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `YYYY-MM-DD` for a unix timestamp (days-to-civil conversion, UTC).
fn utc_date(unix_s: u64) -> String {
    let z = (unix_s / 86_400) as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// One bench run's record: a named set of scalar metrics.
#[derive(Debug, Clone)]
pub struct Trajectory {
    bench: String,
    metrics: Vec<(String, f64)>,
}

impl Trajectory {
    /// Starts an empty record for the bench called `bench`.
    pub fn new(bench: &str) -> Self {
        Trajectory {
            bench: bench.to_owned(),
            metrics: Vec::new(),
        }
    }

    /// Adds one scalar metric.
    pub fn metric(&mut self, label: &str, value: f64) -> &mut Self {
        self.metrics.push((label.to_owned(), value));
        self
    }

    /// The record as one JSON line (no trailing newline).
    fn record_json(&self) -> String {
        let unix_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"rev\":\"{}\",\"utc_date\":\"{}\",\"unix_s\":{unix_s},\"metrics\":{{",
            self.bench,
            git_rev(),
            utc_date(unix_s),
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(s, "\"{k}\":{v:.6}");
        }
        s.push_str("}}");
        s
    }

    /// Appends the record as one line to `path`, creating the file if
    /// needed. Existing lines are never touched.
    fn append_to(&self, path: &Path) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{}", self.record_json())
    }

    /// Appends to the conventional `BENCH_<bench>.json` at the workspace
    /// root and reports where the record went.
    pub fn append_default(&self) -> io::Result<PathBuf> {
        let path = workspace_root().join(format!("BENCH_{}.json", self.bench));
        self.append_to(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_conversion() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_399), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(utc_date(1_786_147_200), "2026-08-08");
        // Leap day.
        assert_eq!(utc_date(1_709_164_800), "2024-02-29");
    }

    #[test]
    fn record_is_one_json_line() {
        let mut t = Trajectory::new("sample");
        t.metric("a_gbps", 12.5).metric("b_ratio", f64::NAN);
        let line = t.record_json();
        assert!(line.starts_with("{\"bench\":\"sample\",\"rev\":\""));
        assert!(line.contains("\"a_gbps\":12.500000"));
        assert!(line.contains("\"b_ratio\":0.000000"), "NaN maps to 0");
        assert!(!line.contains('\n'));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn append_extends_instead_of_overwriting() {
        let path =
            std::env::temp_dir().join(format!("cdma_trajectory_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut t = Trajectory::new("t");
        t.metric("m", 1.0);
        t.append_to(&path).unwrap();
        t.append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn workspace_root_holds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
