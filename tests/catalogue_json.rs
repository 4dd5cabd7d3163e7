//! The whole catalogue, in-process, pinned by its rendered JSON: one
//! `Context::new()`, `experiment::run` over `CATALOGUE` in order, each
//! report through `report::render_json`, joined as
//! `cdma-bench experiments all --format json` prints them (less the
//! CLI's trailing newline: 84 501 bytes here, 84 502 from the CLI, whose
//! sha256 `tests/golden/experiments_all.sha256` holds). Any experiment
//! whose output moves — a digit, a row, a cache lookup — fails here, and
//! so does a driver whose report answers to another name than its
//! catalogue entry. The JSON holds only artifact *names*; the same run
//! pins the artifacts the CLI's `--out` writes — their count, total
//! bytes, and an FNV-64 over each name and its bytes in catalogue order.

use cdma::core::experiment::{self, CATALOGUE};
use cdma::core::report::render_json;
use cdma::core::scenario::{Context, Runner, ScenarioFilter};

const JSON_BYTES: usize = 84_501;
const JSON_FNV64: u64 = 0xb5c5_4324_a9b0_e141;
const ARTIFACTS: usize = 52;
const ARTIFACT_BYTES: usize = 5_021_890;
const ARTIFACT_FNV64: u64 = 0x078e_7e0d_6cce_e7be;

/// FNV-1a 64-bit of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(0xCBF2_9CE4_8422_2325, bytes)
}

/// FNV-1a 64-bit of `bytes`, continuing from the hash `h`.
fn fnv64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The catalogue's artifacts, summed up: how many, their total bytes,
/// and an FNV-64 over every `experiment/name` and its bytes in order.
#[derive(Debug, PartialEq)]
struct ArtifactPin {
    count: usize,
    bytes: usize,
    fnv64: String,
}

/// The catalogue's JSON array on a fresh context, and the context's
/// `(hits, misses)` cache counters after it, and its artifacts. `jobs`
/// goes to `Runner::with_jobs`, which ignores it — the call the
/// `repro_all` benchmark makes; every sweep runs on this thread.
fn catalogue_json(jobs: usize) -> (String, (u64, u64), ArtifactPin) {
    let ctx = Context::new();
    let runner = Runner::with_jobs(jobs);
    let filter = ScenarioFilter::all();
    let (mut count, mut bytes, mut hash) = (0, 0, 0xCBF2_9CE4_8422_2325);
    let objects: Vec<String> = CATALOGUE
        .iter()
        .map(|e| {
            let report = experiment::run(e.name, &ctx, &runner, &filter)
                .unwrap_or_else(|| panic!("{} is not in the dispatch table", e.name));
            assert_eq!(
                report.name(),
                e.name,
                "the report of catalogue entry {}",
                e.name
            );
            for artifact in report.artifacts().iter() {
                count += 1;
                bytes += artifact.bytes.len();
                let path = format!("{}/{}", e.name, artifact.name);
                hash = fnv64_from(fnv64_from(hash, path.as_bytes()), &artifact.bytes);
            }
            let json = render_json(report.as_ref());
            let head = format!("{{\"experiment\":\"{}\"", e.name);
            assert!(
                json.starts_with(&head),
                "{} renders under another name",
                e.name
            );
            json
        })
        .collect();
    let stats = ctx.stats();
    let artifacts = ArtifactPin {
        count,
        bytes,
        fnv64: format!("{hash:016x}"),
    };
    (
        format!("[{}]", objects.join(",\n")),
        (stats.hits, stats.misses),
        artifacts,
    )
}

/// Length and digest together, so a moved cell reports both.
fn assert_pinned(json: &str) {
    let got = (json.len(), format!("{:016x}", fnv64(json.as_bytes())));
    let want = (JSON_BYTES, format!("{JSON_FNV64:016x}"));
    assert_eq!(got, want, "catalogue JSON (bytes, FNV-64) moved");
}

#[test]
fn one_job_renders_the_pinned_json_and_cache_counts() {
    let (json, (hits, misses), artifacts) = catalogue_json(1);
    assert_pinned(&json);
    assert_eq!((hits, misses), (359, 121), "cache hits / misses at one job");
    let want = ArtifactPin {
        count: ARTIFACTS,
        bytes: ARTIFACT_BYTES,
        fnv64: format!("{ARTIFACT_FNV64:016x}"),
    };
    assert_eq!(artifacts, want, "the artifacts `--out` writes moved");
}
