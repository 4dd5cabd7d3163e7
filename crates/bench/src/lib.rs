//! # cdma-bench — the experiment CLI and the inference bench
//!
//! The `cdma-bench` binary regenerates every table and figure of the
//! paper through the declarative scenario API in `cdma-core` (see the
//! experiment catalogue there):
//!
//! ```text
//! cargo run -p cdma-bench --release -- list
//! cargo run -p cdma-bench --release -- experiments fig11
//! cargo run -p cdma-bench --release -- experiments all --format json --jobs 4
//! ```
//!
//! [`cli`] parses the command line; [`trajectory`] appends recorded runs
//! of the one `cargo bench` target, `infer` (CSC matvec, PE array, shared
//! serving pool), to the committed `BENCH_infer.json`. Throughput and
//! latency of every other layer are measured by the standalone benchmark:
//! `bash benchmark/run.sh --workload offload_zvc | offload_entropy |
//! serve_4k | sim_step | repro_all` (metrics declared in `BENCHMARK.json`).

#![deny(missing_docs)]

pub mod cli;
pub mod trajectory;
