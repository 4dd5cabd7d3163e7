//! Latency recording and the virtual-time driver's report.
//!
//! Two outputs, both a pure function of `(config, loads, horizon, seed)`:
//!
//! * [`LoadReport::deterministic_summary_json`] — counts and bytes only;
//!   the `serve_load` experiment runs the driver twice and compares them.
//! * [`LoadReport::latency_json`] — per-tenant p50/p95/p99/max plus
//!   goodput and shed rate, on the virtual clock.
//!
//! Wall-clock latency of the threaded server is the benchmark's business
//! (`bash benchmark/run.sh --workload serve_4k`: `serve_capacity_rps`,
//! `serve.server.*`).

use crate::sched::TenantCounters;

/// Collects per-request latencies for one tenant.
///
/// Storage is pre-reserved at construction so recording never allocates
/// in the steady state (the counting-allocator test covers this path).
#[derive(Debug)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// A recorder with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Records one request latency in seconds.
    pub fn record(&mut self, seconds: f64) {
        self.samples.push(seconds);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sorts the samples and summarises them; `None` if nothing was
    /// recorded.
    pub fn stats(&mut self) -> Option<LatencyStats> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples.sort_by(f64::total_cmp);
        let n = self.samples.len();
        // Nearest-rank percentile: smallest sample with rank >= p*n.
        let rank = |p: f64| {
            let r = (p * n as f64).ceil() as usize;
            self.samples[r.clamp(1, n) - 1]
        };
        Some(LatencyStats {
            count: n as u64,
            mean_s: self.samples.iter().sum::<f64>() / n as f64,
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            p99_s: rank(0.99),
            max_s: self.samples[n - 1],
        })
    }
}

/// Summary of one tenant's latency distribution (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Nearest-rank 50th percentile.
    pub p50_s: f64,
    /// Nearest-rank 95th percentile.
    pub p95_s: f64,
    /// Nearest-rank 99th percentile.
    pub p99_s: f64,
    /// Worst observed latency.
    pub max_s: f64,
}

/// One tenant's slice of a [`LoadReport`].
#[derive(Debug, Clone)]
pub struct TenantLoadReport {
    /// Tenant label from its [`TenantSpec`](crate::sched::TenantSpec).
    pub name: String,
    /// Fairness weight.
    pub weight: f64,
    /// Admission and completion counters.
    pub counters: TenantCounters,
    /// Latency summary; `None` when the tenant completed nothing.
    pub latency: Option<LatencyStats>,
}

impl TenantLoadReport {
    /// Sheds of any kind over submissions, in `[0, 1]`.
    fn shed_rate(&self) -> f64 {
        let c = &self.counters;
        let sheds = c.shed_queue + c.shed_staging + c.quota_rejected;
        if c.submitted == 0 {
            0.0
        } else {
            sheds as f64 / c.submitted as f64
        }
    }
}

/// The virtual-time driver's full result: one entry per tenant plus
/// run-wide totals.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Arrival-schedule seed.
    pub seed: u64,
    /// Worker count the run modeled.
    pub workers: usize,
    /// Virtual seconds the run covered.
    pub elapsed_s: f64,
    /// Per-tenant slices, in tenant-id order.
    pub tenants: Vec<TenantLoadReport>,
    /// Staging-pool high-water mark in bytes.
    pub staging_high_water: u64,
    /// Staging-pool capacity in bytes.
    pub staging_capacity: u64,
}

impl LoadReport {
    /// Completed requests across all tenants.
    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.counters.completed).sum()
    }

    /// Sheds of any kind across all tenants.
    pub fn total_shed(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.counters.shed_queue + t.counters.shed_staging + t.counters.quota_rejected)
            .sum()
    }

    /// Served uncompressed bytes per second — the run's goodput.
    pub fn goodput_bytes_per_s(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        let bytes: u64 = self
            .tenants
            .iter()
            .map(|t| t.counters.uncompressed_bytes)
            .sum();
        bytes as f64 / self.elapsed_s
    }

    /// Completed requests per second.
    pub fn throughput_req_per_s(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.total_completed() as f64 / self.elapsed_s
    }

    /// The timing-free summary: counts and bytes only, identical across
    /// runs at the same seed.
    pub fn deterministic_summary_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        // The virtual clock is the only driver; the line keeps the
        // document's shape for whoever compares it with a stored one.
        s.push_str("  \"mode\": \"virtual\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!(
            "  \"staging_capacity\": {},\n",
            self.staging_capacity
        ));
        s.push_str(&format!(
            "  \"staging_high_water\": {},\n",
            self.staging_high_water
        ));
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            let c = &t.counters;
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"submitted\": {}, \"accepted\": {}, \
                 \"completed\": {}, \"shed_queue\": {}, \"shed_staging\": {}, \
                 \"quota_rejected\": {}, \"uncompressed_bytes\": {}, \"wire_bytes\": {}}}{}\n",
                t.name,
                c.submitted,
                c.accepted,
                c.completed,
                c.shed_queue,
                c.shed_staging,
                c.quota_rejected,
                c.uncompressed_bytes,
                c.wire_bytes,
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The full report with latency percentiles, goodput, and shed rates.
    pub fn latency_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"mode\": \"virtual\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"elapsed_s\": {:.6},\n", self.elapsed_s));
        s.push_str(&format!(
            "  \"throughput_req_per_s\": {:.1},\n",
            self.throughput_req_per_s()
        ));
        s.push_str(&format!(
            "  \"goodput_bytes_per_s\": {:.1},\n",
            self.goodput_bytes_per_s()
        ));
        s.push_str(&format!("  \"total_shed\": {},\n", self.total_shed()));
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"weight\": {}, \"completed\": {}, \
                 \"shed_rate\": {:.6}",
                t.name,
                t.weight,
                t.counters.completed,
                t.shed_rate()
            ));
            if let Some(l) = &t.latency {
                s.push_str(&format!(
                    ", \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \
                     \"max_us\": {:.3}, \"mean_us\": {:.3}",
                    l.p50_s * 1e6,
                    l.p95_s * 1e6,
                    l.p99_s * 1e6,
                    l.max_s * 1e6,
                    l.mean_s * 1e6
                ));
            }
            s.push_str(&format!(
                "}}{}\n",
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// A human-readable percentile table, one row per tenant.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<10} {:>10} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
            "tenant", "completed", "shed%", "p50 us", "p95 us", "p99 us", "max us"
        ));
        for t in &self.tenants {
            let (p50, p95, p99, max) = match &t.latency {
                Some(l) => (l.p50_s * 1e6, l.p95_s * 1e6, l.p99_s * 1e6, l.max_s * 1e6),
                None => (0.0, 0.0, 0.0, 0.0),
            };
            s.push_str(&format!(
                "{:<10} {:>10} {:>8.2}% {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                t.name,
                t.counters.completed,
                t.shed_rate() * 100.0,
                p50,
                p95,
                p99,
                max
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut r = LatencyRecorder::with_capacity(100);
        // 1..=100 microseconds, shuffled deterministically.
        for i in 0..100u64 {
            let v = (i * 37 + 11) % 100 + 1;
            r.record(v as f64 * 1e-6);
        }
        let s = r.stats().unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50_s - 50e-6).abs() < 1e-12);
        assert!((s.p95_s - 95e-6).abs() < 1e-12);
        assert!((s.p99_s - 99e-6).abs() < 1e-12);
        assert!((s.max_s - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut r = LatencyRecorder::with_capacity(1);
        r.record(3e-6);
        let s = r.stats().unwrap();
        assert_eq!(s.p50_s, 3e-6);
        assert_eq!(s.p99_s, 3e-6);
        assert_eq!(s.max_s, 3e-6);
    }

    #[test]
    fn empty_recorder_has_no_stats() {
        assert!(LatencyRecorder::with_capacity(0).stats().is_none());
    }

    #[test]
    fn summary_json_omits_timing() {
        let report = LoadReport {
            seed: 7,
            workers: 4,
            elapsed_s: 1.25,
            tenants: vec![TenantLoadReport {
                name: "t0".into(),
                weight: 1.0,
                counters: TenantCounters {
                    submitted: 10,
                    accepted: 9,
                    shed_queue: 1,
                    completed: 9,
                    uncompressed_bytes: 36864,
                    wire_bytes: 9000,
                    ..Default::default()
                },
                latency: Some(LatencyStats {
                    count: 9,
                    mean_s: 1e-5,
                    p50_s: 1e-5,
                    p95_s: 2e-5,
                    p99_s: 2e-5,
                    max_s: 2e-5,
                }),
            }],
            staging_high_water: 8192,
            staging_capacity: 65536,
        };
        let summary = report.deterministic_summary_json();
        assert!(summary.contains("\"completed\": 9"));
        assert!(!summary.contains("elapsed"), "summary must be timing-free");
        assert!(!summary.contains("p99"), "summary must be latency-free");
        let latency = report.latency_json();
        assert!(latency.contains("p99_us"));
        assert!((report.throughput_req_per_s() - 7.2).abs() < 1e-9);
        let table = report.table();
        assert!(table.contains("t0") && table.lines().count() == 2);
    }
}
