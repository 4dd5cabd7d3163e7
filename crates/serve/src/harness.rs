//! The wall-clock load harness: replays the same deterministic
//! [`Schedule`] against the real threaded [`Server`], pacing submissions
//! against the host clock, and reports *measured* latency percentiles.
//!
//! Arrival times, tensor sizes, and payload bits are identical to what
//! the virtual driver would generate at the same seed; only the clock is
//! real. Accept/shed decisions therefore depend on true service speed —
//! this is the driver behind `cargo bench -p cdma-bench --bench serve`,
//! while CI determinism checks use [`sim::run_virtual`](crate::sim).

use std::time::{Duration, Instant};

use cdma_compress::pool::Pool;

use crate::loadgen::{fill_activations, Schedule, TenantLoad};
use crate::metrics::{LatencyRecorder, LoadReport, TenantLoadReport};
use crate::proto::{Request, TenantId};
use crate::server::{Completion, Server, ServerConfig};

/// Replays `schedule` against a freshly-started server and returns the
/// measured report. The server is shut down before returning.
pub fn run_wall(config: &ServerConfig, loads: &[TenantLoad], schedule: &Schedule) -> LoadReport {
    let specs: Vec<_> = loads.iter().map(|l| l.spec.clone()).collect();
    let server = Server::start(config.clone(), specs);
    let mut recorders: Vec<LatencyRecorder> = loads
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let n = schedule
                .arrivals
                .iter()
                .filter(|a| a.tenant as usize == i)
                .count();
            LatencyRecorder::with_capacity(n)
        })
        .collect();
    let mut word_pool: Pool<Vec<f32>> = Pool::with_capacity(64);
    let mut done: Vec<Completion> = Vec::with_capacity(1024);
    let start = Instant::now();

    fn absorb(
        server: &Server,
        done: &mut Vec<Completion>,
        recorders: &mut [LatencyRecorder],
        word_pool: &mut Pool<Vec<f32>>,
    ) {
        server.drain_completions(done);
        for c in done.drain(..) {
            recorders[c.response.tenant.0 as usize].record(c.latency_s());
            let (words, _bytes) = server.recycle(c.response);
            word_pool.put(words);
        }
    }

    for (next_id, arrival) in schedule.arrivals.iter().enumerate() {
        // Open-loop pacing: sleep for coarse gaps, spin the last stretch.
        loop {
            let now = start.elapsed().as_secs_f64();
            let gap = arrival.at_s - now;
            if gap <= 0.0 {
                break;
            }
            if gap > 200e-6 {
                std::thread::sleep(Duration::from_secs_f64(gap - 100e-6));
            } else {
                // Harvest completions instead of burning the spin.
                absorb(&server, &mut done, &mut recorders, &mut word_pool);
                std::hint::spin_loop();
            }
        }
        let mut words = word_pool.get();
        words.resize(arrival.elements, 0.0);
        fill_activations(
            arrival.fill_seed,
            loads[arrival.tenant as usize].zero_density,
            &mut words,
        );
        let req = Request::compress(
            TenantId(arrival.tenant),
            next_id as u64,
            config.algorithm,
            words,
        );
        if let Err((_, req)) = server.submit(req) {
            word_pool.put(req.words);
        }
        absorb(&server, &mut done, &mut recorders, &mut word_pool);
    }
    server.wait_drained();
    absorb(&server, &mut done, &mut recorders, &mut word_pool);
    let elapsed_s = server.now_s();

    let mut tenants = Vec::with_capacity(loads.len());
    for (i, l) in loads.iter().enumerate() {
        tenants.push(TenantLoadReport {
            name: l.spec.name.clone(),
            weight: l.spec.weight,
            counters: server.counters(TenantId(i as u16)).unwrap(),
            latency: recorders[i].stats(),
        });
    }
    let stats = server.shutdown();
    LoadReport {
        mode: "wall",
        seed: schedule.seed,
        workers: config.workers,
        elapsed_s,
        tenants,
        staging_high_water: stats.staging_high_water,
        staging_capacity: config.staging_bytes,
        server: Some(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::TenantSpec;

    #[test]
    fn wall_harness_serves_low_load_without_sheds() {
        let loads = vec![
            TenantLoad::new(TenantSpec::new("a"), 2_000.0),
            TenantLoad::new(TenantSpec::new("b").weight(2.0), 1_000.0),
        ];
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let schedule = Schedule::generate(&loads, 0.05, 11);
        let r = run_wall(&config, &loads, &schedule);
        assert_eq!(r.mode, "wall");
        assert_eq!(r.total_shed(), 0, "trivial load must not shed");
        assert_eq!(r.total_completed() as usize, schedule.len());
        for t in &r.tenants {
            if t.counters.completed > 0 {
                let l = t.latency.as_ref().unwrap();
                assert!(l.p50_s > 0.0 && l.max_s >= l.p99_s && l.p99_s >= l.p50_s);
            }
        }
        assert!(r.elapsed_s >= 0.05, "open loop runs the full horizon");
        let server = r.server.expect("the wall driver reports its server");
        assert!((1..=schedule.len() as u64).contains(&server.completion_batches));
        assert_eq!((server.staging_in_use, server.workers_lost), (0, 0));
        assert!(r.table().contains("completion batches"));
    }
}
