//! Seeded property loops over the admission-control surface:
//!
//! * accepted work is never dropped, under any load or pool size;
//! * sheds happen only when the staging pool is genuinely full, and the
//!   `Overloaded` error's accounting justifies each one;
//! * served bytes under saturation split by `BandwidthShare` weight;
//! * compression results are byte-identical across worker counts, on
//!   both the virtual and the threaded driver.

use cdma_compress::Algorithm;
use cdma_gpusim::staging::StagingPool;
use cdma_serve::{
    fill_activations, run_virtual, Request, ServeError, Server, ServerConfig, ServiceModel,
    TenantId, TenantLoad, TenantScheduler, TenantSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn accepted_requests_are_never_dropped() {
    // Random worker counts, pool sizes and offered loads, from light to
    // far past saturation: whatever the admission controller accepts has
    // to come out the other end, and the counters have to balance.
    let mut rng = StdRng::seed_from_u64(0xA11C);
    for trial in 0..20u64 {
        let workers = rng.gen_range(1usize..5);
        let staging = 4096 * rng.gen_range(2u64..40);
        let rate = rng.gen_range(50_000.0..600_000.0);
        let loads = vec![
            TenantLoad::new(
                TenantSpec::new("a").weight(rng.gen_range(1u64..4) as f64),
                rate,
            ),
            TenantLoad::new(TenantSpec::new("b"), rate * 0.5),
        ];
        let cfg = ServerConfig {
            workers,
            staging_bytes: staging,
            ..ServerConfig::default()
        };
        let r = run_virtual(&cfg, &loads, 0.01, 1000 + trial, ServiceModel::default());
        for t in &r.tenants {
            let c = &t.counters;
            assert_eq!(
                c.submitted,
                c.accepted + c.shed_queue + c.shed_staging + c.quota_rejected,
                "trial {trial}: every submission is accounted for"
            );
            assert_eq!(
                c.accepted, c.completed,
                "trial {trial}: accepted work is never dropped"
            );
        }
        assert!(r.staging_high_water <= r.staging_capacity);
    }
}

#[test]
fn sheds_happen_only_when_the_pool_is_genuinely_full() {
    // Fill the pool through the scheduler with random-sized requests and
    // never dispatch: the first rejection must be `Overloaded`, and its
    // carried accounting must show the pool really could not fit the
    // request — the paper's "stall when the staging buffer is full"
    // condition, never earlier.
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for trial in 0..50u64 {
        let capacity = 4096 * rng.gen_range(1u64..20);
        let mut pool = StagingPool::new(capacity);
        let mut sched = TenantScheduler::new(vec![TenantSpec::new("t").queue_depth(1 << 20)]);
        let mut id = 0u64;
        loop {
            let elems = 256 * rng.gen_range(1usize..9); // 1 KB..8 KB
            let req = Request::compress(TenantId(0), id, Algorithm::Zvc, vec![0.0f32; elems]);
            let footprint = req.footprint_bytes();
            id += 1;
            match sched.try_enqueue(req, 0.0, &mut pool) {
                Ok(_) => {
                    assert!(pool.in_use() <= capacity, "trial {trial}: over-admitted");
                }
                Err((ServeError::Overloaded(full), _req)) => {
                    assert_eq!(full.in_use, pool.in_use(), "trial {trial}");
                    assert_eq!(full.needed, footprint, "trial {trial}");
                    assert!(
                        full.in_use + full.needed > full.capacity,
                        "trial {trial}: shed while {} + {} fit in {}",
                        full.in_use,
                        full.needed,
                        full.capacity
                    );
                    break;
                }
                Err((other, _req)) => panic!("trial {trial}: unexpected rejection {other}"),
            }
        }
    }
}

#[test]
fn saturated_goodput_tracks_bandwidth_share_weights() {
    // Three tenants with random integer weights, each alone offering
    // most of the machine: the byte split must track the weight split
    // within 5 points (one quantum of slack at these volumes).
    let mut rng = StdRng::seed_from_u64(0xFA12);
    let model = ServiceModel::default();
    let capacity_rate = 4.0 / model.service_s(4096);
    for trial in 0..8u64 {
        let weights: Vec<f64> = (0..3).map(|_| rng.gen_range(1u64..5) as f64).collect();
        let depth = 64usize;
        let loads: Vec<TenantLoad> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                TenantLoad::new(
                    TenantSpec::new(format!("t{i}"))
                        .weight(w)
                        .queue_depth(depth),
                    0.8 * capacity_rate,
                )
            })
            .collect();
        let cfg = ServerConfig {
            workers: 4,
            staging_bytes: (3 * depth + 4) as u64 * 4096,
            ..ServerConfig::default()
        };
        let r = run_virtual(&cfg, &loads, 0.02, 7000 + trial, model);
        let total: u64 = r
            .tenants
            .iter()
            .map(|t| t.counters.uncompressed_bytes)
            .sum();
        assert!(total > 0);
        let weight_sum: f64 = weights.iter().sum();
        for (t, &w) in r.tenants.iter().zip(&weights) {
            let got = t.counters.uncompressed_bytes as f64 / total as f64;
            let want = w / weight_sum;
            assert!(
                (got - want).abs() < 0.05,
                "trial {trial} weights {weights:?}: {} got {got:.3}, want {want:.3}",
                t.name
            );
        }
    }
}

#[test]
fn virtual_results_are_invariant_across_worker_counts() {
    // Worker count changes timing, never results: at a load every
    // configuration can absorb, completed counts and measured wire bytes
    // must match exactly from 1 to 8 modeled workers.
    let loads = vec![TenantLoad::new(TenantSpec::new("t"), 20_000.0)];
    let mut reference = None;
    for workers in [1usize, 2, 4, 8] {
        let cfg = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let r = run_virtual(&cfg, &loads, 0.05, 11, ServiceModel::default());
        assert_eq!(
            r.total_shed(),
            0,
            "workers={workers}: low load must not shed"
        );
        let c = &r.tenants[0].counters;
        let key = (c.completed, c.uncompressed_bytes, c.wire_bytes);
        match reference {
            None => reference = Some(key),
            Some(prev) => assert_eq!(prev, key, "workers={workers}"),
        }
    }
}

#[test]
fn threaded_responses_are_byte_identical_across_worker_counts() {
    // The real threaded server at 1, 2 and 4 workers, same deterministic
    // request set: every response's compressed bytes and offset table
    // must be identical, whatever interleaving the OS picked.
    type ResponseKey = (u64, Vec<u8>, Vec<u32>);
    let reqs = 96u64;
    let mut reference: Option<Vec<ResponseKey>> = None;
    for workers in [1usize, 2, 4] {
        let server = Server::start(
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            vec![TenantSpec::new("t")],
        );
        for id in 0..reqs {
            let mut words = vec![0.0f32; 1024];
            fill_activations(id ^ 0xDEAD_BEEF, 0.6, &mut words);
            let req = Request::compress(TenantId(0), id, Algorithm::Zvc, words);
            assert!(server.submit(req).is_ok(), "low load must not shed");
        }
        server.wait_drained();
        let mut done = Vec::new();
        server.drain_completions(&mut done);
        server.shutdown();
        assert_eq!(done.len(), reqs as usize);
        let mut outs: Vec<ResponseKey> = done
            .into_iter()
            .map(|c| (c.response.id, c.response.bytes, c.response.offsets))
            .collect();
        outs.sort_by_key(|o| o.0);
        match &reference {
            None => reference = Some(outs),
            Some(want) => assert_eq!(want, &outs, "workers={workers}"),
        }
    }
}
