//! The flat [`FluidFabric`] — the zero-node-tier case every
//! [`ClusterSim::new`] runs on — at its edges and against an independent
//! closed-form oracle.
//!
//! ## Oracle
//!
//! A flat fabric solves its rates by progressive filling — the same
//! max-min solver the tiered fabrics use, with no node tiers in the way.
//! On one link the max-min allocation has a closed form, *water-filling*:
//! split the wire evenly, let every flow capped below its share keep its
//! cap, and re-split the excess among the rest. [`share_rates`] is that
//! closed form and [`OracleLink`] a from-scratch fluid link built on it,
//! sharing no code with the fabric.
//!
//! The two sum the same reals in a different order, so they agree to
//! rounding, not to the bit, on heterogeneous caps (measured over these
//! seeds: 577 of 16 074 completions differ, by at most 4.0e-16 relative).
//! Pinned here over ≥2000 seeded loads:
//!
//! * heterogeneous caps — every completion within 1e-12 relative, and the
//!   completion *order* identical;
//! * no caps, and one cap shared by every transfer — bit-equal, because
//!   both solvers then reach the same rate by the same arithmetic.

use std::collections::VecDeque;

use cdma_gpusim::SystemConfig;
use cdma_models::zoo;
use cdma_vdnn::cluster::{ClusterSim, Tenant};
use cdma_vdnn::fabric::{FabricSpec, FluidFabric};
use cdma_vdnn::timeline::{LinkPolicy, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion};

const BW: f64 = 100.0;

/// Deterministic LCG in [0, 1).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % 1_000_000) as f64 / 1_000_000.0
}

/// How a workload draws its rate caps.
#[derive(Clone, Copy)]
enum Caps {
    /// Every transfer link-bound.
    None,
    /// One cap for the whole workload.
    Equal,
    /// Half the transfers capped, each at its own rate.
    Mixed,
}

/// One random workload: per flow, FIFO-ordered `(arrival, bytes,
/// max_rate)` triples.
fn workload(seed: &mut u64, flows: usize, caps: Caps) -> Vec<Vec<(f64, f64, f64)>> {
    let shared = BW * (0.05 + lcg(seed) * 1.5);
    (0..flows)
        .map(|_| {
            let n = 1 + (lcg(seed) * 3.0) as usize;
            let mut at = lcg(seed) * 4.0;
            (0..n)
                .map(|_| {
                    at += lcg(seed) * 3.0;
                    let bytes = 1.0 + lcg(seed) * 400.0;
                    let cap = match caps {
                        Caps::None => f64::INFINITY,
                        Caps::Equal => shared,
                        Caps::Mixed if lcg(seed) < 0.5 => BW * (0.05 + lcg(seed) * 1.5),
                        Caps::Mixed => f64::INFINITY,
                    };
                    (at, bytes, cap)
                })
                .collect()
        })
        .collect()
}

/// Water-filling fair shares of a `bw` link among flows capped at `caps`:
/// every flow starts from an even split of the wire; flows capped below
/// their share keep the cap and the excess is redistributed among the
/// rest.
fn share_rates(bw: f64, caps: &[f64]) -> Vec<f64> {
    let mut rates = vec![0.0; caps.len()];
    let mut open: Vec<usize> = (0..caps.len()).collect();
    let mut remaining_bw = bw;
    while !open.is_empty() {
        let fair = (remaining_bw / open.len() as f64).max(0.0);
        if open.iter().all(|&i| caps[i] >= fair) {
            for i in open {
                rates[i] = fair;
            }
            break;
        }
        open.retain(|&i| {
            let capped = caps[i] < fair;
            if capped {
                rates[i] = caps[i];
                remaining_bw -= caps[i];
            }
            !capped
        });
    }
    rates
}

struct OracleRequest {
    id: (usize, usize),
    arrival: f64,
    max_rate: f64,
    remaining: f64,
}

/// A fluid bandwidth-share link on [`share_rates`]: FIFO per flow, rates
/// re-solved at every arrival and completion.
struct OracleLink {
    now: f64,
    flows: Vec<VecDeque<OracleRequest>>,
}

impl OracleLink {
    fn new(load: &[Vec<(f64, f64, f64)>]) -> Self {
        let flows = load
            .iter()
            .enumerate()
            .map(|(f, items)| {
                items
                    .iter()
                    .enumerate()
                    .map(|(k, &(arrival, bytes, max_rate))| OracleRequest {
                        id: (f, k),
                        arrival,
                        max_rate,
                        remaining: bytes,
                    })
                    .collect()
            })
            .collect();
        OracleLink { now: 0.0, flows }
    }

    /// Drains the link; returns `((flow, index), completion)` in
    /// completion order.
    fn run(mut self) -> Vec<((usize, usize), f64)> {
        let mut done = Vec::new();
        loop {
            let heads: Vec<usize> = (0..self.flows.len())
                .filter(|&f| self.flows[f].front().is_some_and(|r| r.arrival <= self.now))
                .collect();
            let next_arrival = self
                .flows
                .iter()
                .filter_map(|q| q.front())
                .map(|r| r.arrival)
                .filter(|&a| a > self.now)
                .fold(f64::INFINITY, f64::min);
            if heads.is_empty() {
                if next_arrival.is_infinite() {
                    return done;
                }
                self.now = next_arrival;
                continue;
            }
            let caps: Vec<f64> = heads.iter().map(|&f| self.flows[f][0].max_rate).collect();
            let rates = share_rates(BW, &caps);
            let candidates: Vec<f64> = heads
                .iter()
                .zip(&rates)
                .map(|(&f, &r)| self.now + self.flows[f][0].remaining / r)
                .collect();
            let step_to = candidates.iter().copied().fold(next_arrival, f64::min);
            let dt = step_to - self.now;
            for ((&f, &rate), &candidate) in heads.iter().zip(&rates).zip(&candidates) {
                if candidate <= step_to {
                    let r = self.flows[f].pop_front().expect("head");
                    done.push((r.id, candidate));
                } else {
                    self.flows[f][0].remaining -= rate * dt;
                }
            }
            self.now = step_to;
        }
    }
}

/// Runs `load` on a flat bandwidth-share fabric; same output shape as
/// [`OracleLink::run`].
fn run_fabric(load: &[Vec<(f64, f64, f64)>]) -> Vec<((usize, usize), f64)> {
    let mut link = FluidFabric::new(FabricSpec::flat(BW, LinkPolicy::BandwidthShare));
    let mut ids = Vec::new();
    for (f, items) in load.iter().enumerate() {
        let flow = link.flow(None);
        for (k, &(at, bytes, cap)) in items.iter().enumerate() {
            let req = link.submit(flow, at, bytes, cap);
            ids.push((req, (f, k)));
        }
    }
    link.run_until_idle();
    assert!(!link.has_backlog(), "drained");
    link.take_completions()
        .into_iter()
        .map(|(req, at)| {
            let &(_, id) = ids.iter().find(|(r, _)| *r == req).expect("submitted");
            (id, at)
        })
        .collect()
}

#[test]
fn water_filling_oracle_solves_the_textbook_cases() {
    assert_eq!(share_rates(10.0, &[f64::INFINITY; 2]), [5.0, 5.0]);
    assert_eq!(share_rates(10.0, &[2.0, f64::INFINITY]), [2.0, 8.0]);
    assert_eq!(
        share_rates(12.0, &[1.0, 3.0, f64::INFINITY, f64::INFINITY]),
        [1.0, 3.0, 4.0, 4.0]
    );
    // Caps that cannot fill the wire leave it partly idle.
    assert_eq!(share_rates(10.0, &[2.0, 3.0]), [2.0, 3.0]);
}

#[test]
fn heterogeneous_caps_agree_to_rounding_and_in_order() {
    let mut seed = 0x0FAB_71C5;
    let mut completions = 0usize;
    let mut differing = 0usize;
    let mut worst = 0.0f64;
    for round in 0..2000 {
        let load = workload(&mut seed, 2 + round % 5, Caps::Mixed);
        let oracle = OracleLink::new(&load).run();
        let fabric = run_fabric(&load);
        assert_eq!(oracle.len(), fabric.len(), "round {round}: completions");
        for (k, ((oid, ot), (fid, ft))) in oracle.iter().zip(&fabric).enumerate() {
            assert_eq!(oid, fid, "round {round}: completion {k} out of order");
            let rel = (ot - ft).abs() / ot;
            assert!(
                rel <= 1e-12,
                "round {round} request {oid:?}: fabric {ft} vs oracle {ot} ({rel:e} relative)"
            );
            completions += 1;
            differing += usize::from(ot.to_bits() != ft.to_bits());
            worst = worst.max(rel);
        }
    }
    // The solvers are expected to differ — in the last place only.
    eprintln!("{differing} of {completions} completions differ, worst {worst:e} relative");
    assert!(completions > 10_000 && differing > 0 && worst < 1e-14);
}

#[test]
fn uncapped_and_equal_cap_loads_are_bit_equal() {
    let mut seed = 0xE9_CA95;
    for round in 0..600 {
        for caps in [Caps::None, Caps::Equal] {
            let load = workload(&mut seed, 1 + round % 6, caps);
            let oracle = OracleLink::new(&load).run();
            let fabric = run_fabric(&load);
            assert_eq!(oracle.len(), fabric.len(), "round {round}: completions");
            for ((oid, ot), (fid, ft)) in oracle.iter().zip(&fabric) {
                assert_eq!(oid, fid, "round {round}: completion order");
                assert_eq!(
                    ot.to_bits(),
                    ft.to_bits(),
                    "round {round} request {oid:?}: fabric {ft} vs oracle {ot}"
                );
            }
        }
    }
}

#[test]
fn flat_fabric_is_one_link_with_no_node_tiers() {
    let spec = FabricSpec::flat(10.0, LinkPolicy::BandwidthShare);
    assert!(spec.is_flat());
    assert_eq!(spec.capacity(), usize::MAX, "a flat link has no slots");
    assert_eq!(spec.node_of(0), None);
    assert_eq!(spec.node_of(1023), None);
    let mut link = FluidFabric::new(spec);
    let a = link.flow(None);
    let b = link.flow(None);
    link.submit(a, 0.0, 40.0, f64::INFINITY);
    link.submit(b, 0.0, 20.0, f64::INFINITY);
    link.run_until_idle();
    // b drains at 4 s on half the wire, then a has all of it.
    assert_eq!(link.spine_busy(), [(0.0, 6.0)]);
    assert!((link.spine_bytes() - 60.0).abs() < 1e-9);
    assert!(link.node_busy().is_empty());
    assert!(link.node_bytes().is_empty());

    // The same through the cluster: no node tiers to report, and the
    // shared-tier profile is the one link's.
    let net = zoo::squeezenet();
    let source = UniformRatio::uniform(&net, 2.6);
    let tl = ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
        LinkPolicy::BandwidthShare,
    )
    .simulate(&[Tenant {
        spec: &net,
        source: &source,
        gpus: 2,
    }]);
    assert!(tl.node_busy().is_empty());
    assert!(tl.node_wire_bytes().is_empty());
    assert!(tl.spine_wire_bytes() > 0.0);
    let busy: f64 = tl.link_busy().iter().map(|&(s, e)| e - s).sum();
    assert!(busy > 0.0 && busy <= tl.makespan() + 1e-12);
}

#[test]
#[should_panic(expected = "outside the fabric")]
fn flat_fabric_rejects_flows_on_a_node_tier() {
    let mut link = FluidFabric::new(FabricSpec::flat(10.0, LinkPolicy::BandwidthShare));
    link.flow(Some(0));
}

#[test]
fn round_robin_is_quantum_exact_when_flat_and_fluid_when_tiered() {
    // Flat: one flow at a time, 10 bytes per turn at the full
    // 10 B/s — a, b, a — so b finishes at 2 s and a at 3 s.
    let flat = FabricSpec::flat(10.0, LinkPolicy::RoundRobin);
    let mut link = FluidFabric::with_quantum(flat, 10.0);
    let a = link.flow(None);
    let b = link.flow(None);
    let ra = link.submit(a, 0.0, 20.0, f64::INFINITY);
    let rb = link.submit(b, 0.0, 10.0, f64::INFINITY);
    link.advance_to(1.5);
    assert_eq!(link.delivered(a), 10.0, "service counts at chunk end");
    assert_eq!(link.delivered(b), 0.0);
    link.run_until_idle();
    assert_eq!(link.completion(rb), Some(2.0));
    assert_eq!(link.completion(ra), Some(3.0));
    assert_eq!(link.events_processed(), 3, "one per chunk");
    assert!((link.spine_bytes() - 30.0).abs() < 1e-9);

    // One node tier over the same wire: the fluid limit. Both flows
    // run at once on equal 5 B/s slices until b leaves at 2 s, then
    // a's slice is the whole tier — the same completions, but not
    // the same progress in between.
    let tiered = FabricSpec::new(
        1,
        2,
        10.0,
        LinkPolicy::RoundRobin,
        10.0,
        LinkPolicy::RoundRobin,
    );
    let mut fab = FluidFabric::with_quantum(tiered, 10.0);
    let a = fab.flow(Some(0));
    let b = fab.flow(Some(0));
    let ra = fab.submit(a, 0.0, 20.0, f64::INFINITY);
    let rb = fab.submit(b, 0.0, 10.0, f64::INFINITY);
    fab.advance_to(1.5);
    assert_eq!(fab.delivered(a), 7.5, "fluid: both flows progress");
    assert_eq!(fab.delivered(b), 7.5);
    fab.run_until_idle();
    assert_eq!(fab.completion(rb), Some(2.0));
    assert_eq!(fab.completion(ra), Some(3.0));
}

#[test]
fn a_submission_after_next_event_is_replanned() {
    let mut link = FluidFabric::new(FabricSpec::flat(10.0, LinkPolicy::BandwidthShare));
    let a = link.flow(None);
    let b = link.flow(None);
    let ra = link.submit(a, 0.0, 40.0, f64::INFINITY);
    assert_eq!(link.next_event(), Some(4.0));
    // The rates `next_event` just solved are stale once b arrives.
    let rb = link.submit(b, 0.0, 40.0, f64::INFINITY);
    assert_eq!(link.next_event(), Some(8.0));
    link.advance_to(8.0);
    assert_eq!(link.completion(ra), Some(8.0));
    assert_eq!(link.completion(rb), Some(8.0));
    assert_eq!(link.next_event(), None);
}
