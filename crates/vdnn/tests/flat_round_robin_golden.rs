//! Pins the flat **round-robin** cluster — quantum-serialised service on
//! one shared link — against a recording of the same run.
//!
//! No catalogue experiment sweeps `link_policy=round-robin`, so the
//! byte-identical `experiments all` check cannot see a change to that
//! schedule. This run (AlexNet and SqueezeNet, four GPUs each, one flat
//! link) is compared field by field with `data/flat_round_robin_g4.golden`,
//! recorded before the link arbiters were merged: every `f64` by bit
//! pattern, every list by length and an FNV-1a digest of its bit patterns.
//! `spine_wire_bytes` alone is a conservation counter whose summation
//! order is not part of the contract; it is compared at 1e-9 relative.

use cdma_gpusim::SystemConfig;
use cdma_models::zoo;
use cdma_vdnn::cluster::{ClusterSim, ClusterTimeline, Tenant};
use cdma_vdnn::timeline::{LinkPolicy, Resource, UniformRatio};
use cdma_vdnn::{ComputeModel, CudnnVersion, StepBreakdown};

const GOLDEN: &str = include_str!("data/flat_round_robin_g4.golden");

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn intervals(v: &[(f64, f64)]) -> impl Iterator<Item = u64> + '_ {
    v.iter().flat_map(|&(s, e)| [s.to_bits(), e.to_bits()])
}

struct Recording(Vec<(String, u64)>);

impl Recording {
    fn put(&mut self, name: String, value: u64) {
        self.0.push((name, value));
    }

    fn breakdown(&mut self, what: &str, b: &StepBreakdown) {
        self.put(format!("{what}.forward"), b.forward.to_bits());
        self.put(format!("{what}.backward"), b.backward.to_bits());
        self.put(format!("{what}.forward_stall"), b.forward_stall.to_bits());
        self.put(format!("{what}.backward_stall"), b.backward_stall.to_bits());
    }

    fn list(&mut self, what: &str, len: usize, words: impl IntoIterator<Item = u64>) {
        self.put(format!("{what}.len"), len as u64);
        self.put(format!("{what}.fnv"), fnv(words));
    }
}

fn record(tl: &ClusterTimeline) -> Recording {
    let mut r = Recording(Vec::new());
    r.put("makespan".into(), tl.makespan().to_bits());
    r.put("events_processed".into(), tl.events_processed());
    r.put("policy".into(), tl.policy() as u64);
    r.list("link_busy", tl.link_busy().len(), intervals(tl.link_busy()));
    r.put("node_busy.len".into(), tl.node_busy().len() as u64);
    r.put(
        "node_wire_bytes.len".into(),
        tl.node_wire_bytes().len() as u64,
    );
    r.put("spine_wire_bytes".into(), tl.spine_wire_bytes().to_bits());
    for (i, t) in tl.tenants().iter().enumerate() {
        let what = format!("tenant{i}");
        r.put(format!("{what}.gpus"), t.gpus as u64);
        r.breakdown(&format!("{what}.step"), &t.step);
        r.put(format!("{what}.step_end"), t.step_end.to_bits());
        r.put(format!("{what}.allreduce"), t.allreduce.to_bits());
        let (s, e) = t.allreduce_span.expect("4-GPU tenants all-reduce");
        r.put(format!("{what}.allreduce_span.0"), s.to_bits());
        r.put(format!("{what}.allreduce_span.1"), e.to_bits());
        r.put(format!("{what}.total"), t.total.to_bits());
    }
    for (i, g) in tl.gpus().iter().enumerate() {
        let what = format!("gpu{i}");
        r.put(format!("{what}.tenant"), tl.tenant_of(i) as u64);
        r.breakdown(&format!("{what}.breakdown"), &g.breakdown);
        r.put(format!("{what}.events_processed"), g.events_processed());
        r.list(
            &format!("{what}.events"),
            g.events().len(),
            g.events().iter().flat_map(|e| {
                [
                    e.time.to_bits(),
                    fnv(format!("{:?}", e.kind).bytes().map(u64::from)),
                ]
            }),
        );
        r.list(
            &format!("{what}.stages"),
            g.stages().len(),
            g.stages().iter().flat_map(|s| {
                [
                    s.phase as u64,
                    s.layer as u64,
                    s.start.to_bits(),
                    s.compute.to_bits(),
                    s.transfer.to_bits(),
                    s.end.to_bits(),
                ]
            }),
        );
        for res in [Resource::Compute, Resource::DmaRead, Resource::Link] {
            r.list(
                &format!("{what}.busy.{res:?}"),
                g.busy(res).len(),
                intervals(g.busy(res)),
            );
        }
    }
    r
}

#[test]
fn flat_round_robin_cluster_matches_the_recording() {
    let alexnet = zoo::alexnet();
    let squeezenet = zoo::squeezenet();
    let sa = UniformRatio::uniform(&alexnet, 2.6);
    let sb = UniformRatio::uniform(&squeezenet, 1.0);
    let tl = ClusterSim::new(
        SystemConfig::titan_x_pcie3(),
        ComputeModel::titan_x(CudnnVersion::V5),
        LinkPolicy::RoundRobin,
    )
    .simulate(&[
        Tenant {
            spec: &alexnet,
            source: &sa,
            gpus: 4,
        },
        Tenant {
            spec: &squeezenet,
            source: &sb,
            gpus: 4,
        },
    ]);
    let actual = record(&tl).0;
    let rendered: String = actual
        .iter()
        .map(|(name, v)| format!("{name} {v:016x}\n"))
        .collect();
    let golden: Vec<(&str, u64)> = GOLDEN
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` lines");
            (name, u64::from_str_radix(hex, 16).expect("hex word"))
        })
        .collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "field count changed; this run records as:\n{rendered}"
    );
    for ((name, got), (want_name, want)) in actual.iter().zip(&golden) {
        assert_eq!(name, want_name, "field order changed:\n{rendered}");
        if name == "spine_wire_bytes" {
            let (got, want) = (f64::from_bits(*got), f64::from_bits(*want));
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "{name}: {got} vs recorded {want}"
            );
        } else {
            assert_eq!(
                got, want,
                "{name}: {got:016x} vs recorded {want:016x}; this run records as:\n{rendered}"
            );
        }
    }
}
