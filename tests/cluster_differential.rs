//! Differential test: a `gpus = 1` single-tenant `ClusterSim` must be
//! **bit-identical** to the single-GPU `TimelineSim` on the same scenario
//! — breakdown, stage records, busy intervals and the full event log —
//! across all three fidelity levels. The cluster's
//! dedicated fast path is a wrapper over the timeline, not a
//! reimplementation.

use cdma::core::scenario::{Context, ScenarioSet};
use cdma::vdnn::cluster::{ClusterSim, Tenant};
use cdma::vdnn::timeline::{LinkPolicy, Resource, StepTimeline, TimelineSim};
use cdma::vdnn::{ComputeModel, CudnnVersion, Fidelity, RatioTable};

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn assert_identical(cluster: &StepTimeline, single: &StepTimeline, what: &str) {
    assert_bits(
        cluster.breakdown.forward,
        single.breakdown.forward,
        &format!("{what} forward"),
    );
    assert_bits(
        cluster.breakdown.backward,
        single.breakdown.backward,
        &format!("{what} backward"),
    );
    assert_bits(
        cluster.breakdown.forward_stall,
        single.breakdown.forward_stall,
        &format!("{what} forward_stall"),
    );
    assert_bits(
        cluster.breakdown.backward_stall,
        single.breakdown.backward_stall,
        &format!("{what} backward_stall"),
    );
    assert_eq!(cluster.fidelity(), single.fidelity(), "{what} fidelity");
    assert_eq!(
        cluster.events_processed(),
        single.events_processed(),
        "{what} events_processed"
    );

    // The event log, entry by entry, timestamps by bit pattern.
    assert_eq!(
        cluster.events().len(),
        single.events().len(),
        "{what} event count"
    );
    for (i, (c, s)) in cluster.events().iter().zip(single.events()).enumerate() {
        assert_bits(c.time, s.time, &format!("{what} event {i} time"));
        assert_eq!(c.kind, s.kind, "{what} event {i} kind");
    }

    // Stage records.
    assert_eq!(cluster.stages().len(), single.stages().len());
    for (i, (c, s)) in cluster.stages().iter().zip(single.stages()).enumerate() {
        assert_eq!(c.phase, s.phase, "{what} stage {i}");
        assert_eq!(c.layer, s.layer, "{what} stage {i}");
        for (x, y, f) in [
            (c.start, s.start, "start"),
            (c.compute, s.compute, "compute"),
            (c.transfer, s.transfer, "transfer"),
            (c.end, s.end, "end"),
        ] {
            assert_bits(x, y, &format!("{what} stage {i} {f}"));
        }
    }

    // Busy intervals of every resource.
    for r in [Resource::Compute, Resource::DmaRead, Resource::Link] {
        assert_eq!(
            cluster.busy(r).len(),
            single.busy(r).len(),
            "{what} {r:?} interval count"
        );
        for (i, (&(cs, ce), &(ss, se))) in cluster.busy(r).iter().zip(single.busy(r)).enumerate() {
            assert_bits(cs, ss, &format!("{what} {r:?} interval {i} start"));
            assert_bits(ce, se, &format!("{what} {r:?} interval {i} end"));
        }
        assert_bits(
            cluster.busy_seconds(r),
            single.busy_seconds(r),
            &format!("{what} {r:?} busy seconds"),
        );
    }
    assert_eq!(cluster.lines_stepped(), single.lines_stepped(), "{what}");
}

#[test]
fn single_gpu_cluster_is_bit_identical_to_the_timeline_across_fidelities() {
    let ctx = Context::with_table(RatioTable::build_fast(7));
    let model = ComputeModel::titan_x(CudnnVersion::V5);
    for network in ["AlexNet", "SqueezeNet"] {
        let spec = ctx.spec(network);
        for fidelity in Fidelity::ALL {
            let scenario = ScenarioSet::builder()
                .networks([network])
                .fidelities([fidelity])
                .seed(7)
                .build()
                .scenarios()[0]
                .clone();
            assert_eq!(scenario.gpus, 1, "builder default is single-GPU");
            let source = ctx.transfer_source(&scenario);
            let single = TimelineSim::new(scenario.config, model).simulate(&spec, &source);
            let cluster = ClusterSim::new(scenario.config, model, LinkPolicy::BandwidthShare)
                .simulate(&[Tenant {
                    spec: &spec,
                    source: &source,
                    gpus: 1,
                }]);
            let what = format!("{network}/{fidelity}");
            assert_eq!(cluster.gpus().len(), 1);
            assert_identical(cluster.gpu(0), &single, &what);

            // Tenant-level aggregates are the single timeline's.
            let t = &cluster.tenants()[0];
            assert_eq!(t.gpus, 1);
            assert_eq!(t.allreduce, 0.0, "{what}: single GPU all-reduces");
            assert_bits(t.total, single.total(), &format!("{what} total"));
            assert_bits(
                cluster.makespan(),
                single.total(),
                &format!("{what} makespan"),
            );
            // The shared-link profile degenerates to the timeline's
            // link busy intervals, and its utilisation to the
            // timeline's link busy seconds, DMA lines included.
            assert_eq!(cluster.link_busy(), single.busy(Resource::Link), "{what}");
            assert_bits(
                cluster.link_utilisation(),
                single.busy_seconds(Resource::Link) / single.total(),
                &format!("{what} link utilisation"),
            );
        }
    }
}
