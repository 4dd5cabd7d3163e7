//! Small trainable counterparts of the paper's networks.
//!
//! These are scaled-down architectures in the same structural family
//! (conv/ReLU/pool pyramids ending in FC classifiers, plus an
//! inception-style variant), sized so CPU training in tests and examples
//! finishes in seconds while still exhibiting the Section IV sparsity
//! dynamics.

use cdma_dnn::{Conv2d, Dropout, FullyConnected, Parallel, Pool, PoolKind, Relu, Sequential};

use crate::{NetworkSpec, PoolFlavor, SpecBuilder};

/// A tiny AlexNet-style pyramid for `classes`-way classification of
/// 1×16×16 images: two conv/ReLU/pool stages and an FC classifier with
/// dropout.
pub fn tiny_alexnet(classes: usize, seed: u64) -> Sequential {
    let mut net = Sequential::named("tiny-alexnet");
    net.push(Conv2d::new("conv0", 1, 8, 3, 1, 1, seed));
    net.push(Relu::new("relu0"));
    net.push(Pool::new("pool0", PoolKind::Max, 2, 2)); // 16 -> 8
    net.push(Conv2d::new("conv1", 8, 16, 3, 1, 1, seed + 1));
    net.push(Relu::new("relu1"));
    net.push(Pool::new("pool1", PoolKind::Max, 2, 2)); // 8 -> 4
    net.push(FullyConnected::new("fc1", 16 * 4 * 4, 32, seed + 2));
    net.push(Relu::new("relu_fc1"));
    net.push(Dropout::new("drop1", 0.5, seed + 3));
    net.push(FullyConnected::new("fc2", 32, classes, seed + 4));
    net
}

/// The [`NetworkSpec`] counterpart of [`tiny_alexnet`], at the paper's
/// layer granularity (conv/fc layers carry their fused ReLU; dropout is
/// shape-preserving and has no spec entry). Feeding a real training step's
/// activations — captured per probe layer of [`TINY_ALEXNET_PROBES`] —
/// into the `cdma-vdnn` timeline against this spec closes the loop between
/// the `dnn` crate and the transfer simulation.
// pub: the spec timeline_fidelity.rs drives a captured step against
pub fn tiny_alexnet_spec(classes: usize, batch: usize) -> NetworkSpec {
    let mut b = SpecBuilder::new("tiny-alexnet", batch, (1, 16, 16));
    b.conv("conv0", 8, 3, 1, 1, true)
        .pool("pool0", PoolFlavor::Max, 2, 2) // 16 -> 8
        .conv("conv1", 16, 3, 1, 1, true)
        .pool("pool1", PoolFlavor::Max, 2, 2) // 8 -> 4
        .fc("fc1", 32, true)
        .fc("fc2", classes, false);
    b.build()
}

/// For each layer of [`tiny_alexnet_spec`], in order: the [`tiny_alexnet`]
/// layer whose output *is* that spec layer's activation map (post-ReLU for
/// the fused conv/fc layers, pre-dropout for `fc1`).
pub const TINY_ALEXNET_PROBES: [&str; 6] = ["relu0", "pool0", "relu1", "pool1", "relu_fc1", "fc2"];

/// A tiny GoogLeNet-style network: a stem conv followed by an inception
/// module (1×1 branch + 3×3 branch) and an FC classifier.
pub fn tiny_googlenet(classes: usize, seed: u64) -> Sequential {
    let mut net = Sequential::named("tiny-googlenet");
    net.push(Conv2d::new("stem", 1, 8, 3, 1, 1, seed));
    net.push(Relu::new("stem_relu"));
    net.push(Pool::new("stem_pool", PoolKind::Max, 2, 2)); // 16 -> 8

    let mut b1 = Sequential::named("inc_1x1");
    b1.push(Conv2d::new("inc_1x1_conv", 8, 8, 1, 1, 0, seed + 1));
    b1.push(Relu::new("inc_1x1_relu"));
    let mut b2 = Sequential::named("inc_3x3");
    b2.push(Conv2d::new("inc_3x3_reduce", 8, 4, 1, 1, 0, seed + 2));
    b2.push(Relu::new("inc_3x3_reduce_relu"));
    b2.push(Conv2d::new("inc_3x3_conv", 4, 8, 3, 1, 1, seed + 3));
    b2.push(Relu::new("inc_3x3_relu"));
    net.push(Parallel::new("inception", vec![b1, b2]));

    net.push(Pool::new("pool2", PoolKind::Max, 2, 2)); // 8 -> 4
    net.push(FullyConnected::new("fc", 16 * 4 * 4, classes, seed + 4));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_dnn::synthetic::SyntheticImages;
    use cdma_dnn::{Layer, Mode, Sgd, Trainer};
    use cdma_tensor::{Layout, Shape4, Tensor};

    #[test]
    fn tiny_alexnet_shapes() {
        let net = tiny_alexnet(4, 0);
        assert_eq!(
            net.output_shape(Shape4::new(2, 1, 16, 16)),
            Shape4::fc(2, 4)
        );
    }

    #[test]
    fn tiny_alexnet_spec_mirrors_the_real_net() {
        let spec = tiny_alexnet_spec(4, 2);
        assert_eq!(spec.layers().len(), TINY_ALEXNET_PROBES.len());
        let mut net = tiny_alexnet(4, 0);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), Layout::Nchw, 0.3);
        // Every probe layer's output shape matches the spec layer's
        // activation accounting.
        let mut seen = vec![None; spec.layers().len()];
        let _ = net.forward_probed(&x, Mode::Eval, &mut |name, _, out| {
            if let Some(i) = TINY_ALEXNET_PROBES.iter().position(|p| *p == name) {
                seen[i] = Some(out.len());
            }
        });
        for (layer, elems) in spec.layers().iter().zip(&seen) {
            assert_eq!(
                Some(layer.activation_elems(2) as usize),
                *elems,
                "{} shape mismatch",
                layer.name
            );
        }
    }

    #[test]
    fn tiny_googlenet_shapes_and_forward() {
        let mut net = tiny_googlenet(4, 0);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), Layout::Nchw, 0.3);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape(), Shape4::fc(2, 4));
    }

    #[test]
    fn tiny_googlenet_trains() {
        let mut data = SyntheticImages::new(4, 1, 16, 11);
        let mut trainer = Trainer::new(tiny_googlenet(4, 13), Sgd::new(0.03, 0.9, 1e-4));
        let mut losses = Vec::new();
        for _ in 0..150 {
            let (x, y) = data.batch(16);
            losses.push(trainer.train_step(&x, &y));
        }
        let early: f64 = losses[..20].iter().sum::<f64>() / 20.0;
        let late: f64 = losses[losses.len() - 20..].iter().sum::<f64>() / 20.0;
        assert!(
            late < early,
            "inception net should learn: {early} -> {late}"
        );
    }
}
