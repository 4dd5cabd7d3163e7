//! The six evaluated networks (Table I) at their published configurations.
//!
//! Shapes follow the original papers / Caffe Zoo `.prototxt` files the cDMA
//! authors used (Section VI, "Networks evaluated"). Classifier-only layers
//! without ReLU (the final fc / softmax inputs) are marked dense.

use crate::{NetworkSpec, PoolFlavor, SpecBuilder};

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Network name.
    pub network: &'static str,
    /// Fully-trained top-1 accuracy (%).
    pub top1: f64,
    /// Fully-trained top-5 accuracy (%).
    pub top5: f64,
    /// Minibatch size used for training.
    pub batch: usize,
    /// Training iterations to reach the final model (thousands).
    pub trained_kiter: usize,
}

/// The paper's Table I, verbatim.
pub const TABLE_ONE: [TableOneRow; 6] = [
    TableOneRow {
        network: "AlexNet",
        top1: 53.1,
        top5: 75.1,
        batch: 256,
        trained_kiter: 226,
    },
    TableOneRow {
        network: "OverFeat",
        top1: 52.8,
        top5: 76.4,
        batch: 256,
        trained_kiter: 130,
    },
    TableOneRow {
        network: "NiN",
        top1: 55.9,
        top5: 78.7,
        batch: 128,
        trained_kiter: 300,
    },
    TableOneRow {
        network: "VGG",
        top1: 56.5,
        top5: 82.9,
        batch: 128,
        trained_kiter: 130,
    },
    TableOneRow {
        network: "SqueezeNet",
        top1: 53.1,
        top5: 77.8,
        batch: 512,
        trained_kiter: 82,
    },
    TableOneRow {
        network: "GoogLeNet",
        top1: 56.1,
        top5: 83.4,
        batch: 256,
        trained_kiter: 212,
    },
];

/// All six networks, in the order the paper's figures list them.
pub fn all_networks() -> Vec<NetworkSpec> {
    vec![
        alexnet(),
        overfeat(),
        nin(),
        vgg(),
        squeezenet(),
        googlenet(),
    ]
}

/// AlexNet (Krizhevsky et al. 2012; single-tower Caffe variant, batch 256).
pub fn alexnet() -> NetworkSpec {
    let mut b = SpecBuilder::new("AlexNet", 256, (3, 227, 227));
    b.conv("conv0", 96, 11, 4, 0, true)
        .pool("pool0", PoolFlavor::Max, 3, 2)
        .lrn("norm0")
        .conv("conv1", 256, 5, 1, 2, true)
        .pool("pool1", PoolFlavor::Max, 3, 2)
        .lrn("norm1")
        .conv("conv2", 384, 3, 1, 1, true)
        .conv("conv3", 384, 3, 1, 1, true)
        .conv("conv4", 256, 3, 1, 1, true)
        .pool("pool2", PoolFlavor::Max, 3, 2)
        .fc("fc1", 4096, true)
        .fc("fc2", 4096, true)
        .fc("fc3", 1000, false);
    b.build()
}

/// OverFeat (Sermanet et al. 2013; "fast" model, batch 256).
// pub: one of the six paper networks; `all_networks` is how callers reach it
pub fn overfeat() -> NetworkSpec {
    let mut b = SpecBuilder::new("OverFeat", 256, (3, 231, 231));
    b.conv("conv1", 96, 11, 4, 0, true)
        .pool("pool1", PoolFlavor::Max, 2, 2)
        .conv("conv2", 256, 5, 1, 0, true)
        .pool("pool2", PoolFlavor::Max, 2, 2)
        .conv("conv3", 512, 3, 1, 1, true)
        .conv("conv4", 1024, 3, 1, 1, true)
        .conv("conv5", 1024, 3, 1, 1, true)
        .pool("pool5", PoolFlavor::Max, 2, 2)
        .fc("fc6", 3072, true)
        .fc("fc7", 4096, true)
        .fc("fc8", 1000, false);
    b.build()
}

/// Network-in-Network (Lin et al. 2013; ImageNet variant, batch 128).
pub fn nin() -> NetworkSpec {
    let mut b = SpecBuilder::new("NiN", 128, (3, 224, 224));
    b.conv("conv1", 96, 11, 4, 0, true)
        .conv("cccp1", 96, 1, 1, 0, true)
        .conv("cccp2", 96, 1, 1, 0, true)
        .pool("pool1", PoolFlavor::Max, 3, 2)
        .conv("conv2", 256, 5, 1, 2, true)
        .conv("cccp3", 256, 1, 1, 0, true)
        .conv("cccp4", 256, 1, 1, 0, true)
        .pool("pool2", PoolFlavor::Max, 3, 2)
        .conv("conv3", 384, 3, 1, 1, true)
        .conv("cccp5", 384, 1, 1, 0, true)
        .conv("cccp6", 384, 1, 1, 0, true)
        .pool("pool3", PoolFlavor::Max, 3, 2)
        .conv("conv4", 1024, 3, 1, 1, true)
        .conv("cccp7", 1024, 1, 1, 0, true)
        .conv("cccp8", 1000, 1, 1, 0, true);
    let spatial = b.current().h;
    b.pool("pool4", PoolFlavor::Avg, spatial, 1);
    b.build()
}

/// VGG-16 (Simonyan & Zisserman 2015; batch 128 per Table I).
pub fn vgg() -> NetworkSpec {
    let mut b = SpecBuilder::new("VGG", 128, (3, 224, 224));
    b.conv("conv1_1", 64, 3, 1, 1, true)
        .conv("conv1_2", 64, 3, 1, 1, true)
        .pool("pool1", PoolFlavor::Max, 2, 2)
        .conv("conv2_1", 128, 3, 1, 1, true)
        .conv("conv2_2", 128, 3, 1, 1, true)
        .pool("pool2", PoolFlavor::Max, 2, 2)
        .conv("conv3_1", 256, 3, 1, 1, true)
        .conv("conv3_2", 256, 3, 1, 1, true)
        .conv("conv3_3", 256, 3, 1, 1, true)
        .pool("pool3", PoolFlavor::Max, 2, 2)
        .conv("conv4_1", 512, 3, 1, 1, true)
        .conv("conv4_2", 512, 3, 1, 1, true)
        .conv("conv4_3", 512, 3, 1, 1, true)
        .pool("pool4", PoolFlavor::Max, 2, 2)
        .conv("conv5_1", 512, 3, 1, 1, true)
        .conv("conv5_2", 512, 3, 1, 1, true)
        .conv("conv5_3", 512, 3, 1, 1, true)
        .pool("pool5", PoolFlavor::Max, 2, 2)
        .fc("fc6", 4096, true)
        .fc("fc7", 4096, true)
        .fc("fc8", 1000, false);
    b.build()
}

/// SqueezeNet v1.0 (Iandola et al. 2016; batch 512 per Table I).
pub fn squeezenet() -> NetworkSpec {
    let mut b = SpecBuilder::new("SqueezeNet", 512, (3, 227, 227));
    b.conv("conv1", 96, 7, 2, 0, true)
        .pool("pool1", PoolFlavor::Max, 3, 2)
        .fire("fire2", 16, 64, 64)
        .fire("fire3", 16, 64, 64)
        .fire("fire4", 32, 128, 128)
        .pool("pool4", PoolFlavor::Max, 3, 2)
        .fire("fire5", 32, 128, 128)
        .fire("fire6", 48, 192, 192)
        .fire("fire7", 48, 192, 192)
        .fire("fire8", 64, 256, 256)
        .pool("pool8", PoolFlavor::Max, 3, 2)
        .fire("fire9", 64, 256, 256)
        .conv("conv10", 1000, 1, 1, 0, true);
    let spatial = b.current().h;
    b.pool("pool10", PoolFlavor::Avg, spatial, 1);
    b.build()
}

/// GoogLeNet (Szegedy et al. 2015; batch 256 per Table I).
pub fn googlenet() -> NetworkSpec {
    let mut b = SpecBuilder::new("GoogLeNet", 256, (3, 224, 224));
    b.conv("conv1", 64, 7, 2, 3, true)
        .pool("pool1", PoolFlavor::Max, 3, 2)
        .lrn("norm1")
        .conv("conv2_reduce", 64, 1, 1, 0, true)
        .conv("conv2", 192, 3, 1, 1, true)
        .lrn("norm2")
        .pool("pool2", PoolFlavor::Max, 3, 2)
        .inception("inception_3a", 64, 96, 128, 16, 32, 32)
        .inception("inception_3b", 128, 128, 192, 32, 96, 64)
        .pool("pool3", PoolFlavor::Max, 3, 2)
        .inception("inception_4a", 192, 96, 208, 16, 48, 64)
        .inception("inception_4b", 160, 112, 224, 24, 64, 64)
        .inception("inception_4c", 128, 128, 256, 24, 64, 64)
        .inception("inception_4d", 112, 144, 288, 32, 64, 64)
        .inception("inception_4e", 256, 160, 320, 32, 128, 128)
        .pool("pool4", PoolFlavor::Max, 3, 2)
        .inception("inception_5a", 256, 160, 320, 32, 128, 128)
        .inception("inception_5b", 384, 192, 384, 48, 128, 128);
    let spatial = b.current().h;
    b.pool("pool5", PoolFlavor::Avg, spatial, 1)
        .fc("fc", 1000, false);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdma_tensor::Shape4;

    #[test]
    fn table_one_matches_paper() {
        assert_eq!(TABLE_ONE.len(), 6);
        assert_eq!(TABLE_ONE[0].network, "AlexNet");
        assert_eq!(TABLE_ONE[0].batch, 256);
        assert_eq!(TABLE_ONE[0].trained_kiter, 226);
        assert_eq!(TABLE_ONE[4].batch, 512); // SqueezeNet
        assert_eq!(TABLE_ONE[3].top5, 82.9); // VGG
    }

    #[test]
    fn batches_match_table_one() {
        for (spec, row) in all_networks().iter().zip(TABLE_ONE.iter()) {
            assert_eq!(spec.name(), row.network);
            assert_eq!(spec.batch(), row.batch, "{}", spec.name());
        }
    }

    #[test]
    fn alexnet_shapes_match_fig5() {
        // Figure 5 annotates the (C, H, W) of every displayed layer.
        let net = alexnet();
        let expect = [
            ("conv0", (96, 55, 55)),
            ("pool0", (96, 27, 27)),
            ("conv1", (256, 27, 27)),
            ("pool1", (256, 13, 13)),
            ("conv2", (384, 13, 13)),
            ("conv3", (384, 13, 13)),
            ("conv4", (256, 13, 13)),
            ("pool2", (256, 6, 6)),
            ("fc1", (4096, 1, 1)),
            ("fc2", (4096, 1, 1)),
        ];
        for (name, (c, h, w)) in expect {
            let l = net.layer(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(l.out, Shape4::new(1, c, h, w), "{name}");
        }
    }

    #[test]
    fn overfeat_shapes() {
        let net = overfeat();
        assert_eq!(net.layer("conv1").unwrap().out, Shape4::new(1, 96, 56, 56));
        assert_eq!(net.layer("pool1").unwrap().out, Shape4::new(1, 96, 28, 28));
        assert_eq!(net.layer("conv2").unwrap().out, Shape4::new(1, 256, 24, 24));
        assert_eq!(
            net.layer("conv5").unwrap().out,
            Shape4::new(1, 1024, 12, 12)
        );
        assert_eq!(net.layer("pool5").unwrap().out, Shape4::new(1, 1024, 6, 6));
    }

    #[test]
    fn nin_shapes() {
        let net = nin();
        assert_eq!(net.layer("conv1").unwrap().out, Shape4::new(1, 96, 54, 54));
        assert_eq!(net.layer("pool1").unwrap().out, Shape4::new(1, 96, 27, 27));
        assert_eq!(net.layer("conv2").unwrap().out, Shape4::new(1, 256, 27, 27));
        assert_eq!(net.layer("pool3").unwrap().out, Shape4::new(1, 384, 6, 6));
        assert_eq!(net.layer("cccp8").unwrap().out, Shape4::new(1, 1000, 6, 6));
        assert_eq!(net.layer("pool4").unwrap().out, Shape4::new(1, 1000, 1, 1));
    }

    #[test]
    fn vgg_shapes_halve_through_pools() {
        let net = vgg();
        assert_eq!(
            net.layer("conv1_2").unwrap().out,
            Shape4::new(1, 64, 224, 224)
        );
        assert_eq!(
            net.layer("pool1").unwrap().out,
            Shape4::new(1, 64, 112, 112)
        );
        assert_eq!(
            net.layer("conv3_3").unwrap().out,
            Shape4::new(1, 256, 56, 56)
        );
        assert_eq!(net.layer("pool5").unwrap().out, Shape4::new(1, 512, 7, 7));
        assert_eq!(net.layer("fc6").unwrap().out, Shape4::fc(1, 4096));
    }

    #[test]
    fn squeezenet_shapes() {
        let net = squeezenet();
        assert_eq!(
            net.layer("conv1").unwrap().out,
            Shape4::new(1, 96, 111, 111)
        );
        assert_eq!(net.layer("pool1").unwrap().out, Shape4::new(1, 96, 55, 55));
        assert_eq!(
            net.layer("fire2_expand").unwrap().out,
            Shape4::new(1, 128, 55, 55)
        );
        assert_eq!(
            net.layer("fire4_expand").unwrap().out,
            Shape4::new(1, 256, 55, 55)
        );
        assert_eq!(net.layer("pool4").unwrap().out, Shape4::new(1, 256, 27, 27));
        assert_eq!(
            net.layer("fire8_expand").unwrap().out,
            Shape4::new(1, 512, 27, 27)
        );
        assert_eq!(net.layer("pool8").unwrap().out, Shape4::new(1, 512, 13, 13));
        assert_eq!(
            net.layer("conv10").unwrap().out,
            Shape4::new(1, 1000, 13, 13)
        );
    }

    #[test]
    fn googlenet_shapes() {
        let net = googlenet();
        assert_eq!(
            net.layer("conv1").unwrap().out,
            Shape4::new(1, 64, 112, 112)
        );
        assert_eq!(net.layer("pool1").unwrap().out, Shape4::new(1, 64, 56, 56));
        assert_eq!(net.layer("conv2").unwrap().out, Shape4::new(1, 192, 56, 56));
        assert_eq!(net.layer("pool2").unwrap().out, Shape4::new(1, 192, 28, 28));
        assert_eq!(
            net.layer("inception_3a").unwrap().out,
            Shape4::new(1, 256, 28, 28)
        );
        assert_eq!(
            net.layer("inception_3b").unwrap().out,
            Shape4::new(1, 480, 28, 28)
        );
        assert_eq!(
            net.layer("inception_4e").unwrap().out,
            Shape4::new(1, 832, 14, 14)
        );
        assert_eq!(
            net.layer("inception_5b").unwrap().out,
            Shape4::new(1, 1024, 7, 7)
        );
        assert_eq!(net.layer("pool5").unwrap().out, Shape4::new(1, 1024, 1, 1));
    }

    #[test]
    fn vgg_has_the_largest_activation_footprint() {
        // VGG's 224x224 conv stacks dominate: the motivation for vDNN's
        // memory scalability and the network with the biggest PCIe traffic.
        let nets = all_networks();
        let vgg_bytes = nets[3].total_activation_bytes();
        for (i, n) in nets.iter().enumerate() {
            if i != 3 {
                // Per-image comparison (batches differ).
                assert!(
                    vgg_bytes / nets[3].batch() as u64
                        > n.total_activation_bytes() / n.batch() as u64,
                    "VGG should have the largest per-image activations vs {}",
                    n.name()
                );
            }
        }
    }

    #[test]
    fn flops_are_plausible() {
        // Published per-image forward FLOPs (approx): AlexNet ~1.5 GFLOP,
        // VGG-16 ~31 GFLOP, GoogLeNet ~3 GFLOP. Allow generous slack — our
        // specs fold ReLU/LRN costs differently.
        let per_image = |spec: &NetworkSpec| spec.forward_flops() as f64 / spec.batch() as f64;
        let nets = all_networks();
        let alex = per_image(&nets[0]);
        let vgg_f = per_image(&nets[3]);
        let goog = per_image(&nets[5]);
        assert!((1.0e9..3.0e9).contains(&alex), "AlexNet {alex:.2e}");
        assert!((25.0e9..40.0e9).contains(&vgg_f), "VGG {vgg_f:.2e}");
        assert!((2.0e9..5.0e9).contains(&goog), "GoogLeNet {goog:.2e}");
        // Relative ordering the paper's Fig. 3 relies on.
        assert!(vgg_f > 10.0 * alex);
    }
}
