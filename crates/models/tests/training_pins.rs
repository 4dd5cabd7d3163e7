//! Pins the first 20 training steps of `table1`'s two tiny networks in
//! bits: the same networks, seeds, data stream, batch and optimiser as
//! `cdma_core`'s `table1`, which trains them for 300 steps. Every loss was
//! recorded from the scalar layer loops the current kernels replaced, so a
//! rewrite of any layer that moves one bit of any forward or backward
//! result fails here.

use cdma_dnn::synthetic::SyntheticImages;
use cdma_dnn::{Sequential, Sgd, Trainer};
use cdma_models::tiny;

const STEPS: usize = 20;

/// The per-step minibatch losses (`f64::to_bits`) of `net`, trained as
/// `table1` trains it.
fn loss_bits(net: Sequential) -> Vec<u64> {
    let mut data = SyntheticImages::new(4, 1, 16, 21);
    let mut trainer = Trainer::new(net, Sgd::new(0.03, 0.9, 1e-4));
    (0..STEPS)
        .map(|_| {
            let (x, y) = data.batch(16);
            trainer.train_step(&x, &y).to_bits()
        })
        .collect()
}

#[test]
fn tiny_alexnet_losses_are_pinned() {
    assert_eq!(loss_bits(tiny::tiny_alexnet(4, 7)), TINY_ALEXNET);
}

#[test]
fn tiny_googlenet_losses_are_pinned() {
    assert_eq!(loss_bits(tiny::tiny_googlenet(4, 7)), TINY_GOOGLENET);
}

const TINY_ALEXNET: [u64; STEPS] = [
    0x4003_ec9a_1b93_4e84,
    0x3ff8_d999_8d30_d2bd,
    0x3ff7_3561_731c_abd6,
    0x3ffa_fdd3_633c_33ae,
    0x3ff4_2029_efbe_30dc,
    0x3ff5_d406_fce1_d4f5,
    0x3ff0_e392_38f3_e82a,
    0x3ff3_6b3b_08c6_a6fc,
    0x3ff2_598d_b703_7136,
    0x3ff0_ecc8_a210_ace8,
    0x3fed_dff3_9781_e266,
    0x3fed_d984_0e53_6639,
    0x3fe0_1817_fc9c_8ab9,
    0x3fe6_281e_c5f3_f21a,
    0x3fea_2ec5_d93e_3867,
    0x3fdf_fd4a_9e11_1dac,
    0x3fe7_83a9_60ce_d59a,
    0x3fe7_3c38_0756_3112,
    0x3fe3_ca60_1535_4e05,
    0x3fe5_3cd7_6e97_db86,
];

const TINY_GOOGLENET: [u64; STEPS] = [
    0x4008_b503_4a01_7f6d,
    0x4014_b8f8_48d8_58a1,
    0x4015_e303_100b_8ee8,
    0x4004_9be0_0a33_7ea8,
    0x3ff5_620b_8cf1_92fe,
    0x4001_4a48_4fa7_bb0a,
    0x3fee_295e_d31b_eda9,
    0x3ff3_9300_0dd5_239b,
    0x3ff3_7e74_3565_cf21,
    0x3ff1_5edc_f087_5b02,
    0x3ff0_4f32_38d8_4985,
    0x3fea_bcb7_652e_998a,
    0x3fed_6ce1_918a_84f7,
    0x3ff0_4de5_26de_c465,
    0x3fe7_d865_51a1_a579,
    0x3fdf_df32_3081_b301,
    0x3fe2_f9ea_9c42_bc97,
    0x3fe0_eeda_c220_1e4e,
    0x3fe0_bf79_1e97_5ade,
    0x3fd9_ae39_3ced_5869,
];
