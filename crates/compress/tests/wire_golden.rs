//! Golden digests of the entropy coders' *output*.
//!
//! `deflate_interop.rs` pins that every stream decodes; nothing there pins
//! which stream the encoder picks. These constants do: a 64-bit FNV-1a
//! digest and the byte length of `Huff`, `Zlib` and `Adaptive` streams over
//! seeded activation tensors at three densities, whole-tensor and as 4 KB
//! windows, plus `Zlib` at the two ends of its chain-depth knob. An
//! encoder change that is meant to be invisible on the wire (a faster
//! code-length construction, a reused match table) must leave every line
//! of [`GOLDEN`] alone.

use cdma_compress::windowed::{WindowedStream, DEFAULT_WINDOW_BYTES};
use cdma_compress::{Adaptive, Compressor, Huff, Zlib};
use cdma_sparsity::ActivationGen;
use cdma_tensor::{Layout, Shape4};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// 36 K words (144 KB): 36 windows, the last tensor bytes well past the
/// 32 KB LZ77 window so whole-tensor streams exercise far matches.
fn tensor(density: f64) -> Vec<f32> {
    ActivationGen::seeded(12 + (density * 100.0) as u64)
        .generate(Shape4::new(1, 16, 48, 48), Layout::Nchw, density)
        .into_vec()
}

/// The paper's sparse end, its network average, a dense window mix (the
/// only one where `Adaptive` keeps DEFLATE probes of real values) and
/// fully dense — which `ActivationGen` renders as a constant tensor, so
/// that row pins the long-run/258-byte-match path.
const DENSITIES: [f64; 4] = [0.05, 0.38, 0.75, 1.0];

/// `(codec, density, layout) -> (digest, stream length)`.
const GOLDEN: &[(&str, f64, &str, u64, usize)] = &[
    ("HF", 0.05, "whole", 0x10E1FA5C52751F4E, 11228),
    ("HF", 0.05, "windowed", 0xC9BBBC8A7CC688DB, 11915),
    ("ZL", 0.05, "whole", 0x69A9A8D2EE8ABC15, 7371),
    ("ZL", 0.05, "windowed", 0x42E8ED84F88FEF5C, 8162),
    ("ZL/chain=1", 0.05, "whole", 0xD88E41D3D59E3653, 7380),
    ("ZL/chain=1", 0.05, "windowed", 0x24469C8A7834D929, 8168),
    ("ZL/chain=256", 0.05, "whole", 0x716057A125E656FF, 7353),
    ("ZL/chain=256", 0.05, "windowed", 0x26FABDDEAC505FA4, 8123),
    ("AD", 0.05, "whole", 0xED74378D4A77ACA7, 7652),
    ("AD", 0.05, "windowed", 0xED74378D4A77ACA7, 7652),
    ("HF", 0.38, "whole", 0x8B931443D976FFAF, 55489),
    ("HF", 0.38, "windowed", 0x6CED06B48D158EBB, 58160),
    ("ZL", 0.38, "whole", 0x16D818CE8F4F29A2, 54946),
    ("ZL", 0.38, "windowed", 0xABAD9A929379317B, 55757),
    ("ZL/chain=1", 0.38, "whole", 0xB276B3EE9C026523, 55205),
    ("ZL/chain=1", 0.38, "windowed", 0x22013C59C0693C9D, 56020),
    ("ZL/chain=256", 0.38, "whole", 0x4A9B0610D416C18D, 54901),
    ("ZL/chain=256", 0.38, "windowed", 0x9925B804EB436AB8, 55749),
    ("AD", 0.38, "whole", 0x0C6BB604C3EC9249, 55744),
    ("AD", 0.38, "windowed", 0x0C6BB604C3EC9249, 55744),
    ("HF", 0.75, "whole", 0x8686E0F231BEC4A2, 104460),
    ("HF", 0.75, "windowed", 0x0458A80B969705C1, 106782),
    ("ZL", 0.75, "whole", 0x3EF06F0ECC8F76A8, 109046),
    ("ZL", 0.75, "windowed", 0xF8F2ED89F2294816, 109244),
    ("ZL/chain=1", 0.75, "whole", 0x90424AC0898A099E, 109870),
    ("ZL/chain=1", 0.75, "windowed", 0xCB745AD50F7626B8, 109936),
    ("ZL/chain=256", 0.75, "whole", 0xF60B307608B9DAAC, 108934),
    ("ZL/chain=256", 0.75, "windowed", 0x2833A701C859476F, 109239),
    ("AD", 0.75, "whole", 0x855D29949968AE1E, 108980),
    ("AD", 0.75, "windowed", 0x855D29949968AE1E, 108980),
    ("HF", 1.0, "whole", 0xC8970C03EFCBED86, 32384),
    ("HF", 1.0, "windowed", 0x158275ED6FE89CA5, 36864),
    ("ZL", 1.0, "whole", 0x26D72E479379D8F4, 168),
    ("ZL", 1.0, "windowed", 0xE0E4EB4BF9601761, 1044),
    ("ZL/chain=1", 1.0, "whole", 0x26D72E479379D8F4, 168),
    ("ZL/chain=1", 1.0, "windowed", 0xE0E4EB4BF9601761, 1044),
    ("ZL/chain=256", 1.0, "whole", 0x26D72E479379D8F4, 168),
    ("ZL/chain=256", 1.0, "windowed", 0xE0E4EB4BF9601761, 1044),
    ("AD", 1.0, "whole", 0xAC63D460B1153F9D, 1080),
    ("AD", 1.0, "windowed", 0xAC63D460B1153F9D, 1080),
];

#[test]
fn encoder_streams_match_the_recorded_digests() {
    let codecs: [(&str, Box<dyn Compressor>); 5] = [
        ("HF", Box::new(Huff::new())),
        ("ZL", Box::new(Zlib::new())),
        ("ZL/chain=1", Box::new(Zlib::with_chain_depth(1))),
        ("ZL/chain=256", Box::new(Zlib::with_chain_depth(256))),
        ("AD", Box::new(Adaptive::new())),
    ];
    let mut seen = Vec::new();
    for density in DENSITIES {
        let data = tensor(density);
        for (label, codec) in &codecs {
            let whole = codec.compress(&data);
            let windowed = WindowedStream::compress(codec.as_ref(), &data, DEFAULT_WINDOW_BYTES);
            assert_eq!(
                windowed.decompress(codec.as_ref()).unwrap().len(),
                data.len()
            );
            seen.push((*label, density, "whole", fnv1a(&whole), whole.len()));
            seen.push((
                *label,
                density,
                "windowed",
                fnv1a(windowed.as_bytes()),
                windowed.compressed_bytes(),
            ));
        }
    }
    // On a mismatch the whole table is printed in source form, so an
    // intended wire change is re-recorded by pasting it over `GOLDEN`.
    let table: String = seen
        .iter()
        .map(|(label, d, layout, digest, len)| {
            format!("    ({label:?}, {d:?}, {layout:?}, {digest:#018X}, {len}),\n")
        })
        .collect();
    assert!(
        seen == GOLDEN,
        "encoder output changed on the wire; the streams now digest to:\n{table}"
    );
}
