//! `InferKernel::traffic` against `InferKernel::execute`: the virtual-time
//! twin records a job's traffic through `traffic` alone, so its two
//! counts must be the ones `execute` reports — and `execute`'s own counts
//! must be the documented transfer, restated here from the response it
//! produced (CSC weights + ZVC'd inputs + raw outputs on the wire; dense
//! weights + raw inputs and outputs uncompressed).

use cdma_compress::{Algorithm, Compressor, Zvc};
use cdma_infer::{CscMatrix, InferKernel};
use cdma_serve::{
    fill_activations, DefaultKernel, JobKernel, OutputBufs, Request, Response, TenantId,
};

/// Rows differ from columns, so counting input words as outputs shows.
const ROWS: usize = 48;
const COLS: usize = 80;
const WINDOW: usize = 1024;

fn kernel() -> InferKernel {
    InferKernel::new(CscMatrix::synth(ROWS, COLS, 0.2, 5))
}

fn activations(len: usize, zero_density: f64, seed: u64) -> Vec<f32> {
    let mut words = vec![0.0f32; len];
    fill_activations(seed, zero_density, &mut words);
    words
}

fn bits(words: &[f32]) -> Vec<u32> {
    words.iter().map(|v| v.to_bits()).collect()
}

/// Runs `req` both ways and checks `traffic` against `execute`: the same
/// two counts, and the input words back unchanged. Returns `execute`'s
/// response.
fn both_ways(kernel: &dyn JobKernel, req: &Request) -> Response {
    let resp = kernel.execute(req.clone(), WINDOW, OutputBufs::default());
    let t = kernel.traffic(req.clone(), WINDOW, OutputBufs::default());
    assert_eq!(
        (t.uncompressed_bytes, t.wire_bytes),
        (resp.uncompressed_bytes, resp.wire_bytes),
        "request {} ({:?})",
        req.id,
        req.kind
    );
    assert_eq!(bits(&t.input_words), bits(&req.words), "request {}", req.id);
    resp
}

#[test]
fn traffic_equals_execute_over_batches_and_densities() {
    let k = kernel();
    let m = k.matrix();
    let mut id = 0;
    for batch in [1, 3, 32] {
        for zero_density in [0.0, 0.7, 1.0] {
            id += 1;
            let words = activations(batch * COLS, zero_density, id);
            let req = Request::infer(TenantId(0), id, Algorithm::Csc, words.clone(), ROWS as u32);
            let resp = both_ways(&k, &req);
            assert!(resp.error.is_none(), "batch {batch} at {zero_density}");
            assert_eq!(resp.words.len(), batch * ROWS);
            let outputs = (resp.words.len() * 4) as u64;
            assert_eq!(
                resp.uncompressed_bytes,
                m.dense_bytes() + (words.len() * 4) as u64 + outputs,
                "batch {batch} at {zero_density}"
            );
            assert_eq!(
                resp.wire_bytes,
                m.compressed_bytes() + Zvc::new().compressed_size(&words) as u64 + outputs,
                "batch {batch} at {zero_density}"
            );
        }
    }
}

#[test]
fn traffic_equals_execute_on_rejected_shapes() {
    let k = kernel();
    let wrong_elements = Request::infer(
        TenantId(0),
        1,
        Algorithm::Csc,
        activations(2 * COLS, 0.7, 1),
        ROWS as u32 + 1,
    );
    let ragged = Request::infer(
        TenantId(0),
        2,
        Algorithm::Csc,
        activations(2 * COLS + 3, 0.7, 2),
        ROWS as u32,
    );
    for req in [wrong_elements, ragged] {
        let resp = both_ways(&k, &req);
        assert!(resp.error.is_some(), "request {}", req.id);
        assert!(resp.words.is_empty());
        assert_eq!(resp.wire_bytes, 0, "a rejected job moves nothing");
        let batch = req.words.len() / COLS;
        assert_eq!(
            resp.uncompressed_bytes,
            k.matrix().dense_bytes() + (req.words.len() * 4 + batch * ROWS * 4) as u64
        );
    }
}

#[test]
fn stock_kinds_report_the_default_kernels_traffic() {
    let k = kernel();
    let words = activations(3000, 0.6, 9);
    let compress = Request::compress(TenantId(1), 3, Algorithm::Zvc, words.clone());
    let compressed = both_ways(&k, &compress);
    let want = both_ways(&DefaultKernel, &compress);
    assert_eq!(
        (compressed.uncompressed_bytes, compressed.wire_bytes),
        (want.uncompressed_bytes, want.wire_bytes)
    );
    assert_eq!(compressed.bytes, want.bytes);

    let window = compressed.offsets[1] as usize;
    let decompress = Request::decompress(
        TenantId(1),
        4,
        Algorithm::Zvc,
        compressed.bytes[..window].to_vec(),
        WINDOW as u32,
    );
    let recovered = both_ways(&k, &decompress);
    let want = both_ways(&DefaultKernel, &decompress);
    assert!(recovered.error.is_none());
    assert_eq!(bits(&recovered.words), bits(&words[..WINDOW]));
    assert_eq!(
        (recovered.uncompressed_bytes, recovered.wire_bytes),
        (want.uncompressed_bytes, want.wire_bytes)
    );
}
