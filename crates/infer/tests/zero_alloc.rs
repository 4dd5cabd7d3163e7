//! Counting-allocator proof that a warm [`InferKernel`] allocates
//! nothing per request: the result is written once into the recycled
//! output buffer and the batched walk's scratch (active list,
//! accumulators) belongs to the thread, not the request.
//!
//! Same method as `crates/serve/tests/zero_alloc.rs`: the counters are
//! process-wide but count only *armed* threads, so libtest's main
//! thread cannot decide "exactly zero".

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use cdma_compress::Algorithm;
use cdma_infer::{CscMatrix, InferKernel};
use cdma_serve::{fill_activations, JobKernel, OutputBufs, Request, TenantId};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const` and without
    /// a destructor, so reading it inside the allocator allocates nothing
    /// and is valid for the whole life of the thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract the caller already upholds; the counting beside it reads a
// `const` thread-local and two atomics and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn warm_batched_requests_allocate_zero_bytes() {
    // `fig_inference`'s batched serving phase: 1024 x 1024 at 10%
    // weights, 32 vectors a request at 70% zero activations.
    let (rows, cols, batch) = (1024, 1024, 32);
    let kernel = InferKernel::new(CscMatrix::synth(rows, cols, 0.1, 42));
    let mut words = vec![0.0f32; batch * cols];
    let mut bufs = OutputBufs::default();
    let request = |id: u64, mut words: Vec<f32>, bufs: OutputBufs| {
        fill_activations(id, 0.7, &mut words);
        let req = Request::infer(TenantId(0), id, Algorithm::Csc, words, rows as u32);
        let resp = kernel.execute(req, 1024, bufs);
        assert!(resp.error.is_none());
        assert_eq!(resp.words.len(), batch * rows);
        // Recycle as the drivers do: input back to the submitter, output
        // buffers back to the kernel.
        (
            resp.input_words,
            OutputBufs {
                bytes: resp.bytes,
                offsets: resp.offsets,
                words: resp.words,
            },
        )
    };

    ARMED.with(|armed| armed.set(true));
    // Warm-up: sizes the output buffer and this thread's scratch.
    (words, bufs) = request(0, words, bufs);
    let before = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    for id in 1..=100 {
        (words, bufs) = request(id, words, bufs);
    }
    let after = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    assert_eq!(
        after, before,
        "a warm batch-32 request must allocate zero bytes"
    );
}
