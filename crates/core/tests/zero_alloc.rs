//! Counting-allocator pin for the engine's hot paths, both directions.
//!
//! Offload: after the first call warms the scratch's stream buffers and
//! pipeline vectors, [`CdmaEngine::offload_into`] must allocate exactly
//! zero bytes per offload, where `memcpy_compressed` rebuilds its stream
//! and `DmaPipeline` on every call. The entropy
//! coders are held to the same bar: their code construction works in
//! stack arrays and their match tables and token list are per-thread
//! scratch, so a 4 KB window costs no allocation either.
//!
//! Prefetch: after one warm-up call, [`CdmaEngine::memcpy_decompressed_into`]
//! into a reused `Vec<f32>` must allocate nothing as well. The entropy
//! decoders build their tables in per-thread arrays, inflate into a
//! per-thread buffer and read `Huff`'s masks in place (`Huff` used to
//! make three allocations a window and `Zlib` a dozen).
//!
//! Output growth: the entropy encoders price a stream before they write
//! it, so a cold output vector is allocated once, at its final size, and
//! what a whole-tensor `Huff` call leaves with the thread is a chunk's
//! worth of scratch, not a copy of the tensor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use cdma_compress::{Algorithm, Compressor, Huff, Zlib};
use cdma_core::{CdmaEngine, OffloadScratch};
use cdma_gpusim::SystemConfig;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not freed yet.
static LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted: the test thread
    /// arms itself, so libtest's main thread, which allocates for its own
    /// bookkeeping whenever it likes, stays out of "exactly zero".
    /// `const` and without a destructor, so reading it inside the
    /// allocator allocates nothing and is valid for the whole life of the
    /// thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.with(Cell::get) {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// One test, one thread: the counters are process-wide, so the codecs
/// and the two directions take turns instead of running as parallel
/// tests.
#[test]
fn offload_and_prefetch_steady_state_allocate_nothing() {
    ARMED.with(|armed| armed.set(true));
    for alg in [
        Algorithm::Zvc,
        Algorithm::Rle,
        Algorithm::Huff,
        Algorithm::Zlib,
        Algorithm::Adaptive,
    ] {
        steady_state_allocates_nothing(CdmaEngine::new(SystemConfig::titan_x_pcie3(), alg));
    }
    cold_outputs_are_allocated_once();
    whole_tensor_huff_pins_a_chunk_not_the_tensor();
}

/// The encoders' scratch is warm (the engine ran them above); what is
/// left to allocate is the caller's output, in one piece.
fn cold_outputs_are_allocated_once() {
    let window: Vec<f32> = (0..1024)
        .map(|i| {
            if i % 7 < 3 {
                (i % 251) as f32 + 0.5
            } else {
                0.0
            }
        })
        .collect();
    let bytes: Vec<u8> = window.iter().flat_map(|v| v.to_le_bytes()).collect();
    let before = allocations().0;
    let hf = Huff::new().compress(&window);
    assert_eq!(allocations().0 - before, 1, "HF: a cold output grows once");
    let before = allocations().0;
    let zl = Zlib::new().compress_bytes(&bytes);
    assert_eq!(allocations().0 - before, 1, "ZL: a cold output grows once");
    assert!(hf.len() < bytes.len() && zl.len() < bytes.len());
}

fn whole_tensor_huff_pins_a_chunk_not_the_tensor() {
    /// `SCRATCH_KEEP` of `cdma_compress::deflate`: what a thread's codec
    /// scratch may hold on to between calls.
    const SCRATCH_KEEP: u64 = 64 * 1024;
    let tensor: Vec<f32> = (0..512 * 1024)
        .map(|i| {
            if i % 5 < 2 {
                (i % 97) as f32 - 3.5
            } else {
                0.0
            }
        })
        .collect();
    let live = LIVE.load(Ordering::SeqCst);
    let stream = Huff::new().compress(&tensor);
    assert!(stream.len() > 256 * 1024);
    drop(stream);
    let pinned = LIVE.load(Ordering::SeqCst).saturating_sub(live);
    assert!(
        pinned <= SCRATCH_KEEP,
        "HF: {pinned} bytes stay with the thread after a 2 MB tensor"
    );
}

fn allocations() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

fn steady_state_allocates_nothing(engine: CdmaEngine) {
    let label = engine.algorithm().label();
    let mut scratch = OffloadScratch::for_engine(&engine);
    // A layer-sized buffer, roughly half zeros (the paper's sweet spot),
    // with a dense last quarter so `Adaptive` runs its DEFLATE probe.
    let mut data = vec![0.0f32; 256 * 1024];
    for (i, v) in data.iter_mut().enumerate() {
        if i % 7 < 3 || i >= 192 * 1024 {
            *v = (i % 251) as f32 + 0.5;
        }
    }

    // Warm-up sizes the window stream and the pipeline's line vectors.
    let warm = engine.offload_into(&data, &mut scratch);

    let before = allocations();
    let mut last = warm;
    for _ in 0..32 {
        last = engine.offload_into(&data, &mut scratch);
    }
    assert_eq!(
        allocations(),
        before,
        "{label}: offload_into must allocate zero bytes per call after warm-up"
    );
    // And it keeps producing the same answer as the warm-up call.
    assert_eq!(warm.0, last.0);
    assert_eq!(warm.1.total_time, last.1.total_time);
    assert_eq!(warm.1.compressed_bytes, last.1.compressed_bytes);

    // The way back: the warm-up sizes the output buffer and this
    // thread's inflate buffer, and boxes its decode tables.
    let copy = engine.memcpy_compressed(&data);
    let mut out = Vec::new();
    engine.memcpy_decompressed_into(&copy, &mut out).unwrap();
    let before = allocations();
    for _ in 0..32 {
        engine.memcpy_decompressed_into(&copy, &mut out).unwrap();
    }
    assert_eq!(
        allocations(),
        before,
        "{label}: memcpy_decompressed_into must allocate zero bytes per call after warm-up"
    );
    assert!(
        out.iter()
            .zip(&data)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && out.len() == data.len(),
        "{label}: prefetch output differs from the input"
    );
}
