//! Counting-allocator proof that the serving hot path allocates nothing
//! per request in the steady state.
//!
//! Two angles:
//!
//! * the **virtual driver**: total allocations must not scale with the
//!   number of requests served — quadrupling the schedule may only add
//!   the logarithmic cost of growing the arrival vector, never a
//!   per-request term;
//! * the **threaded server**: after a warm-up that sizes every pool,
//!   deque and completion vector, a submit → drain → recycle cycle must
//!   allocate exactly zero bytes, across all worker threads.
//!
//! The counters are process-wide but count only *armed* threads — the
//! test's own and the server's workers. libtest's main thread allocates
//! for its own bookkeeping whenever it likes, and "exactly zero" must
//! not depend on when that is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cdma_compress::Algorithm;
use cdma_serve::{
    fill_activations, run_virtual, DefaultKernel, JobKernel, OutputBufs, Request, Response, Server,
    ServerConfig, ServiceModel, TenantId, TenantLoad, TenantSpec,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const` and without
    /// a destructor, so reading it inside the allocator allocates nothing
    /// and is valid for the whole life of the thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Counts the calling thread's allocations from here on.
fn arm() {
    ARMED.with(|armed| armed.set(true));
}

/// [`DefaultKernel`] on an armed thread: the kernel runs on the worker,
/// so a worker is counted from its first job on.
struct ArmedKernel;

impl JobKernel for ArmedKernel {
    fn execute(&self, req: Request, window_elems: usize, bufs: OutputBufs) -> Response {
        arm();
        DefaultKernel.execute(req, window_elems, bufs)
    }
}

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

/// The two tests share the global counters; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn virtual_driver_allocations_do_not_scale_with_requests() {
    let _guard = SERIAL.lock().unwrap();
    arm();
    let loads = vec![TenantLoad::new(TenantSpec::new("t"), 200_000.0)];
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let run = |horizon: f64| {
        let before = allocs();
        let r = run_virtual(&cfg, &loads, horizon, 5, ServiceModel::default());
        (allocs() - before, r.total_completed())
    };
    // Prime once (lazy runtime bits, pool seeds), then measure a short
    // and a 4x run.
    run(0.005);
    let (short_allocs, short_done) = run(0.005);
    let (long_allocs, long_done) = run(0.02);
    assert!(long_done > 3 * short_done, "4x horizon serves ~4x requests");
    // The extra ~3000 requests may only cost vector doubling + report
    // formatting — a bounded constant, nothing per-request.
    let delta = long_allocs.saturating_sub(short_allocs);
    assert!(
        delta < 64,
        "serving {} extra requests allocated {delta} extra times",
        long_done - short_done
    );
}

#[test]
fn threaded_steady_state_allocates_zero_bytes_per_request() {
    let _guard = SERIAL.lock().unwrap();
    arm();
    let server = Server::start_with_kernel(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        vec![TenantSpec::new("t")],
        Arc::new(ArmedKernel),
    );
    let mut done: Vec<cdma_serve::Completion> = Vec::with_capacity(16);
    let mut words_pool: Vec<Vec<f32>> = vec![vec![0.0f32; 1024]];

    let mut cycle = |id: u64, server: &Server| {
        let mut words = words_pool.pop().unwrap_or_default();
        words.resize(1024, 0.0);
        fill_activations(id, 0.6, &mut words);
        let req = Request::compress(TenantId(0), id, Algorithm::Zvc, words);
        server.submit(req).expect("sequential load cannot shed");
        server.wait_drained();
        server.drain_completions(&mut done);
        for c in done.drain(..) {
            let (words, _bytes) = server.recycle(c.response);
            words_pool.push(words);
        }
    };

    // Warm-up: size the queues, deques, pools and compressed buffers.
    for id in 0..64 {
        cycle(id, &server);
    }
    let before = (allocs(), BYTES.load(Ordering::SeqCst));
    for id in 64..320 {
        cycle(id, &server);
    }
    let after = (allocs(), BYTES.load(Ordering::SeqCst));
    server.shutdown();
    assert_eq!(
        after, before,
        "steady-state serving must allocate zero bytes per request"
    );
}
