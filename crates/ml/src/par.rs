//! Deterministic data-parallel helpers over a pool of parked workers.
//!
//! The workspace previously reached for rayon's parallel iterators in
//! its hot loops (per-row products, per-client local SGD). The offline
//! build has no rayon, and the loops it parallelized are exactly the
//! ones the batched GEMM engine restructures — so the replacement is a
//! deliberately small fork/join layer: inputs are split into one
//! contiguous chunk per worker, each worker writes its own slice of the
//! output, and chunks are stitched back in index order. Scheduling can
//! never reorder results, so parallel runs are bit-identical to
//! sequential runs — a property the reproducibility tests assert.
//!
//! ## Parked workers
//!
//! Every thread that fans out owns a pool of helper threads. The pool is
//! built by the thread's first fan-out and grows whenever a later one
//! plans more workers ([`with_thread_limit`], `BFL_MAX_THREADS`); it never
//! shrinks. Between fan-outs a helper blocks on a condition variable — it
//! neither spins nor exits — so a fan-out hands its chunks to threads
//! that are already running: it spawns nothing and allocates nothing of
//! its own, and a helper's thread-locals stay warm from one fan-out to
//! the next. Those are the workspaces: the training and evaluation
//! [`crate::tensor::Scratch`], `bfl_crypto`'s signing workspace and its
//! verifier. A fan-out hands out items and nothing else; each chunk
//! borrows its own thread's workspaces where it needs them.
//! The calling thread runs the last chunk itself and then waits until
//! every helper has finished — also when its own chunk panics — so no
//! helper outlives what the fan-out lent it. A helper's panic is caught
//! there, the helper goes back to waiting, and the panic resumes on the
//! calling thread once every chunk is done. When the thread exits, its
//! helpers are told to exit too, and joined.
//!
//! Every entry point degrades to a plain inline loop when the machine
//! has a single core or the input is too small to be worth waking a
//! helper for.
//!
//! ## Row passes
//!
//! Algorithm 2 reads a committee's upload rows four times, and each read
//! fans out through [`par_split_mut`] / [`par_split_pair_mut`] once it
//! streams at least [`MIN_ROW_BYTES_PER_WORKER`] (2 MiB) a worker
//! ([`plan_row_pass`]) — on `pop1m_streaming`, a full 128-upload chunk
//! (8 MB) but not the seal's 32-upload partial chunk, and no committee of
//! the paper workloads (at most 51 uploads, 3.2 MB):
//! - the mean anchor and Equation 1's `Σ wᵢ·uᵢ`, materialized or
//!   streaming (all through `gradient::add_weighted_rows`), split by
//!   *column* range: each worker owns a slice of the output and adds
//!   every row into it in order, element by element;
//! - the anchor's step of the cluster search (`bfl-cluster`'s
//!   `dbscan_anchor_cluster`) and θ (`bfl-core`'s `analyze_contributions`)
//!   split by *row* range: each row's chains are its own.
//!
//! So none of them can move a bit at any worker count. They write into
//! the buffers the serial loop writes and allocate nothing of their own.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// Set while the current thread is executing inside one of this
    /// module's workers (for a helper, for its whole life). Nested
    /// helpers then stay serial instead of fanning a second layer out
    /// over the same cores (e.g. a GEMM inside a per-client training
    /// task).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Scoped override installed by [`with_thread_limit`]: while set,
    /// [`max_threads`] reports this value instead of the host or
    /// environment limit. `0` means "no override".
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };

    /// The helpers this thread's fan-outs hand their chunks to.
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Runs `f` with [`max_threads`] clamped to `limit` (at least 1) on the
/// *current* thread. Fleet runs (`bflharness --threads N`) and the
/// determinism tests use this to pick an explicit worker count,
/// whatever the host's core count, without touching global state;
/// helpers running chunks inside the scope observe the usual nesting
/// rule (they report 1), so the limit composes with — never overrides —
/// worker serialization.
pub fn with_thread_limit<T>(limit: usize, f: impl FnOnce() -> T) -> T {
    THREAD_LIMIT.with(|cell| {
        let previous = cell.replace(limit.max(1));
        let result = f();
        cell.set(previous);
        result
    })
}

/// Runs `f` as a worker: fan-outs inside it stay serial. The flag is
/// restored however `f` ends, unwinding included.
fn run_as_worker<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.set(self.0);
        }
    }
    let _restore = Restore(IN_WORKER.replace(true));
    f()
}

/// Number of worker threads the helpers will use at most. Cached:
/// `available_parallelism` is a syscall, and the kernels consult this on
/// every dispatch. Returns 1 inside an existing worker, so parallel
/// regions never nest. A [`with_thread_limit`] scope takes precedence;
/// otherwise the `BFL_MAX_THREADS` environment variable (read once)
/// *replaces* the host's core count — `BFL_MAX_THREADS=8` on two cores
/// is eight workers, which is how the CI determinism suites pin explicit
/// 1-, 2- and oversubscribed 8-thread runs.
///
/// # Panics
/// Panics at first use if `BFL_MAX_THREADS` is set to anything but a
/// positive integer: a mistyped pin must not pass for the default.
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let limit = THREAD_LIMIT.with(Cell::get);
    if limit > 0 {
        return limit;
    }
    static MAX_THREADS: OnceLock<usize> = OnceLock::new();
    *MAX_THREADS.get_or_init(|| {
        env_override("BFL_MAX_THREADS", parse_max_threads).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Reads the override variable `name` through its pure parser, panicking
/// with the parser's message on a value it rejects (a value that is not
/// UTF-8 reaches the parser with U+FFFD in it, which no accepted form
/// contains).
pub(crate) fn env_override<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var_os(name);
    let value = raw.as_deref().map(|value| value.to_string_lossy());
    parse(value.as_deref()).unwrap_or_else(|message| panic!("{message}"))
}

/// Reads a `BFL_MAX_THREADS` value: unset (`None`) leaves the choice to
/// the host, anything else must be a positive integer.
fn parse_max_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(workers) if workers > 0 => Ok(Some(workers)),
        _ => Err(format!(
            "BFL_MAX_THREADS={raw:?} is not a worker count: \
             leave it unset (the host's core count) or set a positive integer"
        )),
    }
}

/// Number of workers a job of `work` units would use, given the minimum
/// units worth handing one thread. The unit is the caller's: output rows
/// for the GEMMs, bytes of rows for a committee's row passes, items for
/// [`par_map`] — whatever tracks the job's cost.
/// Kernels use this to pick the plain serial core when the answer is 1,
/// keeping the hot loop free of any fork/join machinery.
pub fn plan_workers(work: usize, min_work_per_thread: usize) -> usize {
    max_threads().min(work / min_work_per_thread.max(1)).max(1)
}

/// Bytes of rows one worker must read before a pass over a committee's
/// rows fans out: 2 MiB, as much as one core's L2 on the x86-64 VMs this
/// was tuned on, so each worker streams from L3 or memory for about
/// 0.1 ms, against the ~11 µs of handing a chunk to a parked helper. A row pass runs at one core's stream rate
/// (the mean of 128 × 7850 rows, 8 MB: 0.38–0.44 ms on one core of a
/// 2-vCPU x86-64 VM, 0.23–0.25 ms on two).
pub const MIN_ROW_BYTES_PER_WORKER: usize = 2 << 20;

/// Workers for a pass that reads `rows` rows of `row_len` `f64`s once: one
/// per [`MIN_ROW_BYTES_PER_WORKER`], at most [`max_threads`], at least 1.
pub fn plan_row_pass(rows: usize, row_len: usize) -> usize {
    let bytes = rows
        .saturating_mul(row_len)
        .saturating_mul(std::mem::size_of::<f64>());
    plan_workers(bytes, MIN_ROW_BYTES_PER_WORKER)
}

/// Runs `f` over `workers` balanced contiguous chunks of `data` (the
/// chunk's first index, the chunk), in parallel; `workers <= 1` is one
/// inline call over all of `data`. Each worker owns its chunk, so a pass
/// whose elements are computed independently gives the same bits at any
/// worker count.
pub fn par_split_mut<T, F>(data: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    split_rows_mut(data, 1, workers, f);
}

/// [`par_split_mut`] over two equal-length slices split at the same
/// indices: `f` gets the chunk's first index and both chunks.
///
/// # Panics
/// Panics if the slices' lengths differ.
pub fn par_split_pair_mut<A, B, F>(a: &mut [A], b: &mut [B], workers: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a.len(), b.len(), "a paired split needs equal lengths");
    if workers <= 1 {
        f(0, a, b);
        return;
    }
    let len = a.len();
    let (a_items, b_items) = (Shared(a.as_mut_ptr()), Shared(b.as_mut_ptr()));
    fan_out(
        len,
        workers,
        |w| chunk_len(len, workers, w),
        &|range: Range<usize>| {
            // SAFETY: `fan_out` hands out disjoint ranges within `0..len`,
            // the length of both slices, so each chunk pair is a disjoint
            // part of `a` and of `b`.
            let (a_chunk, b_chunk) = unsafe {
                (
                    std::slice::from_raw_parts_mut(a_items.at(range.start), range.len()),
                    std::slice::from_raw_parts_mut(b_items.at(range.start), range.len()),
                )
            };
            f(range.start, a_chunk, b_chunk);
        },
    );
}

/// Balanced split: chunk sizes differ by at most one.
fn chunk_len(total: usize, workers: usize, index: usize) -> Range<usize> {
    let base = total / workers;
    let extra = total % workers;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..start + len
}

/// Maps `f` over `items` (with the item index), preserving order.
///
/// `min_per_thread` is the smallest number of items worth giving one
/// worker; below `2 * min_per_thread` the map runs inline. The calling
/// thread is one of the workers: it takes the last chunk. Each chunk
/// writes its results straight into their slots of the returned vector,
/// so the map's one allocation is that vector.
#[inline]
pub fn par_map<T, U, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = plan_workers(items.len(), min_per_thread);
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect();
    }

    let mut out: Vec<U> = Vec::with_capacity(items.len());
    let slots = Shared(out.as_mut_ptr());
    fan_out(
        items.len(),
        workers,
        |w| chunk_len(items.len(), workers, w),
        &|range: Range<usize>| {
            for index in range {
                let value = f(index, &items[index]);
                // SAFETY: `fan_out` hands out disjoint ranges within
                // `0..items.len()`, the capacity reserved above, so each
                // slot is written once, by one thread.
                unsafe { slots.at(index).write(value) };
            }
        },
    );
    // SAFETY: `fan_out` returned normally, so every chunk ran to the end
    // and the chunks' ranges cover `0..items.len()`. (A panicking chunk
    // unwinds through `fan_out` first; the slots already written then
    // leak instead of dropping, which is safe.)
    unsafe { out.set_len(items.len()) };
    out
}

/// Runs `f` over disjoint contiguous row-chunks of `data`, in parallel.
///
/// `data` is split along `row_len`-sized rows into one balanced chunk per
/// worker; `f` receives the starting row index and the mutable chunk.
/// Used by the GEMM kernels to parallelize over blocks of output rows.
#[inline]
pub fn par_rows_mut<T, F>(data: &mut [T], row_len: usize, min_rows_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    let workers = plan_workers(data.len() / row_len, min_rows_per_thread);
    split_rows_mut(data, row_len, workers, f);
}

/// Runs `f` over `workers` balanced contiguous chunks of `data`'s
/// `row_len`-element rows (the chunk's first row, the chunk). The last
/// chunk runs on the calling thread, so a `workers`-way fan-out wakes
/// `workers - 1` helpers and `workers <= 1` wakes none.
#[inline]
fn split_rows_mut<T, F>(data: &mut [T], row_len: usize, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(data.len() % row_len, 0);
    if workers <= 1 {
        f(0, data);
        return;
    }

    let rows = data.len() / row_len;
    let items = Shared(data.as_mut_ptr());
    fan_out(
        rows,
        workers,
        |w| chunk_len(rows, workers, w),
        &|range: Range<usize>| {
            // SAFETY: `fan_out` hands out disjoint row ranges within the
            // row count, so the chunks are disjoint slices of `data`.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(
                    items.at(range.start * row_len),
                    range.len() * row_len,
                )
            };
            f(range.start, chunk);
        },
    );
}

/// A pointer into a buffer that the chunks of one fan-out share, each
/// touching only its own disjoint part of it.
struct Shared<T>(*mut T);

// SAFETY: the chunks that share a `Shared` access disjoint elements
// (see its uses), so sharing it moves nothing but `T`s across threads.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn at(&self, offset: usize) -> *mut T {
        self.0.wrapping_add(offset)
    }
}

/// Splits `0..len` into `workers` contiguous ranges, `bounds(w)` being
/// worker `w`'s, and runs `chunk` on each: ranges `0..workers - 1` on
/// this thread's helpers, the last on this thread. Returns once every
/// chunk has finished, resuming a helper's panic if one panicked.
///
/// The ranges are computed here, on the calling thread, and each is
/// checked before any chunk sees it: it starts where the previous one
/// ended (the first at 0), does not run backwards, and stays within
/// `len`, which the last one ends at. So the chunks' ranges are disjoint
/// and cover `0..len` — what the callers' `unsafe` blocks rely on.
fn fan_out<F>(len: usize, workers: usize, bounds: impl Fn(usize) -> Range<usize>, chunk: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    /// A helper's way into `chunk`: `data` points at the closure.
    ///
    /// # Safety
    /// `data` must point at a live `F`.
    unsafe fn run<F: Fn(Range<usize>)>(data: *const (), range: Range<usize>) {
        // SAFETY: the caller's contract.
        unsafe { (*data.cast::<F>())(range) }
    }

    POOL.with_borrow_mut(|pool| {
        pool.grow_to(workers - 1);
        pool.latch.reset();
        // Whatever happens from here on — a chunk of this thread's that
        // panics, a split that fails its check — this thread leaves the
        // scope only after every helper given a chunk has finished it.
        let join = Join(&pool.latch);
        let mut end = 0;
        for w in 0..workers {
            let range = bounds(w);
            let last = w + 1 == workers;
            assert!(
                range.start == end
                    && range.start <= range.end
                    && range.end <= len
                    && (!last || range.end == len),
                "worker {w}'s range {range:?} does not continue the split of 0..{len} at {end}"
            );
            end = range.end;
            if !last {
                pool.latch.add();
                pool.helpers[w].start(Task {
                    run: run::<F>,
                    data: (chunk as *const F).cast(),
                    range,
                });
            } else {
                run_as_worker(|| chunk(range));
            }
        }
        drop(join);
        if let Some(payload) = pool.latch.take_panic() {
            panic::resume_unwind(payload);
        }
    });
}

/// Locks `mutex`; nothing panics while holding one of this module's
/// locks, so poisoning carries no meaning here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One chunk of a fan-out, type-erased for a helper: `run(data, range)`
/// calls the fan-out's chunk closure, which `data` points at.
struct Task {
    run: unsafe fn(*const (), Range<usize>),
    data: *const (),
    range: Range<usize>,
}

// SAFETY: a task crosses to a helper only inside `fan_out`, which does
// not return or unwind until that helper has finished with it, and the
// closure behind `data` is `Sync`.
unsafe impl Send for Task {}

/// What a helper is told to do next.
enum Command {
    Wait,
    Run(Task),
    Exit,
}

/// A parked helper thread's mailbox.
struct Helper {
    command: Mutex<Command>,
    wake: Condvar,
}

impl Helper {
    fn start(&self, task: Task) {
        *lock(&self.command) = Command::Run(task);
        self.wake.notify_one();
    }

    /// The helper thread's life: take a task, run it, report to `latch`,
    /// wait for the next — until told to exit.
    fn serve(&self, latch: &Latch) {
        IN_WORKER.set(true);
        loop {
            let task = {
                let mut command = lock(&self.command);
                loop {
                    match std::mem::replace(&mut *command, Command::Wait) {
                        Command::Run(task) => break task,
                        Command::Exit => return,
                        Command::Wait => {
                            command = self
                                .wake
                                .wait(command)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            let Task { run, data, range } = task;
            // SAFETY: see `Task`: the closure lives until `latch` hears
            // back from this helper.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| unsafe { run(data, range) }));
            latch.finish(outcome.err());
        }
    }
}

/// Counts a fan-out's outstanding helper chunks, and keeps the first
/// panic one of them raised.
#[derive(Default)]
struct Latch {
    state: Mutex<Outstanding>,
    done: Condvar,
}

#[derive(Default)]
struct Outstanding {
    chunks: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn reset(&self) {
        *lock(&self.state) = Outstanding::default();
    }

    fn add(&self) {
        lock(&self.state).chunks += 1;
    }

    fn finish(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock(&self.state);
        state.chunks -= 1;
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        if state.chunks == 0 {
            self.done.notify_one();
        }
    }

    fn wait(&self) {
        let mut state = lock(&self.state);
        while state.chunks > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.state).panic.take()
    }
}

/// Waits on the latch when dropped.
struct Join<'a>(&'a Latch);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// One thread's helpers, and the latch they report to (see the module
/// docs).
#[derive(Default)]
struct Pool {
    helpers: Vec<Arc<Helper>>,
    threads: Vec<JoinHandle<()>>,
    latch: Arc<Latch>,
}

impl Pool {
    fn grow_to(&mut self, helpers: usize) {
        while self.helpers.len() < helpers {
            let helper = Arc::new(Helper {
                command: Mutex::new(Command::Wait),
                wake: Condvar::new(),
            });
            let (mine, latch) = (Arc::clone(&helper), Arc::clone(&self.latch));
            self.threads
                .push(std::thread::spawn(move || mine.serve(&latch)));
            self.helpers.push(helper);
        }
    }
}

impl Drop for Pool {
    /// Tells every helper to exit and joins it. A helper catches its
    /// chunks' panics, so its thread ends cleanly; a join error is
    /// ignored rather than raised from a destructor.
    fn drop(&mut self) {
        for helper in &self.helpers {
            *lock(&helper.command) = Command::Exit;
            helper.wake.notify_one();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn max_threads_override_is_unset_or_a_positive_integer() {
        assert_eq!(parse_max_threads(None), Ok(None));
        assert_eq!(parse_max_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_max_threads(Some("8")), Ok(Some(8)));
        assert_eq!(parse_max_threads(Some(" 2 ")), Ok(Some(2)));
        for bad in ["", "0", "two", "1x", "-1", "2.0", "\u{fffd}"] {
            let message = parse_max_threads(Some(bad)).unwrap_err();
            assert!(message.contains("BFL_MAX_THREADS"), "{message}");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
            assert!(message.contains("positive integer"), "{message}");
        }
    }

    #[test]
    fn par_map_preserves_order_and_indices() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map(&items, 1, |index, &item| {
            assert_eq!(index, item);
            item * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, 1, |_, &x| x).is_empty());
    }

    #[test]
    fn par_map_runs_the_last_chunk_on_the_calling_thread() {
        let items: Vec<usize> = (0..9).collect();
        let caller = std::thread::current().id();
        let threads = with_thread_limit(3, || {
            par_map(&items, 1, |index, &item| {
                assert_eq!(index, item);
                // The caller's chunk is a worker like any other.
                assert_eq!(max_threads(), 1);
                std::thread::current().id()
            })
        });
        assert!(threads[..6].iter().all(|&id| id != caller));
        assert!(threads[6..].iter().all(|&id| id == caller));
        // The caller stops being a worker when its chunk is done.
        with_thread_limit(3, || assert_eq!(max_threads(), 3));
    }

    #[test]
    fn nested_parallel_regions_stay_serial() {
        let items: Vec<usize> = (0..8).collect();
        // From inside a worker, further fan-out must collapse to 1.
        let out = par_map(&items, 1, |_, _| max_threads());
        // On a single-core host the map runs inline and max_threads is
        // the host limit; with real workers every one must observe 1.
        if max_threads() > 1 {
            assert!(out.iter().all(|&threads| threads == 1));
        }
        assert_eq!(out.len(), items.len());
    }

    #[test]
    fn par_rows_mut_covers_every_row_once() {
        let rows = 23;
        let cols = 5;
        let mut data = vec![0.0f64; rows * cols];
        par_rows_mut(&mut data, cols, 1, |row_start, chunk| {
            for (r, row) in chunk.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (row_start + r) as f64;
                }
            }
        });
        for (r, row) in data.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r as f64));
        }
    }

    #[test]
    fn fan_out_refuses_a_backwards_split_before_handing_it_out() {
        // Worker 1's range runs from 7 back to 1: the split is refused,
        // and only worker 0's range was handed out before the check.
        let bounds = [0usize, 7, 1, 11];
        let touched = AtomicUsize::new(0);
        let chunk = |range: Range<usize>| {
            touched.fetch_add(range.len(), Ordering::Relaxed);
        };
        let refused = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(11, 3, |w| bounds[w]..bounds[w + 1], &chunk)
        }));
        assert!(refused.is_err());
        assert!(touched.into_inner() <= 7);
    }

    #[test]
    fn balanced_splits_cover_every_index_once_at_any_worker_count() {
        for len in [0usize, 1, 7, 23] {
            for workers in 1..=9 {
                let mut single = vec![0usize; len];
                par_split_mut(&mut single, workers, |first, chunk| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot += first + i + 1;
                    }
                });
                let (mut a, mut b) = (vec![0usize; len], vec![0i64; len]);
                par_split_pair_mut(&mut a, &mut b, workers, |first, a, b| {
                    assert_eq!(a.len(), b.len());
                    for (i, (x, y)) in a.iter_mut().zip(b).enumerate() {
                        *x += first + i + 1;
                        *y -= (first + i + 1) as i64;
                    }
                });
                let want: Vec<usize> = (1..=len).collect();
                assert_eq!((&single, &a), (&want, &want), "{len} over {workers}");
                assert!(b.iter().zip(&want).all(|(&y, &w)| y == -(w as i64)));
            }
        }
    }

    #[test]
    fn thread_limit_scopes_nest_and_restore() {
        let host = max_threads();
        with_thread_limit(4, || {
            assert_eq!(max_threads(), 4);
            with_thread_limit(2, || assert_eq!(max_threads(), 2));
            assert_eq!(max_threads(), 4);
            // The clamp floors at one thread.
            with_thread_limit(0, || assert_eq!(max_threads(), 1));
        });
        assert_eq!(max_threads(), host);
    }

    #[test]
    fn thread_limit_changes_fanout_but_not_results() {
        let items: Vec<usize> = (0..64).collect();
        let map = || par_map(&items, 1, |_, &x| x * 7 + 1);
        let rows = || {
            let mut data = vec![0usize; 64 * 3];
            par_rows_mut(&mut data, 3, 1, |first, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    row.fill((first + r) * 5);
                }
            });
            data
        };
        let serial = (map(), rows());
        assert_eq!(serial.0, (0..64).map(|x| x * 7 + 1).collect::<Vec<_>>());
        for limit in [1, 2, 3, 8] {
            let parallel = with_thread_limit(limit, || (map(), rows()));
            assert_eq!(parallel, serial, "limit={limit}");
        }
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_after_the_other_chunks_and_the_pool_serves_on() {
        let items: Vec<usize> = (0..3).collect();
        for culprit in [0, 2] {
            // Chunk `culprit` panics (0 on a helper, 2 on the caller);
            // chunk 1 cannot finish before the culprit has started to
            // panic, and must be over before the panic lands.
            let culprit_reached = Barrier::new(2);
            let slow_done = AtomicBool::new(false);
            let caught = with_thread_limit(3, || {
                panic::catch_unwind(AssertUnwindSafe(|| {
                    par_map(&items, 1, |index, _| {
                        if index == 1 || index == culprit {
                            culprit_reached.wait();
                        }
                        if index == culprit {
                            panic!("chunk {culprit} fails");
                        }
                        if index == 1 {
                            slow_done.store(true, Ordering::SeqCst);
                        }
                        index
                    })
                }))
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("chunk {culprit} fails").as_str())
            );
            assert!(slow_done.load(Ordering::SeqCst), "culprit {culprit}");
            // The caller is no worker once the fan-out is over, however
            // its own chunk ended.
            with_thread_limit(3, || assert_eq!(max_threads(), 3));
            // The same helpers take the next fan-out.
            let next = with_thread_limit(3, || par_map(&items, 1, |index, _| index * 2));
            assert_eq!(next, [0, 2, 4]);
        }
    }

    #[test]
    fn the_pool_grows_to_the_planned_workers_and_keeps_them() {
        // A fresh thread, so the pool under test starts empty.
        std::thread::spawn(|| {
            let helpers = || POOL.with_borrow(|pool| pool.helpers.len());
            let threads = |limit: usize| {
                let items: Vec<usize> = (0..32).collect();
                let ids = with_thread_limit(limit, || {
                    par_map(&items, 1, |_, _| std::thread::current().id())
                });
                let distinct: std::collections::HashSet<_> = ids.iter().collect();
                let distinct = distinct.len();
                (ids, distinct)
            };
            assert_eq!(helpers(), 0);
            let (first, two) = threads(2);
            assert_eq!((two, helpers()), (2, 1));
            let (_, eight) = threads(8);
            assert_eq!((eight, helpers()), (8, 7));
            // Fewer workers reuse the first helpers; the pool never
            // shrinks.
            let (again, _) = threads(2);
            assert_eq!(helpers(), 7);
            assert_eq!(again[..16], first[..16], "helper 0 takes chunk 0 again");
        })
        .join()
        .expect("pool thread");
    }

    #[test]
    fn chunk_partition_is_balanced_and_complete() {
        for total in [0usize, 1, 7, 16, 23] {
            for workers in 1..=5usize {
                let mut covered = 0;
                let mut previous_end = 0;
                for w in 0..workers {
                    let range = chunk_len(total, workers, w);
                    assert_eq!(range.start, previous_end);
                    previous_end = range.end;
                    covered += range.len();
                }
                assert_eq!(covered, total);
                assert_eq!(previous_end, total);
            }
        }
    }
}
