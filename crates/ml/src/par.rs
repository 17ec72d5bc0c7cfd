//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! The workspace previously reached for rayon's parallel iterators in
//! three hot loops (per-row matvecs, per-client local SGD). The offline
//! build has no rayon, and the loops it parallelized are exactly the
//! ones the batched GEMM engine restructures — so the replacement is a
//! deliberately small fork/join layer: inputs are split into one
//! contiguous chunk per worker, each worker writes its own slice of the
//! output, and chunks are stitched back in index order. Scheduling can
//! never reorder results, so parallel runs are bit-identical to
//! sequential runs — a property the reproducibility tests assert.
//!
//! Every entry point degrades to a plain inline loop when the machine
//! has a single core or the input is too small to amortize a thread
//! spawn.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

thread_local! {
    /// Set while the current thread is executing inside one of this
    /// module's workers. Nested helpers then stay serial instead of
    /// spawning a second layer of threads over the same cores (e.g. a
    /// GEMM inside a per-client training task).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Scoped override installed by [`with_thread_limit`]: while set,
    /// [`max_threads`] reports this value instead of the host or
    /// environment limit. `0` means "no override".
    static THREAD_LIMIT: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with [`max_threads`] clamped to `limit` (at least 1) on the
/// *current* thread. Fleet runs (`bflharness --threads N`) and the
/// determinism tests use this to pick an explicit worker count,
/// whatever the host's core count, without touching global state;
/// worker threads spawned inside the scope observe the usual nesting
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

fn run_as_worker<T>(f: impl FnOnce() -> T) -> T {
    IN_WORKER.with(|flag| {
        let previous = flag.replace(true);
        let result = f();
        flag.set(previous);
        result
    })
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
/// for the GEMMs, multiply-adds for the triangle Gram kernel, gathered
/// values for the robust anchors — whatever tracks the job's cost.
/// Kernels use this to pick the plain serial core when the answer is 1,
/// keeping the hot loop free of any fork/join machinery.
pub fn plan_workers(work: usize, min_work_per_thread: usize) -> usize {
    max_threads().min(work / min_work_per_thread.max(1)).max(1)
}

/// Balanced split: chunk sizes differ by at most one.
fn chunk_len(total: usize, workers: usize, index: usize) -> std::ops::Range<usize> {
    let base = total / workers;
    let extra = total % workers;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..start + len
}

/// Maps `f` over `items` (with the item index), preserving order.
///
/// `min_per_thread` is the smallest number of items worth giving one
/// worker; below `2 * min_per_thread` the map runs inline.
pub fn par_map<T, U, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(
        items,
        min_per_thread,
        || (),
        |(), index, item| f(index, item),
    )
}

/// Like [`par_map`], but each worker first builds a reusable state with
/// `init` and threads it through every item of its chunk — the hook the
/// training engine uses to reuse one [`crate::tensor::Scratch`] across
/// all clients a worker processes. The calling thread is one of the
/// workers (it takes the last chunk, with its own `init()` state).
#[inline]
pub fn par_map_with<T, S, U, I, F>(items: &[T], min_per_thread: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let workers = plan_workers(items.len(), min_per_thread);
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| f(&mut state, index, item))
            .collect();
    }

    // One chunk per worker; the last runs on the calling thread, so a
    // `workers`-way fan-out spawns `workers - 1` threads.
    let run_chunk = |w: usize| {
        let range = chunk_len(items.len(), workers, w);
        run_as_worker(|| {
            let mut state = init();
            items[range.clone()]
                .iter()
                .zip(range)
                .map(|(item, index)| f(&mut state, index, item))
                .collect::<Vec<U>>()
        })
    };
    let mut results: Vec<Vec<U>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let run_chunk = &run_chunk;
        let handles: Vec<_> = (0..workers - 1)
            .map(|w| scope.spawn(move || run_chunk(w)))
            .collect();
        let last = run_chunk(workers - 1);
        for handle in handles {
            results.push(handle.join().expect("par_map worker panicked"));
        }
        results.push(last);
    });
    results.into_iter().flatten().collect()
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
    let rows = data.len() / row_len;
    let workers = plan_workers(rows, min_rows_per_thread);
    par_row_ranges_mut(
        data,
        row_len,
        workers,
        |w| chunk_len(rows, workers, w).start,
        f,
    );
}

/// [`par_rows_mut`] with the split chosen by the caller: worker `w` owns
/// rows `first_row(w)..first_row(w + 1)`, so `first_row` must be
/// non-decreasing with `first_row(0) == 0` and `first_row(workers)` the
/// row count. Jobs whose rows cost unequal amounts (the triangle Gram
/// kernel) pass a cost-balanced split here instead of an even one.
///
/// The last range runs on the calling thread, so a `workers`-way fan-out
/// spawns `workers - 1` threads and `workers == 1` spawns none.
#[inline]
pub fn par_row_ranges_mut<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    first_row: impl Fn(usize) -> usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    debug_assert_eq!(data.len() % row_len, 0);
    debug_assert_eq!(first_row(0), 0);
    debug_assert_eq!(first_row(workers.max(1)), data.len() / row_len);
    if workers <= 1 {
        f(0, data);
        return;
    }

    std::thread::scope(|scope| {
        let mut rest = data;
        for w in 0..workers - 1 {
            let start = first_row(w);
            let (chunk, tail) = rest.split_at_mut((first_row(w + 1) - start) * row_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || run_as_worker(|| f(start, chunk)));
        }
        run_as_worker(|| f(first_row(workers - 1), rest));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn par_map_with_reuses_state_within_a_worker() {
        let items: Vec<usize> = (0..40).collect();
        let out = par_map_with(
            &items,
            1,
            || 0usize,
            |calls, _, &item| {
                *calls += 1;
                (item, *calls)
            },
        );
        // Call counters grow monotonically inside each worker's chunk and
        // every item is present exactly once, in order.
        assert_eq!(out.len(), 40);
        for (i, (item, calls)) in out.iter().enumerate() {
            assert_eq!(*item, i);
            assert!(*calls >= 1);
        }
    }

    #[test]
    fn par_map_with_runs_the_last_chunk_on_the_calling_thread() {
        let items: Vec<usize> = (0..9).collect();
        let caller = std::thread::current().id();
        let (threads, inits) = with_thread_limit(3, || {
            let inits = std::sync::atomic::AtomicUsize::new(0);
            let threads = par_map_with(
                &items,
                1,
                || inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                |_, index, &item| {
                    assert_eq!(index, item);
                    // The caller's chunk is a worker like any other.
                    assert_eq!(max_threads(), 1);
                    std::thread::current().id()
                },
            );
            (threads, inits.into_inner())
        });
        assert_eq!(inits, 3, "one state per worker, the caller's included");
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
    fn par_row_ranges_mut_honours_an_uneven_split() {
        let rows = 11;
        let cols = 3;
        // Boundaries 0 | 1 | 1 | 7 | 11: one single-row range, one empty.
        let bounds = [0usize, 1, 1, 7, 11];
        let mut data = vec![0usize; rows * cols];
        par_row_ranges_mut(
            &mut data,
            cols,
            4,
            |w| bounds[w],
            |row_start, chunk| {
                assert!(bounds.contains(&row_start));
                for (r, row) in chunk.chunks_mut(cols).enumerate() {
                    row.fill(row_start + r + 1);
                }
            },
        );
        for (r, row) in data.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r + 1));
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
        let serial = with_thread_limit(1, || par_map(&items, 1, |_, &x| x * 7 + 1));
        for limit in [2, 4, 8] {
            let parallel = with_thread_limit(limit, || par_map(&items, 1, |_, &x| x * 7 + 1));
            assert_eq!(parallel, serial, "limit={limit}");
        }
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
