//! Data-parallel execution layer: deterministic row-chunked fan-out on
//! `std::thread::scope`, with zero external dependencies.
//!
//! # Determinism contract
//!
//! Every parallel routine in `cpsmon` is built on [`run_chunks`] (or, for
//! in-place updates of disjoint chunks, on [`for_each_mut`], which
//! `run_chunks` itself runs on). Both guarantee **bit-identical results for
//! every thread count**, including 1:
//!
//! 1. Work is split into chunks whose boundaries are a pure function of the
//!    input size and a *fixed* chunk size — never of the thread count.
//! 2. Each chunk is computed independently (workers pull chunks from a
//!    shared queue, so *scheduling* is nondeterministic, but no chunk's
//!    result depends on another's).
//! 3. Results are merged in ascending chunk order.
//!
//! Consequently `CPSMON_THREADS=1` and `CPSMON_THREADS=32` produce the same
//! bits, and the observable effect of the thread count is wall-clock time
//! only. Row-independent maps (forward passes, softmax, FGSM sign steps) are
//! additionally bit-identical to the *unchunked* computation; chunked
//! gradient *accumulation* regroups floating-point sums, so training results
//! are pinned to the fixed chunk grid rather than to the legacy whole-batch
//! grouping (batches of at most [`GRAD_CHUNK`] rows take the legacy
//! single-chunk path unchanged).
//!
//! The contract is independent of the kernel backend ([`crate::simd`]):
//! both the scalar and the AVX2+FMA kernels compute each output element as
//! a pure function of its mathematical inputs (strictly `k`-ascending
//! accumulation, position-invariant tails), so chunk boundaries stay
//! invisible under either backend — thread invariance and backend choice
//! compose orthogonally.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] reads the `CPSMON_THREADS` environment variable
//! (a positive integer; invalid values are ignored) and falls back to
//! [`std::thread::available_parallelism`]. Nested fan-outs run serially: a
//! worker thread that reaches another fan-out executes it inline,
//! so grid-level parallelism (robustness sweeps) composes with batch-level
//! parallelism (chunked prediction) without oversubscription.

use crate::matrix::Matrix;
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// Rows per chunk for parallel prediction (forward passes are
/// row-independent, so this affects scheduling granularity only).
pub const PREDICT_CHUNK: usize = 64;

/// Rows per chunk for parallel gradient accumulation. Gradients of batches
/// up to this size take the legacy single-chunk path bit-exactly.
pub const GRAD_CHUNK: usize = 64;

thread_local! {
    /// Set inside fan-out workers so nested fan-outs run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound on worker threads for the next fan-out: `CPSMON_THREADS` if
/// set to a positive integer, else the machine's available parallelism.
/// Returns 1 inside a parallel worker (nested fan-outs are serial).
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Ok(v) = std::env::var("CPSMON_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..n` into ranges of `chunk` items (the last may be shorter).
/// The boundaries depend only on `n` and `chunk` — see the module docs.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    if n == 0 {
        return Vec::new();
    }
    (0..n.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(n))
        .collect()
}

/// Runs `worker` over every chunk of `0..n` and returns the results in
/// ascending chunk order, regardless of which thread computed what.
///
/// With one chunk or one thread the workers run inline on the calling
/// thread, in order — the results are identical either way (see the module
/// docs for the determinism contract).
///
/// # Panics
///
/// Panics if `chunk == 0`, and re-raises any panic from `worker`.
pub fn run_chunks<T, F>(n: usize, chunk: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let mut jobs: Vec<(Range<usize>, Option<T>)> = chunk_ranges(n, chunk)
        .into_iter()
        .map(|r| (r, None))
        .collect();
    for_each_mut(&mut jobs, |_, (range, out)| {
        *out = Some(worker(range.clone()))
    });
    jobs.into_iter()
        .map(|(_, out)| out.expect("every chunk ran exactly once"))
        .collect()
}

/// Runs `worker(i, &mut items[i])` once for every item, fanning the items
/// out over up to [`max_threads`] scoped workers — the primitive for work
/// that updates disjoint chunks of a caller-owned buffer in place.
///
/// Workers claim items in ascending order from a shared queue, so
/// scheduling is nondeterministic, but each call sees only its own item:
/// as long as `worker` is a pure function of `(i, item)`, the result is
/// identical for every thread count. With one item, one thread, or inside
/// another fan-out's worker, the items run inline on the calling thread, in
/// order, and no thread is spawned.
///
/// # Panics
///
/// Re-raises any panic from `worker`.
pub fn for_each_mut<T, F>(items: &mut [T], worker: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    // A single item never fans out, so it skips the environment lookup.
    let threads = match items.len() {
        0 | 1 => 1,
        n => max_threads().min(n),
    };
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            worker(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    let (queue, worker) = (&queue, &worker);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        // The lock is released at the end of this
                        // statement, before the item runs.
                        let next = queue
                            .lock()
                            .expect("the queue lock guards only `next`, which cannot panic")
                            .next();
                        let Some((i, item)) = next else {
                            break;
                        };
                        worker(i, item);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

/// Applies a row-chunk transform to `x` in parallel and stacks the results.
///
/// `f` receives each chunk's row range within `x` plus the chunk itself and
/// must return a matrix with one output row per input row (column count may
/// differ but must agree across chunks). With a single chunk, `f` is called
/// directly on `x` without copying.
///
/// # Panics
///
/// Panics if `chunk == 0` or the chunk outputs disagree in shape.
pub fn map_rows<F>(x: &Matrix, chunk: usize, f: F) -> Matrix
where
    F: Fn(Range<usize>, &Matrix) -> Matrix + Sync,
{
    let n = x.rows();
    if n <= chunk {
        let out = f(0..n, x);
        assert_eq!(out.rows(), n, "map_rows output must keep the row count");
        return out;
    }
    let parts = run_chunks(n, chunk, |r| {
        let piece = x.slice_rows(r.start, r.end);
        let out = f(r.clone(), &piece);
        assert_eq!(
            out.rows(),
            r.len(),
            "map_rows output must keep the row count"
        );
        out
    });
    let cols = parts[0].cols();
    let mut out = Matrix::zeros(n, cols);
    let mut row = 0;
    for part in &parts {
        assert_eq!(
            part.cols(),
            cols,
            "map_rows chunk outputs disagree in width"
        );
        for r in 0..part.rows() {
            out.row_mut(row).copy_from_slice(part.row(r));
            row += 1;
        }
    }
    out
}

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Test helper: sets `CPSMON_THREADS` for the guard's lifetime and restores
/// the previous value on drop, holding a process-wide lock so concurrent
/// tests cannot race on the variable.
///
/// Results never depend on the thread count (that is the point of the
/// determinism contract), so a racing *reader* is harmless — the lock only
/// serializes tests that each want a specific setting.
pub struct ThreadsGuard {
    prev: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

impl ThreadsGuard {
    /// Pins the fan-out width to `n` threads until the guard is dropped.
    pub fn set(n: usize) -> Self {
        let lock = ENV_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let prev = std::env::var("CPSMON_THREADS").ok();
        std::env::set_var("CPSMON_THREADS", n.to_string());
        Self { prev, _lock: lock }
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match &self.prev {
            Some(v) => std::env::set_var("CPSMON_THREADS", v),
            None => std::env::remove_var("CPSMON_THREADS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(9, 4), vec![0..4, 4..8, 8..9]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = chunk_ranges(5, 0);
    }

    #[test]
    fn run_chunks_preserves_chunk_order() {
        let _guard = ThreadsGuard::set(4);
        let out = run_chunks(103, 10, |r| r.start);
        let expected: Vec<usize> = (0..11).map(|i| i * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn run_chunks_same_result_across_thread_counts() {
        let serial = {
            let _guard = ThreadsGuard::set(1);
            run_chunks(57, 8, |r| r.map(|i| i * i).sum::<usize>())
        };
        for threads in [2usize, 3, 8] {
            let _guard = ThreadsGuard::set(threads);
            assert_eq!(
                run_chunks(57, 8, |r| r.map(|i| i * i).sum::<usize>()),
                serial
            );
        }
    }

    #[test]
    fn nested_fanout_runs_serially() {
        let _guard = ThreadsGuard::set(4);
        let out = run_chunks(4, 1, |outer| {
            // Inside a worker, max_threads() must report 1 so that nested
            // run_chunks calls execute inline.
            assert_eq!(max_threads(), 1);
            run_chunks(3, 1, move |inner| outer.start * 10 + inner.start)
        });
        assert_eq!(
            out,
            vec![
                vec![0, 1, 2],
                vec![10, 11, 12],
                vec![20, 21, 22],
                vec![30, 31, 32]
            ]
        );
    }

    #[test]
    fn for_each_mut_updates_every_item_in_place() {
        for threads in [1usize, 2, 3, 8] {
            let _guard = ThreadsGuard::set(threads);
            let mut items = vec![0usize; 11];
            for_each_mut(&mut items, |i, v| *v = i * i + 1);
            let expected: Vec<usize> = (0..11).map(|i| i * i + 1).collect();
            assert_eq!(items, expected, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_mut_honours_max_threads() {
        let caller = std::thread::current().id();
        let workers_used = |threads: usize| {
            let _guard = ThreadsGuard::set(threads);
            let ids = Mutex::new(Vec::new());
            let mut items = vec![(); 16];
            for_each_mut(&mut items, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                ids.lock().unwrap().push(std::thread::current().id());
            });
            let mut ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 16, "every item runs once");
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            ids
        };
        assert_eq!(workers_used(1), vec![caller], "one thread runs inline");
        let two = workers_used(2);
        assert!(
            two.len() <= 2,
            "{} workers for max_threads() = 2",
            two.len()
        );
        assert!(!two.contains(&caller), "fan-out runs on scoped workers");
    }

    #[test]
    fn for_each_mut_nested_call_runs_inline() {
        let _guard = ThreadsGuard::set(4);
        let mut outer = vec![Vec::new(); 4];
        for_each_mut(&mut outer, |i, seen: &mut Vec<(usize, usize)>| {
            assert_eq!(max_threads(), 1);
            let me = std::thread::current().id();
            let mut inner = vec![(0usize, 0usize); 3];
            for_each_mut(&mut inner, |j, slot| {
                assert_eq!(
                    std::thread::current().id(),
                    me,
                    "nested item left the worker"
                );
                *slot = (i, j);
            });
            *seen = inner;
        });
        for (i, seen) in outer.iter().enumerate() {
            assert_eq!(seen, &vec![(i, 0), (i, 1), (i, 2)]);
        }
    }

    #[test]
    #[should_panic(expected = "item exploded")]
    fn for_each_mut_worker_panics_propagate() {
        let _guard = ThreadsGuard::set(2);
        let mut items = vec![0usize; 8];
        for_each_mut(&mut items, |i, v| {
            if i == 5 {
                panic!("item exploded");
            }
            *v = i;
        });
    }

    #[test]
    fn map_rows_matches_direct_apply() {
        let x = Matrix::from_vec(10, 3, (0..30).map(|v| v as f64).collect());
        let direct = x.map(|v| v * 2.0);
        let _guard = ThreadsGuard::set(3);
        let mapped = map_rows(&x, 4, |_, chunk| chunk.map(|v| v * 2.0));
        assert_eq!(mapped, direct);
    }

    #[test]
    fn map_rows_passes_global_ranges() {
        let x = Matrix::zeros(9, 2);
        let out = map_rows(&x, 4, |range, chunk| {
            let mut m = chunk.clone();
            for r in 0..m.rows() {
                m.set(r, 0, (range.start + r) as f64);
            }
            m
        });
        for r in 0..9 {
            assert_eq!(out.get(r, 0), r as f64);
        }
    }

    #[test]
    fn threads_guard_restores_previous_value() {
        std::env::remove_var("CPSMON_THREADS");
        {
            let _guard = ThreadsGuard::set(7);
            assert_eq!(max_threads(), 7);
        }
        assert!(std::env::var("CPSMON_THREADS").is_err());
    }

    #[test]
    fn invalid_env_value_is_ignored() {
        let _guard = ThreadsGuard::set(2);
        std::env::set_var("CPSMON_THREADS", "not-a-number");
        assert!(max_threads() >= 1);
        std::env::set_var("CPSMON_THREADS", "2");
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let _guard = ThreadsGuard::set(2);
        let _ = run_chunks(8, 1, |r| {
            if r.start == 5 {
                panic!("worker exploded");
            }
            r.start
        });
    }
}
