//! The chunked work-stealing scheduler.
//!
//! Work is split into fixed chunks of consecutive indices; idle workers
//! steal the next unclaimed chunk from a shared atomic cursor. Two
//! invariants make every run bit-reproducible regardless of thread
//! count:
//!
//! 1. **Chunk geometry depends only on `n`** (see [`chunk_len`]), never
//!    on the number of workers — so the same population always splits
//!    at the same boundaries.
//! 2. **Results are committed by index**: [`par_map_indexed`] writes
//!    item `i`'s result to slot `i`, and [`par_fold_chunked`] merges
//!    per-chunk accumulators in ascending chunk order on the calling
//!    thread — so the scheduling race never reaches the output.
//!
//! Item closures must be pure functions of the index (feed them
//! pre-forked RNG seeds, not a shared stream) — the engine guarantees
//! *where* results land and *in what order* they merge, the closure
//! must guarantee *what* they are.

use crate::cancel::{Cancelled, Progress};
use crate::config::ExecConfig;
use crate::ExecHooks;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Why a committing fold stopped before the last chunk.
#[derive(Debug, PartialEq, Eq)]
pub enum FoldError<E> {
    /// The hook's [`crate::CancelToken`] fired; already-committed
    /// chunks keep whatever side effects `on_commit` produced.
    Cancelled,
    /// The `on_commit` callback itself failed (e.g. a checkpoint write
    /// hit a full disk); the run aborts at that commit boundary.
    Commit(E),
}

impl<E> From<Cancelled> for FoldError<E> {
    fn from(_: Cancelled) -> Self {
        FoldError::Cancelled
    }
}

impl<E: std::fmt::Display> std::fmt::Display for FoldError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::Cancelled => write!(f, "run cancelled"),
            FoldError::Commit(e) => write!(f, "commit failed: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for FoldError<E> {}

/// The chunk length used for a population of `n` items.
///
/// A pure function of `n` only — **never** of the worker count — so
/// chunk boundaries (and therefore merge order and accumulator
/// groupings) are identical for any `jobs`. The shape aims for ~64
/// chunks (plenty of stealing granularity for any realistic core
/// count) while capping chunk size so huge populations still report
/// progress and observe cancellation promptly.
pub fn chunk_len(n: usize) -> usize {
    n.div_ceil(64).clamp(1, 2048)
}

/// Number of chunks a population of `n` items splits into.
pub fn chunk_count(n: usize) -> usize {
    n.div_ceil(chunk_len(n))
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` for any thread count,
/// including 1 — the scheduler only changes *when* each index runs,
/// never which slot its result lands in.
///
/// # Panics
///
/// Propagates a panic from `f` (the run finishes or aborts its other
/// chunks first).
pub fn par_map_indexed<T, F>(cfg: &ExecConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_par_map_indexed(cfg, n, &ExecHooks::default(), f)
        .expect("uncancellable run cannot be cancelled")
}

/// [`par_map_indexed`] with cancellation and progress hooks.
///
/// # Errors
///
/// Returns [`Cancelled`] if the hook's token fires before every chunk
/// completes; already-finished chunks are discarded.
pub fn try_par_map_indexed<T, F>(
    cfg: &ExecConfig,
    n: usize,
    hooks: &ExecHooks<'_>,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_par_fold_commit(
        cfg,
        n,
        0,
        hooks,
        Vec::new,
        Vec::with_capacity(n),
        |part: &mut Vec<T>, range| part.extend(range.map(&f)),
        |out, part| out.extend(part),
        no_commit,
    )
    .map_err(infallible_commit)
}

/// The no-op commit used when an entry point has no checkpoint sink.
#[allow(clippy::unnecessary_wraps)]
fn no_commit<A>(_: usize, _: &A) -> Result<(), std::convert::Infallible> {
    Ok(())
}

/// Collapses the impossible `Commit` arm of a no-op-commit run.
fn infallible_commit(e: FoldError<std::convert::Infallible>) -> Cancelled {
    match e {
        FoldError::Cancelled => Cancelled,
        FoldError::Commit(never) => match never {},
    }
}

/// Folds `0..n` through per-chunk accumulators, merging them in
/// ascending chunk order.
///
/// Each chunk folds its indices (in order) into a fresh accumulator
/// from `init`; the caller's thread then reduces the per-chunk
/// accumulators with `merge`, always in chunk order. Because chunk
/// geometry is fixed by [`chunk_len`], the exact sequence of `fold` and
/// `merge` applications — and therefore every floating-point rounding —
/// is identical for any worker count. This is the summary-only path:
/// memory is `O(chunks × accumulator)`, never `O(n)`.
pub fn par_fold_chunked<A, I, F, M>(cfg: &ExecConfig, n: usize, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
    M: Fn(&mut A, A),
{
    try_par_fold_chunked(cfg, n, &ExecHooks::default(), init, fold, merge)
        .expect("uncancellable run cannot be cancelled")
}

/// [`par_fold_chunked`] with cancellation and progress hooks.
///
/// # Errors
///
/// Returns [`Cancelled`] if the hook's token fires before every chunk
/// completes.
pub fn try_par_fold_chunked<A, I, F, M>(
    cfg: &ExecConfig,
    n: usize,
    hooks: &ExecHooks<'_>,
    init: I,
    fold: F,
    merge: M,
) -> Result<A, Cancelled>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
    M: Fn(&mut A, A),
{
    try_par_fold_commit(
        cfg,
        n,
        0,
        hooks,
        &init,
        init(),
        |acc, range| {
            for i in range {
                fold(acc, i);
            }
        },
        merge,
        no_commit,
    )
    .map_err(infallible_commit)
}

/// Per-chunk results waiting for the in-order merge, plus the live
/// worker count so the committing thread never waits on a dead pool.
struct CommitState<T> {
    /// `slots[c - start_chunk]` holds chunk `c`'s accumulator until
    /// the committing thread takes it.
    slots: Vec<Option<T>>,
    /// Workers still running; each decrements exactly once on exit
    /// (normal, cancelled, or panicking) via [`WorkerGuard`].
    active: usize,
}

struct CommitShared<T> {
    state: Mutex<CommitState<T>>,
    ready: Condvar,
}

impl<T> CommitShared<T> {
    /// Locks the state, surviving poisoning: a worker panic must not
    /// strand the committing thread, and the state itself stays
    /// consistent (slot writes and `active` decrements are atomic
    /// under the lock).
    fn lock(&self) -> std::sync::MutexGuard<'_, CommitState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Decrements `active` and wakes the committing thread even if the
/// worker unwinds mid-chunk.
struct WorkerGuard<'a, T> {
    shared: &'a CommitShared<T>,
}

impl<T> Drop for WorkerGuard<'_, T> {
    fn drop(&mut self) {
        self.shared.lock().active -= 1;
        self.shared.ready.notify_all();
    }
}

/// The committing fold: [`try_par_fold_chunked`] plus an in-order
/// commit callback and a resume point, for runs that persist their
/// progress (checkpointed Monte-Carlo fleets).
///
/// Chunks `start_chunk..chunk_count(n)` each fold their index range
/// into a fresh accumulator from `init` (the whole range at once, so a
/// batched implementation may sub-batch it); the **calling thread**
/// merges the per-chunk accumulators into `seed` in ascending chunk
/// order, invoking `on_commit(chunks_done, &acc)` after each merge.
/// When `on_commit` returns `Err`, the run aborts at that boundary
/// with [`FoldError::Commit`].
///
/// Determinism contract: for a fixed `n`, the sequence of `fold` and
/// `merge` applications — and therefore every floating-point rounding
/// — is identical for any worker count, and a run resumed from
/// (`start_chunk`, the accumulator committed at `start_chunk`) is
/// bit-identical to one that never stopped. `on_commit` runs strictly
/// in chunk order on the calling thread, so a checkpoint writer needs
/// no synchronisation.
///
/// # Panics
///
/// Panics if `start_chunk > chunk_count(n)`, and propagates panics
/// from `fold`.
///
/// # Errors
///
/// [`FoldError::Cancelled`] if the hook's token fires first;
/// [`FoldError::Commit`] if `on_commit` fails.
#[allow(clippy::too_many_arguments)]
pub fn try_par_fold_commit<A, I, F, M, C, E>(
    cfg: &ExecConfig,
    n: usize,
    start_chunk: usize,
    hooks: &ExecHooks<'_>,
    init: I,
    seed: A,
    fold: F,
    merge: M,
    mut on_commit: C,
) -> Result<A, FoldError<E>>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, std::ops::Range<usize>) + Sync,
    M: Fn(&mut A, A),
    C: FnMut(usize, &A) -> Result<(), E>,
{
    let chunk = chunk_len(n);
    let n_chunks = chunk_count(n);
    assert!(
        start_chunk <= n_chunks,
        "resume point {start_chunk} beyond the {n_chunks} chunks of n={n}"
    );
    let jobs = cfg.jobs().min(n_chunks.saturating_sub(start_chunk).max(1));
    let range_of = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let cancelled = || hooks.cancel.is_some_and(|t| t.is_cancelled());
    // Progress counts items, including the ones already committed
    // before a resume.
    let done_base = (start_chunk * chunk).min(n);

    let mut acc = seed;
    if jobs <= 1 {
        // Serial path: same chunk geometry, same merge and commit
        // sequence, no threads spawned.
        let mut done = done_base;
        for c in start_chunk..n_chunks {
            if cancelled() {
                return Err(FoldError::Cancelled);
            }
            let range = range_of(c);
            done += range.len();
            let mut part = init();
            fold(&mut part, range);
            merge(&mut acc, part);
            on_commit(c + 1, &acc).map_err(FoldError::Commit)?;
            if let Some(progress) = hooks.progress {
                progress(Progress { done, total: n });
            }
        }
        return Ok(acc);
    }

    let abort = AtomicBool::new(false);
    let cursor = AtomicUsize::new(start_chunk);
    let done = AtomicUsize::new(done_base);
    let shared: CommitShared<A> = CommitShared {
        state: Mutex::new(CommitState {
            slots: (start_chunk..n_chunks).map(|_| None).collect(),
            active: jobs,
        }),
        ready: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let _guard = WorkerGuard { shared: &shared };
                loop {
                    if abort.load(Ordering::Relaxed) || cancelled() {
                        return;
                    }
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        return;
                    }
                    let range = range_of(c);
                    let len = range.len();
                    let mut part = init();
                    fold(&mut part, range);
                    shared.lock().slots[c - start_chunk] = Some(part);
                    shared.ready.notify_all();
                    let so_far = done.fetch_add(len, Ordering::Relaxed) + len;
                    if let Some(progress) = hooks.progress {
                        progress(Progress {
                            done: so_far,
                            total: n,
                        });
                    }
                }
            });
        }

        // The calling thread is the committer: take each chunk's
        // accumulator as it appears, merge in ascending chunk order,
        // and run the commit callback — strictly serial, so the
        // floating-point reduction and any checkpoint file it feeds
        // are identical to the serial path.
        for c in start_chunk..n_chunks {
            let part = {
                let mut st = shared.lock();
                loop {
                    if let Some(part) = st.slots[c - start_chunk].take() {
                        break Some(part);
                    }
                    if st.active == 0 {
                        break None;
                    }
                    st = shared.ready.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            };
            let Some(part) = part else {
                // Every worker exited without producing chunk `c`:
                // the run was cancelled (or a worker panicked, which
                // the scope re-raises on join).
                return Err(FoldError::Cancelled);
            };
            merge(&mut acc, part);
            if let Err(e) = on_commit(c + 1, &acc) {
                abort.store(true, Ordering::Relaxed);
                return Err(FoldError::Commit(e));
            }
        }
        Ok(acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunk_geometry_is_a_pure_function_of_n() {
        assert_eq!(chunk_len(0), 1);
        assert_eq!(chunk_len(1), 1);
        assert_eq!(chunk_len(64), 1);
        assert_eq!(chunk_len(65), 2);
        assert_eq!(chunk_len(1_000_000), 2048);
        for n in [0usize, 1, 7, 63, 64, 65, 500, 4096, 1_000_000] {
            assert!(chunk_count(n) * chunk_len(n) >= n);
            if n > 0 {
                assert!((chunk_count(n) - 1) * chunk_len(n) < n);
            }
        }
    }

    #[test]
    fn map_matches_serial_for_every_job_count() {
        let expect: Vec<u64> = (0..500).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let cfg = ExecConfig::with_jobs(jobs);
            let got = par_map_indexed(&cfg, 500, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let cfg = ExecConfig::with_jobs(8);
        assert_eq!(par_map_indexed(&cfg, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(&cfg, 1, |i| i * 3), vec![0]);
        assert_eq!(par_map_indexed(&cfg, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn fold_is_bit_identical_across_job_counts() {
        // Float summation is order-sensitive; identical results across
        // job counts prove the chunk-ordered merge contract.
        let sum_with = |jobs: usize| {
            par_fold_chunked(
                &ExecConfig::with_jobs(jobs),
                10_000,
                || 0.0f64,
                |acc, i| *acc += 1.0 / (1.0 + i as f64),
                |acc, other| *acc += other,
            )
        };
        let reference = sum_with(1);
        for jobs in [2, 3, 7, 16] {
            assert_eq!(sum_with(jobs).to_bits(), reference.to_bits(), "jobs={jobs}");
        }
    }

    #[test]
    fn fold_of_empty_population_is_init() {
        let v = par_fold_chunked(
            &ExecConfig::with_jobs(4),
            0,
            || 42u64,
            |_, _| unreachable!("no items"),
            |_, _| unreachable!("single init accumulator"),
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn pre_cancelled_run_reports_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let hooks = ExecHooks {
            cancel: Some(&token),
            progress: None,
        };
        for jobs in [1, 4] {
            let r = try_par_map_indexed(&ExecConfig::with_jobs(jobs), 100, &hooks, |i| i);
            assert_eq!(r, Err(Cancelled), "jobs={jobs}");
        }
    }

    #[test]
    fn cancellation_mid_run_stops_early() {
        let token = CancelToken::new();
        let hooks = ExecHooks {
            cancel: Some(&token),
            progress: None,
        };
        let ran = AtomicUsize::new(0);
        let r = try_par_map_indexed(&ExecConfig::with_jobs(2), 100_000, &hooks, |i| {
            if ran.fetch_add(1, Ordering::Relaxed) == 50 {
                token.cancel();
            }
            i
        });
        assert_eq!(r, Err(Cancelled));
        assert!(
            ran.load(Ordering::Relaxed) < 100_000,
            "cancellation must stop the sweep before completion"
        );
    }

    /// The commit fold under test everywhere below: an order-sensitive
    /// float sum, so any deviation in fold/merge sequencing shows up
    /// in the bits.
    fn commit_sum(
        jobs: usize,
        n: usize,
        start_chunk: usize,
        seed: f64,
        commits: &mut Vec<(usize, f64)>,
    ) -> f64 {
        try_par_fold_commit(
            &ExecConfig::with_jobs(jobs),
            n,
            start_chunk,
            &ExecHooks::default(),
            || 0.0f64,
            seed,
            |acc, range| {
                for i in range {
                    *acc += 1.0 / (1.0 + i as f64);
                }
            },
            |acc, part| *acc += part,
            |done, acc: &f64| {
                commits.push((done, *acc));
                Ok::<(), std::convert::Infallible>(())
            },
        )
        .expect("infallible commit cannot fail")
    }

    #[test]
    fn commit_fold_matches_plain_fold_for_every_job_count() {
        let n = 10_000;
        let reference = par_fold_chunked(
            &ExecConfig::with_jobs(1),
            n,
            || 0.0f64,
            |acc, i| *acc += 1.0 / (1.0 + i as f64),
            |acc, part| *acc += part,
        );
        for jobs in [1, 2, 3, 7] {
            let mut commits = Vec::new();
            let got = commit_sum(jobs, n, 0, 0.0, &mut commits);
            assert_eq!(got.to_bits(), reference.to_bits(), "jobs={jobs}");
            // One commit per chunk, strictly in order, last == result.
            let n_chunks = chunk_count(n);
            assert_eq!(commits.len(), n_chunks, "jobs={jobs}");
            assert!(commits.windows(2).all(|w| w[1].0 == w[0].0 + 1));
            assert_eq!(commits.last().unwrap().1.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn resumed_commit_fold_is_bit_identical() {
        let n = 10_000;
        let mut full = Vec::new();
        let reference = commit_sum(3, n, 0, 0.0, &mut full);
        // Resume from every commit boundary, at a different job count.
        for stop in [1usize, 5, chunk_count(n) / 2, chunk_count(n) - 1] {
            let (_, state) = full[stop - 1];
            let mut tail = Vec::new();
            let resumed = commit_sum(7, n, stop, state, &mut tail);
            assert_eq!(resumed.to_bits(), reference.to_bits(), "stop={stop}");
            assert_eq!(tail.first().unwrap().0, stop + 1);
        }
        // Resuming a finished run is a no-op returning the seed.
        let mut none = Vec::new();
        let done = commit_sum(4, n, chunk_count(n), reference, &mut none);
        assert_eq!(done.to_bits(), reference.to_bits());
        assert!(none.is_empty());
    }

    /// A per-cell fold under test, the shape the study engine uses: a
    /// `Vec` accumulator with one slot per cell, merged element-wise.
    /// Cell `c` accumulates an order-sensitive float sum scaled by
    /// `c + 1`, so cross-cell mixups and sequencing deviations both
    /// show up in the bits.
    fn multi_commit_sum(
        jobs: usize,
        n: usize,
        start_chunk: usize,
        seed: Vec<f64>,
        commits: &mut Vec<(usize, Vec<f64>)>,
    ) -> Vec<f64> {
        let cells = seed.len();
        try_par_fold_commit(
            &ExecConfig::with_jobs(jobs),
            n,
            start_chunk,
            &ExecHooks::default(),
            || vec![0.0f64; cells],
            seed,
            |accs, range| {
                for i in range {
                    for (cell, acc) in accs.iter_mut().enumerate() {
                        *acc += (cell + 1) as f64 / (1.0 + i as f64);
                    }
                }
            },
            |accs, parts| {
                for (acc, part) in accs.iter_mut().zip(parts) {
                    *acc += part;
                }
            },
            |done, accs| {
                commits.push((done, accs.clone()));
                Ok::<(), std::convert::Infallible>(())
            },
        )
        .expect("infallible commit cannot fail")
    }

    #[test]
    fn multi_fold_cells_match_independent_single_folds() {
        let n = 10_000;
        let reference: Vec<f64> = (0..3)
            .map(|cell| {
                par_fold_chunked(
                    &ExecConfig::with_jobs(1),
                    n,
                    || 0.0f64,
                    |acc, i| *acc += (cell + 1) as f64 / (1.0 + i as f64),
                    |acc, part| *acc += part,
                )
            })
            .collect();
        for jobs in [1, 2, 7] {
            let mut commits = Vec::new();
            let got = multi_commit_sum(jobs, n, 0, vec![0.0; 3], &mut commits);
            for (cell, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.to_bits(), r.to_bits(), "jobs={jobs} cell={cell}");
            }
            assert_eq!(commits.len(), chunk_count(n), "jobs={jobs}");
            assert!(commits.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        }
    }

    #[test]
    fn resumed_multi_fold_is_bit_identical_per_cell() {
        let n = 10_000;
        let mut full = Vec::new();
        let reference = multi_commit_sum(3, n, 0, vec![0.0; 3], &mut full);
        for stop in [1usize, chunk_count(n) / 2] {
            let (_, state) = full[stop - 1].clone();
            let mut tail = Vec::new();
            let resumed = multi_commit_sum(7, n, stop, state, &mut tail);
            for (cell, (g, r)) in resumed.iter().zip(&reference).enumerate() {
                assert_eq!(g.to_bits(), r.to_bits(), "stop={stop} cell={cell}");
            }
            assert_eq!(tail.first().unwrap().0, stop + 1);
        }
    }

    #[test]
    fn commit_error_aborts_at_the_boundary() {
        for jobs in [1, 4] {
            let mut commits = 0usize;
            let r = try_par_fold_commit(
                &ExecConfig::with_jobs(jobs),
                10_000,
                0,
                &ExecHooks::default(),
                || 0u64,
                0u64,
                |acc, range| *acc += range.len() as u64,
                |acc, part| *acc += part,
                |done, _acc: &u64| {
                    commits += 1;
                    if done == 3 {
                        Err("disk full")
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(r, Err(FoldError::Commit("disk full")), "jobs={jobs}");
            assert_eq!(commits, 3, "jobs={jobs}");
        }
    }

    #[test]
    fn commit_fold_cancellation_reports_cancelled() {
        let token = CancelToken::new();
        let hooks = ExecHooks {
            cancel: Some(&token),
            progress: None,
        };
        for jobs in [1, 4] {
            token.cancel();
            let r = try_par_fold_commit(
                &ExecConfig::with_jobs(jobs),
                1000,
                0,
                &hooks,
                || 0u64,
                0u64,
                |acc, range| *acc += range.len() as u64,
                |acc, part| *acc += part,
                no_commit,
            );
            assert!(matches!(r, Err(FoldError::Cancelled)), "jobs={jobs}");
        }
    }

    #[test]
    fn progress_reaches_total_and_stays_in_bounds() {
        let max_seen = AtomicUsize::new(0);
        let callback = |p: Progress| {
            assert!(p.done <= p.total);
            max_seen.fetch_max(p.done, Ordering::Relaxed);
        };
        let hooks = ExecHooks {
            cancel: None,
            progress: Some(&callback),
        };
        for jobs in [1, 4] {
            max_seen.store(0, Ordering::Relaxed);
            let r = try_par_map_indexed(&ExecConfig::with_jobs(jobs), 777, &hooks, |i| i).unwrap();
            assert_eq!(r.len(), 777);
            assert_eq!(max_seen.load(Ordering::Relaxed), 777, "jobs={jobs}");
        }
    }
}
