//! # subvt-exec — deterministic parallel execution engine
//!
//! The workspace's Monte-Carlo and sweep workloads (yield studies,
//! savings MC, figure regeneration) are embarrassingly parallel, but a
//! reproduction lives or dies on bit-reproducibility: the same seed
//! must give the same statistics on 1 core or 64. This crate provides
//! the execution substrate that makes both true at once, with zero
//! external dependencies (pure `std::thread`, per the hermetic-build
//! policy in DESIGN.md).
//!
//! ## The determinism contract
//!
//! A run of `n` items is bit-identical for **any** worker count
//! because three decisions are taken out of the scheduler's hands:
//!
//! 1. **Per-item randomness is pre-assigned by label/index** (the
//!    `subvt-rng` `fork` discipline): item `i`'s RNG stream depends
//!    only on the root seed and `i`, never on which thread runs it or
//!    when.
//! 2. **Chunk geometry is a pure function of `n`**
//!    ([`chunk_len`]): the same population splits at the same
//!    boundaries whether 1 or 64 workers steal the chunks.
//! 3. **Results commit by index**: [`par_map_indexed`] places item
//!    `i` at slot `i`; [`par_fold_chunked`] merges per-chunk
//!    accumulators in ascending chunk order on the calling thread. The
//!    scheduling race decides only *when* work happens, never where
//!    its result lands or in which order floating-point reductions
//!    associate.
//!
//! ## Pieces
//!
//! * [`ExecConfig`] — worker-count resolution (`--jobs` >
//!   `SUBVT_JOBS` > available parallelism);
//! * [`par_map_indexed`] / [`try_par_map_indexed`] — order-preserving
//!   parallel map over `0..n`;
//! * [`par_fold_chunked`] / [`try_par_fold_chunked`] — the
//!   summary-only path: `O(chunks)` memory instead of `O(n)` results;
//! * [`try_par_fold_commit`] — the chunked fold with an in-order
//!   commit callback and a resume point, for checkpointed runs;
//! * [`checkpoint`] — append-only, CRC-guarded checkpoint files that
//!   make a cancelled fold resume bit-identically;
//! * [`Welford`] and [`QuantileSketch`] — mergeable streaming
//!   statistics designed for the chunked fold;
//! * [`CancelToken`] / [`Progress`] — cooperative, chunk-granular
//!   cancellation and progress.
//!
//! ## Example
//!
//! ```
//! use subvt_exec::{par_fold_chunked, ExecConfig, Welford};
//!
//! // Mean of a million deterministic "samples", summary-only: no
//! // million-element Vec, bit-identical for any worker count.
//! let stats = par_fold_chunked(
//!     &ExecConfig::with_jobs(4),
//!     1_000_000,
//!     Welford::new,
//!     |w, i| w.push((i % 1000) as f64),
//!     |w, part| w.merge(part),
//! );
//! assert_eq!(stats.count(), 1_000_000);
//! assert!((stats.mean().unwrap() - 499.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod cancel;
pub mod checkpoint;
mod config;
mod scheduler;
mod stats;

pub use cancel::{CancelToken, Cancelled, Progress};
pub use config::{ExecConfig, JOBS_ENV};
pub use scheduler::{
    chunk_count, chunk_len, par_fold_chunked, par_map_indexed, try_par_fold_chunked,
    try_par_fold_commit, try_par_map_indexed, FoldError,
};
pub use stats::{QuantileSketch, Welford};

/// Optional hooks threaded through the `try_*` run entry points.
#[derive(Default, Clone, Copy)]
pub struct ExecHooks<'a> {
    /// Checked between chunks; a fired token aborts the run with
    /// [`Cancelled`].
    pub cancel: Option<&'a CancelToken>,
    /// Called after each finished chunk with the items completed so
    /// far. Invoked from worker threads — keep it cheap and
    /// thread-safe.
    pub progress: Option<&'a (dyn Fn(Progress) + Sync)>,
}

impl std::fmt::Debug for ExecHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecHooks")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "<callback>"))
            .finish()
    }
}
