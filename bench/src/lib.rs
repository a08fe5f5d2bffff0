//! The repository benchmark for the subvt stack.
//!
//! Four workloads (`workloads::NAMES`) drive the program's public
//! API from outside: the million-die yield fleet, the fused 18-cell
//! supply shoot-out, the savings Monte-Carlo behind the paper's 55 %
//! claim, and a seeded corpus of scenario files. Each run checks the
//! outputs, reports end-to-end metrics as medians over timed reps, and
//! with a trace adds a per-layer ledger built from spans around each
//! call plus the program's own counters. See `README.md` for the
//! workloads, metrics, bounds and commands.

pub mod json;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

mod gate;
mod reference;

use std::path::{Path, PathBuf};

/// Seed of a run without `--seed`, and of the reference values.
pub const DEFAULT_SEED: u64 = reference::SEED;

/// Run length without `--seconds`: the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// The repository root: the benchmark reads the golden corpus and
/// `BENCHMARK.json` from it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where results, traces and scratch checkpoints go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
