//! The four workloads. Each one generates its inputs from the seed,
//! hands the program only those inputs (study configurations or
//! scenario TOML text), and times the public calls it makes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::trace::Tracer;

mod savings;
mod shootout;
mod suite;
mod yield_fleet;

/// Workload names, in run order; results and bounds refer to them.
pub const NAMES: [&str; 4] = ["yield_fleet", "shootout_matrix", "savings_mc", "suite_many"];

/// How much work one rep does. [`Sizes::standard`] puts a rep at
/// 0.5–1 s on a 2-vCPU Xeon: many short reps per run average out the
/// host's second-scale speed swings better than a few long ones.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Dies per `yield_fleet` study.
    pub yield_dies: usize,
    /// Dies per `shootout_matrix` study (18 cells each).
    pub shootout_dies: usize,
    /// Dies per cell of the fused-vs-per-cell gate.
    pub gate_dies: usize,
    /// Dies per `savings_mc` study.
    pub savings_dies: usize,
    /// Dies of the traced savings replica.
    pub replica_dies: usize,
    /// Scenarios in the `suite_many` corpus.
    pub suite_scenarios: usize,
    /// A generated scenario has 1–4 of these many dies.
    pub suite_die_unit: usize,
    /// Timed reps even when `--seconds` runs out first.
    pub min_reps: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            yield_dies: 250_000,
            shootout_dies: 20_000,
            gate_dies: 64,
            savings_dies: 200,
            replica_dies: 48,
            suite_scenarios: 48,
            suite_die_unit: 1_000,
            min_reps: 5,
        }
    }

    /// Every workload in well under a second, for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            yield_dies: 3_000,
            shootout_dies: 150,
            gate_dies: 12,
            savings_dies: 3,
            replica_dies: 2,
            suite_scenarios: 8,
            suite_die_unit: 20,
            min_reps: 2,
        }
    }
}

/// What every workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub jobs: usize,
    pub sizes: Sizes,
    /// Directory for this process's checkpoint files.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn exec(&self) -> subvt_exec::ExecConfig {
        subvt_exec::ExecConfig::with_jobs(self.jobs)
    }

    /// A fresh checkpoint path: any file left by an earlier rep is
    /// removed, so every rep scores and writes instead of replaying.
    pub fn fresh_checkpoint(&self, stem: &str) -> PathBuf {
        let path = self.scratch.join(format!("{stem}.svcp"));
        let _ = std::fs::remove_file(&path);
        path
    }
}

/// One operation: a study or a scenario, timed from the caller's side.
#[derive(Debug, Clone)]
pub struct Op {
    pub secs: f64,
    /// Digest of every output byte, or why the operation failed.
    pub digest: Result<u64, String>,
}

/// One closed-loop rep of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub ops: Vec<Op>,
    /// Die × cell evaluations the rep scored.
    pub die_cells: u64,
    /// Wall seconds of replaying the finished checkpoint.
    pub replay_secs: Option<f64>,
    /// Bytes of checkpoint files the rep wrote.
    pub checkpoint_bytes: u64,
    /// Bytes of rendered reports (text + JSON).
    pub report_bytes: u64,
    /// Deterministic fault-study counts: a witness of equal work.
    pub faults_injected: u64,
    pub watchdog_trips: u64,
    /// `Progress` callbacks the engine made.
    pub chunks: u64,
}

impl Rep {
    /// Seconds spent inside the operations.
    pub fn op_secs(&self) -> f64 {
        self.ops.iter().map(|op| op.secs).sum()
    }
}

/// Correctness bookkeeping: every operation attempted, and a message
/// for each one that failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation that passed unless `failure` is given.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    /// Records a check on an already-counted operation.
    pub fn check(&mut self, failure: Option<String>) {
        self.failures.extend(failure);
    }
}

/// A workload's hooks into the common run loop (`crate::run`).
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Checks that run once before timing.
    fn gate(&mut self, _checks: &mut Checks) {}

    /// The set-up calls a user pays once per study. Each call rebuilds
    /// the prepared state the reps then use.
    fn setup(&mut self, t: &mut Tracer);

    /// One rep. With `checkpoint` false the studies run without a
    /// checkpoint file (the baseline of the checkpoint-write cost).
    fn rep(&mut self, t: &mut Tracer, checkpoint: bool) -> Rep;

    /// Checks the outputs of the last rep against reference values.
    fn check_reference(&self, checks: &mut Checks);

    /// Traced analysis outside the timed pass, under its own root span;
    /// returns the controller cycles it simulated.
    fn replica(&mut self, _t: &mut Tracer, _checks: &mut Checks) -> u64 {
        0
    }
}

/// The workload called `name`.
pub fn by_name(name: &str, ctx: Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "yield_fleet" => Box::new(yield_fleet::YieldFleet::new(ctx)),
        "shootout_matrix" => Box::new(shootout::ShootoutMatrix::new(ctx)),
        "savings_mc" => Box::new(savings::SavingsMc::new(ctx)),
        "suite_many" => Box::new(suite::SuiteMany::new(ctx)),
        _ => return None,
    })
}

/// Times `f` from the caller's side, turning a panic into a failed
/// operation.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (f64, Result<T, String>) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    });
    (start.elapsed().as_secs_f64(), out)
}

/// FNV-1a over output bytes: reps of identical inputs must agree.
pub fn digest(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator, so chunk boundaries enter the digest.
        h = (h ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Tolerance of a reference check on a proportion: 0.1 pp at the
/// reference seed and size, where the value is exact; elsewhere seven
/// standard errors of the difference of two independent samples of
/// `n` dies, so a different seed passes and a wrong model does not.
pub fn yield_tolerance(exact: bool, p: f64, n: usize) -> f64 {
    let floor = 0.001;
    if exact {
        return floor;
    }
    let se = (p * (1.0 - p) / n.max(1) as f64).sqrt();
    (7.0 * std::f64::consts::SQRT_2 * se).max(floor)
}

/// A failure message unless `got` is within `tol` of `want` (a NaN on
/// either side fails).
pub fn near(what: &str, got: f64, want: f64, tol: f64) -> Option<String> {
    let off = (got - want).abs();
    let within = off.partial_cmp(&tol).is_some_and(|o| o.is_le());
    (!within).then(|| {
        format!(
            "{what}: {got} is {:.4} pp from the reference {want} (tolerance {:.4} pp)",
            100.0 * off,
            100.0 * tol
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_content_and_boundaries() {
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_ne!(digest(&[b"abc"]), digest(&[b"abd"]));
    }

    #[test]
    fn timed_turns_a_panic_into_a_failure() {
        let (_, out) = timed::<()>(|| panic!("boom"));
        assert_eq!(out.unwrap_err(), "panicked: boom");
        let (secs, out) = timed(|| Ok(3));
        assert_eq!(out.unwrap(), 3);
        assert!(secs >= 0.0);
    }

    #[test]
    fn reference_tolerance_is_tight_only_where_the_value_is_exact() {
        assert_eq!(yield_tolerance(true, 0.8, 1_000_000), 0.001);
        let other_seed = yield_tolerance(false, 0.8, 1_000_000);
        assert!(other_seed > 0.003 && other_seed < 0.005, "{other_seed}");
        assert!(yield_tolerance(false, 0.8, 100) > 0.3);
    }
}
