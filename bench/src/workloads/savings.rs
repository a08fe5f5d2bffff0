//! `savings_mc`: the streaming savings Monte-Carlo behind the paper's
//! 55 % claim. It is scalar and per-cycle and never touches the batch
//! pipeline, so a batch-pipeline gain must show no change here and the
//! reverse also holds.
//!
//! The traced replica rebuilds one die of that study from public calls
//! — die draw, the two rate-controller designs, the fixed baseline
//! word, four controller runs — so each call gets its own span, and
//! asserts every die equal to `savings_experiment_eval`.

use subvt_bench::savings::{savings_summary, SavingsSummary};
use subvt_core::controller::{AdaptiveController, SupplyPolicy};
use subvt_core::experiment::{
    fixed_baseline_word_eval, savings_experiment_eval, SavingsReport, Scenario,
};
use subvt_core::rate_controller::RateController;
use subvt_core::study::StudyConfig;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{EvalMode, SharedEval};
use subvt_device::technology::Technology;
use subvt_device::units::Hertz;
use subvt_device::variation::VariationModel;
use subvt_loads::ring_oscillator::RingOscillator;
use subvt_loads::workload::WorkloadSource;
use subvt_rng::{Rng, StdRng};

use super::{digest, near, timed, Checks, Ctx, Op, Rep, Workload};
use crate::reference;
use crate::trace::Tracer;

/// The experiment's band → required-rate table (its `standard_band_rates`).
const BAND_RATES: [(usize, f64); 3] = [(8, 100e3), (16, 1e6), (32, 10e6)];

pub struct SavingsMc {
    ctx: Ctx,
    eval: Option<SharedEval>,
    last: Option<SavingsSummary>,
}

impl SavingsMc {
    pub fn new(ctx: Ctx) -> SavingsMc {
        SavingsMc {
            ctx,
            eval: None,
            last: None,
        }
    }
}

fn summary_digest(s: &SavingsSummary) -> u64 {
    let words = [
        s.dies,
        s.savings_vs_fixed.mean().unwrap_or(f64::NAN).to_bits(),
        s.savings_vs_fixed.variance().unwrap_or(f64::NAN).to_bits(),
        s.corner_units.mean().unwrap_or(f64::NAN).to_bits(),
        s.compensation_sum as u64,
        s.compensation_min as u64,
        s.compensation_max as u64,
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    digest(&[&bytes])
}

impl Workload for SavingsMc {
    fn name(&self) -> &'static str {
        "savings_mc"
    }

    fn setup(&mut self, t: &mut Tracer) {
        // `savings_summary` builds this evaluator itself, once per study.
        let tech = Technology::st_130nm();
        self.eval = Some(t.span("device.eval_build", |_| EvalMode::Analytic.build(&tech)));
    }

    fn rep(&mut self, t: &mut Tracer, _checkpoint: bool) -> Rep {
        let study =
            StudyConfig::new(self.ctx.sizes.savings_dies, self.ctx.seed).exec(self.ctx.exec());
        let (secs, out) = t.span("savings.summary", |_| {
            timed(|| Ok(savings_summary(&study, EvalMode::Analytic)))
        });
        let digest = out.map(|s| {
            let d = summary_digest(&s);
            self.last = Some(s);
            d
        });
        Rep {
            ops: vec![Op { secs, digest }],
            die_cells: self.ctx.sizes.savings_dies as u64,
            ..Rep::default()
        }
    }

    fn check_reference(&self, checks: &mut Checks) {
        let Some(s) = &self.last else { return };
        let mean = s.mean_savings().unwrap_or(f64::NAN);
        let n = self.ctx.sizes.savings_dies;
        let tol = if self.ctx.seed == reference::SEED && n == reference::SAVINGS_DIES {
            0.001
        } else {
            let se = s.savings_vs_fixed.std_dev().unwrap_or(1.0) / (n as f64).sqrt();
            (7.0 * std::f64::consts::SQRT_2 * se).max(0.001)
        };
        checks.check(near("mean saving", mean, reference::SAVINGS_MEAN, tol));
        if s.dies != n as u64 {
            checks.check(Some(format!("savings study folded {} of {n} dies", s.dies)));
        }
    }

    fn replica(&mut self, t: &mut Tracer, checks: &mut Checks) -> u64 {
        let eval = self.eval.clone().expect("set up before the replica");
        let model = VariationModel::st_130nm();
        // The die streams `StudyConfig::fold_dies` hands the study.
        let mut root = StdRng::seed_from_u64(self.ctx.seed);
        let mut cycles = 0;
        t.span("replica", |t| {
            for die in 0..self.ctx.sizes.replica_dies {
                t.set_run(die as u64);
                let die_rng = StdRng::seed_from_u64(root.fork_seed(&format!("mc-die-{die}")));
                let (_, out) = t.span("savings.die", |t| {
                    timed(|| replica_die(t, &eval, &model, self.ctx.seed, die, die_rng))
                });
                match out {
                    Ok(n) => {
                        cycles += n;
                        checks.op(None);
                    }
                    Err(e) => checks.op(Some(e)),
                }
            }
        });
        cycles
    }
}

/// One die of `savings_summary`, rebuilt from public calls with a span
/// per call. Returns the simulated controller cycles, or why the die
/// differs from `savings_experiment_eval`.
fn replica_die(
    t: &mut Tracer,
    eval: &SharedEval,
    model: &VariationModel,
    seed: u64,
    die: usize,
    mut die_rng: StdRng,
) -> Result<u64, String> {
    let ring = RingOscillator::paper_circuit();
    let bands: Vec<(usize, Hertz)> = BAND_RATES.iter().map(|&(b, r)| (b, Hertz(r))).collect();
    let variation = t.span("rng.sample_die", |_| model.sample_die(&mut die_rng));
    let mut scenario = Scenario::paper_worked_example().with_actual_env(Environment::nominal());
    scenario.name = format!("mc-die-{die}");
    scenario.die = variation.mean_gate();
    scenario.seed = seed.wrapping_add(die as u64);
    let mut design = |env| {
        t.span("experiment.design_eval", |_| {
            RateController::design_eval(eval.as_ref(), &ring, env, &bands)
        })
        .map_err(|e| e.to_string())
    };
    let designed = design(scenario.design_env)?;
    let oracle_rate = design(scenario.actual_env)?;
    let fixed_word = t
        .span("experiment.fixed_word", |_| {
            fixed_baseline_word_eval(eval, &scenario.workload, 2)
        })
        .map_err(|e| e.to_string())?;
    let mut run = |name: &'static str, rate: RateController, policy: SupplyPolicy| {
        t.span(name, |_| {
            let mut controller = AdaptiveController::new(
                Technology::st_130nm(),
                RingOscillator::paper_circuit(),
                rate,
                scenario.design_env,
                scenario.actual_env,
                scenario.die,
                policy,
                scenario.supply,
                scenario.config,
            )
            .with_eval(eval.clone());
            let mut workload = WorkloadSource::new(scenario.workload.clone());
            let mut rng = StdRng::seed_from_u64(scenario.seed);
            controller.run(&mut workload, scenario.cycles, &mut rng)
        })
    };
    let replica = SavingsReport {
        scenario: scenario.name.clone(),
        compensated: run(
            "controller.run.compensated",
            designed.clone(),
            SupplyPolicy::AdaptiveCompensated,
        ),
        uncompensated: run(
            "controller.run.uncompensated",
            designed,
            SupplyPolicy::AdaptiveUncompensated,
        ),
        fixed: run(
            "controller.run.fixed",
            oracle_rate.clone(),
            SupplyPolicy::FixedWord(fixed_word),
        ),
        fixed_word,
        oracle: run(
            "controller.run.oracle",
            oracle_rate,
            SupplyPolicy::AdaptiveUncompensated,
        ),
    };
    let reference = t.span("check.savings_eval", |_| {
        savings_experiment_eval(&scenario, eval)
    });
    match reference {
        Ok(r) if r == replica => Ok([&r.compensated, &r.uncompensated, &r.fixed, &r.oracle]
            .iter()
            .map(|run| run.cycles)
            .sum()),
        Ok(_) => Err(format!(
            "replica die {die} differs from savings_experiment_eval"
        )),
        Err(e) => Err(e.to_string()),
    }
}
