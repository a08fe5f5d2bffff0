//! `yield_fleet`: the headline fleet path — one clean cell, analytic
//! eval, ideal rail, a million dies per study. It bypasses regulators,
//! faults, checkpoints, scenarios and the scalar controller, so a gain
//! in those layers must show no change here.

use std::sync::atomic::{AtomicU64, Ordering};

use subvt_core::study::{StudyConfig, SupplyBackendKind};
use subvt_core::yield_study::{SupplySim, YieldSummary};
use subvt_device::tabulate::{EvalMode, SharedEval};
use subvt_device::technology::Technology;
use subvt_exec::Progress;

use super::{digest, near, timed, yield_tolerance, Checks, Ctx, Op, Rep, Workload};
use crate::reference;
use crate::trace::Tracer;

pub struct YieldFleet {
    ctx: Ctx,
    prepared: Option<(SharedEval, SupplySim)>,
    last: Option<YieldSummary>,
}

impl YieldFleet {
    pub fn new(ctx: Ctx) -> YieldFleet {
        YieldFleet {
            ctx,
            prepared: None,
            last: None,
        }
    }
}

impl Workload for YieldFleet {
    fn name(&self) -> &'static str {
        "yield_fleet"
    }

    fn setup(&mut self, t: &mut Tracer) {
        let tech = Technology::st_130nm();
        let eval = t.span("device.eval_build", |_| EvalMode::Analytic.build(&tech));
        let sim = t.span("regulators.build_sim", |_| {
            SupplyBackendKind::Ideal.build_sim(Default::default())
        });
        self.prepared = Some((eval, sim));
    }

    fn rep(&mut self, t: &mut Tracer, _checkpoint: bool) -> Rep {
        let (eval, sim) = self.prepared.clone().expect("set up before the first rep");
        let chunks = AtomicU64::new(0);
        let count = |_: Progress| {
            chunks.fetch_add(1, Ordering::Relaxed);
        };
        let mut cfg = StudyConfig::new(self.ctx.sizes.yield_dies, self.ctx.seed)
            .exec(self.ctx.exec())
            .eval(eval)
            .supply(sim);
        if t.is_on() {
            cfg = cfg.progress(&count);
        }
        let (secs, out) = t.span("study.run_summary", |_| {
            timed(|| cfg.try_run_summary().map_err(|e| e.to_string()))
        });
        let digest = out.map(|summary| {
            let d = digest(&[&summary.encode_state()]);
            self.last = Some(summary);
            d
        });
        Rep {
            ops: vec![Op { secs, digest }],
            die_cells: self.ctx.sizes.yield_dies as u64,
            chunks: chunks.load(Ordering::Relaxed),
            ..Rep::default()
        }
    }

    fn check_reference(&self, checks: &mut Checks) {
        let Some(s) = &self.last else { return };
        let n = self.ctx.sizes.yield_dies;
        let exact = self.ctx.seed == reference::SEED && n == reference::YIELD_DIES;
        for (what, got, want) in [
            ("fixed yield", s.fixed_yield(), reference::YIELD_FIXED),
            (
                "adaptive yield",
                s.adaptive_yield(),
                reference::YIELD_ADAPTIVE,
            ),
            (
                "dithered yield",
                s.dithered_yield(),
                reference::YIELD_DITHERED,
            ),
        ] {
            checks.check(near(what, got, want, yield_tolerance(exact, want, n)));
        }
    }
}
