//! `shootout_matrix`: the 18-cell fused study matrix (buck/dldo/dlr ×
//! TT/SS/FF × clean/0.02 faults, mitigation on). It stresses matrix
//! sharing, the fault walk and the regulated backends. Each rep writes
//! a fresh checkpoint and then replays the finished file, so
//! checkpoint writes sit beside checkpoint reads.

use std::sync::atomic::{AtomicU64, Ordering};

use subvt_core::matrix::{CellSummary, StudyMatrix};
use subvt_core::study::{FaultPlan, StudyConfig, SupplyBackendKind};
use subvt_device::corner::ProcessCorner;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{EvalMode, SharedEval};
use subvt_device::technology::Technology;
use subvt_exec::Progress;

use super::{digest, near, timed, yield_tolerance, Checks, Ctx, Op, Rep, Workload};
use crate::reference;
use crate::trace::Tracer;

const SUPPLIES: [SupplyBackendKind; 3] = [
    SupplyBackendKind::Buck,
    SupplyBackendKind::Dldo,
    SupplyBackendKind::Dlr,
];

/// The 18 cells in scenario order: supplies outer, corners, then the
/// clean and the faulted rate.
fn cells() -> Vec<(SupplyBackendKind, Environment, Option<FaultPlan>)> {
    let mut cells = Vec::with_capacity(18);
    for supply in SUPPLIES {
        for corner in [ProcessCorner::Tt, ProcessCorner::Ss, ProcessCorner::Ff] {
            let env = Environment::at_corner(corner).with_celsius(25.0);
            cells.push((supply, env, None));
            let plan = FaultPlan::uniform(0.02).with_mitigation(true);
            cells.push((supply, env, Some(plan)));
        }
    }
    cells
}

fn matrix(base: StudyConfig<'_>) -> StudyMatrix<'_> {
    cells()
        .into_iter()
        .fold(StudyMatrix::new(base), |m, (supply, env, faults)| {
            m.cell(supply, env, faults)
        })
}

fn cells_digest(cells: &[CellSummary]) -> u64 {
    let states: Vec<Vec<u8>> = cells.iter().map(CellSummary::encode_state).collect();
    let parts: Vec<&[u8]> = states.iter().map(Vec::as_slice).collect();
    digest(&parts)
}

pub struct ShootoutMatrix {
    ctx: Ctx,
    eval: Option<SharedEval>,
    last: Vec<CellSummary>,
}

impl ShootoutMatrix {
    pub fn new(ctx: Ctx) -> ShootoutMatrix {
        ShootoutMatrix {
            ctx,
            eval: None,
            last: Vec::new(),
        }
    }
}

impl Workload for ShootoutMatrix {
    fn name(&self) -> &'static str {
        "shootout_matrix"
    }

    /// Fused scoring must equal each cell run alone, byte for byte.
    fn gate(&mut self, checks: &mut Checks) {
        let n = self.ctx.sizes.gate_dies;
        let base = || StudyConfig::new(n, self.ctx.seed).exec(self.ctx.exec());
        let (_, fused) = timed(|| matrix(base()).try_run().map_err(|e| e.to_string()));
        checks.op(fused
            .as_ref()
            .err()
            .map(|e| format!("fused gate matrix: {e}")));
        let Ok(fused) = fused else { return };
        for (i, (supply, env, faults)) in cells().into_iter().enumerate() {
            let alone = base().supply_backend(supply).env(env);
            let (_, state) = timed(|| {
                match faults {
                    None => alone.try_run_summary().map(|s| s.encode_state()),
                    Some(plan) => alone
                        .faults(plan)
                        .try_run_faults()
                        .map(|s| s.encode_state()),
                }
                .map_err(|e| e.to_string())
            });
            checks.op(match state {
                Err(e) => Some(format!("per-cell gate study {i}: {e}")),
                Ok(bytes) if bytes != fused[i].encode_state() => {
                    Some(format!("fused cell {i} differs from its standalone run"))
                }
                Ok(_) => None,
            });
        }
    }

    fn setup(&mut self, t: &mut Tracer) {
        let tech = Technology::st_130nm();
        self.eval = Some(t.span("device.eval_build", |_| EvalMode::Analytic.build(&tech)));
        // The matrix builds one supply model per distinct backend; these
        // are the calls it makes, timed from outside.
        for supply in SUPPLIES {
            let sim = t.span("regulators.build_sim", |_| {
                supply.build_sim(Default::default())
            });
            std::hint::black_box(sim);
        }
    }

    fn rep(&mut self, t: &mut Tracer, checkpoint: bool) -> Rep {
        let eval = self.eval.clone().expect("set up before the first rep");
        let chunks = AtomicU64::new(0);
        let count = |_: Progress| {
            chunks.fetch_add(1, Ordering::Relaxed);
        };
        let dies = self.ctx.sizes.shootout_dies;
        let mut base = StudyConfig::new(dies, self.ctx.seed)
            .exec(self.ctx.exec())
            .eval(eval);
        let path = self.ctx.fresh_checkpoint(self.name());
        if checkpoint {
            base = base.checkpoint(&path);
        }
        if t.is_on() {
            base = base.progress(&count);
        }
        let m = matrix(base);
        let (secs, out) = t.span("matrix.try_run", |_| {
            timed(|| m.try_run().map_err(|e| e.to_string()))
        });
        let mut rep = Rep {
            die_cells: (dies * m.cells().len()) as u64,
            chunks: chunks.load(Ordering::Relaxed),
            ..Rep::default()
        };
        let mut digest = out.map(|cells| {
            let d = cells_digest(&cells);
            for cell in &cells {
                if let Some(f) = cell.as_faults() {
                    rep.faults_injected += f.faults_injected;
                    rep.watchdog_trips += f.watchdog_trips;
                }
            }
            self.last = cells;
            d
        });
        if checkpoint {
            rep.checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            // A second run on the finished file replays it without
            // rescoring; it must hand back the same bytes.
            let (replay, again) = t.span("exec.checkpoint_replay", |_| {
                timed(|| m.try_run().map_err(|e| e.to_string()))
            });
            rep.replay_secs = Some(replay);
            digest = match (digest, again) {
                (Ok(d), Ok(cells)) if cells_digest(&cells) == d => Ok(d),
                (Ok(_), Ok(_)) => Err("checkpoint replay changed the results".to_owned()),
                (Ok(_), Err(e)) => Err(format!("checkpoint replay: {e}")),
                (Err(e), _) => Err(e),
            };
        }
        rep.ops.push(Op { secs, digest });
        rep
    }

    fn check_reference(&self, checks: &mut Checks) {
        let n = self.ctx.sizes.shootout_dies;
        let exact = self.ctx.seed == reference::SEED && n == reference::SHOOTOUT_DIES;
        for (i, (cell, want)) in self
            .last
            .iter()
            .zip(reference::SHOOTOUT_ADAPTIVE)
            .enumerate()
        {
            let got = match cell {
                CellSummary::Yield(s) => s.adaptive_yield(),
                CellSummary::Faults(s) => s.adaptive_yield(),
            };
            let what = format!("shoot-out cell {i} adaptive yield");
            checks.check(near(&what, got, want, yield_tolerance(exact, want, n)));
        }
    }
}
