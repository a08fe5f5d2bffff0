//! The study engine: N study cells fused over one die stream.
//!
//! A supply shoot-out, corner sweep or fault-rate ladder runs the
//! *same* die population through many (supply backend × environment ×
//! fault plan) configurations. Run cell-by-cell, every cell pays the
//! full pipeline again: the Monte-Carlo die draw, the adaptive settle
//! walk, the dither walk — work that does not depend on the axis the
//! cell varies. [`StudyMatrix`] evaluates all cells in one pass per
//! chunk instead, sharing each phase at the widest scope its inputs
//! allow:
//!
//! * **once per chunk** — the SoA die draw and the per-die fault-stream
//!   seeds (depend only on the root seed and the variation model);
//! * **once per set of fault rates** — each die's 24-cycle fault
//!   schedule (mitigation changes no draw); with the seed replay this
//!   is the `shared draw` phase;
//! * **once per environment group** — the sensor calibration, the
//!   adaptive word settle and the sub-LSB dither walk (sense the exact
//!   candidate voltage, so the supply never enters);
//! * **once per (environment × fault plan)** — the faulted walk of
//!   every *droop-free* die, one whose schedule fires no comparator
//!   glitch or missed PWM edge: the walk reads the supply only through
//!   those two droops;
//! * **once per (environment × supply) group** — the fixed lane, the
//!   adaptive cohort lanes and the dithered spec check, with one
//!   operating-point memo per chunk for their energy legs;
//! * **once per fault cell** — the walk of every drooping die, and the
//!   final scoring of every walk on the cell's supply.
//!
//! This is the only batched engine. A standalone
//! [`StudyConfig::run_summary`] / [`StudyConfig::run_faults`] is a
//! one-cell run of it; the scalar [`StudyConfig::run`] path is kept
//! only as the test oracle.
//!
//! **Byte-identity contract:** every cell's accumulator — the exact
//! [`CellSummary::encode_state`] bytes — equals folding the scalar
//! oracle (`score_die` / `score_faulted_die`) over the same die
//! stream, and so equals running that cell alone. The shared phases
//! are pure-function hoists the batch-equivalence suite pins
//! lane-vs-scalar; the fault-stream seeds are replayed per die exactly
//! as the scalar path forks them, and the scalar fault oracle runs the
//! same schedule draw, walk and scoring functions one die at a time;
//! and no cell's RNG, sense sequence or fault schedule can observe that
//! other cells exist.
//! `tests/matrix_equivalence.rs` pins all of it across worker counts,
//! batch sizes, backends and fault rates.
//!
//! With [`StudyConfig::checkpoint`] armed, the engine commits one
//! record per chunk — the per-cell states side by side — so a killed
//! 18-cell run resumes all cells bit-identically from one file, at any
//! `--jobs`/`--batch` (see `subvt_exec::checkpoint`). A standalone
//! study's file is the one-cell case.

use std::time::Instant;

use subvt_device::mosfet::Environment;
use subvt_device::tabulate::CachedEval;
use subvt_device::units::Volts;
use subvt_digital::lut::VoltageWord;
use subvt_exec::checkpoint::{
    fingerprint_of, open_matrix_for_resume, CheckpointError, MatrixCheckpointWriter,
};
use subvt_exec::{chunk_count, try_par_fold_commit, ExecHooks};
use subvt_faults::FaultPlan;
use subvt_rng::{Rng, StdRng};
use subvt_tdc::sensor::VariationSensor;

use crate::batch::{ChunkSeeds, DieBatch};
use crate::fault_study::{
    draw_schedule, fault_droops, fault_trajectory, is_droop_free, score_trajectory, CleanDie,
    DieSchedule, FaultStudySummary, Trajectory,
};
use crate::profile::{record_phase, record_sub_batch, Phase};
use crate::study::{StudyConfig, StudyError, SupplyBackendKind};
use crate::yield_study::{calibrated_sensor, StudyContext, SupplySim, YieldSummary};

/// One cell of a study matrix: the axes a cell may vary against the
/// base configuration. Everything else — dies, seed, spec, words,
/// load, evaluator, solver, variation model — comes from the base
/// [`StudyConfig`] and is common to every cell (which is what makes
/// the die stream shareable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixCell {
    /// The supply backend scoring this cell (built once per run with
    /// the base configuration's solver).
    pub supply: SupplyBackendKind,
    /// The operating environment (process corner, temperature) of this
    /// cell.
    pub env: Environment,
    /// `Some(plan)` makes this a fault-study cell
    /// ([`FaultStudySummary`]); `None` a summary cell
    /// ([`YieldSummary`]). The base configuration's own fault plan is
    /// ignored by the matrix.
    pub faults: Option<FaultPlan>,
}

/// A cell as the engine scores it: the supply model built and its
/// fingerprint tag resolved. [`StudyMatrix`] resolves its backend
/// cells; a standalone [`StudyConfig`] terminal resolves itself, so a
/// caller-built `.supply(SupplySim)` model keeps its `{tag}-model`
/// identity.
pub(crate) struct ResolvedCell {
    pub(crate) sim: SupplySim,
    /// The supply's checkpoint-fingerprint tag.
    pub(crate) tag: String,
    pub(crate) env: Environment,
    pub(crate) faults: Option<FaultPlan>,
}

/// One cell's result: the same aggregate the standalone terminal of
/// that cell kind returns, bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSummary {
    /// A summary cell's aggregate ([`StudyConfig::run_summary`]).
    Yield(YieldSummary),
    /// A fault cell's aggregate ([`StudyConfig::run_faults`]).
    Faults(FaultStudySummary),
}

impl CellSummary {
    fn empty_for(cell: &ResolvedCell) -> CellSummary {
        match cell.faults {
            None => CellSummary::Yield(YieldSummary::empty()),
            Some(_) => CellSummary::Faults(FaultStudySummary::empty()),
        }
    }

    fn decode_for(cell: &ResolvedCell, state: &[u8]) -> Result<CellSummary, CheckpointError> {
        match cell.faults {
            None => YieldSummary::decode_state(state).map(CellSummary::Yield),
            Some(_) => FaultStudySummary::decode_state(state).map(CellSummary::Faults),
        }
    }

    fn merge(&mut self, other: CellSummary) {
        match (self, other) {
            (CellSummary::Yield(a), CellSummary::Yield(b)) => a.merge(b),
            (CellSummary::Faults(a), CellSummary::Faults(b)) => a.merge(b),
            _ => unreachable!("a cell's partial accumulators share its kind"),
        }
    }

    fn set_fixed_word(&mut self, word: VoltageWord) {
        match self {
            CellSummary::Yield(s) => s.fixed_word = word,
            CellSummary::Faults(s) => s.base.fixed_word = word,
        }
    }

    /// The cell's accumulator state — untagged, so the bytes are
    /// exactly [`YieldSummary::encode_state`] /
    /// [`FaultStudySummary::encode_state`] of the standalone run. This
    /// is the canonical equality witness of the matrix contract (and
    /// the per-cell payload of a version-2 checkpoint record).
    pub fn encode_state(&self) -> Vec<u8> {
        match self {
            CellSummary::Yield(s) => s.encode_state(),
            CellSummary::Faults(s) => s.encode_state(),
        }
    }

    /// The summary aggregate, when this is a summary cell.
    pub fn as_yield(&self) -> Option<&YieldSummary> {
        match self {
            CellSummary::Yield(s) => Some(s),
            CellSummary::Faults(_) => None,
        }
    }

    /// The fault-study aggregate, when this is a fault cell.
    pub fn as_faults(&self) -> Option<&FaultStudySummary> {
        match self {
            CellSummary::Yield(_) => None,
            CellSummary::Faults(s) => Some(s),
        }
    }
}

/// The cells of one (environment × supply) group: they share the fixed
/// lane, the adaptive cohort lanes and the dithered check.
struct SupplyGroup {
    /// Index of the group's representative cell (context provider).
    lead: usize,
    /// Every member cell, in matrix order.
    members: Vec<usize>,
}

/// The supply groups of one environment group: they share the settle
/// and dither walks, and per fault plan the walk of every droop-free
/// die.
struct CornerGroup {
    lead: usize,
    supplies: Vec<SupplyGroup>,
    /// The distinct plans of the group's fault cells, each with the
    /// index of its rates in [`MatrixGroups::rates`].
    plans: Vec<(FaultPlan, usize)>,
}

/// The sharing structure of a matrix: cells grouped by *model
/// equality*, not by label — two cells share work exactly when the
/// values their phases read are equal.
struct MatrixGroups {
    corners: Vec<CornerGroup>,
    /// The distinct rates of the fault cells, mitigation set aside (it
    /// changes no draw): one schedule draw each per sub-batch.
    rates: Vec<FaultPlan>,
    /// Per cell: a fault cell's index into its corner group's `plans`.
    plan_slots: Vec<Option<usize>>,
}

/// The index of `item` in `items`, appending it when absent.
fn slot_of<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

impl MatrixGroups {
    fn build(cells: &[ResolvedCell]) -> MatrixGroups {
        let mut corners: Vec<CornerGroup> = Vec::new();
        let mut rates: Vec<FaultPlan> = Vec::new();
        let mut plan_slots = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let corner = match corners.iter_mut().find(|g| cells[g.lead].env == cell.env) {
                Some(g) => g,
                None => {
                    corners.push(CornerGroup {
                        lead: i,
                        supplies: Vec::new(),
                        plans: Vec::new(),
                    });
                    corners.last_mut().expect("just pushed")
                }
            };
            match corner
                .supplies
                .iter_mut()
                .find(|sg| cells[sg.lead].sim == cell.sim)
            {
                Some(sg) => sg.members.push(i),
                None => corner.supplies.push(SupplyGroup {
                    lead: i,
                    members: vec![i],
                }),
            }
            plan_slots.push(cell.faults.map(|plan| {
                let rate_slot = slot_of(&mut rates, plan.with_mitigation(true));
                slot_of(&mut corner.plans, (plan, rate_slot))
            }));
        }
        MatrixGroups {
            corners,
            rates,
            plan_slots,
        }
    }
}

/// The fused per-chunk fold: one shared draw, then every cell scored
/// against the same lanes, sub-batch by sub-batch. Each cell's
/// accumulator absorbs its dies in die order, so the per-cell
/// fold/merge sequence is exactly the standalone terminal's.
#[allow(clippy::too_many_arguments)] // crate-internal fold kernel
fn fold_matrix_chunk(
    cells: &[ResolvedCell],
    ctxs: &[StudyContext<'_>],
    droops: &[(Volts, Volts)],
    groups: &MatrixGroups,
    batch: usize,
    seeds: &[u64],
    accs: &mut [CellSummary],
) {
    let batch = batch.max(1);
    let mut scratch = DieBatch::with_capacity(batch.min(seeds.len().max(1)));
    let mut fault_seeds: Vec<u64> = Vec::new();
    // Each die's schedule per set of rates, and each droop-free die's
    // trajectory per plan of the current environment group.
    let mut schedules: Vec<Vec<DieSchedule>> = vec![Vec::new(); groups.rates.len()];
    let mut shared_walks: Vec<Vec<Option<Trajectory>>> = Vec::new();
    // One operating-point memo per (environment × supply) group for the
    // whole chunk: pure memoization of the energy legs the group's lanes
    // and fault walks share. Its keys never depend on the die, so it
    // holds at most the group's distinct words and settled voltages.
    let memos: Vec<Vec<CachedEval<'_>>> = groups
        .corners
        .iter()
        .map(|corner| {
            corner
                .supplies
                .iter()
                .map(|group| CachedEval::new(ctxs[group.lead].eval.as_ref()))
                .collect()
        })
        .collect();
    let mut lo = 0;
    while lo < seeds.len() {
        let hi = (lo + batch).min(seeds.len());
        let sub = &seeds[lo..hi];
        record_sub_batch();

        // The SoA die lanes, drawn once for every cell.
        let t0 = Instant::now();
        scratch.draw(&ctxs[0], sub);
        record_phase(Phase::Draw, t0.elapsed().as_nanos() as u64);
        // The per-die fault schedules, when a fault cell needs them.
        // The scalar replay advances each die stream exactly as the
        // scalar path does (sample, then fork), so
        // `seed_from_u64(fault_seeds[k])` *is* the stream
        // `die_rng.fork("faults")` hands the scalar walk.
        if !groups.rates.is_empty() {
            let t0 = Instant::now();
            fault_seeds.clear();
            for &seed in sub {
                let mut die_rng = StdRng::seed_from_u64(seed);
                ctxs[0].variation.sample_die(&mut die_rng);
                fault_seeds.push(die_rng.fork_seed("faults"));
            }
            for (rates, dies) in groups.rates.iter().zip(&mut schedules) {
                dies.clear();
                dies.extend(
                    fault_seeds
                        .iter()
                        .map(|&seed| draw_schedule(*rates, StdRng::seed_from_u64(seed))),
                );
            }
            record_phase(Phase::SharedDraw, t0.elapsed().as_nanos() as u64);
        }

        for (corner, memos) in groups.corners.iter().zip(&memos) {
            let cctx = &ctxs[corner.lead];
            let t0 = Instant::now();
            scratch.settle_words(cctx);
            record_phase(Phase::SettleWord, t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            scratch.dither_walk(cctx);
            record_phase(Phase::Dither, t0.elapsed().as_nanos() as u64);

            // A droop-free die walks the same trajectory on every
            // supply of the group: walk it once per plan. (The droop
            // figures passed here are never read.)
            if !corner.plans.is_empty() {
                let t0 = Instant::now();
                shared_walks.resize_with(corner.plans.len(), Vec::new);
                for (walks, &(plan, rates)) in shared_walks.iter_mut().zip(&corner.plans) {
                    walks.clear();
                    walks.extend(schedules[rates].iter().enumerate().map(|(k, schedule)| {
                        is_droop_free(schedule).then(|| {
                            fault_trajectory(
                                cctx,
                                plan.mitigation,
                                schedule,
                                scratch.mismatch(k),
                                droops[corner.lead],
                            )
                        })
                    }));
                }
                record_phase(Phase::FaultWalk, t0.elapsed().as_nanos() as u64);
            }

            for (group, cached) in corner.supplies.iter().zip(memos) {
                let sctx = &ctxs[group.lead];
                let t0 = Instant::now();
                scratch.fixed_lane(sctx, cached);
                record_phase(Phase::Fixed, t0.elapsed().as_nanos() as u64);
                let t0 = Instant::now();
                scratch.adaptive_lanes(sctx, cached);
                record_phase(Phase::AdaptiveLanes, t0.elapsed().as_nanos() as u64);
                let t0 = Instant::now();
                scratch.dither_check(sctx, cached);
                record_phase(Phase::DitherCheck, t0.elapsed().as_nanos() as u64);

                for &ci in &group.members {
                    match (cells[ci].faults, &mut accs[ci]) {
                        (None, CellSummary::Yield(acc)) => {
                            for k in 0..scratch.len() {
                                acc.absorb(&scratch.outcome(k));
                            }
                        }
                        (Some(plan), CellSummary::Faults(acc)) => {
                            let t0 = Instant::now();
                            let slot = groups.plan_slots[ci].expect("a fault cell has a plan");
                            let schedules = &schedules[corner.plans[slot].1];
                            for (k, walk) in shared_walks[slot].iter().enumerate() {
                                let clean = CleanDie {
                                    outcome: scratch.outcome(k),
                                    mismatch: scratch.mismatch(k),
                                };
                                // A drooping die walks on this cell's supply.
                                let path = walk.unwrap_or_else(|| {
                                    fault_trajectory(
                                        sctx,
                                        plan.mitigation,
                                        &schedules[k],
                                        clean.mismatch,
                                        droops[ci],
                                    )
                                });
                                acc.absorb(&score_trajectory(sctx, cached, &clean, &path));
                            }
                            record_phase(Phase::FaultWalk, t0.elapsed().as_nanos() as u64);
                        }
                        _ => unreachable!("accumulator kind follows the cell kind"),
                    }
                }
            }
        }
        lo = hi;
    }
}

/// N study cells evaluated over one shared die stream.
///
/// Build from a base [`StudyConfig`] (whose dies, seed, spec, words,
/// load, evaluator, solver, execution, batch, checkpoint and hooks
/// apply to the whole matrix; its own supply/env/faults axes are
/// superseded by the cells), add cells with [`StudyMatrix::cell`],
/// then call [`StudyMatrix::run`] / [`StudyMatrix::try_run`].
///
/// ```
/// use subvt_core::matrix::StudyMatrix;
/// use subvt_core::study::{StudyConfig, SupplyBackendKind};
/// use subvt_device::mosfet::Environment;
///
/// let results = StudyMatrix::new(StudyConfig::new(80, 7))
///     .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
///     .cell(SupplyBackendKind::Buck, Environment::nominal(), None)
///     .run();
/// let ideal = results[0].as_yield().unwrap();
/// let buck = results[1].as_yield().unwrap();
/// assert!(buck.adaptive_yield() <= ideal.adaptive_yield() + 1e-12);
/// ```
pub struct StudyMatrix<'a> {
    base: StudyConfig<'a>,
    cells: Vec<MatrixCell>,
}

impl std::fmt::Debug for StudyMatrix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyMatrix")
            .field("base", &self.base)
            .field("cells", &self.cells)
            .finish()
    }
}

impl<'a> StudyMatrix<'a> {
    /// An empty matrix over `base`'s die population.
    pub fn new(base: StudyConfig<'a>) -> StudyMatrix<'a> {
        StudyMatrix {
            base,
            cells: Vec::new(),
        }
    }

    /// Appends one cell; results come back in insertion order.
    pub fn cell(
        mut self,
        supply: SupplyBackendKind,
        env: Environment,
        faults: Option<FaultPlan>,
    ) -> StudyMatrix<'a> {
        self.cells.push(MatrixCell {
            supply,
            env,
            faults,
        });
        self
    }

    /// The cells, in result order.
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The base configuration the cells share.
    pub fn base(&self) -> &StudyConfig<'a> {
        &self.base
    }

    /// The matrix identity hashed into the checkpoint fingerprint: the
    /// cell count plus each cell's identity string, built from the
    /// one template [`StudyConfig::fingerprint_text`] also uses.
    pub fn fingerprint_text(&self) -> String {
        fingerprint_text(
            &self.base,
            self.cells
                .iter()
                .map(|c| (c.supply.label(), c.env, c.faults)),
        )
    }

    /// Runs every cell over the shared die stream.
    ///
    /// # Panics
    ///
    /// Panics if an armed [`StudyConfig::checkpoint`] fails or an
    /// armed [`StudyConfig::cancel`] token fires — use
    /// [`StudyMatrix::try_run`] to handle those as values.
    pub fn run(&self) -> Vec<CellSummary> {
        match self.try_run() {
            Ok(cells) => cells,
            Err(e) => panic!("matrix study failed: {e}"),
        }
    }

    /// [`StudyMatrix::run`] with cancellation, progress and
    /// checkpointing surfaced as values. One checkpoint record — every
    /// cell's state, side by side — commits per chunk; an interrupted
    /// run resumes all cells bit-identically from the same file at any
    /// worker count or batch size.
    ///
    /// # Errors
    ///
    /// As [`StudyConfig::try_run_summary`].
    pub fn try_run(&self) -> Result<Vec<CellSummary>, StudyError> {
        // Per-cell supply models, hoisted to one *build* per distinct
        // backend per run — a buck settle table costs milliseconds to
        // integrate, and six buck cells share one snapshot. Clones
        // compare equal, so the group builder still sees the sharing.
        let mut resolved: Vec<ResolvedCell> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let built = resolved
                .iter()
                .zip(&self.cells)
                .find(|(_, c)| c.supply == cell.supply);
            resolved.push(ResolvedCell {
                sim: built.map_or_else(
                    || cell.supply.build_sim(self.base.solver),
                    |(r, _)| r.sim.clone(),
                ),
                tag: cell.supply.label().to_owned(),
                env: cell.env,
                faults: cell.faults,
            });
        }
        run_cells(&self.base, &resolved)
    }
}

/// The identity text of a run over `cells` — `(supply tag,
/// environment, fault plan)` per cell — against `base`.
fn fingerprint_text<'t>(
    base: &StudyConfig<'_>,
    cells: impl ExactSizeIterator<Item = (&'t str, Environment, Option<FaultPlan>)>,
) -> String {
    let mut text = format!("subvt-matrix-v1 cells={}", cells.len());
    for (tag, env, faults) in cells {
        text.push('\n');
        let kind = if faults.is_some() {
            "faults"
        } else {
            "summary"
        };
        text.push_str(&base.fingerprint_text_with(kind, tag, env, faults));
    }
    text
}

/// Opens (or creates) `base`'s checkpoint file for a run over `cells`,
/// returning the resume point.
fn open_checkpoint(
    base: &StudyConfig<'_>,
    cells: &[ResolvedCell],
) -> Result<(usize, Vec<CellSummary>, Option<MatrixCheckpointWriter>), StudyError> {
    let empty = || cells.iter().map(CellSummary::empty_for).collect();
    let Some(path) = &base.checkpoint else {
        return Ok((0, empty(), None));
    };
    let text = fingerprint_text(
        base,
        cells.iter().map(|c| (c.tag.as_str(), c.env, c.faults)),
    );
    let fingerprint = fingerprint_of(&text);
    let total = base.dies as u64;
    let n_cells = u32::try_from(cells.len())
        .map_err(|_| StudyError::Checkpoint(CheckpointError::Decode("too many cells")))?;
    if !path.exists() {
        let writer = MatrixCheckpointWriter::create(path, fingerprint, total, n_cells)?;
        return Ok((0, empty(), Some(writer)));
    }
    let (checkpoint, writer) = open_matrix_for_resume(path)?;
    checkpoint.verify(fingerprint, total, n_cells)?;
    match checkpoint.last {
        None => Ok((0, empty(), Some(writer))),
        Some(record) => {
            let start = usize::try_from(record.chunks_done)
                .ok()
                .filter(|&c| c <= chunk_count(base.dies))
                .ok_or(StudyError::Checkpoint(CheckpointError::Decode(
                    "checkpoint is ahead of the population",
                )))?;
            let accs = cells
                .iter()
                .zip(&record.states)
                .map(|(cell, state)| CellSummary::decode_for(cell, state))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((start, accs, Some(writer)))
        }
    }
}

/// The engine: scores `cells` over `base`'s die population in one
/// fused pass per chunk, committing one checkpoint record per chunk
/// when `base` arms a checkpoint. Results come back in cell order.
pub(crate) fn run_cells(
    base: &StudyConfig<'_>,
    cells: &[ResolvedCell],
) -> Result<Vec<CellSummary>, StudyError> {
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let (start_chunk, start, mut writer) = open_checkpoint(base, cells)?;
    let eval = base.resolved_eval();
    // One sensor calibration per distinct environment: calibration is
    // a pure function of (evaluator, environment), and every cell of
    // an environment group senses through the same bands.
    let mut sensors: Vec<(Environment, VariationSensor)> = Vec::new();
    for cell in cells {
        if !sensors.iter().any(|(env, _)| *env == cell.env) {
            sensors.push((cell.env, calibrated_sensor(&eval, cell.env)));
        }
    }
    let ctxs: Vec<StudyContext<'_>> = cells
        .iter()
        .map(|cell| {
            let (_, sensor) = sensors
                .iter()
                .find(|(env, _)| *env == cell.env)
                .expect("every environment was calibrated");
            StudyContext::new(
                eval.clone(),
                base.load.as_dyn(),
                cell.env,
                &base.variation,
                base.spec,
                base.fixed_word,
                base.design_word,
                sensor,
                &cell.sim,
            )
        })
        .collect();
    // Converter-fault droop figures, hoisted to once per cell.
    let droops: Vec<(Volts, Volts)> = ctxs.iter().map(fault_droops).collect();
    let groups = MatrixGroups::build(cells);
    let seeds = ChunkSeeds::new(base.seed, base.dies, "die");
    let batch = base.batch.max(1);
    let hooks = ExecHooks {
        cancel: base.cancel,
        progress: base.progress,
    };
    let mut result = try_par_fold_commit(
        &base.exec,
        base.dies,
        start_chunk,
        &hooks,
        || cells.iter().map(CellSummary::empty_for).collect::<Vec<_>>(),
        start,
        |accs, range| {
            let chunk_seeds = seeds.for_range(range);
            fold_matrix_chunk(cells, &ctxs, &droops, &groups, batch, &chunk_seeds, accs);
        },
        |accs, parts| {
            for (acc, part) in accs.iter_mut().zip(parts) {
                acc.merge(part);
            }
        },
        |chunks_done, accs| match &mut writer {
            Some(w) => {
                let states: Vec<Vec<u8>> = accs.iter().map(CellSummary::encode_state).collect();
                w.append(chunks_done as u64, &states)
            }
            None => Ok(()),
        },
    )
    .map_err(StudyError::from_fold)?;
    for acc in &mut result {
        acc.set_fixed_word(base.fixed_word);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_study::scalar_fault_summary;
    use subvt_exec::ExecConfig;

    #[test]
    fn empty_matrix_is_empty() {
        assert!(StudyMatrix::new(StudyConfig::new(10, 1)).run().is_empty());
    }

    #[test]
    fn single_summary_cell_matches_the_scalar_oracle() {
        let oracle = StudyConfig::new(90, 13)
            .supply_backend(SupplyBackendKind::Buck)
            .run()
            .summarize();
        let fused = StudyMatrix::new(StudyConfig::new(90, 13))
            .cell(SupplyBackendKind::Buck, Environment::nominal(), None)
            .run();
        assert_eq!(
            fused[0].encode_state(),
            oracle.encode_state(),
            "byte-identity of a lone cell (fixed word included)"
        );
    }

    #[test]
    fn single_fault_cell_matches_the_scalar_oracle() {
        let plan = FaultPlan::uniform(0.02);
        let oracle = scalar_fault_summary(&StudyConfig::new(90, 13), plan);
        let fused = StudyMatrix::new(StudyConfig::new(90, 13))
            .cell(SupplyBackendKind::Ideal, Environment::nominal(), Some(plan))
            .run();
        assert_eq!(fused[0].encode_state(), oracle.encode_state());
    }

    #[test]
    fn duplicate_cells_produce_identical_results() {
        // Two cells with equal axes land in one group and must come
        // back byte-identical — sharing is by model equality.
        let fused = StudyMatrix::new(StudyConfig::new(60, 5))
            .cell(SupplyBackendKind::Dldo, Environment::nominal(), None)
            .cell(SupplyBackendKind::Dldo, Environment::nominal(), None)
            .run();
        assert_eq!(fused[0], fused[1]);
    }

    fn resolve(cells: &[(SupplyBackendKind, Environment, Option<FaultPlan>)]) -> Vec<ResolvedCell> {
        cells
            .iter()
            .map(|&(supply, env, faults)| ResolvedCell {
                sim: supply.build_sim(Default::default()),
                tag: supply.label().to_owned(),
                env,
                faults,
            })
            .collect()
    }

    #[test]
    fn grouping_shares_by_model_equality() {
        let hot = Environment::nominal().with_celsius(65.0);
        let groups = MatrixGroups::build(&resolve(&[
            (SupplyBackendKind::Buck, Environment::nominal(), None),
            (SupplyBackendKind::Dldo, Environment::nominal(), None),
            (SupplyBackendKind::Buck, hot, None),
            (SupplyBackendKind::Buck, Environment::nominal(), None),
        ]));
        assert_eq!(groups.corners.len(), 2, "two distinct environments");
        let nominal = &groups.corners[0];
        assert_eq!(nominal.supplies.len(), 2, "buck and dldo at nominal");
        assert_eq!(
            nominal.supplies[0].members,
            vec![0, 3],
            "duplicate buck cells share"
        );
        assert_eq!(groups.corners[1].supplies.len(), 1);
        assert!(groups.rates.is_empty(), "no fault cell, no schedule draw");
    }

    #[test]
    fn fault_cells_share_draws_by_rates_and_walks_by_corner_and_plan() {
        let hot = Environment::nominal().with_celsius(65.0);
        let low = FaultPlan::uniform(0.02);
        let high = FaultPlan::uniform(0.25);
        let unmitigated = high.with_mitigation(false);
        let groups = MatrixGroups::build(&resolve(&[
            (SupplyBackendKind::Buck, Environment::nominal(), Some(high)),
            (
                SupplyBackendKind::Dldo,
                Environment::nominal(),
                Some(unmitigated),
            ),
            (SupplyBackendKind::Dlr, Environment::nominal(), Some(high)),
            (SupplyBackendKind::Buck, hot, Some(low)),
            (SupplyBackendKind::Buck, hot, None),
        ]));
        assert_eq!(
            groups.rates,
            vec![high, low],
            "mitigation never splits a draw"
        );
        assert_eq!(groups.corners[0].plans, vec![(high, 0), (unmitigated, 0)]);
        assert_eq!(groups.corners[1].plans, vec![(low, 1)]);
        assert_eq!(
            groups.plan_slots,
            vec![Some(0), Some(1), Some(0), Some(0), None]
        );
    }

    #[test]
    fn matrix_is_bit_identical_at_any_job_count() {
        let plan = FaultPlan::uniform(0.05);
        let build = |jobs: usize| {
            StudyMatrix::new(StudyConfig::new(70, 11).exec(ExecConfig::with_jobs(jobs)))
                .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
                .cell(SupplyBackendKind::Buck, Environment::nominal(), Some(plan))
                .run()
        };
        let reference = build(1);
        for jobs in [2usize, 7] {
            assert_eq!(build(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_cell_order_and_axes() {
        let text = |cells: &[(SupplyBackendKind, Option<FaultPlan>)]| {
            cells
                .iter()
                .fold(
                    StudyMatrix::new(StudyConfig::new(10, 1)),
                    |m, &(supply, faults)| m.cell(supply, Environment::nominal(), faults),
                )
                .fingerprint_text()
        };
        let plan = FaultPlan::uniform(0.02);
        let a = text(&[
            (SupplyBackendKind::Buck, None),
            (SupplyBackendKind::Dldo, None),
        ]);
        let b = text(&[
            (SupplyBackendKind::Dldo, None),
            (SupplyBackendKind::Buck, None),
        ]);
        let c = text(&[
            (SupplyBackendKind::Buck, Some(plan)),
            (SupplyBackendKind::Dldo, None),
        ]);
        assert_ne!(a, b, "cell order is identity");
        assert_ne!(a, c, "fault plan is identity");
        assert!(a.starts_with("subvt-matrix-v1 cells=2\n"), "{a}");
    }
}
