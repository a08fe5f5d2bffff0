//! Structure-of-arrays die scoring: the fleet-scale hot path.
//!
//! The scalar path ([`StudyContext::score_die`]) walks one die at a
//! time through the spec checks and settling loops. This module scores
//! a whole *sub-batch* of dies per pass instead, holding the per-die
//! quantities in flat arrays (`Vec<GateMismatch>`, `Vec<Seconds>`, …)
//! so the common-voltage spec checks run as lanes through
//! [`subvt_loads::load::CircuitLoad::critical_path_lane`] — one grid
//! resolution per lane
//! for tabulated surfaces, auto-vectorizable inner loops — and the
//! die-independent energy evaluations happen once per operating point
//! instead of once per die.
//!
//! Bit-identity contract: for every die the batched path performs the
//! *same arithmetic on the same inputs* as the scalar path — lanes are
//! pure-function hoists (pinned in `subvt-device`), the shared
//! [`subvt_device::tabulate::CachedEval`] is pure memoization, and
//! outcomes are handed to the caller in die order — so any sub-batch
//! size, including the ragged final sub-batch, reproduces the scalar
//! study bit-for-bit. The property suite in
//! `tests/batch_equivalence.rs` pins this.

use std::fmt::Write as _;
use std::ops::Range;

use subvt_device::delay::GateMismatch;
use subvt_device::tabulate::DeviceEval;
use subvt_device::units::{Joules, Seconds, Volts};
use subvt_digital::lut::VoltageWord;
use subvt_exec::chunk_len;
use subvt_rng::{Jump, Rng, StdRng};
use subvt_tdc::sensor::{word_voltage, SenseError};

use crate::yield_study::{DieOutcome, StudyContext};

/// The per-die seed stream in `O(chunks)` memory.
///
/// The scalar oracle materializes one forked seed per die
/// (`die_seeds`), which is an `O(dies)` vector — 80 MB for a 10⁷-die
/// fleet. The parent generator only ever advances one draw per die,
/// though, so snapshotting its 32-byte state at every chunk boundary
/// is enough: a worker clones its chunk's snapshot and re-derives the
/// chunk's seeds locally, bit-identical to the serial
/// `fork_seed("{label}-{i}")` stream.
pub(crate) struct ChunkSeeds<'l> {
    /// The fork label stem: die `i` forks `"{label}-{i}"`.
    label: &'l str,
    /// The parent's state at the start of each chunk.
    states: Vec<StdRng>,
    /// The chunk length the snapshots were taken at.
    chunk: usize,
}

impl<'l> ChunkSeeds<'l> {
    /// Snapshots the `"{label}-{i}"` seed stream of
    /// `StdRng::seed_from_u64(seed)` at every [`chunk_len`] boundary of
    /// a `dies`-sized population.
    pub(crate) fn new(seed: u64, dies: usize, label: &'l str) -> ChunkSeeds<'l> {
        let chunk = chunk_len(dies);
        let mut parent = StdRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(dies.div_ceil(chunk));
        // The parent advances exactly one draw per die (`fork_seed`'s
        // label hash never touches it), so each boundary state is one
        // chunk-length jump past the previous — O(chunks) total, with
        // one O(log chunk) matrix build, instead of O(dies) draws. The
        // KAT suite in subvt-rng pins the jump to the sequential
        // stream; the final jump overshoots a ragged last chunk, but
        // that state is never snapshotted.
        let jump = Jump::by(chunk as u64);
        for _ in 0..dies.div_ceil(chunk) {
            states.push(parent.clone());
            jump.apply(&mut parent);
        }
        ChunkSeeds {
            label,
            states,
            chunk,
        }
    }

    /// The seeds of one chunk-aligned `range` of dies, re-derived from
    /// the boundary state (a small, transient per-worker vector).
    pub(crate) fn for_range(&self, range: Range<usize>) -> Vec<u64> {
        debug_assert_eq!(range.start % self.chunk, 0, "range must be chunk-aligned");
        let mut rng = self.states[range.start / self.chunk].clone();
        // One reused label buffer instead of a heap allocation per die
        // — the label bytes (and so the seeds) are unchanged.
        let mut label = String::with_capacity(self.label.len() + 21);
        range
            .map(|i| {
                label.clear();
                write!(label, "{}-{i}", self.label).expect("in-memory write");
                rng.fork_seed(&label)
            })
            .collect()
    }
}

/// Spec-checks one lane of dies at a common commanded word: the energy
/// leg (die-independent) is evaluated once through `energy_eval`, the
/// rate leg runs as a critical-path lane. Writes the per-die pass flag
/// and returns the shared energy — the exact quantities
/// [`StudyContext::passes`] produces per die.
fn lane_passes(
    ctx: &StudyContext<'_>,
    energy_eval: &dyn DeviceEval,
    word: VoltageWord,
    mismatches: &[GateMismatch],
    delays: &mut [Seconds],
    pass: &mut [bool],
) -> Joules {
    let (v_rate, v_energy) = ctx.word_point(word);
    let energy = ctx.energy_at(energy_eval, v_energy);
    let energy_ok = ctx.meets_energy(energy);
    match ctx
        .load
        .critical_path_lane(ctx.eval.as_ref(), v_rate, ctx.env, mismatches, delays)
    {
        Ok(()) => {
            for (t, p) in delays.iter().zip(pass.iter_mut()) {
                *p = energy_ok && ctx.meets_rate(*t);
            }
        }
        // The lane error is die-independent (supply below the floor):
        // the scalar path's per-die `unwrap_or(false)` on every die.
        Err(_) => pass.fill(false),
    }
    energy
}

/// Reusable SoA scratch for one sub-batch of dies. All arrays are
/// bounded by the sub-batch size, so a million-die study's working set
/// stays `O(jobs × batch)`, never `O(dies)`.
///
/// The phases are individually callable so the engine
/// ([`crate::matrix`]) can run the shared ones (draw, word settle,
/// dither walk) once per corner group and the supply-dependent tails
/// (fixed lane, adaptive lanes, dithered check) once per cell group,
/// against the same lanes.
pub(crate) struct DieBatch {
    corner_units: Vec<f64>,
    mismatches: Vec<GateMismatch>,
    delays: Vec<Seconds>,
    fixed_pass: Vec<bool>,
    words: Vec<VoltageWord>,
    adaptive_pass: Vec<bool>,
    adaptive_energy: Vec<Joules>,
    dithered_pass: Vec<bool>,
    // Gather/scatter scratch for the by-settled-word adaptive lanes.
    group_idx: Vec<usize>,
    group_mm: Vec<GateMismatch>,
    group_t: Vec<Seconds>,
    group_pass: Vec<bool>,
    // Lockstep-settle scratch: the dies still walking, their next
    // round, and the per-die sense results and dither voltages.
    active: Vec<usize>,
    next_active: Vec<usize>,
    round_words: Vec<VoltageWord>,
    sense_out: Vec<Result<i16, SenseError>>,
    voltages: Vec<Volts>,
    group_v: Vec<Volts>,
    frac_out: Vec<Result<f64, SenseError>>,
    // Dithered-check scratch: each die's energy voltage and rate-leg
    // critical path.
    energy_v: Vec<Volts>,
    paths: Vec<Option<Seconds>>,
}

impl DieBatch {
    pub(crate) fn with_capacity(batch: usize) -> DieBatch {
        DieBatch {
            corner_units: Vec::with_capacity(batch),
            mismatches: Vec::with_capacity(batch),
            delays: Vec::with_capacity(batch),
            fixed_pass: Vec::with_capacity(batch),
            words: Vec::with_capacity(batch),
            adaptive_pass: Vec::with_capacity(batch),
            adaptive_energy: Vec::with_capacity(batch),
            dithered_pass: Vec::with_capacity(batch),
            group_idx: Vec::with_capacity(batch),
            group_mm: Vec::with_capacity(batch),
            group_t: Vec::with_capacity(batch),
            group_pass: Vec::with_capacity(batch),
            active: Vec::with_capacity(batch),
            next_active: Vec::with_capacity(batch),
            round_words: Vec::with_capacity(batch),
            sense_out: Vec::with_capacity(batch),
            voltages: Vec::with_capacity(batch),
            group_v: Vec::with_capacity(batch),
            frac_out: Vec::with_capacity(batch),
            energy_v: Vec::with_capacity(batch),
            paths: Vec::with_capacity(batch),
        }
    }

    fn reset(&mut self, n: usize) {
        self.corner_units.clear();
        self.corner_units.resize(n, 0.0);
        self.mismatches.clear();
        self.mismatches.resize(n, GateMismatch::NOMINAL);
        self.delays.clear();
        self.delays.resize(n, Seconds(0.0));
        self.fixed_pass.clear();
        self.fixed_pass.resize(n, false);
        self.words.clear();
        self.words.resize(n, 0);
        self.adaptive_pass.clear();
        self.adaptive_pass.resize(n, false);
        self.adaptive_energy.clear();
        self.adaptive_energy.resize(n, Joules(0.0));
        self.dithered_pass.clear();
        self.dithered_pass.resize(n, false);
    }

    /// Dies currently held in the scratch lanes.
    pub(crate) fn len(&self) -> usize {
        self.corner_units.len()
    }

    /// The mismatch lane entry of die `k` (for the fault walk's clean
    /// reference pieces).
    pub(crate) fn mismatch(&self, k: usize) -> GateMismatch {
        self.mismatches[k]
    }

    /// Phase A: sample the die population into the SoA lanes. One
    /// pre-forked stream per die, exactly as the scalar path draws;
    /// the correlation/scale arithmetic runs four dies wide. Resets
    /// every lane, so this must come first. Depends only on the seeds
    /// and the variation model — never the corner or the supply — so
    /// the engine runs it once for all cells.
    pub(crate) fn draw(&mut self, ctx: &StudyContext<'_>, seeds: &[u64]) {
        self.reset(seeds.len());
        ctx.variation
            .sample_die_lane(seeds, &mut self.corner_units, &mut self.mismatches);
    }

    /// Phase B: the fixed design — every die at one commanded word,
    /// the natural lane. Depends on the corner and the supply.
    pub(crate) fn fixed_lane(&mut self, ctx: &StudyContext<'_>, cached: &dyn DeviceEval) {
        lane_passes(
            ctx,
            cached,
            ctx.fixed_word,
            &self.mismatches,
            &mut self.delays,
            &mut self.fixed_pass,
        );
    }

    /// Phase C: the adaptive compensation walk, in lockstep — every
    /// die takes one walk step per round, and the dies currently
    /// testing the same candidate word share one fused sensor lane.
    /// Each die's step sequence (sense → dev == 0? → clamp walk →
    /// fixed-point?) is exactly `yield_study::settled_word`'s. Senses
    /// the exact candidate-word voltage, so it depends on the corner
    /// but not the supply.
    pub(crate) fn settle_words(&mut self, ctx: &StudyContext<'_>) {
        let n = self.len();
        // The settle lanes go straight to the study evaluator: every
        // iteration visits a fresh operating point, so the chunk's
        // memo (pure, and kept for the energy legs) would only add
        // lookups — bypassing it cannot change a bit.
        let eval = ctx.eval.as_ref();
        self.words[..n].fill(ctx.design_word);
        self.active.clear();
        self.active.extend(0..n);
        for _ in 0..8 {
            if self.active.is_empty() {
                break;
            }
            self.next_active.clear();
            // Snapshot each walker's word at the round boundary: a die
            // stepping up must not be re-sensed by a later cohort of
            // the same round.
            self.round_words.clear();
            self.round_words
                .extend(self.active.iter().map(|&k| self.words[k]));
            let mut word = 0usize;
            let mut remaining = self.active.len();
            while remaining > 0 && word < 64 {
                let w = word as VoltageWord;
                word += 1;
                self.group_idx.clear();
                self.group_idx.extend(
                    self.active
                        .iter()
                        .zip(&self.round_words)
                        .filter(|&(_, &rw)| rw == w)
                        .map(|(&k, _)| k),
                );
                if self.group_idx.is_empty() {
                    continue;
                }
                remaining -= self.group_idx.len();
                self.group_mm.clear();
                self.group_mm
                    .extend(self.group_idx.iter().map(|&k| self.mismatches[k]));
                self.sense_out.clear();
                self.sense_out.resize(self.group_idx.len(), Ok(0));
                let sensed = ctx.sensor.sense_lane_with(
                    eval,
                    ctx.design_word,
                    word_voltage(w),
                    ctx.env,
                    &self.group_mm,
                    &mut self.sense_out,
                );
                // A band error is die-independent: the whole cohort
                // stops walking, exactly as each scalar walk breaks.
                if sensed.is_err() {
                    continue;
                }
                for (j, &k) in self.group_idx.iter().enumerate() {
                    let Ok(dev) = self.sense_out[j] else {
                        continue;
                    };
                    if dev == 0 {
                        continue;
                    }
                    let next = (i16::from(w) - dev.signum()).clamp(1, 63) as VoltageWord;
                    if next != w {
                        self.words[k] = next;
                        self.next_active.push(k);
                    }
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
    }

    /// Phase D: score each settled word's cohort as a lane — one
    /// grid resolution and one energy evaluation per distinct word.
    /// Depends on the corner and the supply.
    pub(crate) fn adaptive_lanes(&mut self, ctx: &StudyContext<'_>, cached: &dyn DeviceEval) {
        let n = self.len();
        let mut remaining = n;
        let mut word = 0usize;
        while remaining > 0 && word < 64 {
            let w = word as VoltageWord;
            self.group_idx.clear();
            self.group_idx
                .extend((0..n).filter(|&k| self.words[k] == w));
            word += 1;
            if self.group_idx.is_empty() {
                continue;
            }
            remaining -= self.group_idx.len();
            self.group_mm.clear();
            self.group_mm
                .extend(self.group_idx.iter().map(|&k| self.mismatches[k]));
            self.group_t.clear();
            self.group_t.resize(self.group_idx.len(), Seconds(0.0));
            self.group_pass.clear();
            self.group_pass.resize(self.group_idx.len(), false);
            let energy = lane_passes(
                ctx,
                cached,
                w,
                &self.group_mm,
                &mut self.group_t,
                &mut self.group_pass,
            );
            for (j, &k) in self.group_idx.iter().enumerate() {
                self.adaptive_pass[k] = self.group_pass[j];
                self.adaptive_energy[k] = energy;
            }
        }
    }

    /// Phase E: the sub-LSB dither settle walk, in lockstep — every
    /// die walks its own continuous voltage, so the rounds lane over
    /// the per-die-supply fused kernel instead of a common word.
    /// Per die the update sequence is exactly
    /// `yield_study::settled_voltage_dithered`'s. Senses the exact
    /// walked voltage, so it depends on the corner but not the supply.
    pub(crate) fn dither_walk(&mut self, ctx: &StudyContext<'_>) {
        let n = self.len();
        let eval = ctx.eval.as_ref();
        self.voltages.clear();
        self.voltages.resize(n, word_voltage(ctx.design_word));
        self.active.clear();
        self.active.extend(0..n);
        for _ in 0..40 {
            if self.active.is_empty() {
                break;
            }
            self.group_v.clear();
            self.group_v
                .extend(self.active.iter().map(|&k| self.voltages[k]));
            self.group_mm.clear();
            self.group_mm
                .extend(self.active.iter().map(|&k| self.mismatches[k]));
            self.frac_out.clear();
            self.frac_out.resize(self.active.len(), Ok(0.0));
            let sensed = ctx.sensor.sense_fractional_multi_with(
                eval,
                ctx.design_word,
                &self.group_v,
                ctx.env,
                &self.group_mm,
                &mut self.frac_out,
            );
            if sensed.is_err() {
                // Die-independent band error: every walk breaks at its
                // current voltage.
                break;
            }
            self.next_active.clear();
            for (j, &k) in self.active.iter().enumerate() {
                let Ok(frac) = self.frac_out[j] else {
                    continue;
                };
                if frac.abs() < 0.02 {
                    continue;
                }
                let v = self.voltages[k].volts();
                self.voltages[k] = Volts((v - 0.2 * frac * 0.018_75).clamp(0.018_75, 1.18));
                self.next_active.push(k);
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
    }

    /// Phase F: the dithered spec check at each die's settled voltage,
    /// as a lane. Depends on the corner and the supply. The rate leg
    /// runs every die at its own voltage through the load's
    /// per-die-supply kernel on the study evaluator: its key carries the
    /// die's own (voltage, mismatch), so the memo could only miss. The
    /// energy leg depends only on the voltage and stays on `cached`.
    /// Per die the verdict is exactly
    /// [`StudyContext::passes_dithered`]'s.
    pub(crate) fn dither_check(&mut self, ctx: &StudyContext<'_>, cached: &dyn DeviceEval) {
        let n = self.len();
        self.group_v.clear();
        self.energy_v.clear();
        for &v in &self.voltages[..n] {
            let (v_rate, v_energy) = ctx.dithered_point(v);
            self.group_v.push(v_rate);
            self.energy_v.push(v_energy);
        }
        self.paths.clear();
        self.paths.resize(n, None);
        ctx.load.critical_path_multi(
            ctx.eval.as_ref(),
            &self.group_v,
            ctx.env,
            &self.mismatches,
            &mut self.paths,
        );
        for k in 0..n {
            let rate_ok = self.paths[k].is_some_and(|t| ctx.meets_rate(t));
            let energy = ctx.energy_at(cached, self.energy_v[k]);
            self.dithered_pass[k] = rate_ok && ctx.meets_energy(energy);
        }
    }

    pub(crate) fn outcome(&self, k: usize) -> DieOutcome {
        DieOutcome {
            corner_units: self.corner_units[k],
            fixed_passes: self.fixed_pass[k],
            adaptive_passes: self.adaptive_pass[k],
            dithered_passes: self.dithered_pass[k],
            adaptive_word: self.words[k],
            adaptive_energy: self.adaptive_energy[k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{StudyConfig, SupplyBackendKind};
    use crate::yield_study::{calibrated_sensor, die_seeds};
    use std::collections::HashSet;
    use subvt_device::mosfet::Environment;
    use subvt_device::tabulate::CachedEval;

    #[test]
    fn dither_check_lane_matches_per_die_passes_dithered() {
        // The lane check against the scalar verdict die by die, at the
        // walked voltages and at a sweep that crosses the supply floor
        // (the rate leg's per-die `None`) and both sides of the spec,
        // on every supply rail.
        let base = StudyConfig::new(1, 2009);
        let eval = base.resolved_eval();
        let env = Environment::nominal();
        let sensor = calibrated_sensor(&eval, env);
        let seeds = die_seeds(2009, 67);
        for kind in [
            SupplyBackendKind::Ideal,
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ] {
            let sim = kind.build_sim(base.solver);
            let ctx = StudyContext::new(
                eval.clone(),
                base.load.as_dyn(),
                env,
                &base.variation,
                base.spec,
                base.fixed_word,
                base.design_word,
                &sensor,
                &sim,
            );
            let mut batch = DieBatch::with_capacity(seeds.len());
            batch.draw(&ctx, &seeds);
            batch.dither_walk(&ctx);
            let walked = batch.voltages.clone();
            let sweep: Vec<Volts> = (0..seeds.len())
                .map(|k| Volts(0.05 + 0.005 * k as f64))
                .collect();
            let mut verdicts = HashSet::new();
            let mut below_floor = 0;
            for voltages in [walked, sweep] {
                batch.voltages = voltages;
                let cached = CachedEval::new(eval.as_ref());
                batch.dither_check(&ctx, &cached);
                for k in 0..batch.len() {
                    let (want, _) = ctx.passes_dithered(
                        eval.as_ref(),
                        eval.as_ref(),
                        batch.voltages[k],
                        batch.mismatches[k],
                    );
                    assert_eq!(batch.dithered_pass[k], want, "{} die {k}", kind.label());
                    verdicts.insert(want);
                }
                below_floor += batch.paths.iter().filter(|t| t.is_none()).count();
            }
            assert_eq!(verdicts.len(), 2, "{}: passes and fails", kind.label());
            assert!(below_floor > 0, "{}: no die below the floor", kind.label());
        }
    }

    /// Serial reference for [`ChunkSeeds::new`]: walk the parent
    /// die by die with the real `fork_seed` labels, snapshotting its
    /// state at every chunk boundary.
    fn serial_boundary_states(seed: u64, dies: usize, chunk: usize) -> Vec<[u64; 4]> {
        let mut parent = StdRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(dies.div_ceil(chunk));
        let mut label = String::with_capacity(24);
        for i in 0..dies {
            if i % chunk == 0 {
                states.push(parent.state());
            }
            label.clear();
            write!(label, "die-{i}").expect("in-memory write");
            parent.fork_seed(&label);
        }
        states
    }

    #[test]
    fn jump_ahead_matches_serial_reseeding_at_ten_thousand_chunks() {
        // ≥10⁴ chunks forces dies ≥ 2048 · 10⁴ (chunk_len saturates at
        // 2048): the jump table is exercised far past the small chunk
        // counts the study suite reaches.
        const CHUNKS: usize = 10_000;
        let chunk = 2048;
        let dies = chunk * CHUNKS;
        assert_eq!(chunk_len(dies), chunk, "fixture: chunk_len saturated");
        let seeds = ChunkSeeds::new(2009, dies, "die");
        assert_eq!((seeds.chunk, seeds.states.len()), (chunk, CHUNKS));
        let serial = serial_boundary_states(2009, dies, chunk);
        for (i, (jumped, walked)) in seeds.states.iter().zip(&serial).enumerate() {
            assert_eq!(jumped.state(), *walked, "boundary state of chunk {i}");
        }
        // And the re-derived per-die seeds of a far chunk are the
        // serial stream's bytes, not merely the same parent state.
        let last = (CHUNKS - 1) * chunk..CHUNKS * chunk;
        let mut parent = StdRng::from_state(serial[CHUNKS - 1]);
        let mut label = String::new();
        let want: Vec<u64> = last
            .clone()
            .map(|i| {
                label.clear();
                write!(label, "die-{i}").expect("in-memory write");
                parent.fork_seed(&label)
            })
            .collect();
        assert_eq!(seeds.for_range(last), want);
    }

    #[test]
    fn chunk_boundary_states_are_pairwise_distinct() {
        const CHUNKS: usize = 10_000;
        let dies = 2048 * CHUNKS;
        let seeds = ChunkSeeds::new(42, dies, "die");
        let distinct: HashSet<[u64; 4]> = seeds.states.iter().map(|s| s.state()).collect();
        assert_eq!(
            distinct.len(),
            CHUNKS,
            "a colliding boundary state would fold two chunks onto one stream"
        );
    }
}
