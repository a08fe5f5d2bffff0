//! Fault-injection Monte-Carlo: yield, MEP-tracking error and recovery
//! cost under loop-hardware faults, with and without mitigation.
//!
//! [`score_faulted_die`] replays the compensation walk of
//! `StudyContext::score_die` cycle-by-cycle so per-cycle faults from a
//! [`FaultSchedule`] can land on it:
//!
//! * **TDC faults** corrupt the sampled quantizer word before decode;
//! * **DC-DC faults** droop the rail (comparator glitch, missed PWM
//!   edge) or flip a reference-register bit (persistent until
//!   rewritten);
//! * **controller faults** corrupt the LUT word register (persistent
//!   until scrubbed) or misread the FIFO occupancy for one cycle.
//!
//! With `plan.mitigation` on, the graceful-degradation machinery is
//! armed: triple-sample majority vote over the TDC capture (one-shot
//! faults lose the vote; stuck stages don't), the
//! [`SignatureDebounce`] N-of-M gate in front of the walk, an
//! end-of-cycle LUT scrub against the shadow copy, and the
//! [`RailWatchdog`] last-known-good fallback which also rewrites the
//! converter reference register. Every recovery action books energy in
//! the die's recovery line item.
//!
//! A scoring is three pieces the engine shares at different scopes:
//! the 24-cycle schedule ([`draw_schedule`], per set of rates), the
//! supply-independent walk ([`fault_trajectory`], per environment and
//! plan for a die whose schedule never droops the rail) and the final
//! scoring on the cell's supply ([`score_trajectory`]).
//!
//! Determinism: the fault stream is forked from the die stream *after*
//! die sampling, so a clean die consumes exactly the draws the plain
//! path does — a zero-rate plan is byte-identical to no plan at all,
//! in both mitigation arms, at any worker count.

use subvt_dcdc::converter::ConverterParams;
use subvt_dcdc::disturbance::{comparator_glitch_droop, missed_edge_droop};
use subvt_device::delay::GateMismatch;
use subvt_device::tabulate::{CachedEval, DeviceEval};
use subvt_device::units::{Amps, Joules, Volts};
use subvt_digital::encoder::QuantizerWord;
use subvt_digital::lut::VoltageWord;
use subvt_exec::checkpoint::{CheckpointError, StateReader, StateWriter};
use subvt_exec::Welford;
use subvt_faults::{CtrlFault, CycleFaults, DcdcFault, FaultPlan, FaultSchedule};
use subvt_rng::{Rng, StdRng};
use subvt_tdc::sensor::{word_voltage, SenseError};

use crate::compensation::SignatureDebounce;
use crate::watchdog::{RailWatchdog, WatchdogPolicy};
use crate::yield_study::{DieOutcome, StudyContext, SupplySim, YieldSummary};

/// System cycles the faulted compensation loop is run for. The clean
/// walk needs at most 8 steps; 24 cycles leave room for debounce holds
/// and watchdog backoff while keeping every fault episode inside the
/// scored window.
const FAULT_CYCLES: usize = 24;

/// Walk steps the loop may take — the same bound as the plain settling
/// loop, so a clean die ends on the identical word.
const WALK_BUDGET: u32 = 8;

/// Load the controller presents to the converter (see `controller.rs`).
const LOAD_IMAGE: Amps = Amps(2e-6);

/// Energy booked per LUT scrub repair (a 6-bit register rewrite).
pub(crate) fn scrub_cost() -> Joules {
    Joules::from_femtos(0.02)
}

/// Energy booked per watchdog fallback (reference + LUT rewrite plus
/// the re-settle transient).
pub(crate) fn trip_cost() -> Joules {
    Joules::from_femtos(0.5)
}

/// One die's scoring under fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDieOutcome {
    /// The ordinary yield-study outcome, scored at the word the
    /// faulted loop ended on.
    pub base: DieOutcome,
    /// Distance (LSBs) between the faulted loop's final effective word
    /// and the word the clean loop settles on.
    pub tracking_error_lsb: f64,
    /// Energy spent on recovery actions (scrubs, watchdog fallbacks).
    pub recovery: Joules,
    /// Watchdog fallbacks taken.
    pub watchdog_trips: u32,
    /// Faults the schedule injected over the run.
    pub faults_injected: u64,
}

/// Constant-size aggregate of a fault study.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudySummary {
    /// The ordinary yield aggregate of the faulted population.
    pub base: YieldSummary,
    /// MEP-tracking error distribution (LSBs).
    pub tracking_error: Welford,
    /// Per-die recovery energy distribution (joules).
    pub recovery_energy: Welford,
    /// Watchdog fallbacks across the population.
    pub watchdog_trips: u64,
    /// Faults injected across the population.
    pub faults_injected: u64,
}

impl FaultStudySummary {
    pub(crate) fn empty() -> FaultStudySummary {
        FaultStudySummary {
            base: YieldSummary::empty(),
            tracking_error: Welford::new(),
            recovery_energy: Welford::new(),
            watchdog_trips: 0,
            faults_injected: 0,
        }
    }

    pub(crate) fn absorb(&mut self, die: &FaultDieOutcome) {
        self.base.absorb(&die.base);
        self.tracking_error.push(die.tracking_error_lsb);
        self.recovery_energy.push(die.recovery.value());
        self.watchdog_trips += u64::from(die.watchdog_trips);
        self.faults_injected += die.faults_injected;
    }

    pub(crate) fn merge(&mut self, other: FaultStudySummary) {
        self.base.merge(other.base);
        self.tracking_error.merge(other.tracking_error);
        self.recovery_energy.merge(other.recovery_energy);
        self.watchdog_trips += other.watchdog_trips;
        self.faults_injected += other.faults_injected;
    }

    /// One self-contained checkpoint state blob — the exact bytes a
    /// `--checkpoint` record carries. Equal blobs ⇔ bit-identical
    /// summaries.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.base.encode_into(&mut w);
        self.tracking_error.encode_state(&mut w);
        self.recovery_energy.encode_state(&mut w);
        w.put_u64(self.watchdog_trips);
        w.put_u64(self.faults_injected);
        w.into_bytes()
    }

    /// Parses a blob written by [`FaultStudySummary::encode_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] when the blob is truncated, has
    /// trailing bytes, or carries an out-of-range field.
    pub fn decode_state(buf: &[u8]) -> Result<FaultStudySummary, CheckpointError> {
        let mut r = StateReader::new(buf);
        let base = YieldSummary::decode_from(&mut r)?;
        let tracking_error = Welford::decode_state(&mut r)?;
        let recovery_energy = Welford::decode_state(&mut r)?;
        let watchdog_trips = r.get_u64()?;
        let faults_injected = r.get_u64()?;
        r.finish()?;
        Ok(FaultStudySummary {
            base,
            tracking_error,
            recovery_energy,
            watchdog_trips,
            faults_injected,
        })
    }

    /// Dies scored.
    pub fn dies(&self) -> u64 {
        self.base.dies
    }

    /// Adaptive-design yield under injection (0..=1).
    pub fn adaptive_yield(&self) -> f64 {
        self.base.adaptive_yield()
    }

    /// Fixed-design yield under injection (0..=1).
    pub fn fixed_yield(&self) -> f64 {
        self.base.fixed_yield()
    }

    /// Mean MEP-tracking error (LSBs).
    pub fn mean_tracking_error(&self) -> f64 {
        self.tracking_error.mean().unwrap_or(0.0)
    }

    /// Mean per-die recovery energy.
    pub fn mean_recovery_energy(&self) -> Joules {
        Joules(self.recovery_energy.mean().unwrap_or(0.0))
    }
}

/// Decodes a (possibly corrupted) capture against the design band; the
/// band was already validated by the sample, so decode cannot fail —
/// undecodable captures classify as far-slow, like the plain path.
fn decode_dev(ctx: &StudyContext<'_>, sample: QuantizerWord, neighbor: i16) -> i16 {
    ctx.sensor
        .decode(ctx.design_word, sample)
        .unwrap_or(-neighbor)
}

/// Majority vote over the three redundant captures; ties keep the
/// first (the hardware's primary sample).
fn majority(votes: [i16; 3]) -> i16 {
    if votes[1] == votes[2] {
        votes[1]
    } else {
        votes[0]
    }
}

/// One bounded compensation-walk step, mirroring the plain settling
/// loop (`word -= sign(dev)`, clamped to the usable word range).
fn walk_step(word: &mut VoltageWord, dev: i16, budget: &mut u32) {
    if dev == 0 || *budget == 0 {
        return;
    }
    let next = (i16::from(*word) - dev.signum()).clamp(1, 63) as VoltageWord;
    if next != *word {
        *word = next;
        *budget -= 1;
    }
}

/// The clean (fault-free) reference of one die's fault scoring: its
/// plain outcome on the cell's supply and its mean mismatch. The scalar
/// oracle scores it per die ([`StudyContext::score_sampled`]); the
/// engine hands in the SoA lane results, which are bit-identical by the
/// batch equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CleanDie {
    /// Fixed, clean adaptive (settled word, verdict, energy) and
    /// dithered scoring.
    pub outcome: DieOutcome,
    /// The die's mean gate mismatch.
    pub mismatch: GateMismatch,
}

/// Converter-domain droop figures for a run's supply: a regulated
/// supply answers from its own backend snapshot; the ideal rail keeps
/// the historical paper-default buck disturbances (the injected faults
/// are converter faults even when the scored rail is exact). Pure
/// function of the supply, so the matrix path hoists it to once per
/// cell instead of once per die.
pub(crate) fn fault_droops(ctx: &StudyContext<'_>) -> (Volts, Volts) {
    match ctx.supply {
        SupplySim::Ideal => {
            let params = ConverterParams::default();
            (
                comparator_glitch_droop(&params),
                missed_edge_droop(&params, LOAD_IMAGE),
            )
        }
        SupplySim::Regulated(model) => {
            (model.comparator_glitch_droop(), model.missed_update_droop())
        }
    }
}

/// One die's fault schedule: the faults each of its cycles draws. A
/// pure function of the plan's rates and the die's fault stream —
/// mitigation changes no draw — so the engine draws it once per
/// sub-batch for each distinct set of rates.
pub(crate) type DieSchedule = [CycleFaults; FAULT_CYCLES];

/// Draws one die's schedule from its fault stream.
pub(crate) fn draw_schedule(plan: FaultPlan, fault_rng: StdRng) -> DieSchedule {
    let mut stream = FaultSchedule::new(plan, fault_rng);
    let mut schedule = [CycleFaults::default(); FAULT_CYCLES];
    for cycle in &mut schedule {
        *cycle = stream.draw();
    }
    schedule
}

/// True when no cycle of `schedule` droops the rail (no comparator
/// glitch, no missed PWM edge). The walk reads the supply only through
/// those two droops, so a droop-free die walks the same trajectory on
/// every supply of an environment.
pub(crate) fn is_droop_free(schedule: &DieSchedule) -> bool {
    !schedule.iter().any(|faults| {
        matches!(
            faults.dcdc,
            Some(DcdcFault::ComparatorGlitch | DcdcFault::MissedPwmEdge)
        )
    })
}

/// The supply-independent result of one die's faulted walk: where the
/// loop ended and what getting there cost. [`score_trajectory`] scores
/// the end point on a cell's supply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Trajectory {
    /// The final effective word (the register word with any reference
    /// upset applied); 0 is a collapsed rail.
    final_eff: VoltageWord,
    /// Energy spent on recovery actions.
    recovery: Joules,
    /// Watchdog fallbacks taken.
    trips: u32,
    /// Faults the schedule injected.
    injected: u64,
}

/// Scores one die with fault injection: the clean outcome, the
/// schedule draw, the walk and its scoring — the engine's own pieces,
/// one die at a time. Pure function of the context, plan and stream —
/// the scalar oracle the batched engine ([`crate::matrix`]) is pinned
/// against.
pub(crate) fn score_faulted_die(
    ctx: &StudyContext<'_>,
    plan: FaultPlan,
    mut die_rng: StdRng,
) -> FaultDieOutcome {
    let cached = CachedEval::new(ctx.eval.as_ref());
    let die = ctx.variation.sample_die(&mut die_rng);
    // Fork the fault stream only after the die sample: a clean die
    // consumes exactly the draws the plain path does.
    let schedule = draw_schedule(plan, die_rng.fork("faults"));
    let mismatch = die.mean_gate();
    let clean = CleanDie {
        outcome: ctx.score_sampled(&cached, die.corner_units(), mismatch),
        mismatch,
    };
    let path = fault_trajectory(ctx, plan.mitigation, &schedule, mismatch, fault_droops(ctx));
    score_trajectory(ctx, &cached, &clean, &path)
}

/// The scalar fault-study oracle: [`score_faulted_die`] over the
/// serial `"die-{i}"` stream, folded in the engine's chunk order —
/// independent of the batched engine, so the engine's fault cells can
/// be pinned against it.
#[cfg(test)]
pub(crate) fn scalar_fault_summary(
    cfg: &crate::study::StudyConfig<'_>,
    plan: FaultPlan,
) -> FaultStudySummary {
    let dies = cfg.scalar_dies(|ctx, die_rng| score_faulted_die(ctx, plan, die_rng));
    let mut summary = subvt_exec::par_fold_chunked(
        &subvt_exec::ExecConfig::serial(),
        dies.len(),
        FaultStudySummary::empty,
        |acc, i| acc.absorb(&dies[i]),
        FaultStudySummary::merge,
    );
    summary.base.fixed_word = cfg.fixed_word;
    summary
}

/// A memoized TDC capture (see the capture memo in
/// [`fault_trajectory`]): the sensed word and its decoded deviation,
/// or which sense error the sensor returned — enough to replay the
/// walk's handling of it exactly.
#[derive(Clone, Copy)]
enum Capture {
    Raw { raw: QuantizerWord, dev: i16 },
    Unreliable,
    BandUnusable,
}

/// The cycle-by-cycle faulted compensation walk of one die over its
/// schedule, with mitigation on or off. The supply enters only through
/// `droops` ([`fault_droops`] of the cell) and only on a cycle that
/// fires a comparator glitch or a missed PWM edge, so the engine walks
/// a droop-free die once per (environment, plan) for every supply.
///
/// The TDC samples are keyed on the die's own mismatch, so a shared
/// memo could only miss: they go straight to the study evaluator.
pub(crate) fn fault_trajectory(
    ctx: &StudyContext<'_>,
    mitigation: bool,
    schedule: &DieSchedule,
    mismatch: GateMismatch,
    droops: (Volts, Volts),
) -> Trajectory {
    let eval = ctx.eval.as_ref();
    let neighbor = ctx.sensor.config().neighbor_range;
    let (glitch_droop, missed_droop) = droops;

    let mut word = ctx.design_word; // the LUT word register
    let mut ref_seu: VoltageWord = 0; // persistent reference-register upset
    let mut budget = WALK_BUDGET;
    let mut blind = false; // design band unusable: loop holds (plain-path break)
    let mut recovery = Joules(0.0);
    let mut trips = 0u32;
    let mut injected = 0u64;
    let mut debounce = SignatureDebounce::new(2);
    let mut dog = RailWatchdog::new(WatchdogPolicy::default());
    let mut last_dev: i16 = 0;

    // Capture memo: within one die the capture is a pure function of
    // (effective word, droop) — band, environment and mismatch are
    // fixed — and the walk revisits the same few operating points
    // across its 24 cycles. The sensor clones its delay line and
    // re-evaluates every gate per sample, so replaying a cached
    // capture removes the walk's dominant cost without touching a bit
    // (per-cycle TDC faults are applied downstream of the raw word).
    // The entry keeps the decoded deviation too, so only a sample a
    // TDC fault altered is decoded again.
    let mut captures: Vec<((VoltageWord, u64), Capture)> = Vec::with_capacity(4);

    for faults in schedule {
        injected += u64::from(faults.count());

        // Controller-domain fault shapes this cycle's commanded word.
        let mut cycle_word = word;
        match faults.ctrl {
            Some(CtrlFault::LutSeu { bit }) => {
                if mitigation {
                    // End-of-cycle scrub repairs the register from the
                    // shadow copy: the corruption lasts one cycle.
                    cycle_word = word ^ (1 << (bit % 6));
                    recovery += scrub_cost();
                } else {
                    word ^= 1 << (bit % 6);
                    cycle_word = word;
                }
            }
            Some(CtrlFault::FifoMisread) => {
                // A misread occupancy commands the word of a much
                // fuller queue for one cycle.
                cycle_word = (i16::from(word) + 4).clamp(1, 63) as VoltageWord;
            }
            None => {}
        }

        // A reference-word SEU persists until the register is
        // rewritten (only the watchdog fallback does).
        if let Some(DcdcFault::ReferenceSeu { bit }) = faults.dcdc {
            ref_seu ^= 1 << (bit % 6);
        }
        let w_eff = cycle_word ^ ref_seu;

        // The rail this cycle: the effective word's voltage minus any
        // transient converter droop.
        let droop = match faults.dcdc {
            Some(DcdcFault::ComparatorGlitch) => glitch_droop,
            Some(DcdcFault::MissedPwmEdge) => missed_droop,
            _ => Volts(0.0),
        };
        let v_rail = Volts((word_voltage(w_eff).volts() - droop.volts()).max(0.0));

        if blind {
            continue;
        }

        // Sense the rail against the design band.
        let sensed: Option<(i16, bool)> = if w_eff == 0 {
            // Rail collapsed to shutdown: the capture is empty and
            // reads as far-slow.
            Some((-neighbor, false))
        } else {
            let key = (w_eff, droop.volts().to_bits());
            let capture = match captures.iter().find(|(k, _)| *k == key) {
                Some(&(_, hit)) => hit,
                None => {
                    let miss = match ctx.sensor.sample_with(
                        eval,
                        ctx.design_word,
                        v_rail,
                        ctx.env,
                        mismatch,
                    ) {
                        Ok(raw) => Capture::Raw {
                            raw,
                            dev: decode_dev(ctx, raw, neighbor),
                        },
                        Err(SenseError::BandUnusable { .. }) => Capture::BandUnusable,
                        Err(SenseError::Unreliable(_)) => Capture::Unreliable,
                    };
                    captures.push((key, miss));
                    miss
                }
            };
            match capture {
                Capture::BandUnusable => {
                    blind = true;
                    None
                }
                // An empty capture classifies as far-slow (the plain
                // path's behaviour); there is no word for a TDC fault
                // to corrupt.
                Capture::Unreliable => Some((-neighbor, false)),
                Capture::Raw { raw, dev } => {
                    // One capture of this cycle's rail, `altered` when
                    // the TDC fault lands on it.
                    let read = |altered: bool| match faults.tdc {
                        Some(f) if altered => decode_dev(ctx, f.apply(raw), neighbor),
                        _ => dev,
                    };
                    if mitigation {
                        // Triple-sample majority vote: a one-shot TDC
                        // fault corrupts only the first capture, a
                        // stuck stage corrupts all three.
                        let stuck = faults.tdc.is_some_and(|f| f.is_persistent());
                        let votes = [read(true), read(stuck), read(stuck)];
                        let dev = majority(votes);
                        let disagree = !(votes[0] == votes[1] && votes[1] == votes[2]);
                        // A sudden jump from a quiet signature is
                        // suspect until it repeats.
                        let jump = (dev - last_dev).abs() >= 2 && last_dev.abs() <= 1;
                        Some((dev, disagree || jump))
                    } else {
                        Some((read(true), false))
                    }
                }
            }
        };

        if let Some((dev, suspect)) = sensed {
            if mitigation {
                // Watchdog sees every raw deviation with the true
                // register word; a trip falls back to last-known-good
                // and rewrites the upset-prone registers.
                if let Some(good) = dog.observe(word, dev) {
                    word = good;
                    ref_seu = 0;
                    debounce.reset();
                    recovery += trip_cost();
                    trips += 1;
                    last_dev = dev;
                    continue;
                }
                if let Some(confirmed) = debounce.feed(dev, suspect) {
                    walk_step(&mut word, confirmed, &mut budget);
                }
            } else {
                walk_step(&mut word, dev, &mut budget);
            }
            last_dev = dev;
        }
    }

    Trajectory {
        final_eff: word ^ ref_seu,
        recovery,
        trips,
        injected,
    }
}

/// Scores a trajectory's end point on the cell's supply. A collapsed
/// rail scores as the floor word, which cannot meet any rate spec. A
/// walk that ends on the clean word reuses the clean adaptive verdict
/// instead of pricing the same operating point again. `energy_eval`
/// prices only the energy leg (the one query that does not depend on
/// the die); the rate leg goes to the study evaluator.
pub(crate) fn score_trajectory(
    ctx: &StudyContext<'_>,
    energy_eval: &dyn DeviceEval,
    clean: &CleanDie,
    path: &Trajectory,
) -> FaultDieOutcome {
    let clean_word = clean.outcome.adaptive_word;
    let score_word = path.final_eff.max(1);
    let (adaptive_passes, adaptive_energy) = if score_word == clean_word {
        (clean.outcome.adaptive_passes, clean.outcome.adaptive_energy)
    } else {
        ctx.passes(ctx.eval.as_ref(), energy_eval, score_word, clean.mismatch)
    };
    let tracking_error_lsb = f64::from((i16::from(path.final_eff) - i16::from(clean_word)).abs());

    FaultDieOutcome {
        base: DieOutcome {
            adaptive_passes,
            adaptive_word: path.final_eff,
            adaptive_energy,
            ..clean.outcome
        },
        tracking_error_lsb,
        recovery: path.recovery,
        watchdog_trips: path.trips,
        faults_injected: path.injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use subvt_exec::ExecConfig;

    #[test]
    fn engine_fault_cells_match_the_scalar_oracle() {
        // The engine's fault cell (lanes for the clean pieces, a shared
        // memo, the replayed fault stream) against `score_faulted_die`
        // die by die, in both mitigation arms, at every batch shape.
        for mitigation in [true, false] {
            let plan = FaultPlan::uniform(0.02).with_mitigation(mitigation);
            let oracle = scalar_fault_summary(&StudyConfig::new(40, 2009), plan).encode_state();
            for batch in [1usize, 2, 64] {
                for jobs in [1usize, 2, 7] {
                    let got = StudyConfig::new(40, 2009)
                        .faults(plan)
                        .batch(batch)
                        .exec(ExecConfig::with_jobs(jobs))
                        .run_faults();
                    assert_eq!(
                        got.encode_state(),
                        oracle,
                        "mitigation={mitigation} batch={batch} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rate_plan_is_byte_identical_to_no_plan() {
        // The satellite property: arming a zero-rate plan must not
        // perturb a single bit of the study, in either mitigation arm.
        let plain = StudyConfig::new(60, 7).run();
        for mitigation in [true, false] {
            let faulted = StudyConfig::new(60, 7)
                .faults(FaultPlan::uniform(0.0).with_mitigation(mitigation))
                .run();
            assert_eq!(faulted, plain, "mitigation={mitigation}");
        }
    }

    #[test]
    fn mitigation_recovers_yield_and_tracking() {
        let run = |mitigation: bool| {
            StudyConfig::new(150, 23)
                .faults(FaultPlan::uniform(0.02).with_mitigation(mitigation))
                .run_faults()
        };
        let clean = StudyConfig::new(150, 23).run_summary();
        let on = run(true);
        let off = run(false);
        let loss_off = clean.adaptive_yield() - off.adaptive_yield();
        let loss_on = clean.adaptive_yield() - on.adaptive_yield();
        assert!(
            loss_off > 0.0,
            "unmitigated injection must cost yield (loss {loss_off:.3})"
        );
        assert!(
            loss_on <= loss_off / 2.0,
            "mitigation must recover at least half the loss: \
             {loss_on:.3} vs {loss_off:.3}"
        );
        assert!(
            on.mean_tracking_error() <= off.mean_tracking_error(),
            "tracking error: {} vs {}",
            on.mean_tracking_error(),
            off.mean_tracking_error()
        );
    }

    #[test]
    fn recovery_energy_is_booked_only_by_mitigation() {
        let on = StudyConfig::new(60, 3)
            .faults(FaultPlan::uniform(0.08))
            .run_faults();
        let off = StudyConfig::new(60, 3)
            .faults(FaultPlan::uniform(0.08).with_mitigation(false))
            .run_faults();
        assert!(on.mean_recovery_energy().value() > 0.0);
        assert_eq!(off.mean_recovery_energy(), Joules(0.0));
        assert!(on.faults_injected > 0);
        assert_eq!(on.faults_injected, off.faults_injected, "same schedule");
    }

    #[test]
    fn injection_scales_with_the_rate() {
        let at = |rate: f64| {
            StudyConfig::new(40, 9)
                .faults(FaultPlan::uniform(rate))
                .run_faults()
                .faults_injected
        };
        let low = at(0.005);
        let high = at(0.2);
        assert!(low < high, "{low} !< {high}");
        assert_eq!(at(0.0), 0);
    }

    #[test]
    fn majority_vote_prefers_the_agreeing_pair() {
        assert_eq!(majority([3, 0, 0]), 0);
        assert_eq!(majority([0, 0, 0]), 0);
        assert_eq!(majority([1, 2, 3]), 1, "three-way tie keeps the primary");
        assert_eq!(majority([2, -1, -1]), -1);
    }

    #[test]
    fn walk_step_respects_clamp_and_budget() {
        let mut word: VoltageWord = 2;
        let mut budget = 2;
        walk_step(&mut word, 3, &mut budget);
        assert_eq!((word, budget), (1, 1));
        walk_step(&mut word, 3, &mut budget); // clamped: no budget spent
        assert_eq!((word, budget), (1, 1));
        walk_step(&mut word, -1, &mut budget);
        assert_eq!((word, budget), (2, 0));
        walk_step(&mut word, -1, &mut budget); // budget exhausted
        assert_eq!((word, budget), (2, 0));
    }
}
