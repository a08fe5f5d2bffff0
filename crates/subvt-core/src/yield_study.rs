//! Parametric yield: the fraction of fabricated dies that meet a
//! (throughput, energy) specification — the economic argument for the
//! paper's controller.
//!
//! A fixed-supply design must guard-band for the slowest die it intends
//! to ship, wasting energy on every faster one; an adaptive design
//! meets timing per-die at each die's own minimum energy. This module
//! Monte-Carlo-samples a die population and scores both designs against
//! the same spec.

use std::sync::Arc;

use subvt_exec::checkpoint::{CheckpointError, StateReader, StateWriter};
use subvt_exec::{par_fold_chunked, ExecConfig, Welford};
use subvt_rng::{Rng, StdRng};

use subvt_dcdc::converter::ConverterParams;
use subvt_device::constants::DCDC_LSB;
use subvt_device::delay::GateMismatch;
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::{AnalyticEval, CachedEval, DeviceEval, SharedEval};
use subvt_device::technology::Technology;
use subvt_device::units::{Hertz, Joules, Seconds, Volts};
use subvt_device::variation::VariationModel;
use subvt_digital::lut::VoltageWord;
use subvt_loads::load::CircuitLoad;
use subvt_regulators::{BuckBackend, RegulatorModel, SupplyBackend};
use subvt_tdc::sensor::{word_voltage, SensorConfig, VariationSensor};

pub use subvt_regulators::{SwitchedSupplyModel, WordOperatingPoint};

/// The shipped-product specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldSpec {
    /// Minimum sustained operation rate.
    pub min_rate: Hertz,
    /// Maximum energy per operation.
    pub max_energy_per_op: Joules,
}

/// One die's scoring under both designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieOutcome {
    /// Die severity in corner units.
    pub corner_units: f64,
    /// Fixed design: meets the spec?
    pub fixed_passes: bool,
    /// Adaptive design: meets the spec?
    pub adaptive_passes: bool,
    /// Sub-LSB dithered design: meets the spec?
    pub dithered_passes: bool,
    /// The word the adaptive design settled on.
    pub adaptive_word: VoltageWord,
    /// Energy per op of the adaptive design on this die.
    pub adaptive_energy: Joules,
}

/// Aggregate yield numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Per-die outcomes.
    pub dies: Vec<DieOutcome>,
    /// The fixed design's supply word.
    pub fixed_word: VoltageWord,
}

impl YieldReport {
    /// Fixed-design yield (0..=1).
    pub fn fixed_yield(&self) -> f64 {
        self.fraction(|d| d.fixed_passes)
    }

    /// Adaptive-design yield (0..=1).
    pub fn adaptive_yield(&self) -> f64 {
        self.fraction(|d| d.adaptive_passes)
    }

    /// Dithered-design yield (0..=1).
    pub fn dithered_yield(&self) -> f64 {
        self.fraction(|d| d.dithered_passes)
    }

    fn fraction<F: Fn(&DieOutcome) -> bool>(&self, f: F) -> f64 {
        if self.dies.is_empty() {
            return 0.0;
        }
        self.dies.iter().filter(|d| f(d)).count() as f64 / self.dies.len() as f64
    }

    /// Mean adaptive energy per op across passing dies.
    pub fn mean_adaptive_energy(&self) -> Option<Joules> {
        let passing: Vec<f64> = self
            .dies
            .iter()
            .filter(|d| d.adaptive_passes)
            .map(|d| d.adaptive_energy.value())
            .collect();
        if passing.is_empty() {
            None
        } else {
            Some(Joules(passing.iter().sum::<f64>() / passing.len() as f64))
        }
    }

    /// Collapses the per-die vector into a [`YieldSummary`].
    ///
    /// Uses the same chunk-ordered fold as
    /// [`crate::study::StudyConfig::run_summary`], so the result is bit-identical to
    /// a summary-only run of the same population at any job count.
    pub fn summarize(&self) -> YieldSummary {
        let mut summary = par_fold_chunked(
            &ExecConfig::serial(),
            self.dies.len(),
            YieldSummary::empty,
            |acc, i| acc.absorb(&self.dies[i]),
            YieldSummary::merge,
        );
        summary.fixed_word = self.fixed_word;
        summary
    }
}

/// Constant-size aggregate of a yield study: counts and streaming
/// moments, no per-die `Vec`.
///
/// This is what the summary-only execution path
/// ([`crate::study::StudyConfig::run_summary`]) returns, so million-die populations cost
/// `O(chunks)` memory instead of `O(dies)`. All statistics are
/// bit-identical for any worker count (see `subvt-exec`'s determinism
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub struct YieldSummary {
    /// Dies scored.
    pub dies: u64,
    /// Dies the fixed design shipped successfully.
    pub fixed_pass: u64,
    /// Dies the adaptive design shipped successfully.
    pub adaptive_pass: u64,
    /// Dies the sub-LSB dithered design shipped successfully.
    pub dithered_pass: u64,
    /// Adaptive energy per op over *passing* dies (joules).
    pub adaptive_energy: Welford,
    /// Die severity distribution (corner units).
    pub corner_units: Welford,
    /// How many dies settled at each of the 64 voltage words.
    pub adaptive_words: [u64; 64],
    /// The fixed design's supply word.
    pub fixed_word: VoltageWord,
}

impl YieldSummary {
    pub(crate) fn empty() -> YieldSummary {
        YieldSummary {
            dies: 0,
            fixed_pass: 0,
            adaptive_pass: 0,
            dithered_pass: 0,
            adaptive_energy: Welford::new(),
            corner_units: Welford::new(),
            adaptive_words: [0; 64],
            fixed_word: 0,
        }
    }

    /// Streams one die outcome into the aggregate.
    pub(crate) fn absorb(&mut self, die: &DieOutcome) {
        self.dies += 1;
        self.fixed_pass += u64::from(die.fixed_passes);
        self.adaptive_pass += u64::from(die.adaptive_passes);
        self.dithered_pass += u64::from(die.dithered_passes);
        if die.adaptive_passes {
            self.adaptive_energy.push(die.adaptive_energy.value());
        }
        self.corner_units.push(die.corner_units);
        self.adaptive_words[usize::from(die.adaptive_word) % 64] += 1;
    }

    /// Combines two chunk aggregates (called in chunk-index order by
    /// the engine).
    pub(crate) fn merge(&mut self, other: YieldSummary) {
        self.dies += other.dies;
        self.fixed_pass += other.fixed_pass;
        self.adaptive_pass += other.adaptive_pass;
        self.dithered_pass += other.dithered_pass;
        self.adaptive_energy.merge(other.adaptive_energy);
        self.corner_units.merge(other.corner_units);
        for (a, b) in self.adaptive_words.iter_mut().zip(other.adaptive_words) {
            *a += b;
        }
    }

    /// Serialises the running aggregate into `w` for a checkpoint
    /// record (exact bit patterns; the round trip is lossless).
    pub(crate) fn encode_into(&self, w: &mut StateWriter) {
        w.put_u64(self.dies);
        w.put_u64(self.fixed_pass);
        w.put_u64(self.adaptive_pass);
        w.put_u64(self.dithered_pass);
        self.adaptive_energy.encode_state(w);
        self.corner_units.encode_state(w);
        for &count in &self.adaptive_words {
            w.put_u64(count);
        }
        w.put_u64(u64::from(self.fixed_word));
    }

    /// Restores an aggregate written by [`YieldSummary::encode_into`].
    pub(crate) fn decode_from(r: &mut StateReader<'_>) -> Result<YieldSummary, CheckpointError> {
        let dies = r.get_u64()?;
        let fixed_pass = r.get_u64()?;
        let adaptive_pass = r.get_u64()?;
        let dithered_pass = r.get_u64()?;
        let adaptive_energy = Welford::decode_state(r)?;
        let corner_units = Welford::decode_state(r)?;
        let mut adaptive_words = [0u64; 64];
        for slot in &mut adaptive_words {
            *slot = r.get_u64()?;
        }
        let fixed_word = u8::try_from(r.get_u64()?)
            .map_err(|_| CheckpointError::Decode("fixed word out of range"))?;
        Ok(YieldSummary {
            dies,
            fixed_pass,
            adaptive_pass,
            dithered_pass,
            adaptive_energy,
            corner_units,
            adaptive_words,
            fixed_word,
        })
    }

    /// One self-contained checkpoint state blob — the exact bytes a
    /// `--checkpoint` record carries. Equal blobs ⇔ bit-identical
    /// summaries, which makes this the canonical equality witness for
    /// reproducibility tests.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Parses a blob written by [`YieldSummary::encode_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] when the blob is truncated, has
    /// trailing bytes, or carries an out-of-range field.
    pub fn decode_state(buf: &[u8]) -> Result<YieldSummary, CheckpointError> {
        let mut r = StateReader::new(buf);
        let summary = YieldSummary::decode_from(&mut r)?;
        r.finish()?;
        Ok(summary)
    }

    /// Fixed-design yield (0..=1).
    pub fn fixed_yield(&self) -> f64 {
        self.fraction(self.fixed_pass)
    }

    /// Adaptive-design yield (0..=1).
    pub fn adaptive_yield(&self) -> f64 {
        self.fraction(self.adaptive_pass)
    }

    /// Dithered-design yield (0..=1).
    pub fn dithered_yield(&self) -> f64 {
        self.fraction(self.dithered_pass)
    }

    fn fraction(&self, passes: u64) -> f64 {
        if self.dies == 0 {
            0.0
        } else {
            passes as f64 / self.dies as f64
        }
    }

    /// Mean adaptive energy per op across passing dies.
    pub fn mean_adaptive_energy(&self) -> Option<Joules> {
        self.adaptive_energy.mean().map(Joules)
    }
}

/// Emulates the dithered controller's settled *continuous* supply on a
/// die: the fractional-sensing integrator walked to convergence.
pub(crate) fn settled_voltage_dithered(
    eval: &dyn DeviceEval,
    sensor: &VariationSensor,
    design_word: VoltageWord,
    env: Environment,
    die: GateMismatch,
) -> Volts {
    let mut v = word_voltage(design_word);
    for _ in 0..40 {
        let Ok(frac) = sensor.sense_fractional_with(eval, design_word, v, env, die) else {
            break;
        };
        if frac.abs() < 0.02 {
            break;
        }
        v = Volts((v.volts() - 0.2 * frac * 0.018_75).clamp(0.018_75, 1.18));
    }
    v
}

/// Emulates the adaptive controller's settled word on a die: start from
/// the design word and walk by the sensed deviation until on-target
/// (bounded iterations — mirrors the LUT compensation loop without the
/// cycle-by-cycle machinery).
pub(crate) fn settled_word(
    eval: &dyn DeviceEval,
    sensor: &VariationSensor,
    design_word: VoltageWord,
    env: Environment,
    die: GateMismatch,
) -> VoltageWord {
    let mut word = design_word;
    for _ in 0..8 {
        let Ok(dev) = sensor.sense_with(eval, design_word, word_voltage(word), env, die) else {
            break;
        };
        if dev == 0 {
            break;
        }
        let next = (i16::from(word) - dev.signum()).clamp(1, 63) as VoltageWord;
        if next == word {
            break;
        }
        word = next;
    }
    word
}

/// Which supply the study's designs run from.
#[derive(Debug, Clone, PartialEq)]
pub enum SupplySim {
    /// Ideal rail: each word is exactly `word × 18.75 mV`, ripple-free.
    Ideal,
    /// A regulator backend's snapshot: per-word droop and ripple from
    /// its settle table. Rate is checked at the ripple trough (the MEP
    /// margin must survive the worst instantaneous supply) and energy
    /// at the cycle mean — the same split for every backend.
    Regulated(RegulatorModel),
}

impl SupplySim {
    /// Snapshots any [`SupplyBackend`] into a supply model. The
    /// snapshot happens here — once, serially, before any Monte-Carlo
    /// fan-out — so workers only ever read plain data.
    pub fn regulated(backend: &dyn SupplyBackend) -> SupplySim {
        SupplySim::Regulated(RegulatorModel::build(backend))
    }

    /// Builds the buck (historically "switched") supply from converter
    /// parameters — bit-identical to PR 4's switched-supply model.
    pub fn switched(params: ConverterParams) -> SupplySim {
        SupplySim::regulated(&BuckBackend::new(params))
    }
}

/// Calibrates the study's TDC sensor at `env` through `eval`. A pure
/// function of its arguments, so cells that share an environment share
/// one calibration.
pub(crate) fn calibrated_sensor(eval: &SharedEval, env: Environment) -> VariationSensor {
    VariationSensor::with_eval(eval.as_ref(), env, SensorConfig::default())
}

/// The immutable per-study context shared (read-only) by every worker
/// scoring dies.
pub(crate) struct StudyContext<'a> {
    pub(crate) eval: SharedEval,
    pub(crate) load: &'a dyn CircuitLoad,
    pub(crate) env: Environment,
    pub(crate) variation: &'a VariationModel,
    pub(crate) spec: YieldSpec,
    pub(crate) fixed_word: VoltageWord,
    pub(crate) design_word: VoltageWord,
    pub(crate) sensor: &'a VariationSensor,
    pub(crate) supply: &'a SupplySim,
}

impl<'a> StudyContext<'a> {
    /// Builds the context around a sensor calibrated at `env` (see
    /// [`calibrated_sensor`]).
    #[allow(clippy::too_many_arguments)] // crate-internal plumbing
    pub(crate) fn new(
        eval: SharedEval,
        load: &'a dyn CircuitLoad,
        env: Environment,
        variation: &'a VariationModel,
        spec: YieldSpec,
        fixed_word: VoltageWord,
        design_word: VoltageWord,
        sensor: &'a VariationSensor,
        supply: &'a SupplySim,
    ) -> StudyContext<'a> {
        StudyContext {
            sensor,
            eval,
            load,
            env,
            variation,
            spec,
            fixed_word,
            design_word,
            supply,
        }
    }
    /// Spec check with the rate and energy legs evaluated at separate
    /// voltages: on a rippling supply the rate must hold at the trough
    /// while energy is set by the mean. On an ideal rail both are the
    /// same voltage.
    ///
    /// The legs take separate evaluators because only the energy leg
    /// is die-independent: a batch prices it through a shared memo,
    /// where a rate query — keyed on the die's own mismatch — would
    /// only miss.
    pub(crate) fn passes_at(
        &self,
        rate_eval: &dyn DeviceEval,
        energy_eval: &dyn DeviceEval,
        v_rate: Volts,
        v_energy: Volts,
        die: GateMismatch,
    ) -> (bool, Joules) {
        let rate_ok = self
            .load
            .max_rate_with(rate_eval, v_rate, self.env, die)
            .map(|r| r.value() >= self.spec.min_rate.value())
            .unwrap_or(false);
        let energy = self.energy_at(energy_eval, v_energy);
        (rate_ok && self.meets_energy(energy), energy)
    }

    /// Energy per op at `v` through `eval`; infinite below the floor,
    /// so it fails any energy spec.
    pub(crate) fn energy_at(&self, eval: &dyn DeviceEval, v: Volts) -> Joules {
        self.load
            .energy_per_op_with(eval, v, self.env)
            .map(|e| e.total())
            .unwrap_or(Joules(f64::INFINITY))
    }

    /// Does energy per op `energy` meet the spec?
    pub(crate) fn meets_energy(&self, energy: Joules) -> bool {
        energy.value() <= self.spec.max_energy_per_op.value()
    }

    /// Does a critical path of `t` meet the rate spec?
    pub(crate) fn meets_rate(&self, t: Seconds) -> bool {
        t.to_frequency().value() >= self.spec.min_rate.value()
    }

    /// The (rate, energy) evaluation voltages of a commanded word: the
    /// ripple trough and the cycle mean on a regulated supply, the
    /// exact word voltage on an ideal rail.
    pub(crate) fn word_point(&self, word: VoltageWord) -> (Volts, Volts) {
        match self.supply {
            SupplySim::Ideal => {
                let v = word_voltage(word);
                (v, v)
            }
            SupplySim::Regulated(model) => {
                let op = model.point(word);
                (op.v_min, op.v_mean)
            }
        }
    }

    /// Spec check at a commanded word's operating point.
    pub(crate) fn passes(
        &self,
        rate_eval: &dyn DeviceEval,
        energy_eval: &dyn DeviceEval,
        word: VoltageWord,
        die: GateMismatch,
    ) -> (bool, Joules) {
        let (v_rate, v_energy) = self.word_point(word);
        self.passes_at(rate_eval, energy_eval, v_rate, v_energy, die)
    }

    /// The (rate, energy) evaluation voltages of the dithered design's
    /// continuous settled voltage `v`. On a regulated supply the dither
    /// rides on the nearest word's settled waveform, so it inherits
    /// that word's droop and ripple trough.
    pub(crate) fn dithered_point(&self, v: Volts) -> (Volts, Volts) {
        match self.supply {
            SupplySim::Ideal => (v, v),
            SupplySim::Regulated(model) => {
                let lsb = DCDC_LSB.volts();
                let nearest = ((v.volts() / lsb).round() as i64).clamp(1, 63) as VoltageWord;
                let op = model.point(nearest);
                let droop = op.v_mean.volts() - word_voltage(nearest).volts();
                let trough = op.v_mean.volts() - op.v_min.volts();
                let v_mean = Volts(v.volts() + droop);
                let v_rate = Volts(v_mean.volts() - trough);
                (v_rate, v_mean)
            }
        }
    }

    /// Scores the dithered design's continuous settled voltage at its
    /// [`StudyContext::dithered_point`].
    pub(crate) fn passes_dithered(
        &self,
        rate_eval: &dyn DeviceEval,
        energy_eval: &dyn DeviceEval,
        v: Volts,
        die: GateMismatch,
    ) -> (bool, Joules) {
        let (v_rate, v_energy) = self.dithered_point(v);
        self.passes_at(rate_eval, energy_eval, v_rate, v_energy, die)
    }

    /// Scores one die from its pre-forked stream — a pure function of
    /// the stream and the context, so it runs on any thread. A per-die
    /// memo ([`CachedEval`]) deduplicates the settling loops' repeated
    /// operating points; memoization cannot change results.
    pub(crate) fn score_die(&self, mut die_rng: StdRng) -> DieOutcome {
        let die = self.variation.sample_die(&mut die_rng);
        let cached = CachedEval::new(self.eval.as_ref());
        self.score_sampled(&cached, die.corner_units(), die.mean_gate())
    }

    /// Scores a sampled die (its corner position and mean mismatch)
    /// with every query through `cached` — the body of
    /// [`StudyContext::score_die`], which the fault oracle shares.
    pub(crate) fn score_sampled(
        &self,
        cached: &dyn DeviceEval,
        corner_units: f64,
        mismatch: GateMismatch,
    ) -> DieOutcome {
        let (fixed_passes, _) = self.passes(cached, cached, self.fixed_word, mismatch);
        let adaptive_word = settled_word(cached, self.sensor, self.design_word, self.env, mismatch);
        let (adaptive_passes, adaptive_energy) =
            self.passes(cached, cached, adaptive_word, mismatch);
        let dithered_v =
            settled_voltage_dithered(cached, self.sensor, self.design_word, self.env, mismatch);
        let (dithered_passes, _) = self.passes_dithered(cached, cached, dithered_v, mismatch);
        DieOutcome {
            corner_units,
            fixed_passes,
            adaptive_passes,
            dithered_passes,
            adaptive_word,
            adaptive_energy,
        }
    }
}

/// The scalar oracle's die stream: one serial `fork_seed("die-{i}")`
/// draw per die from the root `seed`, in die order — exactly the draws
/// `rng.fork("die-{i}")` would make inline, so expanding `seeds[i]` on
/// a worker thread reproduces the serial loop bit-for-bit.
pub(crate) fn die_seeds(seed: u64, dies: usize) -> Vec<u64> {
    use std::fmt::Write as _;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label = String::with_capacity(24);
    (0..dies)
        .map(|i| {
            label.clear();
            write!(label, "die-{i}").expect("in-memory write");
            rng.fork_seed(&label)
        })
        .collect()
}

/// Wraps a technology in the analytic evaluator (the default study
/// path, bit-identical to the pre-evaluator implementation).
pub(crate) fn analytic(tech: &Technology) -> SharedEval {
    Arc::new(AnalyticEval::new(tech))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn study(spec: YieldSpec, fixed_word: VoltageWord) -> YieldReport {
        // Defaults cover the paper configuration (ST 130 nm, nominal
        // environment, design at the TT MEP word 11).
        StudyConfig::new(200, 77)
            .spec(spec)
            .words(fixed_word, 11)
            .run()
    }

    /// A spec a TT die at its MEP just meets: ~120 kHz at ≤ 2.9 fJ.
    fn tight_spec() -> YieldSpec {
        YieldSpec {
            min_rate: Hertz(110e3),
            max_energy_per_op: Joules::from_femtos(2.9),
        }
    }

    #[test]
    fn adaptive_design_yields_more_under_a_tight_spec() {
        // The fixed design at the TT MEP word fails slow dies (too
        // slow); pushed one word up it fails the energy bound — the
        // classic squeeze the controller escapes.
        let report = study(tight_spec(), 11);
        let fixed = report.fixed_yield();
        let adaptive = report.adaptive_yield();
        assert!(
            adaptive > fixed + 0.1,
            "adaptive {adaptive:.2} vs fixed {fixed:.2}"
        );
        // Not 100%: the 18.75 mV quantization strands some mid-step
        // dies just outside the tight spec — the residual the dithering
        // extension exists to recover.
        assert!(adaptive > 0.8, "adaptive yield {adaptive}");
    }

    #[test]
    fn guard_banded_fixed_design_pays_in_energy() {
        // Raising the fixed word to cover slow dies breaks the energy
        // side of the same spec.
        let report = study(tight_spec(), 14);
        assert!(
            report.fixed_yield() < 0.5,
            "guard-banded fixed yield {}",
            report.fixed_yield()
        );
    }

    #[test]
    fn loose_spec_yields_fully_for_both() {
        let loose = YieldSpec {
            min_rate: Hertz(10e3),
            max_energy_per_op: Joules::from_femtos(50.0),
        };
        let report = study(loose, 14);
        assert!(report.fixed_yield() > 0.99);
        assert!(report.adaptive_yield() > 0.99);
    }

    #[test]
    fn adaptive_words_track_die_severity() {
        let report = study(tight_spec(), 11);
        // Slow dies settle above the design word, fast dies at/below.
        for die in &report.dies {
            if die.corner_units > 1.5 {
                assert!(
                    die.adaptive_word > 11,
                    "very slow die at word {}",
                    die.adaptive_word
                );
            }
            if die.corner_units < -1.5 {
                assert!(
                    die.adaptive_word < 11,
                    "very fast die at word {}",
                    die.adaptive_word
                );
            }
        }
    }

    #[test]
    fn mean_adaptive_energy_is_near_the_mep() {
        let report = study(tight_spec(), 11);
        let mean = report.mean_adaptive_energy().expect("passing dies exist");
        assert!(
            (2.2..3.2).contains(&mean.femtos()),
            "mean adaptive energy {} fJ",
            mean.femtos()
        );
    }

    #[test]
    fn dithering_recovers_stranded_half_lsb_dies() {
        // The claim EXPERIMENTS.md makes: the adaptive design's misses
        // under the tight spec are quantization strays, so the sub-LSB
        // dithered design must recover (most of) them.
        let report = study(tight_spec(), 11);
        let adaptive = report.adaptive_yield();
        let dithered = report.dithered_yield();
        assert!(
            dithered >= adaptive,
            "dithered {dithered:.3} < adaptive {adaptive:.3}"
        );
        assert!(dithered > 0.95, "dithered yield {dithered}");
    }

    #[test]
    fn summary_only_path_matches_full_report_summary() {
        // The summary-only fold and the full per-die path must agree
        // bit-for-bit (same seed, same chunk-ordered reduction), at
        // several worker counts.
        let report = study(tight_spec(), 11);
        let reference = report.summarize();
        for jobs in [1usize, 2, 7] {
            let summary = StudyConfig::new(200, 77)
                .spec(tight_spec())
                .exec(ExecConfig::with_jobs(jobs))
                .run_summary();
            assert_eq!(summary, reference, "jobs={jobs}");
        }
        assert_eq!(reference.dies, 200);
        assert!((reference.adaptive_yield() - report.adaptive_yield()).abs() < 1e-15);
        assert!((reference.fixed_yield() - report.fixed_yield()).abs() < 1e-15);
        assert_eq!(reference.adaptive_words.iter().sum::<u64>(), reference.dies);
        // The Welford mean and the Vec-based mean agree to tolerance
        // (different summation orders, same statistic).
        let mean_full = report.mean_adaptive_energy().unwrap().value();
        let mean_summary = reference.mean_adaptive_energy().unwrap().value();
        assert!((mean_full - mean_summary).abs() < 1e-24, "joules-scale gap");
    }

    #[test]
    fn tabulated_study_tracks_the_analytic_yield() {
        use subvt_device::tabulate::TabulatedEval;
        let tech = Technology::st_130nm();
        let cfg = ExecConfig::with_jobs(2);
        let reference = StudyConfig::new(200, 77)
            .spec(tight_spec())
            .exec(cfg)
            .run_summary();
        let tab: SharedEval = Arc::new(TabulatedEval::new(&tech));
        let tabulated = StudyConfig::new(200, 77)
            .spec(tight_spec())
            .eval(tab)
            .exec(cfg)
            .run_summary();
        assert_eq!(tabulated.dies, reference.dies);
        // Interpolation error is ≤1%; pass/fail decisions near the spec
        // boundary may flip on a handful of dies, never more.
        for (t, a, what) in [
            (tabulated.fixed_yield(), reference.fixed_yield(), "fixed"),
            (
                tabulated.adaptive_yield(),
                reference.adaptive_yield(),
                "adaptive",
            ),
            (
                tabulated.dithered_yield(),
                reference.dithered_yield(),
                "dithered",
            ),
        ] {
            assert!(
                (t - a).abs() <= 0.05,
                "{what}: tabulated {t} vs analytic {a}"
            );
        }
        let mean_t = tabulated.mean_adaptive_energy().unwrap().value();
        let mean_a = reference.mean_adaptive_energy().unwrap().value();
        assert!(
            (mean_t - mean_a).abs() / mean_a < 0.02,
            "mean energy diverged: {mean_t:e} vs {mean_a:e}"
        );
    }

    #[test]
    fn explicit_analytic_eval_is_bit_identical_to_default() {
        // Spelling out the default evaluator must not perturb a single
        // bit of the study — the builder's implicit `analytic(&tech)`
        // and an explicit one share the whole scoring path.
        let tech = Technology::st_130nm();
        let default = StudyConfig::new(50, 5).spec(tight_spec()).run();
        let explicit = StudyConfig::new(50, 5)
            .spec(tight_spec())
            .eval(analytic(&tech))
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn switched_supply_yield_is_ripple_aware() {
        let supply = SupplySim::switched(ConverterParams::default());
        let switched = StudyConfig::new(200, 77)
            .spec(tight_spec())
            .supply(supply)
            .run();
        let ideal = study(tight_spec(), 11);
        // The ripple trough only subtracts MEP margin: the switched
        // supply can never ship a die the ideal rail rejects, and under
        // the tight spec it must strand at least a few near the rate
        // boundary.
        assert!(
            switched.adaptive_yield() <= ideal.adaptive_yield() + 1e-12,
            "switched {} vs ideal {}",
            switched.adaptive_yield(),
            ideal.adaptive_yield()
        );
        // The controller story survives the real converter: adaptive
        // still clearly beats fixed on the same rippling supply.
        assert!(
            switched.adaptive_yield() > switched.fixed_yield() + 0.1,
            "adaptive {} vs fixed {}",
            switched.adaptive_yield(),
            switched.fixed_yield()
        );
        assert!(switched.adaptive_yield() > 0.5);
    }

    #[test]
    fn explicit_ideal_supply_is_bit_identical_to_default() {
        // The ideal rail is the builder default; passing it explicitly
        // must be a no-op for every die outcome.
        let default = StudyConfig::new(50, 9).spec(tight_spec()).run();
        let explicit = StudyConfig::new(50, 9)
            .spec(tight_spec())
            .supply(SupplySim::Ideal)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn empty_summary_is_well_behaved() {
        let report = YieldReport {
            dies: Vec::new(),
            fixed_word: 11,
        };
        let summary = report.summarize();
        assert_eq!(summary.dies, 0);
        assert_eq!(summary.fixed_yield(), 0.0);
        assert_eq!(summary.mean_adaptive_energy(), None);
        assert_eq!(summary.corner_units.count(), 0);
    }

    #[test]
    fn empty_study_is_well_behaved() {
        let report = YieldReport {
            dies: Vec::new(),
            fixed_word: 11,
        };
        assert_eq!(report.fixed_yield(), 0.0);
        assert_eq!(report.dithered_yield(), 0.0);
        assert_eq!(report.mean_adaptive_energy(), None);
    }
}
