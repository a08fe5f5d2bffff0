//! Tabulated device-model surfaces: the Monte-Carlo hot path's
//! replacement for repeated analytic EKV evaluation.
//!
//! Every quantity the controller stack queries — gate delay, leakage,
//! energy per cycle — is a smooth function of exactly three scalars per
//! device flavour: the supply voltage, the die temperature, and an
//! *additive* threshold shift (global corner shift + local mismatch
//! enter [`MosfetParams::vth_effective`] as one sum). This module
//! precomputes `ln I_on` and `ln I_off` for both device flavours on a
//! uniform (Vdd × T × ΔVth) grid at the TT corner, then answers queries
//! by monotone (Fritsch–Carlson/Butland) cubic interpolation along Vdd
//! and bilinear interpolation along the two slow axes, folding the
//! corner shift and mismatch into the ΔVth coordinate. Delay and energy
//! are reconstructed from the interpolated currents through the *exact*
//! closed-form expressions of [`crate::delay`] and [`crate::energy`],
//! so interpolation of the two log-current surfaces is the only error
//! source, bounded by [`ACCURACY_BUDGET`] and verified by tests.
//!
//! The query path is shaped for the Monte-Carlo inner loop: grid nodes
//! interleave `(value, step-scaled slope)` pairs so a Hermite cell is
//! one contiguous load, the four bracketing cells are blended *before*
//! the cubic is evaluated (linearity makes that the same polynomial at
//! a quarter of the work), axis lookups multiply by precomputed
//! reciprocal steps, and [`DeviceEval::gate_delay_pair`] answers the
//! TDC replica cell's inverter+NOR₂ pair from a single interpolation.
//!
//! Queries outside the grid transparently fall back to the exact
//! analytic model (and bump the
//! [`crate::metrics::MetricsSnapshot::exact_fallbacks`] counter), so a
//! tabulated evaluator is *always* correct — just faster inside the
//! envelope every study actually exercises.
//!
//! Determinism: a built table is a pure function of the
//! [`Technology`] and [`GridSpec`]; interpolation is a pure function of
//! the table. No query order, thread count or cache state can change a
//! result bit, which is what lets the tabulated path ride the PR 2
//! `subvt-exec` contract unchanged (see `DESIGN.md`).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use subvt_simd::{F64x4, LANES};

use crate::constants::{nominal_temperature, thermal_voltage};
use crate::corner::ProcessCorner;
use crate::delay::{GateMismatch, GateTiming, SupplyRangeError};
use crate::energy::{energy_per_cycle, CircuitProfile, EnergyBreakdown};
use crate::metrics;
use crate::mosfet::{Environment, MosfetParams};
use crate::technology::{GateKind, Technology};
use crate::units::{Amps, Joules, Kelvin, Seconds, Volts};

/// Relative accuracy the tabulated surfaces guarantee against the
/// analytic model, on gate delay and on total energy per cycle, for
/// every in-grid query (see the property tests and the `device_eval`
/// bench, which measures the realised error — typically well under
/// half the budget).
pub const ACCURACY_BUDGET: f64 = 0.01;

/// One uniform grid axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisSpec {
    /// Lowest tabulated coordinate.
    pub lo: f64,
    /// Highest tabulated coordinate.
    pub hi: f64,
    /// Number of grid points (≥ 2).
    pub points: usize,
}

impl AxisSpec {
    /// Creates an axis; panics if `lo >= hi` or `points < 2`.
    pub fn new(lo: f64, hi: f64, points: usize) -> AxisSpec {
        assert!(lo < hi, "axis needs lo < hi (got {lo}..{hi})");
        assert!(points >= 2, "axis needs at least 2 points");
        AxisSpec { lo, hi, points }
    }

    /// Grid spacing.
    #[inline]
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.points - 1) as f64
    }

    /// Coordinate of grid point `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.lo + self.step() * i as f64
    }

    /// Locates `x` on the axis: the lower bracketing index and the
    /// fractional position within that cell, or `None` outside the
    /// axis range. Hot queries go through a prebuilt [`Locator`]; this
    /// spec-level view exists for tests and one-off probes.
    #[cfg(test)]
    fn locate(&self, x: f64) -> Option<(usize, f64)> {
        Locator::new(self).locate(x)
    }
}

/// A uniform axis preconditioned for queries: `locate` replaces the
/// per-call division of [`AxisSpec::locate`] with one multiplication by
/// the reciprocal step, precomputed once at table-build time.
#[derive(Debug, Clone, Copy)]
struct Locator {
    lo: f64,
    hi: f64,
    inv_step: f64,
    max_cell: usize,
}

impl Locator {
    fn new(ax: &AxisSpec) -> Locator {
        Locator {
            lo: ax.lo,
            hi: ax.hi,
            inv_step: (ax.points - 1) as f64 / (ax.hi - ax.lo),
            max_cell: ax.points - 2,
        }
    }

    #[inline]
    fn locate(&self, x: f64) -> Option<(usize, f64)> {
        if !(self.lo..=self.hi).contains(&x) {
            return None;
        }
        let u = (x - self.lo) * self.inv_step;
        let i = (u as usize).min(self.max_cell);
        Some((i, u - i as f64))
    }
}

/// Geometry of the tabulated (Vdd × temperature × ΔVth) grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Supply-voltage axis, volts.
    pub vdd: AxisSpec,
    /// Die-temperature axis, kelvin.
    pub temp: AxisSpec,
    /// Additive threshold-shift axis (corner shift + local mismatch),
    /// volts.
    pub dvth: AxisSpec,
}

impl GridSpec {
    /// The default grid for a technology: Vdd from the functional floor
    /// to slightly above nominal (~8 mV spacing), −40..125 °C (7.5 K
    /// spacing — `ln I` is only piecewise-linear along this axis, and
    /// its curvature in T is what dominates the realised error, so the
    /// temperature pitch is the accuracy knob), and ±80 mV of threshold
    /// shift (10 mV spacing) — wide enough for the ±15 mV corner shifts
    /// plus >4σ of the combined global+local mismatch of the paper's
    /// variation model.
    pub fn default_for(tech: &Technology) -> GridSpec {
        GridSpec {
            vdd: AxisSpec::new(tech.min_vdd.volts(), tech.nominal_vdd.volts() + 0.05, 59),
            temp: AxisSpec::new(
                Kelvin::from_celsius(-40.0).value(),
                Kelvin::from_celsius(125.0).value(),
                23,
            ),
            dvth: AxisSpec::new(-0.08, 0.08, 17),
        }
    }

    /// Total number of grid nodes per surface.
    pub fn nodes(&self) -> usize {
        self.vdd.points * self.temp.points * self.dvth.points
    }
}

/// How evaluators answer delay/energy queries. The two variants of the
/// explicit analytic-vs-tabulated choice the hot consumers expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Exact analytic EKV model on every call.
    #[default]
    Analytic,
    /// Precomputed interpolation surfaces with exact fallback.
    Tabulated,
}

impl EvalMode {
    /// Short lowercase label (used in bench payloads and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            EvalMode::Analytic => "analytic",
            EvalMode::Tabulated => "tabulated",
        }
    }

    /// Builds a shareable evaluator of this mode for a technology.
    pub fn build(self, tech: &Technology) -> SharedEval {
        match self {
            EvalMode::Analytic => Arc::new(AnalyticEval::new(tech)),
            EvalMode::Tabulated => Arc::new(TabulatedEval::new(tech)),
        }
    }
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an [`EvalMode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEvalModeError(String);

impl fmt::Display for ParseEvalModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown eval mode `{}` (expected `analytic` or `tabulated`)",
            self.0
        )
    }
}

impl std::error::Error for ParseEvalModeError {}

impl FromStr for EvalMode {
    type Err = ParseEvalModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "analytic" | "exact" => Ok(EvalMode::Analytic),
            "tabulated" | "tab" => Ok(EvalMode::Tabulated),
            _ => Err(ParseEvalModeError(s.to_owned())),
        }
    }
}

/// The device-evaluation interface the hot consumers program against:
/// callers pick an implementation (analytic, tabulated, memoized)
/// explicitly, and every implementation is a pure function of its
/// construction inputs so the `subvt-exec` determinism contract holds
/// at any `--jobs` count.
pub trait DeviceEval: fmt::Debug + Send + Sync {
    /// The technology this evaluator answers for.
    fn technology(&self) -> &Technology;

    /// Propagation delay of `kind` at `vdd` in `env` with local
    /// mismatch and fanout — the tabulated analogue of
    /// [`GateTiming::gate_delay_with`].
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] when `vdd` is below the functional
    /// floor of the technology.
    fn gate_delay(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<Seconds, SupplyRangeError>;

    /// Energy breakdown of one cycle of `profile` at `vdd` — the
    /// analogue of [`energy_per_cycle`].
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] when `vdd` is below the functional
    /// floor of the technology.
    fn energy(
        &self,
        profile: &CircuitProfile,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError>;

    /// Delays of two gate kinds sharing one (vdd, env, mismatch,
    /// fanout) operating point — the shape of the TDC replica cell,
    /// which times an inverter and a NOR₂ stage together on every
    /// sense. The default is two independent [`DeviceEval::gate_delay`]
    /// calls, bit-identical to making them yourself; table-backed
    /// implementations override it to answer both kinds from a single
    /// current interpolation, which is where most of the hot path's
    /// speedup comes from.
    ///
    /// # Errors
    ///
    /// As [`DeviceEval::gate_delay`].
    fn gate_delay_pair(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<(Seconds, Seconds), SupplyRangeError> {
        Ok((
            self.gate_delay(kinds.0, vdd, env, mismatch, fanout)?,
            self.gate_delay(kinds.1, vdd, env, mismatch, fanout)?,
        ))
    }

    /// Delays of one gate kind at one (vdd, env, fanout) operating
    /// point across a whole lane of per-die mismatches — the
    /// batched-study shape, where every die in a `DieBatch` shares the
    /// supply and only the ΔVth draws differ. The default is the
    /// scalar loop, bit-identical to calling [`DeviceEval::gate_delay`]
    /// per die; table-backed implementations override it to resolve
    /// the (Vdd, T) grid position and Hermite basis once and run only
    /// the per-die ΔVth interpolation in the inner loop.
    ///
    /// A single `Result` covers the lane because the only error —
    /// `vdd` below the technology floor — does not depend on the die.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatches.len()`.
    ///
    /// # Errors
    ///
    /// As [`DeviceEval::gate_delay`].
    fn gate_delay_lane(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        for (m, o) in mismatches.iter().zip(out.iter_mut()) {
            *o = self.gate_delay(kind, vdd, env, *m, fanout)?;
        }
        Ok(())
    }

    /// Delays of two gate kinds at one shared (vdd, env, fanout)
    /// operating point across a whole lane of per-die mismatches — the
    /// batched TDC-sense shape: every die in a sub-batch times the same
    /// replica cell at the same candidate supply, differing only in its
    /// ΔVth draw. The default is the scalar loop, bit-identical to
    /// calling [`DeviceEval::gate_delay_pair`] per die; the analytic
    /// and tabulated implementations override it with 4-wide kernels
    /// that hoist every die-independent term out of the loop.
    ///
    /// A single `Result` covers the lane because the only error —
    /// `vdd` below the technology floor — does not depend on the die.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatches.len()`.
    ///
    /// # Errors
    ///
    /// As [`DeviceEval::gate_delay`].
    fn gate_delay_pair_lane(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [(Seconds, Seconds)],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        for (m, o) in mismatches.iter().zip(out.iter_mut()) {
            *o = self.gate_delay_pair(kinds, vdd, env, *m, fanout)?;
        }
        Ok(())
    }

    /// Delays of two gate kinds with a *per-die* supply voltage — the
    /// dithered settle loop's shape, where every die walks its own
    /// supply toward the controller's operating point. `out[i]` is
    /// `None` exactly when die `i`'s supply is below the technology
    /// floor (the per-die analogue of the lane-wide error above); the
    /// caller maps that to whatever its scalar path did with the
    /// [`SupplyRangeError`].
    ///
    /// The default is the scalar loop, bit-identical to calling
    /// [`DeviceEval::gate_delay_pair`] per die.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    fn gate_delay_pair_multi(
        &self,
        kinds: (GateKind, GateKind),
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Option<(Seconds, Seconds)>],
    ) {
        assert_multi_lanes(vdds.len(), mismatches.len(), out.len());
        for ((v, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = self.gate_delay_pair(kinds, *v, env, *m, fanout).ok();
        }
    }

    /// Delays of one gate kind with a *per-die* supply voltage — the
    /// dithered spec check's shape, where every die is checked at its
    /// own settled supply. `out[i]` is `None` exactly when die `i`'s
    /// supply is below the technology floor, as in
    /// [`DeviceEval::gate_delay_pair_multi`].
    ///
    /// The default is the scalar loop, bit-identical to calling
    /// [`DeviceEval::gate_delay`] per die.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    fn gate_delay_multi(
        &self,
        kind: GateKind,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Option<Seconds>],
    ) {
        assert_multi_lanes(vdds.len(), mismatches.len(), out.len());
        for ((v, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = self.gate_delay(kind, *v, env, *m, fanout).ok();
        }
    }
}

/// The length contract of the per-die-supply kernels.
fn assert_multi_lanes(vdds: usize, mismatches: usize, out: usize) {
    assert_eq!(
        vdds, mismatches,
        "supply lane length must match the mismatch lane"
    );
    assert_eq!(vdds, out, "lane output length must match the supply lane");
}

/// A shareable, thread-safe evaluator handle.
pub type SharedEval = Arc<dyn DeviceEval>;

/// The exact analytic model behind the [`DeviceEval`] interface.
///
/// Owns its [`Technology`] so it can be `'static` and [`Arc`]-shared
/// across worker threads; construct it once per study, not per call.
#[derive(Debug, Clone)]
pub struct AnalyticEval {
    tech: Technology,
}

impl AnalyticEval {
    /// Creates an analytic evaluator for a technology.
    pub fn new(tech: &Technology) -> AnalyticEval {
        AnalyticEval { tech: tech.clone() }
    }
}

/// `ln(1 + e^x)` with the same overflow guard as
/// [`MosfetParams::drain_current`] — the one transcendental of the EKV
/// delay path, kept scalar per lane under the SIMD contract.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        x.exp().ln_1p()
    }
}

/// Die-independent constants of one EKV on-current evaluation, hoisted
/// out of the per-die loop: at a shared (vdd, env) operating point only
/// the additive ΔVth differs between dies, so the temperature `powf`
/// of the specific current, the corner/tempco/DIBL threshold terms, the
/// softplus argument scale and the saturation factor are all computed
/// once per lane. The per-die arithmetic in [`EkvOnCurrent::at`]
/// mirrors [`MosfetParams::drain_current`] term for term — same
/// values, same association — so every result is bit-identical to the
/// scalar call.
#[derive(Debug, Clone, Copy)]
struct EkvOnCurrent {
    vdd: f64,
    /// [`MosfetParams::vth_effective`] minus the per-die local delta
    /// (`Volts` ops are plain field arithmetic, so splitting the sum
    /// here keeps the scalar association).
    vth_base: f64,
    /// `2 n U_T`, the softplus argument scale.
    denom: f64,
    /// Temperature-adjusted specific current.
    spec: f64,
    /// `1 − exp(−Vdd/U_T)`, the saturation factor.
    sat: f64,
}

impl EkvOnCurrent {
    fn new(p: &MosfetParams, vdd: Volts, env: Environment) -> EkvOnCurrent {
        let ut = thermal_voltage(env.temperature).volts();
        let dt = env.temperature.value() - nominal_temperature().value();
        let vth_base =
            p.vth0.volts() + p.device.corner_vth_shift(env.corner).volts() + p.vth_tempco * dt
                - p.dibl * vdd.volts().abs();
        EkvOnCurrent {
            vdd: vdd.volts(),
            vth_base,
            denom: 2.0 * p.slope_factor * ut,
            spec: p.spec_current_at(env.temperature).value(),
            sat: 1.0 - (-vdd.volts().abs() / ut).exp(),
        }
    }

    /// On-current for one die's local ΔVth (the ragged-tail form).
    #[inline]
    fn at(&self, local: f64) -> f64 {
        let x = (self.vdd - (self.vth_base + local)) / self.denom;
        let soft = softplus(x);
        self.spec * soft * soft * self.sat
    }

    /// On-currents for four dies at once; the surrounding arithmetic
    /// is elementwise 4-wide and the softplus stays scalar per lane,
    /// so the result is bit-identical to four [`EkvOnCurrent::at`]
    /// calls.
    #[inline]
    fn at4(&self, local: F64x4) -> F64x4 {
        let x = (F64x4::splat(self.vdd) - (F64x4::splat(self.vth_base) + local))
            / F64x4::splat(self.denom);
        let xs = x.to_array();
        let soft = F64x4([
            softplus(xs[0]),
            softplus(xs[1]),
            softplus(xs[2]),
            softplus(xs[3]),
        ]);
        F64x4::splat(self.spec) * soft * soft * F64x4::splat(self.sat)
    }
}

/// Per-gate-kind constants of the analytic delay expression at a shared
/// (vdd, fanout): `t = ½(charge/(iₙ·n_stack) + charge/(iₚ·p_stack))`,
/// exactly the expression of [`GateTiming::gate_delay_with`] and
/// [`TabulatedEval::delay_from_currents`].
#[derive(Debug, Clone, Copy)]
struct KindFactors {
    charge: f64,
    n_stack: f64,
    p_stack: f64,
}

impl KindFactors {
    fn new(tech: &Technology, kind: GateKind, vdd: Volts, fanout: f64) -> KindFactors {
        let per_volt = KindFactors::per_volt(tech, kind, fanout);
        KindFactors {
            charge: per_volt.charge * vdd.volts(),
            ..per_volt
        }
    }

    /// The factors with the supply left out of the charge, for lanes
    /// where every die has its own supply ([`KindFactors::delay_at`]).
    fn per_volt(tech: &Technology, kind: GateKind, fanout: f64) -> KindFactors {
        let cap = tech.gate_cap.value() * kind.cap_factor() * fanout.max(0.0);
        let (n_stack, p_stack) = kind.stack_factors();
        KindFactors {
            charge: tech.delay_fit * cap,
            n_stack,
            p_stack,
        }
    }

    /// One die's delay at its own supply `v`, from
    /// [`KindFactors::per_volt`] factors.
    #[inline]
    fn delay_at(&self, v: f64, i_on_n: f64, i_on_p: f64) -> Seconds {
        let charge = self.charge * v;
        Seconds(0.5 * (charge / (i_on_n * self.n_stack) + charge / (i_on_p * self.p_stack)))
    }

    /// The delay for one die's on-currents.
    #[inline]
    fn delay(&self, i_on_n: f64, i_on_p: f64) -> Seconds {
        let t_fall = self.charge / (i_on_n * self.n_stack);
        let t_rise = self.charge / (i_on_p * self.p_stack);
        Seconds(0.5 * (t_fall + t_rise))
    }

    /// Four dies' delays at once — the wide reciprocal transform
    /// (IEEE divides, elementwise, bit-identical to four
    /// [`KindFactors::delay`] calls).
    #[inline]
    fn delay4(&self, i_on_n: F64x4, i_on_p: F64x4) -> F64x4 {
        let t_fall = F64x4::splat(self.charge) / (i_on_n * F64x4::splat(self.n_stack));
        let t_rise = F64x4::splat(self.charge) / (i_on_p * F64x4::splat(self.p_stack));
        F64x4::splat(0.5) * (t_fall + t_rise)
    }
}

/// The die-independent terms of the on-current pair when every die has
/// its *own* supply — the hoist both per-die-supply kernels share. The
/// DIBL and saturation terms are per-die, but the temperature-only
/// terms (the `powf` of the specific current, the tempco/corner
/// threshold terms, the softplus scale) come out, and they dominate
/// the die-independent cost. [`PerDieSupply::currents`] mirrors
/// [`MosfetParams::drain_current`] term for term, so every result is
/// bit-identical to the scalar call.
struct PerDieSupply<'t> {
    tech: &'t Technology,
    ut: f64,
    spec_n: f64,
    spec_p: f64,
    /// The threshold terms that do not depend on the supply.
    vth_n0: f64,
    vth_p0: f64,
    denom_n: f64,
    denom_p: f64,
}

impl<'t> PerDieSupply<'t> {
    fn new(tech: &'t Technology, env: Environment) -> PerDieSupply<'t> {
        let ut = thermal_voltage(env.temperature).volts();
        let dt = env.temperature.value() - nominal_temperature().value();
        let (nmos, pmos) = (&tech.nmos, &tech.pmos);
        let vth0 = |p: &MosfetParams| {
            p.vth0.volts() + p.device.corner_vth_shift(env.corner).volts() + p.vth_tempco * dt
        };
        PerDieSupply {
            tech,
            ut,
            spec_n: nmos.spec_current_at(env.temperature).value(),
            spec_p: pmos.spec_current_at(env.temperature).value(),
            vth_n0: vth0(nmos),
            vth_p0: vth0(pmos),
            denom_n: 2.0 * nmos.slope_factor * ut,
            denom_p: 2.0 * pmos.slope_factor * ut,
        }
    }

    /// One die's (nMOS, pMOS) on-currents at its supply `v`, or `None`
    /// below the technology floor.
    #[inline]
    fn currents(&self, vdd: Volts, mismatch: GateMismatch) -> Option<(f64, f64)> {
        if !self.tech.is_operational(vdd) {
            return None;
        }
        let v = vdd.volts();
        let sat = 1.0 - (-v.abs() / self.ut).exp();
        let vth_n = self.vth_n0 - self.tech.nmos.dibl * v.abs() + mismatch.nmos_dvth.volts();
        let vth_p = self.vth_p0 - self.tech.pmos.dibl * v.abs() + mismatch.pmos_dvth.volts();
        let soft_n = softplus((v - vth_n) / self.denom_n);
        let soft_p = softplus((v - vth_p) / self.denom_p);
        Some((
            self.spec_n * soft_n * soft_n * sat,
            self.spec_p * soft_p * soft_p * sat,
        ))
    }
}

/// Splits a mismatch lane into its nMOS and pMOS ΔVth vectors for one
/// 4-die chunk.
#[inline]
fn mismatch_lanes(ms: &[GateMismatch]) -> (F64x4, F64x4) {
    (
        F64x4([
            ms[0].nmos_dvth.volts(),
            ms[1].nmos_dvth.volts(),
            ms[2].nmos_dvth.volts(),
            ms[3].nmos_dvth.volts(),
        ]),
        F64x4([
            ms[0].pmos_dvth.volts(),
            ms[1].pmos_dvth.volts(),
            ms[2].pmos_dvth.volts(),
            ms[3].pmos_dvth.volts(),
        ]),
    )
}

impl DeviceEval for AnalyticEval {
    fn technology(&self) -> &Technology {
        &self.tech
    }

    fn gate_delay(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<Seconds, SupplyRangeError> {
        GateTiming::new(&self.tech).gate_delay_with(kind, vdd, env, mismatch, fanout)
    }

    fn energy(
        &self,
        profile: &CircuitProfile,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        energy_per_cycle(&self.tech, profile, vdd, env)
    }

    fn gate_delay_pair(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<(Seconds, Seconds), SupplyRangeError> {
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        metrics::record_analytic_delays(2);
        // On-current is gate-kind independent, so the two EKV
        // evaluations are shared and each kind only prices its own
        // cap/stack factors — half the transcendental work of the
        // default two-call path, bit-identical results.
        let n = EkvOnCurrent::new(&self.tech.nmos, vdd, env);
        let p = EkvOnCurrent::new(&self.tech.pmos, vdd, env);
        let i_n = n.at(mismatch.nmos_dvth.volts());
        let i_p = p.at(mismatch.pmos_dvth.volts());
        Ok((
            KindFactors::new(&self.tech, kinds.0, vdd, fanout).delay(i_n, i_p),
            KindFactors::new(&self.tech, kinds.1, vdd, fanout).delay(i_n, i_p),
        ))
    }

    fn gate_delay_lane(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        metrics::record_analytic_delays(mismatches.len() as u64);
        let n = EkvOnCurrent::new(&self.tech.nmos, vdd, env);
        let p = EkvOnCurrent::new(&self.tech.pmos, vdd, env);
        let k = KindFactors::new(&self.tech, kind, vdd, fanout);
        let mut chunks_m = mismatches.chunks_exact(LANES);
        let mut chunks_o = out.chunks_exact_mut(LANES);
        for (ms, os) in (&mut chunks_m).zip(&mut chunks_o) {
            let (ln, lp) = mismatch_lanes(ms);
            let t = k.delay4(n.at4(ln), p.at4(lp)).to_array();
            for (o, t) in os.iter_mut().zip(t) {
                *o = Seconds(t);
            }
        }
        for (m, o) in chunks_m.remainder().iter().zip(chunks_o.into_remainder()) {
            *o = k.delay(n.at(m.nmos_dvth.volts()), p.at(m.pmos_dvth.volts()));
        }
        Ok(())
    }

    fn gate_delay_pair_lane(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [(Seconds, Seconds)],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        metrics::record_analytic_delays(2 * mismatches.len() as u64);
        let n = EkvOnCurrent::new(&self.tech.nmos, vdd, env);
        let p = EkvOnCurrent::new(&self.tech.pmos, vdd, env);
        let ka = KindFactors::new(&self.tech, kinds.0, vdd, fanout);
        let kb = KindFactors::new(&self.tech, kinds.1, vdd, fanout);
        let mut chunks_m = mismatches.chunks_exact(LANES);
        let mut chunks_o = out.chunks_exact_mut(LANES);
        for (ms, os) in (&mut chunks_m).zip(&mut chunks_o) {
            let (ln, lp) = mismatch_lanes(ms);
            let (i_n, i_p) = (n.at4(ln), p.at4(lp));
            let a = ka.delay4(i_n, i_p).to_array();
            let b = kb.delay4(i_n, i_p).to_array();
            for (j, o) in os.iter_mut().enumerate() {
                *o = (Seconds(a[j]), Seconds(b[j]));
            }
        }
        for (m, o) in chunks_m.remainder().iter().zip(chunks_o.into_remainder()) {
            let i_n = n.at(m.nmos_dvth.volts());
            let i_p = p.at(m.pmos_dvth.volts());
            *o = (ka.delay(i_n, i_p), kb.delay(i_n, i_p));
        }
        Ok(())
    }

    fn gate_delay_pair_multi(
        &self,
        kinds: (GateKind, GateKind),
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Option<(Seconds, Seconds)>],
    ) {
        assert_multi_lanes(vdds.len(), mismatches.len(), out.len());
        let hoist = PerDieSupply::new(&self.tech, env);
        let ka = KindFactors::per_volt(&self.tech, kinds.0, fanout);
        let kb = KindFactors::per_volt(&self.tech, kinds.1, fanout);
        let mut evals = 0u64;
        for ((vdd, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = hoist.currents(*vdd, *m).map(|(i_n, i_p)| {
                evals += 2;
                let v = vdd.volts();
                (ka.delay_at(v, i_n, i_p), kb.delay_at(v, i_n, i_p))
            });
        }
        metrics::record_analytic_delays(evals);
    }

    fn gate_delay_multi(
        &self,
        kind: GateKind,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Option<Seconds>],
    ) {
        assert_multi_lanes(vdds.len(), mismatches.len(), out.len());
        // The pair kernel's hoist, one kind priced per die: each die
        // counts one delay, as a `gate_delay` call does.
        let hoist = PerDieSupply::new(&self.tech, env);
        let k = KindFactors::per_volt(&self.tech, kind, fanout);
        let mut evals = 0u64;
        for ((vdd, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = hoist.currents(*vdd, *m).map(|(i_n, i_p)| {
                evals += 1;
                k.delay_at(vdd.volts(), i_n, i_p)
            });
        }
        metrics::record_analytic_delays(evals);
    }
}

/// One tabulated `ln I` surface over the (Vdd × T × ΔVth) grid.
///
/// Storage is node-interleaved along the Vdd axis: each grid node
/// stores `(ln I, h·slope)` adjacently, so the four coefficients of a
/// Hermite cell — `(y₀, h·d₀, y₁, h·d₁)` — are one contiguous 32-byte
/// load. Slopes are monotone (Fritsch–Carlson/Butland) estimates,
/// pre-scaled by the Vdd step at build time so queries never touch the
/// step. Node `(ti, si, vi)` lives at data index
/// `2 * ((ti * ns + si) * nv + vi)`.
struct Surface {
    data: Vec<f64>,
}

impl Surface {
    /// Tabulates `ln(current(vdd, temp, dvth))`.
    fn build<F: Fn(Volts, Environment, Volts) -> Amps>(spec: &GridSpec, current: F) -> Surface {
        let (nv, nt, ns) = (spec.vdd.points, spec.temp.points, spec.dvth.points);
        let step = spec.vdd.step();
        let mut data = vec![0.0; 2 * nv * nt * ns];
        let mut col = vec![0.0; nv];
        let mut slopes = vec![0.0; nv];
        for ti in 0..nt {
            let env = Environment {
                corner: ProcessCorner::Tt,
                temperature: Kelvin(spec.temp.value(ti)),
            };
            for si in 0..ns {
                let dvth = Volts(spec.dvth.value(si));
                for (vi, y) in col.iter_mut().enumerate() {
                    *y = current(Volts(spec.vdd.value(vi)), env, dvth).value().ln();
                }
                pchip_slopes(&col, step, &mut slopes);
                let base = 2 * (ti * ns + si) * nv;
                for vi in 0..nv {
                    data[base + 2 * vi] = col[vi];
                    data[base + 2 * vi + 1] = slopes[vi] * step;
                }
            }
        }
        Surface { data }
    }

    /// Interpolated `ln I` at a resolved [`GridPoint`] and a located
    /// ΔVth bracket.
    ///
    /// The four (temp, ΔVth) Hermite cells bracketing the query are
    /// blended bilinearly *first* — the blend is linear in the cell
    /// coefficients, so this evaluates the same polynomial as blending
    /// four per-column cubics at a quarter of the Hermite cost — then
    /// one dot product with the precomputed basis finishes the job.
    #[inline]
    fn sample(&self, grid: &GridPoint, si: usize, sf: f64) -> f64 {
        let b00 = grid.base0 + si * grid.s_stride;
        let b01 = b00 + grid.s_stride;
        let b10 = b00 + grid.t_stride;
        let b11 = b10 + grid.s_stride;
        let tf = grid.tf;
        let w00 = (1.0 - tf) * (1.0 - sf);
        let w01 = (1.0 - tf) * sf;
        let w10 = tf * (1.0 - sf);
        let w11 = tf * sf;
        // The four Hermite coefficients accumulate as one 4-lane
        // vector; each step is the elementwise `cell[j] += w * node[j]`
        // of the scalar form in the same order, so the blend is
        // bit-identical to the pre-SIMD loop.
        let mut acc = F64x4::splat(0.0);
        for (w, b) in [(w00, b00), (w01, b01), (w10, b10), (w11, b11)] {
            acc = acc + F64x4::splat(w) * F64x4::load(&self.data, b);
        }
        let cell = acc.to_array();
        let basis = &grid.basis;
        cell[0] * basis[0] + cell[1] * basis[1] + cell[2] * basis[2] + cell[3] * basis[3]
    }
}

/// A query's position on the grid, resolved once per (Vdd,
/// temperature) operating point and shared by every surface sampled
/// there — a delay query samples two surfaces, an energy query four,
/// and the fused pair query prices two gate kinds on it.
struct GridPoint {
    /// Flat data index of the `(ti, si = 0, vi)` node.
    base0: usize,
    /// Data-index stride of one temperature step.
    t_stride: usize,
    /// Data-index stride of one ΔVth step.
    s_stride: usize,
    /// Fractional position inside the temperature cell.
    tf: f64,
    /// Cubic Hermite basis at the Vdd cell fraction, ordered to match
    /// the interleaved node layout: `[H₀₀, H₁₀, H₀₁, H₁₁]` against
    /// `(y₀, h·d₀, y₁, h·d₁)`.
    basis: [f64; 4],
}

/// Cubic Hermite evaluation on a cell of width `h`, at fraction
/// `t ∈ [0,1]` — the reference form the monotonicity tests probe; the
/// query path works on pre-scaled slopes via [`hermite_basis`].
#[cfg(test)]
fn hermite(y0: f64, y1: f64, d0: f64, d1: f64, h: f64, t: f64) -> f64 {
    let b = hermite_basis(t);
    b[0] * y0 + b[1] * h * d0 + b[2] * y1 + b[3] * h * d1
}

/// The four cubic Hermite basis polynomials at cell fraction `t`, in
/// the order `[H₀₀, H₁₀, H₀₁, H₁₁]` (value₀, slope₀, value₁, slope₁ —
/// slopes pre-scaled by the cell width).
#[inline]
fn hermite_basis(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    [
        2.0 * t3 - 3.0 * t2 + 1.0,
        t3 - 2.0 * t2 + t,
        -2.0 * t3 + 3.0 * t2,
        t3 - t2,
    ]
}

/// Fritsch–Carlson/Butland monotonicity-preserving slopes for uniformly
/// spaced data: interior slopes are the harmonic mean of adjacent
/// secants (zero across a sign change, which is what prevents
/// overshoot), endpoints use the one-sided parabolic estimate clamped
/// to the monotone region.
fn pchip_slopes(y: &[f64], h: f64, d: &mut [f64]) {
    let n = y.len();
    debug_assert!(n >= 2 && d.len() == n);
    let delta = |i: usize| (y[i + 1] - y[i]) / h;
    if n == 2 {
        let s = delta(0);
        d[0] = s;
        d[1] = s;
        return;
    }
    for (i, di) in d.iter_mut().enumerate().take(n - 1).skip(1) {
        let (a, b) = (delta(i - 1), delta(i));
        *di = if a * b > 0.0 {
            2.0 * a * b / (a + b)
        } else {
            0.0
        };
    }
    d[0] = endpoint_slope(delta(0), delta(1));
    d[n - 1] = endpoint_slope(delta(n - 2), delta(n - 3));
}

/// One-sided endpoint slope: parabolic estimate `(3δ₀ − δ₁)/2`, zeroed
/// when it disagrees in sign with the boundary secant and clamped to
/// `3δ₀` when it overshoots (Fritsch–Carlson region).
fn endpoint_slope(d0: f64, d1: f64) -> f64 {
    let s = (3.0 * d0 - d1) / 2.0;
    if s * d0 <= 0.0 {
        0.0
    } else if d1 * d0 < 0.0 && s.abs() > 3.0 * d0.abs() {
        3.0 * d0
    } else {
        s
    }
}

/// Tabulated device evaluator: four `ln I` surfaces (on/off × n/p)
/// plus the exact closed-form delay/energy reconstruction.
pub struct TabulatedEval {
    tech: Technology,
    spec: GridSpec,
    vdd_axis: Locator,
    temp_axis: Locator,
    dvth_axis: Locator,
    nmos_on: Surface,
    pmos_on: Surface,
    nmos_off: Surface,
    pmos_off: Surface,
}

impl fmt::Debug for TabulatedEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TabulatedEval")
            .field("tech", &self.tech.name)
            .field("spec", &self.spec)
            .field("nodes_per_surface", &self.spec.nodes())
            .finish()
    }
}

impl TabulatedEval {
    /// Builds the surfaces on the default grid for `tech`.
    pub fn new(tech: &Technology) -> TabulatedEval {
        TabulatedEval::with_spec(tech, GridSpec::default_for(tech))
    }

    /// Builds the surfaces on an explicit grid.
    pub fn with_spec(tech: &Technology, spec: GridSpec) -> TabulatedEval {
        let start = Instant::now();
        let on = |p: MosfetParams| {
            move |vdd: Volts, env: Environment, dvth: Volts| p.on_current(vdd, env, dvth)
        };
        let off = |p: MosfetParams| {
            move |vdd: Volts, env: Environment, dvth: Volts| p.off_current(vdd, env, dvth)
        };
        let eval = TabulatedEval {
            nmos_on: Surface::build(&spec, on(tech.nmos)),
            pmos_on: Surface::build(&spec, on(tech.pmos)),
            nmos_off: Surface::build(&spec, off(tech.nmos)),
            pmos_off: Surface::build(&spec, off(tech.pmos)),
            vdd_axis: Locator::new(&spec.vdd),
            temp_axis: Locator::new(&spec.temp),
            dvth_axis: Locator::new(&spec.dvth),
            tech: tech.clone(),
            spec,
        };
        metrics::record_table_build(start.elapsed().as_nanos() as u64);
        eval
    }

    /// The grid this evaluator was built on.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Resolves a (Vdd, temperature) operating point to a grid
    /// position, or `None` when either coordinate is off-grid.
    #[inline]
    fn grid_at(&self, vdd: Volts, env: Environment) -> Option<GridPoint> {
        let (vi, vf) = self.vdd_axis.locate(vdd.volts())?;
        let (ti, tf) = self.temp_axis.locate(env.temperature.value())?;
        let s_stride = 2 * self.spec.vdd.points;
        let t_stride = self.spec.dvth.points * s_stride;
        Some(GridPoint {
            base0: ti * t_stride + 2 * vi,
            t_stride,
            s_stride,
            tf,
            basis: hermite_basis(vf),
        })
    }

    /// Interpolated on-currents of the pull-down and pull-up devices at
    /// a resolved grid point, or `None` when either ΔVth coordinate
    /// leaves the grid.
    #[inline]
    fn on_currents(
        &self,
        grid: &GridPoint,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Option<(f64, f64)> {
        let s_n = (env.corner.nmos_vth_shift() + mismatch.nmos_dvth).volts();
        let s_p = (env.corner.pmos_vth_shift() + mismatch.pmos_dvth).volts();
        let (ni, nf) = self.dvth_axis.locate(s_n)?;
        let (pi, pf) = self.dvth_axis.locate(s_p)?;
        Some((
            self.nmos_on.sample(grid, ni, nf).exp(),
            self.pmos_on.sample(grid, pi, pf).exp(),
        ))
    }

    /// All four currents the energy model needs — on and off, n and p —
    /// at a resolved grid point, or `None` off-grid. The energy model
    /// switches and leaks at zero local mismatch, so both device
    /// flavours sit at their corner-only threshold shift and the two
    /// ΔVth locates are shared across the on and off surfaces.
    #[inline]
    fn energy_currents(
        &self,
        grid: &GridPoint,
        env: Environment,
    ) -> Option<((f64, f64), (f64, f64))> {
        let s_n = env.corner.nmos_vth_shift().volts();
        let s_p = env.corner.pmos_vth_shift().volts();
        let (ni, nf) = self.dvth_axis.locate(s_n)?;
        let (pi, pf) = self.dvth_axis.locate(s_p)?;
        Some((
            (
                self.nmos_on.sample(grid, ni, nf).exp(),
                self.pmos_on.sample(grid, pi, pf).exp(),
            ),
            (
                self.nmos_off.sample(grid, ni, nf).exp(),
                self.pmos_off.sample(grid, pi, pf).exp(),
            ),
        ))
    }

    /// The exact delay expression of [`GateTiming::gate_delay_with`],
    /// fed with interpolated currents.
    #[inline]
    fn delay_from_currents(
        &self,
        kind: GateKind,
        vdd: Volts,
        fanout: f64,
        i_on_n: f64,
        i_on_p: f64,
    ) -> Seconds {
        let cap = self.tech.gate_cap.value() * kind.cap_factor() * fanout.max(0.0);
        let (n_stack, p_stack) = kind.stack_factors();
        let charge = self.tech.delay_fit * cap * vdd.volts();
        Seconds(0.5 * (charge / (i_on_n * n_stack) + charge / (i_on_p * p_stack)))
    }
}

impl DeviceEval for TabulatedEval {
    fn technology(&self) -> &Technology {
        &self.tech
    }

    fn gate_delay(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<Seconds, SupplyRangeError> {
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        let interp = self
            .grid_at(vdd, env)
            .and_then(|grid| self.on_currents(&grid, env, mismatch));
        match interp {
            Some((i_n, i_p)) => {
                metrics::record_interp_delay_hit();
                Ok(self.delay_from_currents(kind, vdd, fanout, i_n, i_p))
            }
            None => {
                metrics::record_exact_fallback();
                GateTiming::new(&self.tech).gate_delay_with(kind, vdd, env, mismatch, fanout)
            }
        }
    }

    fn gate_delay_pair(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<(Seconds, Seconds), SupplyRangeError> {
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        let interp = self
            .grid_at(vdd, env)
            .and_then(|grid| self.on_currents(&grid, env, mismatch));
        match interp {
            Some((i_n, i_p)) => {
                // One interpolation answers both kinds (they differ
                // only in cap and stack factors); count two hits so
                // the analytic/tabulated query totals stay comparable.
                metrics::record_interp_delay_hits(2);
                Ok((
                    self.delay_from_currents(kinds.0, vdd, fanout, i_n, i_p),
                    self.delay_from_currents(kinds.1, vdd, fanout, i_n, i_p),
                ))
            }
            None => {
                metrics::record_exact_fallback();
                let timing = GateTiming::new(&self.tech);
                Ok((
                    timing.gate_delay_with(kinds.0, vdd, env, mismatch, fanout)?,
                    timing.gate_delay_with(kinds.1, vdd, env, mismatch, fanout)?,
                ))
            }
        }
    }

    fn gate_delay_lane(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        // The lane hoist: one (Vdd, T) grid resolution and one Hermite
        // basis for the whole batch; the inner loop is the per-die
        // ΔVth locate + surface sample — the same arithmetic as the
        // scalar path, so every die's delay is bit-identical to a
        // `gate_delay` call.
        let Some(grid) = self.grid_at(vdd, env) else {
            metrics::record_exact_fallback();
            let timing = GateTiming::new(&self.tech);
            for (m, o) in mismatches.iter().zip(out.iter_mut()) {
                *o = timing.gate_delay_with(kind, vdd, env, *m, fanout)?;
            }
            return Ok(());
        };
        // Per die: ΔVth locate + Hermite blend (itself 4-wide over the
        // cell coefficients) and the scalar `exp`; the current → delay
        // reciprocal transform then runs four dies wide whenever the
        // chunk has no off-grid stragglers. Both halves reproduce the
        // scalar arithmetic exactly.
        let k = KindFactors::new(&self.tech, kind, vdd, fanout);
        let mut hits = 0u64;
        let mut i = 0;
        while i < mismatches.len() {
            let n = (mismatches.len() - i).min(LANES);
            let mut cur = [None; LANES];
            for (j, c) in cur.iter_mut().enumerate().take(n) {
                *c = self.on_currents(&grid, env, mismatches[i + j]);
                if c.is_some() {
                    hits += 1;
                }
            }
            match cur {
                [Some(a), Some(b), Some(c), Some(d)] if n == LANES => {
                    let i_n = F64x4([a.0, b.0, c.0, d.0]);
                    let i_p = F64x4([a.1, b.1, c.1, d.1]);
                    let t = k.delay4(i_n, i_p).to_array();
                    for (o, t) in out[i..i + LANES].iter_mut().zip(t) {
                        *o = Seconds(t);
                    }
                }
                _ => {
                    for j in 0..n {
                        match cur[j] {
                            Some((i_n, i_p)) => out[i + j] = k.delay(i_n, i_p),
                            None => {
                                metrics::record_exact_fallback();
                                out[i + j] = GateTiming::new(&self.tech).gate_delay_with(
                                    kind,
                                    vdd,
                                    env,
                                    mismatches[i + j],
                                    fanout,
                                )?;
                            }
                        }
                    }
                }
            }
            i += n;
        }
        metrics::record_interp_delay_hits(hits);
        Ok(())
    }

    fn gate_delay_pair_lane(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        fanout: f64,
        out: &mut [(Seconds, Seconds)],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        let Some(grid) = self.grid_at(vdd, env) else {
            metrics::record_exact_fallback();
            let timing = GateTiming::new(&self.tech);
            for (m, o) in mismatches.iter().zip(out.iter_mut()) {
                *o = (
                    timing.gate_delay_with(kinds.0, vdd, env, *m, fanout)?,
                    timing.gate_delay_with(kinds.1, vdd, env, *m, fanout)?,
                );
            }
            return Ok(());
        };
        // Same shape as `gate_delay_lane`, pricing both kinds from one
        // per-die interpolation (two hits per die, matching the fused
        // scalar pair's accounting).
        let ka = KindFactors::new(&self.tech, kinds.0, vdd, fanout);
        let kb = KindFactors::new(&self.tech, kinds.1, vdd, fanout);
        let mut hits = 0u64;
        let mut i = 0;
        while i < mismatches.len() {
            let n = (mismatches.len() - i).min(LANES);
            let mut cur = [None; LANES];
            for (j, c) in cur.iter_mut().enumerate().take(n) {
                *c = self.on_currents(&grid, env, mismatches[i + j]);
                if c.is_some() {
                    hits += 2;
                }
            }
            match cur {
                [Some(a), Some(b), Some(c), Some(d)] if n == LANES => {
                    let i_n = F64x4([a.0, b.0, c.0, d.0]);
                    let i_p = F64x4([a.1, b.1, c.1, d.1]);
                    let ta = ka.delay4(i_n, i_p).to_array();
                    let tb = kb.delay4(i_n, i_p).to_array();
                    for (j, o) in out[i..i + LANES].iter_mut().enumerate() {
                        *o = (Seconds(ta[j]), Seconds(tb[j]));
                    }
                }
                _ => {
                    for j in 0..n {
                        match cur[j] {
                            Some((i_n, i_p)) => {
                                out[i + j] = (ka.delay(i_n, i_p), kb.delay(i_n, i_p));
                            }
                            None => {
                                metrics::record_exact_fallback();
                                let timing = GateTiming::new(&self.tech);
                                out[i + j] = (
                                    timing.gate_delay_with(
                                        kinds.0,
                                        vdd,
                                        env,
                                        mismatches[i + j],
                                        fanout,
                                    )?,
                                    timing.gate_delay_with(
                                        kinds.1,
                                        vdd,
                                        env,
                                        mismatches[i + j],
                                        fanout,
                                    )?,
                                );
                            }
                        }
                    }
                }
            }
            i += n;
        }
        metrics::record_interp_delay_hits(hits);
        Ok(())
    }

    fn energy(
        &self,
        profile: &CircuitProfile,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        if !self.tech.is_operational(vdd) {
            return Err(SupplyRangeError::new(vdd, self.tech.min_vdd));
        }
        let interp = self
            .grid_at(vdd, env)
            .and_then(|grid| self.energy_currents(&grid, env));
        let Some(((on_n, on_p), (off_n, off_p))) = interp else {
            metrics::record_exact_fallback();
            return energy_per_cycle(&self.tech, profile, vdd, env);
        };
        metrics::record_interp_energy_hit();

        // The exact expressions of `energy_per_cycle`, with the four
        // interpolated currents substituted for the analytic ones.
        let gate_delay = self.delay_from_currents(profile.gate, vdd, 1.0, on_n, on_p);
        let cycle_time = gate_delay * profile.depth;
        let scales = profile.corner_cal.scales(env.corner);

        let cap = self.tech.gate_cap.value()
            * profile.gate.cap_factor()
            * profile.gates
            * profile.activity
            * profile.cap_scale
            * scales.cap;
        let dynamic = Joules(cap * vdd.volts() * vdd.volts());

        let leak_current = Amps(
            0.5 * (off_n + off_p)
                * profile.gates
                * profile.gate.leak_factor()
                * profile.leak_scale
                * scales.leak,
        );
        let leakage = Joules(leak_current.value() * vdd.volts() * cycle_time.value());

        Ok(EnergyBreakdown {
            vdd,
            dynamic,
            leakage,
            cycle_time,
            leak_current,
        })
    }
}

/// Hashable key for a delay query (exact f64 bit patterns — the cache
/// only ever matches truly identical queries, so it is pure
/// memoization and cannot perturb results).
type DelayKey = (u8, u64, u8, u64, u64, u64, u64);
/// Hashable key for an energy query; the `usize` is the profile's
/// address, so cache energy queries only through long-lived profiles.
type EnergyKey = (usize, u64, u8, u64);

fn delay_key(
    kind: GateKind,
    vdd: Volts,
    env: Environment,
    mismatch: GateMismatch,
    fanout: f64,
) -> DelayKey {
    (
        kind_index(kind),
        vdd.volts().to_bits(),
        corner_index(env.corner),
        env.temperature.value().to_bits(),
        mismatch.nmos_dvth.volts().to_bits(),
        mismatch.pmos_dvth.volts().to_bits(),
        fanout.to_bits(),
    )
}

fn kind_index(kind: GateKind) -> u8 {
    match kind {
        GateKind::Inverter => 0,
        GateKind::Nand2 => 1,
        GateKind::Nor2 => 2,
    }
}

fn corner_index(corner: ProcessCorner) -> u8 {
    match corner {
        ProcessCorner::Ss => 0,
        ProcessCorner::Tt => 1,
        ProcessCorner::Ff => 2,
        ProcessCorner::Fs => 3,
        ProcessCorner::Sf => 4,
    }
}

enum CacheSource<'a> {
    Borrowed(&'a dyn DeviceEval),
    Shared(SharedEval),
}

impl CacheSource<'_> {
    #[inline]
    fn get(&self) -> &dyn DeviceEval {
        match self {
            CacheSource::Borrowed(e) => *e,
            CacheSource::Shared(e) => e.as_ref(),
        }
    }
}

/// A memoizing wrapper around any [`DeviceEval`]: repeated identical
/// queries (the per-die settle loops re-evaluate the same few stage
/// delays dozens of times) are answered from a hash map keyed on the
/// exact query bits.
///
/// Use one instance per die/controller so the internal mutex is
/// uncontended and the working set stays small. Errors pass through
/// uncached. Energy queries are keyed on the profile's *address*; only
/// use them with profiles that outlive the cache.
pub struct CachedEval<'a> {
    source: CacheSource<'a>,
    delay: Mutex<HashMap<DelayKey, f64>>,
    energy: Mutex<HashMap<EnergyKey, EnergyBreakdown>>,
}

impl fmt::Debug for CachedEval<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedEval")
            .field("inner", &self.source.get())
            .finish_non_exhaustive()
    }
}

impl<'a> CachedEval<'a> {
    /// Wraps a borrowed evaluator.
    pub fn new(inner: &'a dyn DeviceEval) -> CachedEval<'a> {
        CachedEval {
            source: CacheSource::Borrowed(inner),
            delay: Mutex::new(HashMap::new()),
            energy: Mutex::new(HashMap::new()),
        }
    }

    /// Wraps a shared evaluator handle (no borrow, `'static`).
    pub fn shared(inner: SharedEval) -> CachedEval<'static> {
        CachedEval {
            source: CacheSource::Shared(inner),
            delay: Mutex::new(HashMap::new()),
            energy: Mutex::new(HashMap::new()),
        }
    }
}

impl DeviceEval for CachedEval<'_> {
    fn technology(&self) -> &Technology {
        self.source.get().technology()
    }

    fn gate_delay(
        &self,
        kind: GateKind,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<Seconds, SupplyRangeError> {
        let key = delay_key(kind, vdd, env, mismatch, fanout);
        if let Some(&d) = self.delay.lock().expect("delay cache poisoned").get(&key) {
            metrics::record_cache_hit();
            return Ok(Seconds(d));
        }
        let d = self
            .source
            .get()
            .gate_delay(kind, vdd, env, mismatch, fanout)?;
        self.delay
            .lock()
            .expect("delay cache poisoned")
            .insert(key, d.value());
        Ok(d)
    }

    fn gate_delay_pair(
        &self,
        kinds: (GateKind, GateKind),
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
        fanout: f64,
    ) -> Result<(Seconds, Seconds), SupplyRangeError> {
        // Pair results land in the same per-kind map as single queries
        // (a fused answer is bit-identical to two single answers for
        // every implementation), so pairs and singles memoize each
        // other.
        let ka = delay_key(kinds.0, vdd, env, mismatch, fanout);
        let kb = delay_key(kinds.1, vdd, env, mismatch, fanout);
        {
            let map = self.delay.lock().expect("delay cache poisoned");
            if let (Some(&a), Some(&b)) = (map.get(&ka), map.get(&kb)) {
                metrics::record_cache_hit();
                metrics::record_cache_hit();
                return Ok((Seconds(a), Seconds(b)));
            }
        }
        let pair = self
            .source
            .get()
            .gate_delay_pair(kinds, vdd, env, mismatch, fanout)?;
        let mut map = self.delay.lock().expect("delay cache poisoned");
        map.insert(ka, pair.0.value());
        map.insert(kb, pair.1.value());
        Ok(pair)
    }

    fn energy(
        &self,
        profile: &CircuitProfile,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        let key: EnergyKey = (
            profile as *const CircuitProfile as usize,
            vdd.volts().to_bits(),
            corner_index(env.corner),
            env.temperature.value().to_bits(),
        );
        if let Some(&e) = self.energy.lock().expect("energy cache poisoned").get(&key) {
            metrics::record_cache_hit();
            return Ok(e);
        }
        let e = self.source.get().energy(profile, vdd, env)?;
        self.energy
            .lock()
            .expect("energy cache poisoned")
            .insert(key, e);
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;

    fn tech() -> Technology {
        Technology::st_130nm()
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    #[test]
    fn gate_delay_lane_is_bit_identical_to_scalar_calls() {
        let tech = tech();
        let evals: [&dyn DeviceEval; 2] = [&AnalyticEval::new(&tech), &TabulatedEval::new(&tech)];
        // A lane of ΔVth draws including one far outside the grid (to
        // force the per-die exact fallback inside an on-grid lane).
        let mismatches: Vec<GateMismatch> = vec![
            GateMismatch::NOMINAL,
            GateMismatch {
                nmos_dvth: Volts(0.013),
                pmos_dvth: Volts(-0.021),
            },
            GateMismatch {
                nmos_dvth: Volts(-0.008),
                pmos_dvth: Volts(0.004),
            },
            GateMismatch {
                nmos_dvth: Volts(0.5),
                pmos_dvth: Volts(0.0),
            },
        ];
        for eval in evals {
            // On-grid and off-grid (hot temperature) operating points.
            for env in [Environment::nominal(), Environment::at_celsius(150.0)] {
                for vdd in [Volts(0.231), Volts(0.35)] {
                    let mut lane = vec![Seconds(0.0); mismatches.len()];
                    eval.gate_delay_lane(GateKind::Nand2, vdd, env, &mismatches, 1.0, &mut lane)
                        .unwrap();
                    for (m, got) in mismatches.iter().zip(&lane) {
                        let scalar = eval.gate_delay(GateKind::Nand2, vdd, env, *m, 1.0).unwrap();
                        assert_eq!(
                            got.value().to_bits(),
                            scalar.value().to_bits(),
                            "{eval:?} vdd={vdd:?}"
                        );
                    }
                }
            }
            // The lane error is the same die-independent floor check.
            let mut lane = vec![Seconds(0.0); mismatches.len()];
            assert!(eval
                .gate_delay_lane(
                    GateKind::Nand2,
                    Volts(0.01),
                    Environment::nominal(),
                    &mismatches,
                    1.0,
                    &mut lane
                )
                .is_err());
        }
    }

    #[test]
    fn gate_delay_pair_is_bit_identical_to_two_single_calls() {
        // The analytic pair override shares the two EKV on-currents
        // between kinds; the tabulated one shares the interpolation.
        // Both must stay bit-identical to two independent gate_delay
        // calls — the contract the TDC replica cell and the memo cache
        // rely on.
        let tech = tech();
        let evals: [&dyn DeviceEval; 2] = [&AnalyticEval::new(&tech), &TabulatedEval::new(&tech)];
        let mms = [
            GateMismatch::NOMINAL,
            GateMismatch {
                nmos_dvth: Volts(0.0123),
                pmos_dvth: Volts(-0.0087),
            },
            GateMismatch {
                nmos_dvth: Volts(0.5),
                pmos_dvth: Volts(0.0),
            },
        ];
        for eval in evals {
            for env in [
                Environment::nominal(),
                Environment::at_corner(ProcessCorner::Ss).with_celsius(85.0),
                Environment::at_celsius(150.0),
            ] {
                for vdd in [Volts(0.231), Volts(0.35)] {
                    for mm in mms {
                        let (inv, nor) = eval
                            .gate_delay_pair(
                                (GateKind::Inverter, GateKind::Nor2),
                                vdd,
                                env,
                                mm,
                                1.0,
                            )
                            .unwrap();
                        let a = eval
                            .gate_delay(GateKind::Inverter, vdd, env, mm, 1.0)
                            .unwrap();
                        let b = eval.gate_delay(GateKind::Nor2, vdd, env, mm, 1.0).unwrap();
                        assert_eq!(inv.value().to_bits(), a.value().to_bits(), "{eval:?}");
                        assert_eq!(nor.value().to_bits(), b.value().to_bits(), "{eval:?}");
                    }
                }
            }
            assert!(eval
                .gate_delay_pair(
                    (GateKind::Inverter, GateKind::Nor2),
                    Volts(0.01),
                    Environment::nominal(),
                    GateMismatch::NOMINAL,
                    1.0
                )
                .is_err());
        }
    }

    #[test]
    fn gate_delay_pair_lane_is_bit_identical_to_scalar_pairs() {
        let tech = tech();
        let evals: [&dyn DeviceEval; 2] = [&AnalyticEval::new(&tech), &TabulatedEval::new(&tech)];
        // Lane lengths exercising every ragged tail (1–3) plus full
        // chunks, with one die far off the ΔVth grid to force the
        // per-die exact fallback inside an otherwise wide lane.
        let draws = [
            (0.0, 0.0),
            (0.013, -0.021),
            (-0.008, 0.004),
            (0.5, 0.0),
            (0.0021, 0.0035),
            (-0.0154, 0.0067),
            (0.0302, -0.0298),
        ];
        for eval in evals {
            for env in [Environment::nominal(), Environment::at_celsius(150.0)] {
                for vdd in [Volts(0.231), Volts(0.35)] {
                    for len in [1, 2, 3, 4, 5, 7] {
                        let mms: Vec<GateMismatch> = draws[..len]
                            .iter()
                            .map(|&(n, p)| GateMismatch {
                                nmos_dvth: Volts(n),
                                pmos_dvth: Volts(p),
                            })
                            .collect();
                        let mut lane = vec![(Seconds(0.0), Seconds(0.0)); len];
                        eval.gate_delay_pair_lane(
                            (GateKind::Inverter, GateKind::Nor2),
                            vdd,
                            env,
                            &mms,
                            1.0,
                            &mut lane,
                        )
                        .unwrap();
                        for (m, got) in mms.iter().zip(&lane) {
                            let want = eval
                                .gate_delay_pair(
                                    (GateKind::Inverter, GateKind::Nor2),
                                    vdd,
                                    env,
                                    *m,
                                    1.0,
                                )
                                .unwrap();
                            assert_eq!(
                                got.0.value().to_bits(),
                                want.0.value().to_bits(),
                                "{eval:?} len={len}"
                            );
                            assert_eq!(
                                got.1.value().to_bits(),
                                want.1.value().to_bits(),
                                "{eval:?} len={len}"
                            );
                        }
                    }
                }
            }
            let mut lane = vec![(Seconds(0.0), Seconds(0.0)); 4];
            assert!(eval
                .gate_delay_pair_lane(
                    (GateKind::Inverter, GateKind::Nor2),
                    Volts(0.01),
                    Environment::nominal(),
                    &[GateMismatch::NOMINAL; 4],
                    1.0,
                    &mut lane
                )
                .is_err());
        }
    }

    #[test]
    fn gate_delay_pair_multi_matches_scalar_with_per_die_floor() {
        let tech = tech();
        let evals: [&dyn DeviceEval; 2] = [&AnalyticEval::new(&tech), &TabulatedEval::new(&tech)];
        let floor = tech.min_vdd.volts();
        let vdds = [
            Volts(0.231),
            Volts(0.05), // below the functional floor → None
            Volts(0.35),
            Volts(0.2985),
            Volts(1.18),
            Volts(floor), // on the floor: still operational
            Volts(floor - 1e-9),
        ];
        let mms = [
            GateMismatch::NOMINAL,
            GateMismatch {
                nmos_dvth: Volts(0.013),
                pmos_dvth: Volts(-0.021),
            },
            GateMismatch {
                nmos_dvth: Volts(0.5),
                pmos_dvth: Volts(0.0),
            },
            GateMismatch {
                nmos_dvth: Volts(-0.008),
                pmos_dvth: Volts(0.004),
            },
            GateMismatch::NOMINAL,
            GateMismatch {
                nmos_dvth: Volts(0.002),
                pmos_dvth: Volts(0.011),
            },
            GateMismatch::NOMINAL,
        ];
        for eval in evals {
            // The single-kind kernel (the dithered check's rate leg)
            // against one `gate_delay` call per die, for every kind.
            for kind in [GateKind::Inverter, GateKind::Nand2, GateKind::Nor2] {
                for env in [
                    Environment::nominal(),
                    Environment::at_corner(ProcessCorner::Ss).with_celsius(85.0),
                ] {
                    let mut out = vec![None; vdds.len()];
                    eval.gate_delay_multi(kind, &vdds, env, &mms, 1.0, &mut out);
                    for i in 0..vdds.len() {
                        let want = eval.gate_delay(kind, vdds[i], env, mms[i], 1.0).ok();
                        assert_eq!(
                            out[i].map(|t| t.value().to_bits()),
                            want.map(|t| t.value().to_bits()),
                            "{eval:?} {kind:?} die {i}"
                        );
                    }
                    assert!(out[1].is_none() && out[6].is_none() && out[5].is_some());
                }
            }

            for env in [
                Environment::nominal(),
                Environment::at_corner(ProcessCorner::Sf).with_celsius(-10.0),
            ] {
                let mut out = vec![None; vdds.len()];
                eval.gate_delay_pair_multi(
                    (GateKind::Inverter, GateKind::Nor2),
                    &vdds,
                    env,
                    &mms,
                    1.0,
                    &mut out,
                );
                for i in 0..vdds.len() {
                    let want = eval
                        .gate_delay_pair(
                            (GateKind::Inverter, GateKind::Nor2),
                            vdds[i],
                            env,
                            mms[i],
                            1.0,
                        )
                        .ok();
                    match (out[i], want) {
                        (None, None) => {}
                        (Some(got), Some(want)) => {
                            assert_eq!(
                                got.0.value().to_bits(),
                                want.0.value().to_bits(),
                                "{eval:?}"
                            );
                            assert_eq!(
                                got.1.value().to_bits(),
                                want.1.value().to_bits(),
                                "{eval:?}"
                            );
                        }
                        (got, want) => panic!("{eval:?} die {i}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn axis_locate_brackets_and_rejects() {
        let ax = AxisSpec::new(0.0, 1.0, 11);
        assert!((ax.step() - 0.1).abs() < 1e-12);
        assert_eq!(ax.locate(-0.01), None);
        assert_eq!(ax.locate(1.01), None);
        let (i, f) = ax.locate(0.25).unwrap();
        assert_eq!(i, 2);
        assert!((f - 0.5).abs() < 1e-9);
        // Both edges are inside.
        assert_eq!(ax.locate(0.0), Some((0, 0.0)));
        let (i, f) = ax.locate(1.0).unwrap();
        assert_eq!(i, 9);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pchip_reproduces_nodes_and_preserves_monotonicity() {
        // Monotone data with a sharp knee — classic overshoot bait for
        // a natural cubic spline.
        let y = [0.0, 0.1, 0.2, 4.0, 8.0, 8.1];
        let mut d = vec![0.0; y.len()];
        pchip_slopes(&y, 1.0, &mut d);
        let mut last = f64::NEG_INFINITY;
        for cell in 0..y.len() - 1 {
            for k in 0..=20 {
                let t = k as f64 / 20.0;
                let v = hermite(y[cell], y[cell + 1], d[cell], d[cell + 1], 1.0, t);
                assert!(v >= last - 1e-12, "overshoot in cell {cell} at t={t}");
                last = v;
            }
        }
        // Node values are exact.
        for (i, &yi) in y.iter().enumerate().take(y.len() - 1) {
            let v = hermite(yi, y[i + 1], d[i], d[i + 1], 1.0, 0.0);
            assert!((v - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_nodes_are_exact() {
        // At grid nodes interpolation weights collapse to the stored
        // value, which was computed by the analytic model — so node
        // queries are exact to rounding.
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let timing = GateTiming::new(&tech);
        let spec = *tab.spec();
        for vi in [0, 10, 30, spec.vdd.points - 1] {
            let vdd = Volts(spec.vdd.value(vi));
            let env = Environment {
                corner: ProcessCorner::Tt,
                temperature: Kelvin(spec.temp.value(3)),
            };
            let t = tab
                .gate_delay(GateKind::Inverter, vdd, env, GateMismatch::NOMINAL, 1.0)
                .unwrap();
            let a = timing
                .gate_delay_with(GateKind::Inverter, vdd, env, GateMismatch::NOMINAL, 1.0)
                .unwrap();
            assert!(
                rel_err(t.value(), a.value()) < 1e-9,
                "node {vi}: {} vs {}",
                t.value(),
                a.value()
            );
        }
    }

    #[test]
    fn off_grid_query_falls_back_to_exact() {
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let timing = GateTiming::new(&tech);
        let before = MetricsSnapshot::snapshot();
        // 150 °C is beyond the 125 °C grid edge.
        let env = Environment::at_celsius(150.0);
        let t = tab
            .gate_delay(
                GateKind::Inverter,
                Volts(0.3),
                env,
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap();
        let a = timing
            .gate_delay(GateKind::Inverter, Volts(0.3), env)
            .unwrap();
        assert_eq!(t, a, "fallback must be bit-exact analytic");
        let delta = MetricsSnapshot::snapshot().since(&before);
        assert!(delta.exact_fallbacks >= 1);
        // A huge mismatch leaves the ΔVth axis too.
        let wild = GateMismatch {
            nmos_dvth: Volts(0.2),
            pmos_dvth: Volts::ZERO,
        };
        let t = tab
            .gate_delay(
                GateKind::Inverter,
                Volts(0.3),
                Environment::nominal(),
                wild,
                1.0,
            )
            .unwrap();
        let a = timing
            .gate_delay_with(
                GateKind::Inverter,
                Volts(0.3),
                Environment::nominal(),
                wild,
                1.0,
            )
            .unwrap();
        assert_eq!(t, a);
    }

    #[test]
    fn below_floor_errors_match_analytic() {
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let err = tab
            .gate_delay(
                GateKind::Inverter,
                Volts(0.05),
                Environment::nominal(),
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap_err();
        assert_eq!(err.vdd(), Volts(0.05));
        assert!(tab
            .energy(
                &CircuitProfile::ring_oscillator(),
                Volts(0.01),
                Environment::nominal()
            )
            .is_err());
    }

    #[test]
    fn interpolated_delay_within_budget_at_awkward_points() {
        // Off-node in every axis at once, at all five corners.
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let timing = GateTiming::new(&tech);
        let mm = GateMismatch {
            nmos_dvth: Volts(0.0123),
            pmos_dvth: Volts(-0.0087),
        };
        for corner in ProcessCorner::ALL {
            for celsius in [-7.3, 25.0, 61.9, 103.4] {
                let env = Environment::at_corner(corner).with_celsius(celsius);
                for vdd_mv in [137.0, 206.25, 293.0, 441.0, 873.0, 1200.0] {
                    let vdd = Volts::from_millivolts(vdd_mv);
                    for kind in GateKind::ALL {
                        let t = tab.gate_delay(kind, vdd, env, mm, 1.0).unwrap();
                        let a = timing.gate_delay_with(kind, vdd, env, mm, 1.0).unwrap();
                        let e = rel_err(t.value(), a.value());
                        assert!(
                            e < ACCURACY_BUDGET,
                            "{corner} {celsius}C {vdd_mv}mV {kind:?}: err {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interpolated_energy_within_budget() {
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let profile = CircuitProfile::ring_oscillator();
        for corner in ProcessCorner::ALL {
            let env = Environment::at_corner(corner).with_celsius(41.7);
            for vdd_mv in [131.0, 187.5, 225.0, 318.0, 590.0] {
                let vdd = Volts::from_millivolts(vdd_mv);
                let t = tab.energy(&profile, vdd, env).unwrap();
                let a = energy_per_cycle(&tech, &profile, vdd, env).unwrap();
                assert!(
                    rel_err(t.total().value(), a.total().value()) < ACCURACY_BUDGET,
                    "{corner} {vdd_mv}mV total"
                );
                // Dynamic energy is closed-form — must be exact.
                assert_eq!(t.dynamic, a.dynamic);
                assert!(rel_err(t.leakage.value(), a.leakage.value()) < ACCURACY_BUDGET);
                assert!(rel_err(t.cycle_time.value(), a.cycle_time.value()) < ACCURACY_BUDGET);
            }
        }
    }

    #[test]
    fn tabulated_delay_is_monotone_decreasing_in_vdd() {
        // The same sweep the analytic model's test pins, on the
        // interpolated surface: PCHIP along Vdd + convex bilinear
        // combination preserves it.
        let tech = tech();
        let tab = TabulatedEval::new(&tech);
        let env = Environment::nominal().with_celsius(31.0);
        let mut last = f64::INFINITY;
        for mv in 100..=1200 {
            let d = tab
                .gate_delay(
                    GateKind::Inverter,
                    Volts::from_millivolts(f64::from(mv)),
                    env,
                    GateMismatch::NOMINAL,
                    1.0,
                )
                .unwrap()
                .value();
            assert!(d < last, "delay rose at {mv} mV");
            last = d;
        }
    }

    #[test]
    fn eval_mode_parses_builds_and_prints() {
        assert_eq!("analytic".parse::<EvalMode>().unwrap(), EvalMode::Analytic);
        assert_eq!(
            "Tabulated".parse::<EvalMode>().unwrap(),
            EvalMode::Tabulated
        );
        assert_eq!("tab".parse::<EvalMode>().unwrap(), EvalMode::Tabulated);
        assert!("spline".parse::<EvalMode>().is_err());
        assert_eq!(EvalMode::Analytic.to_string(), "analytic");
        let tech = tech();
        for mode in [EvalMode::Analytic, EvalMode::Tabulated] {
            let eval = mode.build(&tech);
            let d = eval
                .gate_delay(
                    GateKind::Inverter,
                    Volts(0.3),
                    Environment::nominal(),
                    GateMismatch::NOMINAL,
                    1.0,
                )
                .unwrap();
            assert!(d.value() > 0.0);
        }
    }

    #[test]
    fn analytic_eval_matches_direct_calls() {
        let tech = tech();
        let eval = AnalyticEval::new(&tech);
        let env = Environment::at_corner(ProcessCorner::Ss);
        let d = eval
            .gate_delay(
                GateKind::Nand2,
                Volts(0.25),
                env,
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap();
        let a = GateTiming::new(&tech)
            .gate_delay(GateKind::Nand2, Volts(0.25), env)
            .unwrap();
        assert_eq!(d, a);
        let profile = CircuitProfile::ring_oscillator();
        let e = eval.energy(&profile, Volts(0.25), env).unwrap();
        let b = energy_per_cycle(&tech, &profile, Volts(0.25), env).unwrap();
        assert_eq!(e, b);
        assert_eq!(eval.technology().name, tech.name);
    }

    #[test]
    fn cached_eval_is_transparent_and_hits() {
        let tech = tech();
        let inner = AnalyticEval::new(&tech);
        let cached = CachedEval::new(&inner);
        let env = Environment::nominal();
        let before = MetricsSnapshot::snapshot();
        let d1 = cached
            .gate_delay(
                GateKind::Inverter,
                Volts(0.3),
                env,
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap();
        let d2 = cached
            .gate_delay(
                GateKind::Inverter,
                Volts(0.3),
                env,
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap();
        assert_eq!(d1, d2);
        let direct = GateTiming::new(&tech)
            .gate_delay(GateKind::Inverter, Volts(0.3), env)
            .unwrap();
        assert_eq!(d1, direct);
        let profile = CircuitProfile::ring_oscillator();
        let e1 = cached.energy(&profile, Volts(0.3), env).unwrap();
        let e2 = cached.energy(&profile, Volts(0.3), env).unwrap();
        assert_eq!(e1, e2);
        let delta = MetricsSnapshot::snapshot().since(&before);
        assert!(delta.cache_hits >= 2, "expected ≥2 hits: {delta:?}");
        // Errors pass through uncached.
        assert!(cached
            .gate_delay(
                GateKind::Inverter,
                Volts(0.01),
                env,
                GateMismatch::NOMINAL,
                1.0
            )
            .is_err());
    }

    #[test]
    fn cached_eval_shared_variant_is_static() {
        let tech = tech();
        let shared: SharedEval = Arc::new(TabulatedEval::new(&tech));
        let cached: CachedEval<'static> = CachedEval::shared(shared);
        let d = cached
            .gate_delay(
                GateKind::Nor2,
                Volts(0.25),
                Environment::nominal(),
                GateMismatch::NOMINAL,
                1.0,
            )
            .unwrap();
        assert!(d.value() > 0.0);
        // Debug formatting stays compact (no grid dump).
        let s = format!("{cached:?}");
        assert!(s.contains("TabulatedEval"), "{s}");
        assert!(
            s.len() < 2_000,
            "debug output unexpectedly large: {}",
            s.len()
        );
    }

    #[test]
    fn table_build_records_metrics() {
        let before = MetricsSnapshot::snapshot();
        let _ = TabulatedEval::new(&tech());
        let delta = MetricsSnapshot::snapshot().since(&before);
        assert!(delta.table_builds >= 1);
    }

    #[test]
    fn second_technology_tabulates_too() {
        let tech = Technology::generic_65nm();
        let tab = TabulatedEval::new(&tech);
        let timing = GateTiming::new(&tech);
        let env = Environment::at_corner(ProcessCorner::Fs).with_celsius(55.5);
        let vdd = Volts(0.333);
        let t = tab
            .gate_delay(GateKind::Inverter, vdd, env, GateMismatch::NOMINAL, 1.0)
            .unwrap();
        let a = timing.gate_delay(GateKind::Inverter, vdd, env).unwrap();
        assert!(rel_err(t.value(), a.value()) < ACCURACY_BUDGET);
    }
}
