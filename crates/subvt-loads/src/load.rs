//! The load abstraction the adaptive controller drives.

use subvt_device::delay::{GateMismatch, SupplyRangeError};
use subvt_device::energy::{energy_per_cycle, CircuitProfile, EnergyBreakdown};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::DeviceEval;
use subvt_device::technology::Technology;
use subvt_device::units::{Amps, Hertz, Seconds, Volts};

/// A digital circuit that can serve as the controller's load: it has a
/// critical path (hence a maximum operating rate at a given supply) and
/// a per-operation energy.
///
/// `Send + Sync` is a supertrait so `&dyn CircuitLoad` can be shared
/// across `subvt-exec` worker threads: every implementor is an
/// immutable description of a circuit, and Monte-Carlo sweeps score
/// the same load on many dies concurrently.
pub trait CircuitLoad: std::fmt::Debug + Send + Sync {
    /// Human-readable load name.
    fn name(&self) -> &str;

    /// The electrical profile used for energy analysis.
    fn profile(&self) -> &CircuitProfile;

    /// Critical-path delay at the given operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology's functional
    /// floor.
    fn critical_path(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError>;

    /// Maximum operation rate: `1 / critical_path`.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn max_rate(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Hertz, SupplyRangeError> {
        Ok(self.critical_path(tech, vdd, env, mismatch)?.to_frequency())
    }

    /// Energy breakdown of one operation.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn energy_per_op(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        energy_per_cycle(tech, self.profile(), vdd, env)
    }

    /// Critical-path delay through a [`DeviceEval`] (analytic or
    /// tabulated surfaces). The default falls back to the direct
    /// analytic path via the evaluator's technology; implementors with
    /// a gate-level critical path should override it to route the gate
    /// delays through `eval`.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn critical_path_with(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        self.critical_path(eval.technology(), vdd, env, mismatch)
    }

    /// Maximum operation rate through a [`DeviceEval`].
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn max_rate_with(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Hertz, SupplyRangeError> {
        Ok(self
            .critical_path_with(eval, vdd, env, mismatch)?
            .to_frequency())
    }

    /// Energy breakdown of one operation through a [`DeviceEval`].
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn energy_per_op_with(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
    ) -> Result<EnergyBreakdown, SupplyRangeError> {
        eval.energy(self.profile(), vdd, env)
    }

    /// Critical-path delays for a whole lane of per-die mismatches at
    /// one (vdd, env) operating point — the batched-study shape. The
    /// default loops [`CircuitLoad::critical_path_with`], bit-identical
    /// to per-die calls; gate-level implementors should forward to
    /// [`DeviceEval::gate_delay_lane`] so the device model's lane hoist
    /// (one grid resolution per batch) applies.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatches.len()`.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn critical_path_lane(
        &self,
        eval: &dyn DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        assert_eq!(
            mismatches.len(),
            out.len(),
            "lane output length must match the mismatch lane"
        );
        for (m, o) in mismatches.iter().zip(out.iter_mut()) {
            *o = self.critical_path_with(eval, vdd, env, *m)?;
        }
        Ok(())
    }

    /// Critical-path delays for a lane of dies each at its *own*
    /// supply — the dithered spec check's shape. `out[i]` is `None`
    /// exactly when die `i`'s supply is below the technology floor.
    /// The default loops [`CircuitLoad::critical_path_with`],
    /// bit-identical to per-die calls; gate-level implementors should
    /// forward to [`DeviceEval::gate_delay_multi`] so the device
    /// model's per-die-supply hoist applies.
    ///
    /// # Panics
    ///
    /// Panics if `vdds`, `mismatches` and `out` lengths differ.
    fn critical_path_multi(
        &self,
        eval: &dyn DeviceEval,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Option<Seconds>],
    ) {
        assert_eq!(
            vdds.len(),
            mismatches.len(),
            "supply lane length must match the mismatch lane"
        );
        assert_eq!(
            vdds.len(),
            out.len(),
            "lane output length must match the supply lane"
        );
        for ((v, m), o) in vdds.iter().zip(mismatches).zip(out.iter_mut()) {
            *o = self.critical_path_with(eval, *v, env, *m).ok();
        }
    }

    /// Average supply current while operating continuously at `vdd`:
    /// dynamic charge per cycle over the cycle time, plus leakage.
    ///
    /// # Errors
    ///
    /// As [`CircuitLoad::critical_path`].
    fn supply_current(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Amps, SupplyRangeError> {
        let e = self.energy_per_op(tech, vdd, env)?;
        let dynamic_current = if vdd.volts() > 0.0 {
            e.dynamic.value() / vdd.volts() / e.cycle_time.value()
        } else {
            0.0
        };
        Ok(Amps(dynamic_current + e.leak_current.value()))
    }
}
