//! The paper's case-study load: a ring oscillator built from NAND
//! gates (its reference \[14\]), which "offers fine control of the
//! switching activity and thus is an ideal platform to study the
//! subthreshold energy and delay characteristic".

use subvt_device::delay::{GateMismatch, GateTiming, SupplyRangeError};
use subvt_device::energy::CircuitProfile;
use subvt_device::mosfet::Environment;
use subvt_device::technology::{GateKind, Technology};
use subvt_device::units::{Hertz, Seconds, Volts};
use subvt_sim::logic::Logic;
use subvt_sim::netlist::{GateFn, Netlist, SignalId};
use subvt_sim::time::{SimDuration, SimTime};

use crate::load::CircuitLoad;

/// A NAND-gate ring oscillator with switching-activity control.
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    stages: usize,
    profile: CircuitProfile,
}

impl RingOscillator {
    /// The paper's calibrated ring oscillator: the energy profile is
    /// pinned to the published Fig. 1 MEP loci, switching factor 0.1.
    pub fn paper_circuit() -> RingOscillator {
        RingOscillator {
            stages: 64,
            profile: CircuitProfile::ring_oscillator(),
        }
    }

    /// A ring with explicit stage count and switching factor (for
    /// activity sweeps; the calibrated corner scales are retained).
    ///
    /// # Panics
    ///
    /// Panics unless `stages` is odd and ≥ 3 (an even ring latches) and
    /// `0 < activity <= 1`.
    pub fn with_stages(stages: usize, activity: f64) -> RingOscillator {
        assert!(
            stages >= 3 && stages % 2 == 1,
            "ring needs an odd stage count ≥ 3"
        );
        assert!(
            activity > 0.0 && activity <= 1.0,
            "switching factor must be in (0, 1]"
        );
        let mut profile = CircuitProfile::ring_oscillator().with_activity(activity);
        profile.gates = stages as f64;
        profile.depth = stages as f64;
        RingOscillator { stages, profile }
    }

    /// Number of NAND stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Oscillation frequency: one period is two traversals of the ring.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn frequency(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Hertz, SupplyRangeError> {
        let period = self.period(tech, vdd, env)?;
        Ok(period.to_frequency())
    }

    /// Oscillation period: `2 × stages × t_nand`.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn period(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
    ) -> Result<Seconds, SupplyRangeError> {
        let t = GateTiming::new(tech).gate_delay(GateKind::Nand2, vdd, env)?;
        Ok(t * (2.0 * self.stages as f64))
    }

    /// Builds the ring structurally (enable + initial edge injected)
    /// into a netlist; returns the enable signal and ring nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyRangeError`] below the technology floor.
    pub fn build_netlist(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        netlist: &mut Netlist,
    ) -> Result<(SignalId, Vec<SignalId>), SupplyRangeError> {
        let t = GateTiming::new(tech).gate_delay(GateKind::Nand2, vdd, env)?;
        let delay = SimDuration::from_seconds(t.value());
        let enable = netlist.add_signal("ring_enable");
        let nodes: Vec<SignalId> = (0..self.stages)
            .map(|i| netlist.add_signal(format!("ring_n{i}")))
            .collect();
        for i in 0..self.stages {
            netlist.add_gate(
                GateFn::Nand2,
                &[nodes[i], enable],
                nodes[(i + 1) % self.stages],
                delay,
            );
        }
        // Seed a single circulating edge.
        netlist.drive(nodes[0], Logic::Low, SimTime::ZERO);
        for &node in nodes.iter().skip(1) {
            netlist.drive(node, Logic::High, SimTime::ZERO);
        }
        netlist.drive(enable, Logic::High, SimTime::ZERO);
        Ok((enable, nodes))
    }
}

impl CircuitLoad for RingOscillator {
    fn name(&self) -> &str {
        "nand-ring-oscillator"
    }

    fn profile(&self) -> &CircuitProfile {
        &self.profile
    }

    fn critical_path(
        &self,
        tech: &Technology,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        let t = GateTiming::new(tech).gate_delay_with(GateKind::Nand2, vdd, env, mismatch, 1.0)?;
        Ok(t * self.profile.depth)
    }

    fn critical_path_with(
        &self,
        eval: &dyn subvt_device::tabulate::DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatch: GateMismatch,
    ) -> Result<Seconds, SupplyRangeError> {
        let t = eval.gate_delay(GateKind::Nand2, vdd, env, mismatch, 1.0)?;
        Ok(t * self.profile.depth)
    }

    fn critical_path_lane(
        &self,
        eval: &dyn subvt_device::tabulate::DeviceEval,
        vdd: Volts,
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Seconds],
    ) -> Result<(), SupplyRangeError> {
        // One NAND delay per die through the device lane (the grid
        // hoist happens there), then the same `t × depth` scaling as
        // the scalar path — bit-identical per die.
        eval.gate_delay_lane(GateKind::Nand2, vdd, env, mismatches, 1.0, out)?;
        for t in out.iter_mut() {
            *t = *t * self.profile.depth;
        }
        Ok(())
    }

    fn critical_path_multi(
        &self,
        eval: &dyn subvt_device::tabulate::DeviceEval,
        vdds: &[Volts],
        env: Environment,
        mismatches: &[GateMismatch],
        out: &mut [Option<Seconds>],
    ) {
        // One NAND delay per die at its own supply, then `t × depth`.
        eval.gate_delay_multi(GateKind::Nand2, vdds, env, mismatches, 1.0, out);
        for t in out.iter_mut().flatten() {
            *t = *t * self.profile.depth;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_device::corner::ProcessCorner;

    fn fixture() -> (Technology, RingOscillator) {
        (Technology::st_130nm(), RingOscillator::paper_circuit())
    }

    #[test]
    fn frequency_rises_with_vdd() {
        let (tech, ring) = fixture();
        let env = Environment::nominal();
        let slow = ring.frequency(&tech, Volts(0.2), env).unwrap();
        let fast = ring.frequency(&tech, Volts(1.2), env).unwrap();
        assert!(fast.value() > 100.0 * slow.value());
    }

    #[test]
    fn period_matches_two_n_gate_delays() {
        let (tech, ring) = fixture();
        let env = Environment::nominal();
        let t_nand = GateTiming::new(&tech)
            .gate_delay(GateKind::Nand2, Volts(0.3), env)
            .unwrap();
        let period = ring.period(&tech, Volts(0.3), env).unwrap();
        assert!((period.value() / t_nand.value() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn structural_ring_oscillates_at_model_frequency() {
        let (tech, _) = fixture();
        let ring = RingOscillator::with_stages(5, 0.1);
        let env = Environment::nominal();
        let vdd = Volts(0.6);
        let expected_period = ring.period(&tech, vdd, env).unwrap();

        let mut nl = Netlist::new();
        let (_, nodes) = ring.build_netlist(&tech, vdd, env, &mut nl).unwrap();
        // Run 20 periods and count rising edges on node 0 by sampling.
        let horizon = SimDuration::from_seconds(expected_period.value() * 20.0);
        let step = SimDuration::from_seconds(expected_period.value() / 50.0);
        let mut transitions = 0u32;
        let mut last = Logic::Unknown;
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + horizon {
            t += step;
            nl.run_until(t, 10_000_000);
            let v = nl.signal(nodes[0]);
            if v != last {
                transitions += 1;
                last = v;
            }
        }
        // 20 periods → ~40 transitions on a given node.
        assert!(
            (35..=45).contains(&transitions),
            "transitions {transitions}"
        );
    }

    #[test]
    fn supply_current_grows_with_voltage() {
        let (tech, ring) = fixture();
        let env = Environment::nominal();
        let low = ring.supply_current(&tech, Volts(0.2), env).unwrap();
        let high = ring.supply_current(&tech, Volts(0.8), env).unwrap();
        assert!(high.value() > low.value());
        assert!(low.value() > 0.0);
    }

    #[test]
    fn max_rate_is_reciprocal_critical_path() {
        let (tech, ring) = fixture();
        let env = Environment::nominal();
        let cp = ring
            .critical_path(&tech, Volts(0.3), env, GateMismatch::NOMINAL)
            .unwrap();
        let rate = ring
            .max_rate(&tech, Volts(0.3), env, GateMismatch::NOMINAL)
            .unwrap();
        assert!((cp.value() * rate.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slow_corner_lowers_max_rate() {
        let (tech, ring) = fixture();
        let v = Volts(0.25);
        let tt = ring
            .max_rate(&tech, v, Environment::nominal(), GateMismatch::NOMINAL)
            .unwrap();
        let ss = ring
            .max_rate(
                &tech,
                v,
                Environment::at_corner(ProcessCorner::Ss),
                GateMismatch::NOMINAL,
            )
            .unwrap();
        assert!(ss.value() < tt.value());
    }

    #[test]
    fn activity_control_changes_dynamic_energy_only() {
        let (tech, _) = fixture();
        let env = Environment::nominal();
        let lazy = RingOscillator::with_stages(63, 0.05);
        let busy = RingOscillator::with_stages(63, 0.5);
        let v = Volts(0.3);
        let e_lazy = lazy.energy_per_op(&tech, v, env).unwrap();
        let e_busy = busy.energy_per_op(&tech, v, env).unwrap();
        assert!((e_busy.dynamic.value() / e_lazy.dynamic.value() - 10.0).abs() < 1e-6);
        assert!((e_busy.leakage.value() - e_lazy.leakage.value()).abs() < 1e-20);
    }

    #[test]
    fn eval_critical_path_matches_direct_path() {
        use subvt_device::tabulate::{AnalyticEval, TabulatedEval, ACCURACY_BUDGET};
        let (tech, ring) = fixture();
        let env = Environment::nominal();
        let mm = GateMismatch {
            nmos_dvth: Volts(0.011),
            pmos_dvth: Volts(-0.007),
        };
        let analytic = AnalyticEval::new(&tech);
        let tabulated = TabulatedEval::new(&tech);
        for v in [Volts(0.231), Volts(0.35), Volts(0.62)] {
            let direct = ring.critical_path(&tech, v, env, mm).unwrap();
            let via_analytic = ring.critical_path_with(&analytic, v, env, mm).unwrap();
            assert_eq!(direct.value(), via_analytic.value());
            let via_table = ring.critical_path_with(&tabulated, v, env, mm).unwrap();
            let rel = (via_table.value() - direct.value()).abs() / direct.value();
            assert!(rel < ACCURACY_BUDGET, "{v:?}: rel err {rel:.2e}");
            // Rates and energies route through the same surfaces.
            let rate = ring.max_rate_with(&tabulated, v, env, mm).unwrap();
            assert!((rate.value() * via_table.value() - 1.0).abs() < 1e-12);
            let e_direct = ring.energy_per_op(&tech, v, env).unwrap();
            let e_table = ring.energy_per_op_with(&tabulated, v, env).unwrap();
            let e_rel = (e_table.total().value() - e_direct.total().value()).abs()
                / e_direct.total().value();
            assert!(e_rel < ACCURACY_BUDGET, "{v:?}: energy rel err {e_rel:.2e}");
        }
    }

    #[test]
    fn critical_path_multi_matches_per_die_calls() {
        use subvt_device::tabulate::{AnalyticEval, TabulatedEval};
        let (tech, ring) = fixture();
        let adder = crate::adder::RippleCarryAdder::new(8);
        let analytic = AnalyticEval::new(&tech);
        let tabulated = TabulatedEval::new(&tech);
        let vdds = [Volts(0.231), Volts(0.01), Volts(0.35), Volts(0.2068)];
        let mms: Vec<GateMismatch> = [0.0, 0.013, -0.009, 0.021]
            .iter()
            .map(|&d| GateMismatch {
                nmos_dvth: Volts(d),
                pmos_dvth: Volts(-d),
            })
            .collect();
        let loads: [&dyn CircuitLoad; 2] = [&ring, &adder];
        let evals: [&dyn subvt_device::tabulate::DeviceEval; 2] = [&analytic, &tabulated];
        for load in loads {
            for eval in evals {
                for env in [Environment::nominal(), Environment::at_celsius(85.0)] {
                    let mut out = vec![None; vdds.len()];
                    load.critical_path_multi(eval, &vdds, env, &mms, &mut out);
                    for i in 0..vdds.len() {
                        let want = load.critical_path_with(eval, vdds[i], env, mms[i]).ok();
                        assert_eq!(
                            out[i].map(|t| t.value().to_bits()),
                            want.map(|t| t.value().to_bits()),
                            "{} die {i}",
                            load.name()
                        );
                    }
                    assert!(out[1].is_none(), "below the floor");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_ring_rejected() {
        let _ = RingOscillator::with_stages(4, 0.1);
    }

    #[test]
    #[should_panic(expected = "switching factor")]
    fn zero_activity_rejected() {
        let _ = RingOscillator::with_stages(5, 0.0);
    }
}
