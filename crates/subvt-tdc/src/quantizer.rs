//! The delay quantizer: D flip-flops sampling the Ref_clk waveform as
//! it propagates down the delay line (paper Fig. 4 and Table I).
//!
//! At a sampling instant, stage `i` of the line holds the value the
//! reference waveform had `i` cell-delays ago, so the flip-flop word is
//! a spatial snapshot of the waveform's recent history. The position of
//! the propagating edge inside the word *is* the time-to-digital
//! conversion; its movement with supply voltage gives the paper's
//! "16 shifts per 200 mV" signature, and a Ref_clk period shorter than
//! the window lets two pulses coexist in the line — the paper's
//! "data being latched twice" failure at 0.6 V.

use subvt_device::units::Seconds;
use subvt_digital::encoder::QuantizerWord;

/// The reference clock driving the TDC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefClock {
    period: Seconds,
    high_time: Seconds,
}

impl RefClock {
    /// Creates a reference clock.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < high_time < period`.
    pub fn new(period: Seconds, high_time: Seconds) -> RefClock {
        assert!(
            period.value() > 0.0 && high_time.value() > 0.0 && high_time < period,
            "need 0 < high_time < period"
        );
        RefClock { period, high_time }
    }

    /// A square wave (50 % duty) of the given period.
    pub fn square(period: Seconds) -> RefClock {
        RefClock::new(period, period / 2.0)
    }

    /// The paper's 14 ns reference input (Sec. II-A).
    pub fn paper_14ns() -> RefClock {
        RefClock::square(Seconds::from_nanos(14.0))
    }

    /// Clock period.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// High time per period.
    pub fn high_time(&self) -> Seconds {
        self.high_time
    }

    /// Waveform level at time `t` relative to a rising edge at `t = 0`
    /// (periodic for all `t`, including negative).
    pub fn level_at(&self, t: Seconds) -> bool {
        let t = t.value();
        let p = self.period.value();
        // `rem_euclid` reduces to one (at most) add for |t| < p: for
        // 0 ≤ t < p, `t % p == t` exactly, so `rem_euclid` returns `t`;
        // for −p < t < 0 it returns exactly `t + p`. Both branches are
        // bit-identical to the general fmod path they bypass, and
        // `Quantizer::sample`'s closed form is built on these two
        // predicates — change them together.
        let phase = if (0.0..p).contains(&t) {
            t
        } else if -p < t && t < 0.0 {
            t + p
        } else {
            t.rem_euclid(p)
        };
        phase < self.high_time.value()
    }
}

/// The quantizer: a bank of sampling flip-flops along the delay line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    stages: u8,
    ref_clk: RefClock,
    /// Sampling instant relative to a reference rising edge entering
    /// stage 0.
    sample_offset: Seconds,
}

impl Quantizer {
    /// Creates a quantizer over `stages` flip-flops.
    ///
    /// `sample_offset` anchors the sampling instant relative to a
    /// rising edge of the reference entering the line — in hardware it
    /// is set by the delay replica ahead of the quantizer plus the
    /// chosen sampling edge.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is 0 or `sample_offset` is negative.
    pub fn new(stages: u8, ref_clk: RefClock, sample_offset: Seconds) -> Quantizer {
        assert!(stages > 0, "need at least one stage");
        assert!(
            sample_offset.value() >= 0.0,
            "sample offset must be non-negative"
        );
        Quantizer {
            stages,
            ref_clk,
            sample_offset,
        }
    }

    /// Number of sampling flip-flops.
    pub fn stages(&self) -> u8 {
        self.stages
    }

    /// The reference clock.
    pub fn ref_clk(&self) -> RefClock {
        self.ref_clk
    }

    /// The sampling anchor.
    pub fn sample_offset(&self) -> Seconds {
        self.sample_offset
    }

    /// Samples the line given its per-stage delay: stage `i` holds the
    /// waveform value from `i` cell-delays before the sampling instant.
    ///
    /// Computed in closed form whenever every stage instant lies
    /// within one period of the edge (bit-identical to stepping
    /// [`RefClock::level_at`] through the stages, which remains the
    /// path for wider windows).
    ///
    /// # Panics
    ///
    /// Panics if `cell_delay` is not positive.
    pub fn sample(&self, cell_delay: Seconds) -> QuantizerWord {
        assert!(cell_delay.value() > 0.0, "cell delay must be positive");
        let cell = cell_delay.value();
        let bits = self
            .sample_closed_form(cell)
            .unwrap_or_else(|| self.sample_per_stage(cell));
        QuantizerWord::new(self.stages, bits)
    }

    /// Stage `i`'s sampling instant relative to the reference edge —
    /// the one expression both sampling paths evaluate.
    fn instant(&self, i: u32, cell: f64) -> f64 {
        self.sample_offset.value() - f64::from(i) * cell
    }

    /// The reference sampler: one [`RefClock::level_at`] per stage.
    fn sample_per_stage(&self, cell: f64) -> u64 {
        (0..u32::from(self.stages))
            .filter(|&i| self.ref_clk.level_at(Seconds(self.instant(i, cell))))
            .fold(0, |bits, i| bits | 1 << i)
    }

    /// The word from three boundary stages, or `None` when some stage
    /// instant reaches a full period from the edge.
    ///
    /// The instants never increase with `i` (IEEE multiplication and
    /// subtraction are monotone), and inside `(−period, period)`
    /// `level_at` is `t < high` for `t ≥ 0` and `t + period < high`
    /// for `t < 0` — each a monotone test of `t`, and the second never
    /// true for `t ≥ 0`. So the word is the ones in `[a, z)` and
    /// `[b, stages)`, with `a`, `z` and `b` the first stages passing
    /// `t < high`, `t < 0` and `t + period < high`.
    fn sample_closed_form(&self, cell: f64) -> Option<u64> {
        let n = u32::from(self.stages);
        let period = self.ref_clk.period().value();
        let high = self.ref_clk.high_time().value();
        // Monotone instants lie inside (−period, period) iff the first
        // and the last do; NaN instants (an infinite cell) fail here.
        if !(self.instant(0, cell) < period && self.instant(n - 1, cell) > -period) {
            return None;
        }
        let a = self.first_stage(cell, high, |t| t < high);
        let z = self.first_stage(cell, 0.0, |t| t < 0.0);
        let b = self.first_stage(cell, high - period, |t| t + period < high);
        Some(ones(a, z) | ones(b, n))
    }

    /// The first stage whose instant passes `pred` (`stages` if none),
    /// for a `pred` that, once true, stays true down the line. One
    /// division estimates where the instants cross `crossing`; the
    /// exact predicate at the estimate and its lower neighbour
    /// confirms it, and an estimate that rounding put on the wrong
    /// side falls back to a scan — it can cost time, never bits.
    fn first_stage(&self, cell: f64, crossing: f64, pred: impl Fn(f64) -> bool) -> u32 {
        let n = u32::from(self.stages);
        // `offset − i·cell < crossing` first holds at ⌊x⌋ + 1 in exact
        // arithmetic; `as` truncates (= floor for x ≥ 0), saturates
        // and maps NaN to 0, and any x < 0 clamps to stage 0 anyway.
        let x = (self.sample_offset.value() - crossing) / cell;
        let i = if x >= 0.0 {
            (x as u32).saturating_add(1).min(n)
        } else {
            0
        };
        let passes = |i: u32| pred(self.instant(i, cell));
        if (i == n || passes(i)) && (i == 0 || !passes(i - 1)) {
            i
        } else {
            (0..n).find(|&i| passes(i)).unwrap_or(n)
        }
    }
}

/// Bits `lo..hi` set (none when `lo ≥ hi`).
fn ones(lo: u32, hi: u32) -> u64 {
    let below = |k: u32| 1u64.checked_shl(k).map_or(u64::MAX, |bit| bit - 1);
    below(hi) & !below(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_testkit::prelude::*;

    fn ns(x: f64) -> Seconds {
        Seconds::from_nanos(x)
    }

    /// Asserts the closed form agrees with the per-stage oracle, and
    /// reports whether the closed form (not the fallback) answered.
    fn check_against_oracle(q: &Quantizer, cell: f64) -> Result<bool, PropError> {
        let word = q.sample(Seconds(cell));
        prop_assert_eq!(word.bits(), q.sample_per_stage(cell));
        Ok(q.sample_closed_form(cell).is_some())
    }

    properties! {
        cases = 4096;

        /// Random geometries: any stage count, square and non-square
        /// clocks, anchors on both sides of `high` and `period`, and
        /// cells from 10⁻³ to 10³ × `period / stages` — both the
        /// closed form and the fallback region.
        fn closed_form_sample_matches_the_per_stage_loop(
            stages in 1u8..65,
            log_period in -10.0f64..-5.0,
            duty in 0.0f64..1.0,
            square in 0u8..2,
            offset_periods in 0.0f64..2.5,
            log_cell in -3.0f64..3.0,
        ) {
            let period = 10f64.powf(log_period);
            let high = period * duty;
            prop_assume!(square == 1 || (high > 0.0 && high < period));
            let clk = if square == 1 {
                RefClock::square(Seconds(period))
            } else {
                RefClock::new(Seconds(period), Seconds(high))
            };
            let q = Quantizer::new(stages, clk, Seconds(offset_periods * period));
            let cell = 10f64.powf(log_cell) * period / f64::from(stages);
            check_against_oracle(&q, cell)?;
        }

        /// Boundary instants: on a dyadic grid (every sum and product
        /// exact), stage `k`'s instant lands exactly on `0`, `high`,
        /// `high − period` or `−period`, or the anchor is nudged a few
        /// ulps off that landing — where a `<` that should be `≤`, a
        /// stage off by one, or an estimate that rounding put on the
        /// wrong side of the boundary would flip a bit.
        fn closed_form_sample_matches_on_exact_boundaries(
            stages in 2u8..65,
            k in 1u32..64,
            clock_units in (2u32..4096, 1u32..4096),
            cell_grid in (1u32..1_000_000, 0i32..40),
            landing_nudge in (0usize..4, -2i32..3),
        ) {
            let ((period_units, high_units), (target, nudge)) = (clock_units, landing_nudge);
            prop_assume!(k < u32::from(stages) && high_units < period_units);
            let (period, high) = (f64::from(period_units), f64::from(high_units));
            let cell = f64::from(cell_grid.0) * 2f64.powi(-cell_grid.1);
            let landing = [0.0, high, high - period, -period][target];
            let offset = (0..nudge.abs()).fold(landing + f64::from(k) * cell, |o, _| {
                if nudge > 0 { o.next_up() } else { o.next_down() }
            });
            prop_assume!(offset >= 0.0);
            let q = Quantizer::new(
                stages,
                RefClock::new(Seconds(period), Seconds(high)),
                Seconds(offset),
            );
            if nudge == 0 {
                prop_assert_eq!(q.instant(k, cell), landing);
            }
            check_against_oracle(&q, cell)?;
        }
    }

    #[test]
    fn closed_form_covers_the_calibrated_sensor_geometry() {
        // The sensor's bands: a 64-stage line on a square clock of
        // `period_stages` cells, anchored `anchor_stages` cells in,
        // read at cells around the calibrated one. Every such read
        // must stay on the closed form (the fast path the fleet
        // relies on) and agree with the oracle.
        let period = 256.0;
        let q = Quantizer::new(64, RefClock::square(Seconds(period)), Seconds(31.5));
        for i in 0..=400 {
            let cell = 0.5 + f64::from(i) * 0.005;
            assert_eq!(check_against_oracle(&q, cell), Ok(true), "cell {cell}");
        }
        // The paper's 0.6 V double latch: the window outgrows the
        // period, so the fallback answers (and must equal the loop).
        let q = Quantizer::new(64, RefClock::paper_14ns(), ns(30.0));
        assert_eq!(check_against_oracle(&q, 0.442e-9), Ok(false));
    }

    #[test]
    fn ref_clock_waveform() {
        let clk = RefClock::paper_14ns();
        assert!((clk.period().nanos() - 14.0).abs() < 1e-12);
        assert!(clk.level_at(ns(1.0)));
        assert!(clk.level_at(ns(6.9)));
        assert!(!clk.level_at(ns(7.1)));
        assert!(!clk.level_at(ns(13.9)));
        // Periodicity, including negative times.
        assert!(clk.level_at(ns(15.0)));
        assert!(clk.level_at(ns(-13.0)));
        assert!(!clk.level_at(ns(-1.0)));
    }

    #[test]
    fn level_at_fast_path_matches_rem_euclid() {
        // Sweep through both fast branches (|t| < period, either sign)
        // and the general fmod branch (|t| ≥ period), pinning each
        // against the reference reduction bit for bit.
        let clk = RefClock::paper_14ns();
        let p = clk.period().value();
        let high = clk.high_time().value();
        for k in -300..300 {
            let t = k as f64 * 0.097e-9;
            assert_eq!(clk.level_at(Seconds(t)), t.rem_euclid(p) < high, "t = {t}");
        }
        // Exact boundaries.
        for t in [0.0, p, -p, 2.0 * p, high, -high] {
            assert_eq!(clk.level_at(Seconds(t)), t.rem_euclid(p) < high, "t = {t}");
        }
    }

    #[test]
    fn fresh_edge_yields_leading_run() {
        // Sample 5.5 cell-delays after a rising edge entered: stages
        // 0..=5 are behind the edge (high), the rest still low.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(16, clk, ns(5.5));
        let w = q.sample(ns(1.0));
        assert_eq!(w.leading_run(), 6);
        assert_eq!(w.encode(), Ok(6));
    }

    #[test]
    fn edge_position_tracks_cell_delay() {
        // Faster cells → edge further down the line → larger code.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(64, clk, ns(30.0));
        let slow = q.sample(ns(1.0)).encode().unwrap();
        let fast = q.sample(ns(0.6)).encode().unwrap();
        assert_eq!(slow, 31);
        assert_eq!(fast, 51);
        assert!(fast > slow);
    }

    #[test]
    fn short_period_produces_multiple_bursts() {
        // Line window (64 × 0.44 ns ≈ 28 ns) spans two 14 ns periods:
        // the paper's double-latch regime at 0.6 V.
        let q = Quantizer::new(64, RefClock::paper_14ns(), ns(30.0));
        let w = q.sample(Seconds::from_picos(442.0));
        assert!(w.burst_count() >= 2, "bursts {}", w.burst_count());
        assert!(w.encode().is_err());
    }

    #[test]
    fn long_period_keeps_single_burst() {
        // Same sampling, but a slow Ref_clk (the paper's suggested fix)
        // restores a clean single-burst word.
        let cell = Seconds::from_picos(442.0);
        let period = Seconds(cell.value() * 256.0);
        let clk = RefClock::square(period);
        let q = Quantizer::new(64, clk, Seconds(cell.value() * 31.5));
        let w = q.sample(cell);
        assert_eq!(w.burst_count(), 1);
        assert_eq!(w.encode(), Ok(32));
    }

    #[test]
    fn sixteen_shifts_per_200mv_shape() {
        // With a fixed anchor, the code moves by the ratio of cell
        // delays. Using the paper's published inverter delays at 1.2 V
        // (102 ps) and 1.0 V (~139 ps from the calibrated model), a
        // 6.07 ns anchor gives the paper's "16 shifts" per 200 mV.
        let clk = RefClock::square(ns(1000.0));
        let q = Quantizer::new(64, clk, ns(6.07));
        let at_12 = q.sample(Seconds::from_picos(102.0)).encode().unwrap();
        let at_10 = q.sample(Seconds::from_picos(139.5)).encode().unwrap();
        let shifts = at_12 - at_10;
        assert!(
            (14..=18).contains(&shifts),
            "expected ~16 shifts, got {shifts} ({at_12} vs {at_10})"
        );
    }

    #[test]
    #[should_panic(expected = "cell delay must be positive")]
    fn zero_cell_delay_rejected() {
        let q = Quantizer::new(8, RefClock::paper_14ns(), ns(1.0));
        let _ = q.sample(Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "high_time < period")]
    fn bad_ref_clock_rejected() {
        let _ = RefClock::new(ns(10.0), ns(10.0));
    }
}
