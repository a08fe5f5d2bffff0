//! Per-phase wall-time accounting for the batched fleet hot path.
//!
//! The study engine ([`crate::matrix`], over the SoA scorer in
//! [`crate::batch`]) runs six phases per sub-batch — die draw,
//! fixed-design lane, adaptive word settle, adaptive cohort lanes,
//! dither settle walk, dithered check — plus, when a fault cell
//! exists, the fault-stream seed replay with the schedule draw, and
//! the faulted walks; the SIMD work lands unevenly across them.
//! These counters attribute the wall time so a
//! speed-up claim can name the phase it came from, the same way
//! `subvt-device`'s [`subvt_device::tabulate`] metrics attribute the
//! evaluation counts.
//!
//! Like those metrics, the counters are process-global relaxed
//! atomics: pure observation, never part of the determinism contract.
//! Under `--jobs N` the workers' phase times add, so the totals are
//! CPU time, not elapsed time. One `Instant` pair per phase per
//! sub-batch keeps the overhead far below timer resolution.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static DRAW_NANOS: AtomicU64 = AtomicU64::new(0);
static FIXED_NANOS: AtomicU64 = AtomicU64::new(0);
static SETTLE_WORD_NANOS: AtomicU64 = AtomicU64::new(0);
static ADAPTIVE_LANE_NANOS: AtomicU64 = AtomicU64::new(0);
static DITHER_NANOS: AtomicU64 = AtomicU64::new(0);
static DITHER_CHECK_NANOS: AtomicU64 = AtomicU64::new(0);
static SHARED_DRAW_NANOS: AtomicU64 = AtomicU64::new(0);
static FAULT_WALK_NANOS: AtomicU64 = AtomicU64::new(0);
static SUB_BATCHES: AtomicU64 = AtomicU64::new(0);

/// The phases of the batched scoring pipeline. The first six run on
/// every study; the last two run only when the study has a fault cell
/// (a standalone fault study is one): the per-die fault-stream seed
/// replay and schedule draw every fault cell shares (`SharedDraw`) and
/// the cycle-by-cycle walks with their scoring (`FaultWalk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Monte-Carlo die draw into the SoA lanes (once for all cells).
    Draw,
    /// Fixed-design spec lane at the common commanded word.
    Fixed,
    /// Adaptive compensation walk (lockstep word settle).
    SettleWord,
    /// Per-settled-word adaptive cohort spec lanes.
    AdaptiveLanes,
    /// Sub-LSB dither settle (the lockstep walk).
    Dither,
    /// Dithered spec check at each die's settled voltage.
    DitherCheck,
    /// Per-die fault-stream seed replay and 24-cycle schedule draw
    /// (once per set of fault rates), shared by every fault cell;
    /// timed only when a fault cell exists.
    SharedDraw,
    /// The cycle-by-cycle faulted walks — once per (environment, plan)
    /// for a droop-free die, per fault cell otherwise — and their
    /// scoring on each fault cell's supply.
    FaultWalk,
}

#[inline]
pub(crate) fn record_phase(phase: Phase, nanos: u64) {
    let slot = match phase {
        Phase::Draw => &DRAW_NANOS,
        Phase::Fixed => &FIXED_NANOS,
        Phase::SettleWord => &SETTLE_WORD_NANOS,
        Phase::AdaptiveLanes => &ADAPTIVE_LANE_NANOS,
        Phase::Dither => &DITHER_NANOS,
        Phase::DitherCheck => &DITHER_CHECK_NANOS,
        Phase::SharedDraw => &SHARED_DRAW_NANOS,
        Phase::FaultWalk => &FAULT_WALK_NANOS,
    };
    slot.fetch_add(nanos, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_sub_batch() {
    SUB_BATCHES.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time copy of the phase timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseProfile {
    /// Nanoseconds in the die-draw phase.
    pub draw_nanos: u64,
    /// Nanoseconds in the fixed-design lane.
    pub fixed_nanos: u64,
    /// Nanoseconds in the adaptive word-settle walk.
    pub settle_word_nanos: u64,
    /// Nanoseconds in the adaptive cohort lanes.
    pub adaptive_lane_nanos: u64,
    /// Nanoseconds in the dither settle walk.
    pub dither_nanos: u64,
    /// Nanoseconds in the dithered spec check.
    pub dither_check_nanos: u64,
    /// Nanoseconds in the fault-stream seed replay (fault cells only).
    pub shared_draw_nanos: u64,
    /// Nanoseconds in the per-fault-cell walks.
    pub fault_walk_nanos: u64,
    /// Sub-batches scored.
    pub sub_batches: u64,
}

impl PhaseProfile {
    /// Reads the current timer values.
    pub fn snapshot() -> PhaseProfile {
        PhaseProfile {
            draw_nanos: DRAW_NANOS.load(Ordering::Relaxed),
            fixed_nanos: FIXED_NANOS.load(Ordering::Relaxed),
            settle_word_nanos: SETTLE_WORD_NANOS.load(Ordering::Relaxed),
            adaptive_lane_nanos: ADAPTIVE_LANE_NANOS.load(Ordering::Relaxed),
            dither_nanos: DITHER_NANOS.load(Ordering::Relaxed),
            dither_check_nanos: DITHER_CHECK_NANOS.load(Ordering::Relaxed),
            shared_draw_nanos: SHARED_DRAW_NANOS.load(Ordering::Relaxed),
            fault_walk_nanos: FAULT_WALK_NANOS.load(Ordering::Relaxed),
            sub_batches: SUB_BATCHES.load(Ordering::Relaxed),
        }
    }

    /// Resets every timer to zero.
    pub fn reset() {
        DRAW_NANOS.store(0, Ordering::Relaxed);
        FIXED_NANOS.store(0, Ordering::Relaxed);
        SETTLE_WORD_NANOS.store(0, Ordering::Relaxed);
        ADAPTIVE_LANE_NANOS.store(0, Ordering::Relaxed);
        DITHER_NANOS.store(0, Ordering::Relaxed);
        DITHER_CHECK_NANOS.store(0, Ordering::Relaxed);
        SHARED_DRAW_NANOS.store(0, Ordering::Relaxed);
        FAULT_WALK_NANOS.store(0, Ordering::Relaxed);
        SUB_BATCHES.store(0, Ordering::Relaxed);
    }

    /// Timer-wise difference against an earlier snapshot. Saturates at
    /// zero so a concurrent `reset` cannot produce a bogus delta.
    pub fn since(&self, earlier: &PhaseProfile) -> PhaseProfile {
        PhaseProfile {
            draw_nanos: self.draw_nanos.saturating_sub(earlier.draw_nanos),
            fixed_nanos: self.fixed_nanos.saturating_sub(earlier.fixed_nanos),
            settle_word_nanos: self
                .settle_word_nanos
                .saturating_sub(earlier.settle_word_nanos),
            adaptive_lane_nanos: self
                .adaptive_lane_nanos
                .saturating_sub(earlier.adaptive_lane_nanos),
            dither_nanos: self.dither_nanos.saturating_sub(earlier.dither_nanos),
            dither_check_nanos: self
                .dither_check_nanos
                .saturating_sub(earlier.dither_check_nanos),
            shared_draw_nanos: self
                .shared_draw_nanos
                .saturating_sub(earlier.shared_draw_nanos),
            fault_walk_nanos: self
                .fault_walk_nanos
                .saturating_sub(earlier.fault_walk_nanos),
            sub_batches: self.sub_batches.saturating_sub(earlier.sub_batches),
        }
    }

    /// Total accounted time across all phases, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.draw_nanos
            + self.fixed_nanos
            + self.settle_word_nanos
            + self.adaptive_lane_nanos
            + self.dither_nanos
            + self.dither_check_nanos
            + self.shared_draw_nanos
            + self.fault_walk_nanos
    }

    /// `(label, nanos)` per phase in execution order — the iteration
    /// shape report printers want. The fault-cell phases come last.
    pub fn phases(&self) -> [(&'static str, u64); 8] {
        [
            ("draw", self.draw_nanos),
            ("fixed lane", self.fixed_nanos),
            ("word settle", self.settle_word_nanos),
            ("adaptive lanes", self.adaptive_lane_nanos),
            ("dither settle", self.dither_nanos),
            ("dither check", self.dither_check_nanos),
            ("shared draw", self.shared_draw_nanos),
            ("fault walk", self.fault_walk_nanos),
        ]
    }

    /// The profile as one machine-readable JSON object — the payload
    /// `--profile-phases-json` writes. Keys are the [`phases`] labels
    /// in snake_case plus `sub_batches` and `total_nanos`; values are
    /// nanosecond counters.
    ///
    /// [`phases`]: PhaseProfile::phases
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"subvt-phase-profile-v1\"");
        for (label, nanos) in self.phases() {
            let key: String = label
                .chars()
                .map(|c| if c == ' ' { '_' } else { c })
                .collect();
            s.push_str(&format!(",\n  \"{key}_nanos\": {nanos}"));
        }
        s.push_str(&format!(",\n  \"sub_batches\": {}", self.sub_batches));
        s.push_str(&format!(
            ",\n  \"total_nanos\": {}\n}}\n",
            self.total_nanos()
        ));
        s
    }
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_nanos();
        write!(f, "phase profile ({} sub-batches):", self.sub_batches)?;
        for (label, nanos) in self.phases() {
            let pct = if total > 0 {
                100.0 * nanos as f64 / total as f64
            } else {
                0.0
            };
            write!(
                f,
                "\n  {label:<15} {:>9.1} ms  {pct:>5.1}%",
                nanos as f64 / 1e6
            )?;
        }
        write!(f, "\n  {:<15} {:>9.1} ms", "total", total as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timers_accumulate_and_diff() {
        let before = PhaseProfile::snapshot();
        record_phase(Phase::Draw, 100);
        record_phase(Phase::Fixed, 200);
        record_phase(Phase::SettleWord, 300);
        record_phase(Phase::AdaptiveLanes, 400);
        record_phase(Phase::Dither, 500);
        record_phase(Phase::DitherCheck, 600);
        record_sub_batch();
        let delta = PhaseProfile::snapshot().since(&before);
        // Other tests in the process may run studies concurrently, so
        // assert at-least deltas.
        assert!(delta.draw_nanos >= 100);
        assert!(delta.fixed_nanos >= 200);
        assert!(delta.settle_word_nanos >= 300);
        assert!(delta.adaptive_lane_nanos >= 400);
        assert!(delta.dither_nanos >= 500);
        assert!(delta.dither_check_nanos >= 600);
        assert!(delta.sub_batches >= 1);
        assert!(delta.total_nanos() >= 2100);
    }

    #[test]
    fn display_names_every_phase() {
        let s = format!("{}", PhaseProfile::snapshot());
        for (label, _) in PhaseProfile::snapshot().phases() {
            assert!(s.contains(label), "{s}");
        }
        assert!(s.contains("total"), "{s}");
    }

    #[test]
    fn json_names_every_phase_in_snake_case() {
        let json = PhaseProfile::snapshot().to_json();
        for key in [
            "\"schema\": \"subvt-phase-profile-v1\"",
            "\"draw_nanos\":",
            "\"fixed_lane_nanos\":",
            "\"word_settle_nanos\":",
            "\"adaptive_lanes_nanos\":",
            "\"dither_settle_nanos\":",
            "\"dither_check_nanos\":",
            "\"shared_draw_nanos\":",
            "\"fault_walk_nanos\":",
            "\"sub_batches\":",
            "\"total_nanos\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn running_a_study_populates_the_profile() {
        use crate::study::StudyConfig;
        let before = PhaseProfile::snapshot();
        let _ = StudyConfig::new(64, 7).run_summary();
        let delta = PhaseProfile::snapshot().since(&before);
        assert!(delta.sub_batches >= 1, "no sub-batches recorded");
        assert!(delta.total_nanos() > 0, "no phase time recorded");
    }
}
