//! Reference outputs at the reference seed and the standard sizes,
//! recorded from the parent commit. At that seed and size the
//! benchmark's outputs must match them within 0.1 pp; at other seeds
//! they bound the outputs statistically (see
//! `workloads::yield_tolerance`).

pub const SEED: u64 = 2009;

pub const YIELD_DIES: usize = 250_000;
pub const YIELD_FIXED: f64 = 0.676232;
pub const YIELD_ADAPTIVE: f64 = 0.806764;
pub const YIELD_DITHERED: f64 = 0.978128;

pub const SHOOTOUT_DIES: usize = 20_000;
/// Adaptive yield per shoot-out cell, in cell order: buck, dldo, dlr ×
/// TT, SS, FF × clean, 0.02 faults. FF dies all bust the energy bound.
pub const SHOOTOUT_ADAPTIVE: [f64; 18] = [
    0.738, 0.7077, 0.0044, 0.0277, 0.0, 0.0, //
    0.80015, 0.7676, 0.0133, 0.02685, 0.0, 0.0, //
    0.784, 0.7498, 0.00985, 0.03365, 0.0, 0.0,
];

pub const SAVINGS_DIES: usize = 200;
/// Mean saving vs the fixed supply.
pub const SAVINGS_MEAN: f64 = 0.5552852096706969;
