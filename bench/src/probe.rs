//! Host-speed probe. The reference host is a shared virtual machine
//! whose speed drifts by tens of percent over minutes with its
//! neighbours' load, so raw wall-clock throughput of identical code
//! moves more between runs than any useful regression bound. A fixed
//! single-threaded chain of dependent `exp`/`ln` steps, timed between
//! reps, tracks that drift: its time measures how fast the host runs
//! right now, independent of the program under test. Each rep's
//! throughput is scaled by the probes on either side of it, which on
//! the reference host roughly halved the run-to-run spread of the
//! median. A two-threaded probe tracked worse: its wall time adds the
//! scheduler's noise.

use std::hint::black_box;
use std::time::Instant;

/// Steps in one probe.
const STEPS: u64 = 1_000_000;

/// Median probe time on the reference host (2-vCPU Xeon VM): the
/// second that scaled throughputs are expressed in.
pub const REFERENCE_SECS: f64 = 0.045;

/// Wall seconds of one probe.
pub fn probe_secs() -> f64 {
    let start = Instant::now();
    let mut x = 0.5f64;
    for i in 0..black_box(STEPS) {
        x = (x * 1.000_000_1 + (i & 7) as f64 * 1e-9).exp().ln() + 1e-12;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Host-speed scale of each rep from the probes taken before the first
/// rep and after every rep (`probes.len()` = reps + 1): the mean of the
/// probes on either side, over [`REFERENCE_SECS`]. Above 1 the host ran
/// slower than the reference, so a throughput is scaled up by it.
pub fn rep_scales(probes: &[f64]) -> Vec<f64> {
    probes
        .windows(2)
        .map(|w| 0.5 * (w[0] + w[1]) / REFERENCE_SECS)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rep_is_scaled_by_the_probes_around_it() {
        let r = REFERENCE_SECS;
        assert_eq!(rep_scales(&[r, r, r]), vec![1.0, 1.0]);
        assert_eq!(rep_scales(&[r, 3.0 * r]), vec![2.0]);
        assert!(rep_scales(&[r]).is_empty());
    }

    #[test]
    fn the_probe_takes_measurable_time() {
        let secs = probe_secs();
        assert!(secs > 1e-4 && secs < 10.0, "{secs}");
    }
}
