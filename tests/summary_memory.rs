//! Memory discipline of the streaming summary path: `run_summary`
//! (and the savings Monte-Carlo's `fold_dies`) must hold
//! `O(chunks + jobs × batch)` heap, never a per-die vector, so a
//! 10⁶–10⁷-die fleet runs in a few hundred kilobytes. Pinned
//! with a counting global allocator: growing the population 10× must
//! not grow the summary path's peak heap by even one byte per extra
//! die, while the materializing `run()` path (the scalar reference)
//! demonstrably scales with the population.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subvt_core::study::StudyConfig;
use subvt_core::DieOutcome;
use subvt_exec::ExecConfig;
use subvt_rng::Rng;

/// System allocator wrapped with live/peak byte counters.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth (bytes above the starting live set) while `f`
/// runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(base), result)
}

fn config(dies: usize) -> StudyConfig<'static> {
    // Serial keeps the measurement single-threaded; the scheduler's
    // per-worker state is exercised (and bounded) elsewhere.
    StudyConfig::new(dies, 11).exec(ExecConfig::serial())
}

// One test function on purpose: the counters are process-global, so
// concurrent tests in this binary would pollute each other's peaks.
#[test]
fn summary_peak_heap_does_not_scale_with_the_population() {
    let small = 1_000;
    let large = 10_000;

    let (peak_small, s_small) = peak_during(|| config(small).run_summary());
    let (peak_large, s_large) = peak_during(|| config(large).run_summary());
    assert_eq!(s_small.dies, small as u64);
    assert_eq!(s_large.dies, large as u64);

    // 10× the dies must cost less than one byte of peak heap per
    // extra die — the chunk-state snapshots and per-chunk seed
    // scratch are the only things allowed to grow, and they are two
    // orders of magnitude below this budget.
    let budget = (large - small) + 32 * 1024;
    assert!(
        peak_large < peak_small + budget,
        "summary peak grew {peak_small} -> {peak_large} bytes for {small} -> {large} dies"
    );

    // Control: the materializing scalar path must visibly scale (one
    // DieOutcome per die), proving the allocator hook sees per-die
    // vectors when they exist.
    let (peak_run, report) = peak_during(|| config(large).run());
    assert_eq!(report.dies.len(), large);
    assert!(
        peak_run >= large * std::mem::size_of::<DieOutcome>(),
        "run() peak {peak_run} bytes is below its own outcome vector"
    );
    assert!(
        peak_run > peak_large + large * std::mem::size_of::<DieOutcome>() / 2,
        "materializing peak {peak_run} should exceed streaming peak {peak_large} \
         by the outcome vector"
    );

    // And the streamed summary still matches the materialized one.
    assert_eq!(
        report.summarize().encode_state(),
        s_large.encode_state(),
        "streaming and materializing paths diverged"
    );

    // The savings Monte-Carlo's fold draws its die streams from the
    // same chunk snapshots: a trivial fold's peak heap must not grow
    // by one byte per extra die either (a per-die seed vector would
    // cost eight).
    let trivial = |dies: usize| {
        config(dies).fold_dies(
            "mc-die",
            || 0u64,
            |acc, _, mut die_rng| *acc ^= die_rng.next_u64(),
            |acc, part| *acc ^= part,
        )
    };
    let (fold_small, _) = peak_during(|| trivial(small));
    let (fold_large, _) = peak_during(|| trivial(large));
    assert!(
        fold_large < fold_small + (large - small),
        "fold_dies peak grew {fold_small} -> {fold_large} bytes for {small} -> {large} dies"
    );
}
