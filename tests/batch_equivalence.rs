//! Batched-vs-scalar bit-identity: the structure-of-arrays fleet path
//! (`run_summary`/`run_faults`, any `--batch`, any `--jobs`) must
//! reproduce the scalar per-die reference (`run()` + `summarize()`)
//! down to the last bit, including the ragged final sub-batch. The
//! comparison witness is `encode_state()` — the exact bytes a
//! checkpoint record carries — so equality here is byte equality of
//! every counter and every Welford moment.

use subvt_core::study::{StudyConfig, DEFAULT_BATCH};
use subvt_core::FaultPlan;
use subvt_exec::{chunk_len, ExecConfig};

/// 150 dies → chunks of `chunk_len(150) = 3`: small batches sub-divide
/// a chunk (ragged tail included) and large ones cover it whole.
const DIES: usize = 150;
const SEED: u64 = 2009;

/// Batch sizes below, at, and above the chunk length, plus the whole
/// population (one sub-batch per chunk).
const BATCHES: [usize; 4] = [1, 2, 64, DIES];
const JOBS: [usize; 3] = [1, 2, 7];

fn config(dies: usize) -> StudyConfig<'static> {
    StudyConfig::new(dies, SEED)
}

#[test]
fn the_population_actually_sub_batches_raggedly() {
    // Guard the fixture: batch 2 over a 3-die chunk must leave a
    // ragged 1-die sub-batch, or the suite stops testing raggedness.
    assert_eq!(chunk_len(DIES), 3);
    assert!(BATCHES.contains(&2));
}

#[test]
fn batched_yield_summary_is_bit_identical_to_the_scalar_reference() {
    // `run()` scores die-by-die through the scalar path and
    // materializes every outcome; `summarize()` folds them through the
    // same chunk geometry the streaming path uses.
    let reference = config(DIES).run().summarize().encode_state();
    for batch in BATCHES {
        for jobs in JOBS {
            let got = config(DIES)
                .batch(batch)
                .exec(ExecConfig::with_jobs(jobs))
                .run_summary();
            assert_eq!(
                got.encode_state(),
                reference,
                "summary diverged at batch={batch} jobs={jobs}"
            );
        }
    }
}

#[test]
fn batched_switched_supply_summary_is_bit_identical() {
    // The switched supply exercises the converter-derived operating
    // points (trough + mean per word) through the lane path.
    let scalar = |dies: usize| {
        config(dies)
            .supply_kind(subvt_core::SupplyKind::Switched)
            .run()
            .summarize()
            .encode_state()
    };
    let reference = scalar(40);
    for (batch, jobs) in [(1, 2), (3, 1), (64, 7)] {
        let got = config(40)
            .supply_kind(subvt_core::SupplyKind::Switched)
            .batch(batch)
            .exec(ExecConfig::with_jobs(jobs))
            .run_summary();
        assert_eq!(
            got.encode_state(),
            reference,
            "switched summary diverged at batch={batch} jobs={jobs}"
        );
    }
}

#[test]
fn batched_dldo_and_dlr_summaries_are_bit_identical() {
    // The two new regulator backends flow through the same snapshot
    // table the buck does, so the lane path must reproduce the scalar
    // reference for each of them too — per-word trough scoring and
    // mean-voltage energy included.
    for kind in [
        subvt_core::SupplyBackendKind::Dldo,
        subvt_core::SupplyBackendKind::Dlr,
    ] {
        let reference = config(40)
            .supply_backend(kind)
            .run()
            .summarize()
            .encode_state();
        for (batch, jobs) in [(1, 2), (3, 1), (64, 7)] {
            let got = config(40)
                .supply_backend(kind)
                .batch(batch)
                .exec(ExecConfig::with_jobs(jobs))
                .run_summary();
            assert_eq!(
                got.encode_state(),
                reference,
                "{} summary diverged at batch={batch} jobs={jobs}",
                kind.label()
            );
        }
    }
}

#[test]
fn batched_tabulated_summary_is_bit_identical() {
    // Tabulated surfaces are where the lane API actually hoists work
    // (one grid resolution per lane); the hoist must not change bits.
    let reference = config(60)
        .eval_mode(subvt_device::tabulate::EvalMode::Tabulated)
        .run()
        .summarize()
        .encode_state();
    for (batch, jobs) in [(1, 1), (5, 2), (60, 7)] {
        let got = config(60)
            .eval_mode(subvt_device::tabulate::EvalMode::Tabulated)
            .batch(batch)
            .exec(ExecConfig::with_jobs(jobs))
            .run_summary();
        assert_eq!(
            got.encode_state(),
            reference,
            "tabulated summary diverged at batch={batch} jobs={jobs}"
        );
    }
}

#[test]
fn batched_fault_summary_is_bit_identical_to_the_scalar_reference() {
    let plan = FaultPlan::uniform(0.02);
    // Scalar reference for the yield portion: `run()` under the same
    // plan scores through `score_faulted_die` one die at a time.
    let base_reference = config(40).faults(plan).run().summarize().encode_state();
    // Reference for the full fault summary (tracking error, recovery
    // energy, trip/injection counts): batch=1, jobs=1 — per-die
    // scoring with a per-die cache, exactly the scalar shape.
    let reference = config(40)
        .faults(plan)
        .batch(1)
        .exec(ExecConfig::serial())
        .run_faults();
    assert_eq!(reference.base.encode_state(), base_reference);
    for batch in [2, 64, 40] {
        for jobs in JOBS {
            let got = config(40)
                .faults(plan)
                .batch(batch)
                .exec(ExecConfig::with_jobs(jobs))
                .run_faults();
            assert_eq!(
                got.encode_state(),
                reference.encode_state(),
                "fault summary diverged at batch={batch} jobs={jobs}"
            );
        }
    }
}

#[test]
fn simd_ragged_tails_one_through_three_are_bit_identical() {
    // The wide-lane kernels walk a sub-batch four dies at a time and
    // finish the remainder through the scalar path. The fixtures above
    // never see a full 4-lane (chunk_len ≤ 3), so pin each ragged tail
    // width explicitly: sub-batches of 5, 6 and 7 dies leave scalar
    // tails of 1, 2 and 3 after the SIMD pass, and 258 dies adds a
    // ragged *final chunk* of 3 on top of its 5-die sub-batches.
    for (dies, batch) in [(258usize, 5usize), (384, 6), (448, 7)] {
        assert_eq!(chunk_len(dies), batch, "fixture drifted for {dies} dies");
        let reference = config(dies).run().summarize().encode_state();
        for jobs in JOBS {
            let got = config(dies)
                .batch(batch)
                .exec(ExecConfig::with_jobs(jobs))
                .run_summary();
            assert_eq!(
                got.encode_state(),
                reference,
                "summary diverged at dies={dies} batch={batch} jobs={jobs}"
            );
        }
    }
}

#[test]
fn supply_backend_times_eval_mode_cross_product_is_bit_identical() {
    // Every supply backend through every device-evaluation mode, at a
    // population (320 dies, chunk 5) whose sub-batches genuinely run
    // the 4-wide kernels plus a 1-die scalar tail. One batched shape
    // per combination keeps the cross product affordable; the shapes
    // themselves are exercised exhaustively above.
    for kind in [
        subvt_core::SupplyBackendKind::Ideal,
        subvt_core::SupplyBackendKind::Buck,
        subvt_core::SupplyBackendKind::Dldo,
        subvt_core::SupplyBackendKind::Dlr,
    ] {
        for eval in [
            subvt_device::tabulate::EvalMode::Analytic,
            subvt_device::tabulate::EvalMode::Tabulated,
        ] {
            let reference = config(320)
                .supply_backend(kind)
                .eval_mode(eval)
                .run()
                .summarize()
                .encode_state();
            let got = config(320)
                .supply_backend(kind)
                .eval_mode(eval)
                .batch(5)
                .exec(ExecConfig::with_jobs(7))
                .run_summary();
            assert_eq!(
                got.encode_state(),
                reference,
                "summary diverged at supply={} eval={}",
                kind.label(),
                eval.label()
            );
        }
    }
}

#[test]
fn a_chunk_memo_serves_forty_one_die_sub_batches_bit_identically() {
    // The operating-point memo lives for a whole chunk, across every
    // sub-batch in it. The fixtures above put at most five sub-batches
    // in a chunk; here 2,560 dies make 40-die chunks, and batch 1 makes
    // each chunk 40 one-die sub-batches that all share one memo.
    const MEMO_DIES: usize = 2560;
    assert_eq!(chunk_len(MEMO_DIES), 40, "fixture drifted");
    for kind in [
        subvt_core::SupplyBackendKind::Ideal,
        subvt_core::SupplyBackendKind::Buck,
    ] {
        let reference = config(MEMO_DIES)
            .supply_backend(kind)
            .run()
            .summarize()
            .encode_state();
        for jobs in [1usize, 2] {
            let got = config(MEMO_DIES)
                .supply_backend(kind)
                .batch(1)
                .exec(ExecConfig::with_jobs(jobs))
                .run_summary();
            assert_eq!(
                got.encode_state(),
                reference,
                "{} summary diverged at batch=1 jobs={jobs}",
                kind.label()
            );
        }
    }
}

#[test]
fn default_batch_is_sensible_and_in_effect() {
    // The default must be a real batch (not 1, not unbounded), and a
    // defaulted run must equal an explicit `.batch(DEFAULT_BATCH)`.
    let default = DEFAULT_BATCH;
    assert!(default > 1, "default batch {default} is not a real batch");
    assert!(default <= 2048, "default batch {default} exceeds a chunk");
    let defaulted = config(70).run_summary().encode_state();
    let explicit = config(70).batch(DEFAULT_BATCH).run_summary().encode_state();
    assert_eq!(defaulted, explicit);
}
