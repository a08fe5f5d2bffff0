//! The study-matrix byte-identity contract: every cell of a fused
//! [`StudyMatrix`] run must produce the exact `encode_state` bytes of
//! running that cell alone through `StudyConfig::run_summary` /
//! `run_faults` — per-die RNG forks, sense sequences and fault
//! schedules must not observe that other cells exist — at any worker
//! count or sub-batch size. And a matrix checkpoint killed mid-run
//! must resume to both the same results *and* the same checkpoint file
//! bytes as a run that was never interrupted.

use std::path::PathBuf;

use subvt_core::matrix::{MatrixCell, StudyMatrix};
use subvt_core::study::{StudyConfig, StudyError, SupplyBackendKind};
use subvt_core::FaultPlan;
use subvt_device::corner::ProcessCorner;
use subvt_device::mosfet::Environment;
use subvt_exec::checkpoint::CheckpointError;
use subvt_exec::{CancelToken, ExecConfig, Progress};

const DIES: usize = 90;
const SEED: u64 = 2009;

/// The 18-cell supply shoot-out grid: three regulator backends ×
/// three process corners × {clean, faulted}.
fn shootout_cells() -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for supply in [
        SupplyBackendKind::Buck,
        SupplyBackendKind::Dldo,
        SupplyBackendKind::Dlr,
    ] {
        for corner in [ProcessCorner::Tt, ProcessCorner::Ss, ProcessCorner::Ff] {
            for faults in [None, Some(FaultPlan::uniform(0.02))] {
                cells.push(MatrixCell {
                    supply,
                    env: Environment::at_corner(corner),
                    faults,
                });
            }
        }
    }
    cells
}

fn matrix_of<'a>(cells: &[MatrixCell], base: StudyConfig<'a>) -> StudyMatrix<'a> {
    cells.iter().fold(StudyMatrix::new(base), |m, c| {
        m.cell(c.supply, c.env, c.faults)
    })
}

/// The standalone (single-cell) reference bytes for one cell.
fn standalone_state(cell: &MatrixCell) -> Vec<u8> {
    let cfg = StudyConfig::new(DIES, SEED)
        .supply_backend(cell.supply)
        .env(cell.env);
    match cell.faults {
        None => cfg.run_summary().encode_state(),
        Some(plan) => cfg.faults(plan).run_faults().encode_state(),
    }
}

/// Runs `cells` fused at jobs {1, 2, 7} × batch {1, 32, DIES} and
/// asserts every cell's bytes equal its standalone run.
fn assert_fused_matches_standalone(cells: &[MatrixCell]) {
    let references: Vec<Vec<u8>> = cells.iter().map(standalone_state).collect();
    for jobs in [1usize, 2, 7] {
        for batch in [1usize, 32, DIES] {
            let fused = matrix_of(
                cells,
                StudyConfig::new(DIES, SEED)
                    .exec(ExecConfig::with_jobs(jobs))
                    .batch(batch),
            )
            .run();
            assert_eq!(fused.len(), cells.len());
            for (i, (got, want)) in fused.iter().zip(&references).enumerate() {
                assert_eq!(
                    &got.encode_state(),
                    want,
                    "cell {i} ({:?} {:?} faults={:?}) diverged at jobs={jobs} batch={batch}",
                    cells[i].supply,
                    cells[i].env.corner,
                    cells[i].faults,
                );
            }
        }
    }
}

#[test]
fn every_cell_is_byte_identical_to_its_standalone_run() {
    assert_fused_matches_standalone(&shootout_cells());
}

#[test]
fn fault_cells_sharing_a_corner_match_their_standalone_runs() {
    // Every supply at one corner under three plans. The engine walks a
    // droop-free die once per (environment, plan) for all four
    // supplies and a drooping die per cell: at rate 0.02 about 72 % of
    // dies are droop-free, at 0.25 about 1 %. The two 0.25 plans share
    // one schedule draw but not their walks.
    let env = Environment::at_corner(ProcessCorner::Tt);
    let mut cells = Vec::new();
    for plan in [
        FaultPlan::uniform(0.02),
        FaultPlan::uniform(0.25),
        FaultPlan::uniform(0.25).with_mitigation(false),
    ] {
        for supply in [
            SupplyBackendKind::Ideal,
            SupplyBackendKind::Buck,
            SupplyBackendKind::Dldo,
            SupplyBackendKind::Dlr,
        ] {
            cells.push(MatrixCell {
                supply,
                env,
                faults: Some(plan),
            });
        }
    }
    assert_fused_matches_standalone(&cells);
}

#[test]
fn a_zero_rate_fault_cell_matches_the_standalone_zero_rate_study() {
    // Fault rate 0 exercises the full fault machinery with an empty
    // schedule; the matrix replay must still hand the walk the exact
    // stream the standalone fork does.
    let plan = FaultPlan::uniform(0.0);
    let standalone = StudyConfig::new(DIES, SEED).faults(plan).run_faults();
    let fused = StudyMatrix::new(StudyConfig::new(DIES, SEED))
        .cell(SupplyBackendKind::Ideal, Environment::nominal(), Some(plan))
        .run();
    assert_eq!(fused[0].encode_state(), standalone.encode_state());
}

/// A unique scratch path inside the temp dir, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> ScratchFile {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "subvt-matrix-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_killed_matrix_run_resumes_to_identical_results_and_checkpoint_bytes() {
    let cells = shootout_cells();

    // Straight-through checkpointed run: the reference results and the
    // reference checkpoint file bytes.
    let straight = ScratchFile::new("straight");
    let reference = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&straight.0)).run();
    let reference_bytes = std::fs::read(&straight.0).unwrap();

    // Kill mid-run, then resume at a different jobs/batch.
    let file = ScratchFile::new("killed");
    let token = CancelToken::new();
    let watch_token = token.clone();
    let watch = move |p: Progress| {
        if p.done >= DIES / 2 {
            watch_token.cancel();
        }
    };
    let killed = matrix_of(
        &cells,
        StudyConfig::new(DIES, SEED)
            .exec(ExecConfig::with_jobs(3))
            .checkpoint(&file.0)
            .cancel(&token)
            .progress(&watch),
    )
    .try_run();
    assert!(
        matches!(killed, Err(StudyError::Cancelled)),
        "expected cancellation, got {killed:?}"
    );

    let resumed = matrix_of(
        &cells,
        StudyConfig::new(DIES, SEED)
            .exec(ExecConfig::with_jobs(7))
            .batch(5)
            .checkpoint(&file.0),
    )
    .run();
    assert_eq!(resumed, reference, "resumed results diverged");

    // Every record's payload is a deterministic function of its chunk
    // count, so the killed-and-resumed file must equal the
    // uninterrupted file byte for byte.
    assert_eq!(
        std::fs::read(&file.0).unwrap(),
        reference_bytes,
        "checkpoint bytes after resume diverged from the straight-through file"
    );
}

#[test]
fn a_matrix_checkpoint_rejects_a_reordered_or_reshaped_matrix() {
    let cells = shootout_cells();
    let file = ScratchFile::new("identity");
    let _ = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).run();

    // Reordered cells → different fingerprint.
    let mut reordered = cells.clone();
    reordered.swap(0, 1);
    let r = matrix_of(&reordered, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).try_run();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "reordered matrix must be rejected, got {r:?}"
    );

    // Fewer cells → cell-count (and fingerprint) mismatch.
    let r = matrix_of(
        &cells[..6],
        StudyConfig::new(DIES, SEED).checkpoint(&file.0),
    )
    .try_run();
    assert!(
        matches!(r, Err(StudyError::Checkpoint(_))),
        "reshaped matrix must be rejected, got {r:?}"
    );

    // The original matrix still resumes the untouched (finished) file.
    let again = matrix_of(&cells, StudyConfig::new(DIES, SEED).checkpoint(&file.0)).run();
    let fresh = matrix_of(&cells, StudyConfig::new(DIES, SEED)).run();
    assert_eq!(again, fresh);
}

/// CRC-32 (IEEE 802.3, reflected), to hand-build a well-formed
/// header of the retired format.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn a_retired_v1_checkpoint_is_rejected_by_every_terminal() {
    // The retired single-state format: magic, version 1, fingerprint,
    // total, header CRC. No terminal may resume it or overwrite it, and
    // the error tells the user to rerun.
    let file = ScratchFile::new("v1");
    let mut header = Vec::new();
    header.extend_from_slice(b"SVCP");
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&0x1234u64.to_le_bytes());
    header.extend_from_slice(&(DIES as u64).to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&file.0, &header).unwrap();

    let is_v1 = |r: Result<(), StudyError>| match r {
        Err(StudyError::Checkpoint(e @ CheckpointError::BadVersion(1))) => {
            let msg = e.to_string();
            msg.contains("retired") && msg.contains("rerun")
        }
        _ => false,
    };
    let cfg = || StudyConfig::new(DIES, SEED).checkpoint(&file.0);
    assert!(
        is_v1(cfg().try_run_summary().map(|_| ())),
        "try_run_summary"
    );
    assert!(
        is_v1(
            cfg()
                .faults(FaultPlan::uniform(0.02))
                .try_run_faults()
                .map(|_| ())
        ),
        "try_run_faults"
    );
    assert!(
        is_v1(
            StudyMatrix::new(cfg())
                .cell(SupplyBackendKind::Ideal, Environment::nominal(), None)
                .try_run()
                .map(|_| ())
        ),
        "StudyMatrix::try_run"
    );
    assert_eq!(std::fs::read(&file.0).unwrap(), header, "file untouched");
}

#[test]
fn a_standalone_summary_checkpoint_resumes_as_the_equivalent_one_cell_matrix() {
    // A standalone study is a one-cell matrix: its checkpoint carries
    // that matrix's fingerprint, so the matrix resumes it.
    let file = ScratchFile::new("one-cell");
    let token = CancelToken::new();
    let watch_token = token.clone();
    let watch = move |p: Progress| {
        if p.done >= DIES / 2 {
            watch_token.cancel();
        }
    };
    let killed = StudyConfig::new(DIES, SEED)
        .supply_backend(SupplyBackendKind::Dldo)
        .exec(ExecConfig::with_jobs(1))
        .checkpoint(&file.0)
        .cancel(&token)
        .progress(&watch)
        .try_run_summary();
    assert!(matches!(killed, Err(StudyError::Cancelled)), "{killed:?}");

    let resumed = StudyMatrix::new(
        StudyConfig::new(DIES, SEED)
            .exec(ExecConfig::with_jobs(3))
            .checkpoint(&file.0),
    )
    .cell(SupplyBackendKind::Dldo, Environment::nominal(), None)
    .run();
    let straight = StudyConfig::new(DIES, SEED)
        .supply_backend(SupplyBackendKind::Dldo)
        .run_summary();
    assert_eq!(resumed[0].encode_state(), straight.encode_state());
}
