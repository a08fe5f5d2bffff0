//! Fleet-scale throughput of the streaming summary engine.
//!
//! Three questions, one report:
//!
//! * `summary_batchN` — does the structure-of-arrays lane width matter?
//!   Serial runs at batch 1 (scalar shape), a mid-size lane, and the
//!   default, all bit-identical by the equivalence suite, so the legs
//!   isolate pure batching cost/benefit.
//! * `summary_jobsN` — does the chunk scheduler scale the streaming
//!   path? Same dies, 1/2/4 workers.
//! * `summary_<n>_dies` — the headline: one full million-die summary
//!   study (10⁴ in quick mode), timed once via `bench_once`, with its
//!   computed yields echoed so the report doubles as a results record.
//!
//! Every leg carries a `dies/s` throughput figure (`items_per_sec` in
//! the report), and the mega leg's per-phase wall-time profile (die
//! draw / fixed lane / word settle / adaptive lanes / dither settle /
//! dither check) is printed and dumped to `PROFILE_fleet.txt` next to
//! the report, so a single bench run shows where the hot path spends
//! its time.
//!
//! On a host with ≥ 4 cores (and outside quick mode) the bench
//! *asserts* two claims:
//!
//! * the 4-worker leg beats 1 worker by ≥ 1.5× — CI's multi-core
//!   runners enforce the scaling claim;
//! * mega-leg throughput stays within 0.5× of the committed baseline
//!   in `docs/results/BENCH_fleet.json` — the perf-regression gate.
//!
//! A 1-core container only records honest numbers (its
//! `machine.cores` block says so).

use subvt_core::matrix::{CellSummary, MatrixCell, StudyMatrix};
use subvt_core::study::{FaultPlan, StudyConfig, SupplyBackendKind, DEFAULT_BATCH};
use subvt_core::PhaseProfile;
use subvt_device::corner::ProcessCorner;
use subvt_device::mosfet::Environment;
use subvt_exec::ExecConfig;
use subvt_testkit::bench::Timer;

/// Large enough that per-chunk work dwarfs worker spawn cost
/// (`chunk_len(1024) = 16` dies per commit), small enough to sample.
const DIES: usize = 1024;
const SEED: u64 = 2009;

fn config(dies: usize) -> StudyConfig<'static> {
    StudyConfig::new(dies, SEED)
}

/// The committed baseline report, found by walking up from the bench
/// cwd (the package root) to the repo root. `None` outside a checkout.
fn committed_baseline() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("docs/results/BENCH_fleet.json");
        if candidate.is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Pulls `median_ns` for one benchmark out of a committed
/// `subvt-bench-v*` report without a JSON parser: the writer puts one
/// record per line, so scan for the name and read the field after it.
fn baseline_median_ns(json: &str, bench_name: &str) -> Option<f64> {
    let line = json
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{bench_name}\"")))?;
    let tail = line.split("\"median_ns\": ").nth(1)?;
    tail.split(',')
        .next()?
        .trim_end_matches('}')
        .trim()
        .parse()
        .ok()
}

fn bench(c: &mut Timer) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = c.quick();
    let profile_path = c.out_dir().join("PROFILE_fleet.txt");

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.throughput(DIES as f64);

    for batch in [1usize, 16, DEFAULT_BATCH] {
        g.bench_function(&format!("summary_batch{batch}"), |b| {
            b.iter(|| {
                config(DIES)
                    .batch(batch)
                    .exec(ExecConfig::serial())
                    .run_summary()
            })
        });
    }

    for jobs in [1usize, 2, 4] {
        g.bench_function(&format!("summary_jobs{jobs}"), |b| {
            b.iter(|| config(DIES).exec(ExecConfig::with_jobs(jobs)).run_summary())
        });
    }

    if !quick && cores >= 4 {
        let t1 = g.median_ns("summary_jobs1").expect("jobs1 leg ran");
        let t4 = g.median_ns("summary_jobs4").expect("jobs4 leg ran");
        let speedup = t1 / t4;
        println!("fleet speedup jobs1/jobs4 = {speedup:.2}x on {cores} cores");
        assert!(
            speedup > 1.5,
            "4 workers must beat 1 worker by > 1.5x on a {cores}-core host, got {speedup:.2}x"
        );
    }

    // The headline run: a million dies streamed through the batched
    // summary path at full parallelism, timed once. Quick mode keeps
    // the smoke run to 10⁴ dies so `cargo test` stays fast.
    let mega = if quick { 10_000 } else { 1_000_000 };
    g.throughput(mega as f64);
    let mega_name = format!("summary_{mega}_dies");
    let profile_before = PhaseProfile::snapshot();
    let summary = g.bench_once(&mega_name, || {
        config(mega)
            .exec(ExecConfig::with_jobs(cores))
            .run_summary()
    });
    let profile = PhaseProfile::snapshot().since(&profile_before);
    assert_eq!(summary.dies, mega as u64, "the mega study must complete");
    println!(
        "fleet mega study: {} dies, fixed yield {:.4}, adaptive yield {:.4}, dithered yield {:.4}",
        summary.dies,
        summary.fixed_yield(),
        summary.adaptive_yield(),
        summary.dithered_yield(),
    );
    println!("{profile}");
    let profile_dump =
        format!("fleet mega leg ({mega} dies, {cores} core(s), quick={quick})\n{profile}\n");
    if let Some(parent) = profile_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&profile_path, profile_dump) {
        Ok(()) => println!("fleet phase profile written to {}", profile_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", profile_path.display()),
    }

    // Perf-regression gate: compare mega-leg throughput against the
    // committed baseline. Dormant in quick mode and on small runners,
    // where the timing would gate on scheduler noise; the 0.5×
    // tolerance absorbs runner-to-runner variance while still
    // catching a real hot-path regression. A missing, unreadable or
    // schema-drifted baseline only *warns* — the gate exists to catch
    // code regressions, and failing the whole bench because a fresh
    // checkout (or a renamed leg) has no matching record would turn a
    // bookkeeping gap into a spurious red build.
    if !quick && cores >= 4 {
        let mega_ns = g.median_ns(&mega_name).expect("mega leg ran");
        match committed_baseline() {
            None => eprintln!(
                "warning: fleet perf gate skipped — no committed \
                 docs/results/BENCH_fleet.json found above the bench cwd"
            ),
            Some(path) => match std::fs::read_to_string(&path) {
                Err(e) => eprintln!(
                    "warning: fleet perf gate skipped — could not read {}: {e}",
                    path.display()
                ),
                Ok(json) => match baseline_median_ns(&json, &mega_name) {
                    None => eprintln!(
                        "warning: fleet perf gate skipped — {} has no `{mega_name}` \
                         record (schema drift or a stale baseline); regenerate it \
                         with `cargo bench --bench fleet`",
                        path.display()
                    ),
                    Some(base_ns) => {
                        let ratio = base_ns / mega_ns;
                        println!(
                            "fleet perf gate: mega leg {:.2}x committed baseline \
                             ({:.2}s vs {:.2}s)",
                            ratio,
                            mega_ns / 1e9,
                            base_ns / 1e9,
                        );
                        assert!(
                            ratio >= 0.5,
                            "fleet mega leg regressed below 0.5x the committed baseline: \
                             {:.2}s vs {:.2}s committed ({ratio:.2}x)",
                            mega_ns / 1e9,
                            base_ns / 1e9,
                        );
                    }
                },
            },
        }
    }
    g.finish();

    println!("fleet ran on a machine with {cores} core(s)");
}

/// The 18 supply shoot-out cells (3 backends × 3 corners × {clean,
/// faulted at the mid rate}) — the same grid `exp-shootout` and
/// `subvt matrix` score.
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

/// The fused study-matrix leg: the 18 shoot-out cells scored two ways
/// over the same die population — one standalone study per cell (the
/// pre-matrix shape) vs one fused [`StudyMatrix`] run that draws and
/// device-evaluates each (corner, die) once and folds every compatible
/// cell from the shared lanes. Both legs run serial, so the ratio is a
/// pure shared-work figure, not a scheduling artifact, and the
/// per-phase profile (with its `shared draw` counter) is dumped to
/// `PROFILE_matrix.txt` so the saving is attributable, not asserted on
/// faith. Outside quick mode the bench asserts the fused engine's
/// headline claim: ≥ 2.5× over per-cell.
fn matrix_bench(c: &mut Timer) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = c.quick();
    let profile_path = c.out_dir().join("PROFILE_matrix.txt");
    let dies = if quick { 32 } else { 256 };
    let cells = shootout_cells();

    let mut g = c.benchmark_group("matrix");
    g.throughput((dies * cells.len()) as f64);

    let per_cell = g.bench_once("per_cell_18", || {
        cells
            .iter()
            .map(|cell| {
                let cfg = StudyConfig::new(dies, SEED)
                    .supply_backend(cell.supply)
                    .env(cell.env)
                    .exec(ExecConfig::serial());
                match cell.faults {
                    None => CellSummary::Yield(cfg.run_summary()),
                    Some(plan) => CellSummary::Faults(cfg.faults(plan).run_faults()),
                }
            })
            .collect::<Vec<_>>()
    });

    let profile_before = PhaseProfile::snapshot();
    let fused = g.bench_once("fused_18", || {
        cells
            .iter()
            .fold(
                StudyMatrix::new(StudyConfig::new(dies, SEED).exec(ExecConfig::serial())),
                |m, cell| m.cell(cell.supply, cell.env, cell.faults),
            )
            .run()
    });
    let profile = PhaseProfile::snapshot().since(&profile_before);

    // The bench doubles as an equivalence check at scale: the fused
    // engine must reproduce the per-cell studies exactly.
    assert_eq!(
        fused, per_cell,
        "the fused matrix diverged from the per-cell studies"
    );

    let per_ns = g.median_ns("per_cell_18").expect("per-cell leg ran");
    let fused_ns = g.median_ns("fused_18").expect("fused leg ran");
    let speedup = per_ns / fused_ns;
    println!(
        "matrix speedup fused/per-cell = {speedup:.2}x ({:.3}s vs {:.3}s, \
         {dies} dies x {} cells, serial)",
        fused_ns / 1e9,
        per_ns / 1e9,
        cells.len(),
    );
    println!("{profile}");
    let dump = format!(
        "matrix fused leg ({dies} dies x {} cells, serial, {cores} core(s), \
         quick={quick})\nspeedup fused/per-cell = {speedup:.2}x\n{profile}\n",
        cells.len(),
    );
    if let Some(parent) = profile_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&profile_path, dump) {
        Ok(()) => println!("matrix phase profile written to {}", profile_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", profile_path.display()),
    }

    if !quick {
        assert!(
            speedup >= 2.5,
            "the fused matrix must beat 18 per-cell studies by >= 2.5x, got {speedup:.2}x"
        );
    }
    g.finish();
}

subvt_testkit::bench_main!(bench, matrix_bench);
