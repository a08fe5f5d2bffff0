//! The post-deprecation contract of the study API redesign, checked
//! against the source text: the fifteen legacy entry points that spent
//! one release as `#[deprecated]` delegates are now GONE, nothing in
//! the tree still names them, and the builder surface that replaced
//! them is really there. Resurrecting one of the old names (e.g. by a
//! careless merge) fails this suite, not just a doc review.

use std::fs;
use std::path::Path;

fn source(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Asserts `fn {name}(` is not defined anywhere in `text` (pub or
/// private — the name must be fully retired, not merely hidden).
fn assert_absent(text: &str, rel: &str, name: &str) {
    let needle = format!("fn {name}(");
    assert!(
        !text.contains(&needle),
        "{rel}: `{needle}` reappeared — the legacy entry point was \
         deleted after its deprecation release; use StudyConfig instead"
    );
}

#[test]
fn the_ten_legacy_yield_study_entry_points_stay_deleted() {
    let text = source("crates/subvt-core/src/yield_study.rs");
    // Longest-suffix first so e.g. `yield_study_jobs_supply_eval` is
    // checked on its own and not shadowed by a shorter prefix match.
    for name in [
        "yield_study_jobs_supply_eval",
        "yield_study_serial_supply_eval",
        "yield_study_summary_supply_eval",
        "yield_study_jobs_eval",
        "yield_study_serial_eval",
        "yield_study_summary_eval",
        "yield_study_jobs",
        "yield_study_serial",
        "yield_study_summary",
        "yield_study",
    ] {
        assert_absent(&text, "crates/subvt-core/src/yield_study.rs", name);
    }
    // No lingering deprecation machinery either: the module carries
    // zero `#[deprecated]` attributes now that the window closed.
    assert_eq!(
        text.matches("#[deprecated").count(),
        0,
        "yield_study.rs should carry no deprecation markers after the \
         legacy surface was removed"
    );
}

#[test]
fn the_five_legacy_savings_monte_carlo_entry_points_stay_deleted() {
    let text = source("crates/subvt-bench/src/savings.rs");
    for name in [
        "savings_monte_carlo_jobs_eval",
        "savings_monte_carlo_serial_eval",
        "savings_monte_carlo_jobs",
        "savings_monte_carlo_serial",
        "savings_monte_carlo",
    ] {
        assert_absent(&text, "crates/subvt-bench/src/savings.rs", name);
    }
    assert_eq!(
        text.matches("#[deprecated").count(),
        0,
        "savings.rs should carry no deprecation markers after the \
         legacy surface was removed"
    );
}

#[test]
fn every_savings_run_goes_through_the_plan() {
    // One runner for the four policies: the per-policy helpers that
    // built a controller (and calibrated a sensor) per run stay gone.
    let rel = "crates/subvt-core/src/experiment.rs";
    let text = source(rel);
    for name in ["run_policy", "run_policy_impl"] {
        assert!(
            !text.contains(&format!("fn {name}(")),
            "{rel}: `{name}` reappeared — run policies through SavingsPlan"
        );
    }
    assert!(
        text.contains("pub struct SavingsPlan"),
        "{rel} lost SavingsPlan"
    );
}

#[test]
fn the_builder_replacement_surface_exists() {
    let text = source("crates/subvt-core/src/study.rs");
    for needle in [
        "pub struct StudyConfig",
        "pub struct StudyArgs",
        "pub enum SupplyBackendKind",
        "pub fn run(",
        "pub fn run_summary(",
        "pub fn run_faults(",
        "pub fn run_dies<",
        "pub fn supply_backend(",
        "pub fn accept(",
    ] {
        assert!(
            text.contains(needle),
            "crates/subvt-core/src/study.rs lost `{needle}`"
        );
    }
    // The module that housed the legacy yield fns still documents the
    // replacement, so a reader landing there is pointed at the builder.
    assert!(
        source("crates/subvt-core/src/yield_study.rs").contains("StudyConfig"),
        "yield_study.rs should point readers at StudyConfig"
    );
    assert!(
        source("crates/subvt-bench/src/savings.rs").contains("StudyConfig"),
        "savings.rs should point readers at StudyConfig"
    );
}

#[test]
fn nothing_in_the_tree_still_names_a_legacy_entry_point() {
    // With the wrappers gone there is no longer any file that may
    // mention the old names — not even the determinism suite, which
    // used to pin builder-vs-legacy identity and now pins the builder
    // against its own serial reference.
    for rel in [
        "src/cli.rs",
        "src/lib.rs",
        "tests/determinism.rs",
        "tests/batch_equivalence.rs",
        "tests/checkpoint_resume.rs",
        "crates/subvt-core/src/lib.rs",
        "crates/subvt-core/src/study.rs",
        "crates/subvt-bench/src/jobs.rs",
        "crates/subvt-bench/src/bin/exp-yield.rs",
        "crates/subvt-bench/src/bin/exp-savings.rs",
        "crates/subvt-bench/src/bin/exp-faults.rs",
        "crates/subvt-bench/src/bin/exp-ablations.rs",
    ] {
        let text = source(rel);
        for legacy in [
            "yield_study_jobs",
            "yield_study_serial",
            "savings_monte_carlo",
        ] {
            assert!(
                !text.contains(legacy),
                "{rel} still names the removed `{legacy}` surface"
            );
        }
    }
}

/// Every `.rs` file directly under the directory `rel`, concatenated.
fn crate_source(rel: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("list {rel}: {e}"));
    let mut paths: Vec<_> = entries
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
    paths.sort();
    paths
        .iter()
        .map(|path| fs::read_to_string(path).expect("read source"))
        .collect()
}

#[test]
fn the_second_batch_pipeline_and_checkpoint_v1_stay_deleted() {
    // One scoring engine: a standalone study is a one-cell matrix, so
    // the standalone folds, the caller-owned-generator terminals, the
    // single-cell checkpoint format and the per-cell fold wrapper (the
    // engine's accumulator is a `Vec` of cell states) were deleted,
    // not hidden.
    let core = [
        "fn summary_fold(",
        "fn faults_fold(",
        "fn score_faulted_die_with(",
        "fn run_with_rng",
        "fn run_summary_with_rng",
        "fn run_faults_with_rng",
    ];
    let exec = [
        "pub struct CheckpointWriter",
        "fn read_checkpoint(",
        "fn open_for_resume(",
        "fn try_par_fold_commit_multi",
    ];
    for (rel, needles) in [
        ("crates/subvt-core/src", &core[..]),
        ("crates/subvt-exec/src", &exec),
    ] {
        let text = crate_source(rel);
        assert!(text.contains("fn "), "{rel}: no sources read");
        for needle in needles {
            assert!(!text.contains(needle), "{rel}: `{needle}` reappeared");
        }
    }
    let rel = "crates/subvt-core/src/batch.rs";
    for name in ["fold_dies", "fold_faulted_dies"] {
        assert_absent(&source(rel), rel, name);
    }
}

#[test]
fn every_supply_backend_kind_is_spelled_in_the_cli_help() {
    // `--supply` must advertise exactly the four canonical spellings.
    // The retired `switched` alias still *parses* (scripts keep
    // working, checkpoint fingerprints stay compatible) but is no
    // longer advertised anywhere a user reads.
    let study = source("crates/subvt-core/src/study.rs");
    for spelling in ["ideal", "buck", "dldo", "dlr"] {
        assert!(
            study.contains(spelling),
            "STUDY_HELP no longer documents the `{spelling}` supply spelling"
        );
    }
    // The alias survives in the parser (exactly the `"buck" |
    // "switched"` arm) so old invocations and fingerprints keep
    // resolving...
    assert!(
        study.contains(r#""buck" | "switched""#),
        "the `switched` parse alias was dropped — old scripts and \
         checkpoint fingerprints would break"
    );
    // ...but the user-facing help text must not mention it.
    let after_help = &study[study.find("STUDY_HELP").expect("STUDY_HELP const")..];
    let help_text = &after_help[..after_help.find("\";").expect("help terminator")];
    assert!(
        !help_text.contains("switched"),
        "STUDY_HELP still advertises the retired `switched` alias"
    );
    assert!(
        !source("src/cli.rs")
            .split("pub const USAGE")
            .nth(1)
            .expect("USAGE const")
            .split("\";")
            .next()
            .expect("usage terminator")
            .contains("switched"),
        "the subvt USAGE text still advertises the retired `switched` alias"
    );
}

#[test]
fn every_harness_binary_shares_the_one_study_help_text() {
    // Satellite of the scenario PR: the four study harnesses used to
    // assemble `--help` from per-binary JOBS_HELP/EVAL_HELP/SUPPLY_HELP
    // fragments that drifted independently. They now all interpolate
    // the one STUDY_HELP const, so a flag documented for one binary is
    // documented identically for all of them.
    for rel in [
        "crates/subvt-bench/src/bin/exp-yield.rs",
        "crates/subvt-bench/src/bin/exp-savings.rs",
        "crates/subvt-bench/src/bin/exp-faults.rs",
        "crates/subvt-bench/src/bin/exp-ablations.rs",
        "crates/subvt-bench/src/bin/exp-shootout.rs",
    ] {
        let text = source(rel);
        assert!(
            text.contains("{STUDY_HELP}"),
            "{rel} no longer interpolates the shared STUDY_HELP text"
        );
        assert!(
            text.contains("[study flags]"),
            "{rel} drifted from the unified `USAGE: <bin> [study flags]` form"
        );
        for retired in ["JOBS_HELP", "EVAL_HELP", "SUPPLY_HELP"] {
            assert!(
                !text.contains(retired),
                "{rel} resurrects the retired per-binary `{retired}` fragment"
            );
        }
    }
    // The fragments themselves stay deleted from the shared harness
    // module.
    let jobs = source("crates/subvt-bench/src/jobs.rs");
    for retired in ["JOBS_HELP", "EVAL_HELP", "SUPPLY_HELP"] {
        assert!(
            !jobs.contains(retired),
            "jobs.rs redefines the retired `{retired}` fragment"
        );
    }
}

#[test]
fn fleet_perf_gate_warnings_go_to_stderr() {
    // The fleet bench's missing/stale-baseline warnings must never
    // land on stdout: CI and scripts parse the bench's stdout, and a
    // warning line would corrupt it. Pin every warning print in the
    // baseline-handling code to eprintln!.
    let text = source("crates/subvt-bench/benches/fleet.rs");
    for (i, line) in text.lines().enumerate() {
        if line.contains("warning") && line.contains("println!") {
            assert!(
                line.contains("eprintln!"),
                "fleet.rs:{}: baseline warning printed to stdout: {line}",
                i + 1
            );
        }
    }
    assert!(
        text.contains("eprintln!"),
        "fleet.rs no longer routes any warning to stderr — did the \
         baseline warnings move?"
    );
}
