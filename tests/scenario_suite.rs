//! The scenario pipeline end to end: the golden corpus under
//! `docs/scenarios/` stays canonical, the `suite` subcommand runs it
//! on the fused engine, and the rendered reports are byte-stable
//! against runtime knobs.
//!
//! The full-size corpus (500-die shoot-out) regenerates here and is
//! diffed byte-for-byte against `docs/results/`, as CI also does from
//! the release binary; the other tests pin the mechanics at small die
//! counts.

use std::fs;
use std::path::{Path, PathBuf};

use subvt::cli::Command;
use subvt_scenario::{Scenario, ScenarioError};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn parse(words: &[&str]) -> Command {
    let args: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
    Command::parse(&args).expect("suite invocation parses")
}

/// A scratch directory unique to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("subvt-suite-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }

    fn str(&self, rel: &str) -> String {
        self.path(rel).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The committed shoot-out scenario is exactly the canonical encoding
/// of [`Scenario::supply_shootout`] — the document alone reconstructs
/// the full 18-cell study with no code-level cell construction.
///
/// Regenerate with `SUBVT_BLESS=1 cargo test -q shootout_scenario`.
#[test]
fn shootout_scenario_toml_is_pinned() {
    let expected = Scenario::supply_shootout().to_toml();
    let path = repo_path("docs/scenarios/supply_shootout.toml");
    if std::env::var_os("SUBVT_BLESS").is_some() {
        fs::write(&path, &expected).expect("bless scenario");
    }
    let committed = fs::read_to_string(&path).expect("committed scenario");
    assert_eq!(
        committed, expected,
        "docs/scenarios/supply_shootout.toml drifted from Scenario::supply_shootout(); \
         regenerate with SUBVT_BLESS=1"
    );
}

/// Every committed scenario parses, re-encodes to a model-identical
/// document, and its serialized form is a fixed point of the codec.
#[test]
fn committed_scenarios_parse_and_round_trip() {
    let dir = repo_path("docs/scenarios");
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("docs/scenarios") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        seen += 1;
        let text = fs::read_to_string(&path).expect("scenario text");
        let scenario =
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let canonical = scenario.to_toml();
        let back = Scenario::from_toml(&canonical)
            .unwrap_or_else(|e| panic!("{} (canonical): {e}", path.display()));
        assert_eq!(back, scenario, "{}", path.display());
        assert_eq!(back.to_toml(), canonical, "{}", path.display());
        assert!(!scenario.name.is_empty(), "{}", path.display());
    }
    assert!(seen >= 3, "golden corpus shrank to {seen} scenarios");
}

/// `suite <dir> --out` runs every scenario and writes both backends;
/// the bytes are identical at any `--jobs`.
#[test]
fn suite_runs_a_corpus_and_is_jobs_invariant() {
    let scratch = Scratch::new("corpus");
    let mut small = Scenario::supply_shootout();
    small.study.dies = 24;
    small.matrix.supplies = Some(vec![subvt_core::SupplyBackendKind::Dldo]);
    small.name = "mini-shootout".to_owned();
    fs::write(scratch.path("mini_shootout.toml"), small.to_toml()).expect("write scenario");
    fs::write(
        scratch.path("single.toml"),
        "name = \"single\"\n\n[study]\ndies = 16\n",
    )
    .expect("write scenario");

    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let out = scratch.str(&format!("out-{jobs}"));
        let summary = parse(&["suite", &scratch.str(""), "--out", &out, "--jobs", jobs])
            .run()
            .expect("suite runs");
        assert!(summary.contains("mini_shootout: 6 cells"), "{summary}");
        assert!(summary.contains("single: 1 cells"), "{summary}");
        let txt = fs::read_to_string(scratch.path(&format!("out-{jobs}/mini_shootout.txt")))
            .expect("text report");
        let json = fs::read_to_string(scratch.path(&format!("out-{jobs}/mini_shootout.json")))
            .expect("json report");
        assert!(
            txt.starts_with("Supply-backend shoot-out (24 dies per cell, seed 1)\n"),
            "{txt}"
        );
        assert!(json.contains("\"schema\": \"subvt-report-v1\""), "{json}");
        assert!(json.contains("\"scenario\": \"mini-shootout\""), "{json}");
        outputs.push((txt, json));
    }
    assert_eq!(outputs[0], outputs[1], "report bytes drift with --jobs");
}

/// The golden corpus at its committed size reproduces the committed
/// reports byte for byte: every `docs/scenarios/*.toml` renders the
/// `docs/results/` text and JSON of the same name. The fault cells run
/// the same walk code as the scalar oracle, so this is the walk's
/// end-to-end oracle too.
#[test]
fn the_golden_corpus_reproduces_the_committed_results() {
    let scratch = Scratch::new("golden");
    let corpus = repo_path("docs/scenarios");
    let summary = parse(&[
        "suite",
        &corpus.to_string_lossy(),
        "--out",
        &scratch.str(""),
    ])
    .run()
    .expect("golden corpus runs");
    let mut compared = 0;
    for entry in fs::read_dir(&corpus).expect("docs/scenarios") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let stem = path.file_stem().expect("file stem").to_string_lossy();
        for ext in ["txt", "json"] {
            let name = format!("{stem}.{ext}");
            let got = fs::read_to_string(scratch.path(&name))
                .unwrap_or_else(|e| panic!("{name} not written ({e}): {summary}"));
            let want = fs::read_to_string(repo_path(&format!("docs/results/{name}")))
                .unwrap_or_else(|e| panic!("docs/results/{name}: {e}"));
            assert_eq!(got, want, "{name} drifted from docs/results/{name}");
            compared += 1;
        }
    }
    assert!(compared >= 6, "golden corpus shrank to {compared} reports");
}

/// Without `--out`, a single-file suite prints the text report itself.
#[test]
fn suite_prints_a_single_scenario_report() {
    let scratch = Scratch::new("single");
    fs::write(
        scratch.path("one.toml"),
        "name = \"one\"\n\n[study]\ndies = 16\nseed = 3\n",
    )
    .expect("write scenario");
    let out = parse(&["suite", &scratch.str("one.toml")])
        .run()
        .expect("suite runs");
    assert!(
        out.starts_with("Study (16 dies per cell, seed 3)\n"),
        "{out}"
    );
    assert!(out.contains("| backend | corner |"), "{out}");
}

/// Scenario errors surface with the file name and the line/column of
/// the offending token.
#[test]
fn suite_errors_carry_the_file_and_line() {
    let scratch = Scratch::new("errors");
    fs::write(
        scratch.path("bad.toml"),
        "name = \"bad\"\n\n[study]\ndise = 40\n",
    )
    .expect("write scenario");
    let e = parse(&["suite", &scratch.str("bad.toml")])
        .run()
        .expect_err("unknown key rejected");
    assert!(e.contains("bad.toml"), "{e}");
    assert!(e.contains("line 4"), "{e}");
    assert!(e.contains("unknown key `dise`"), "{e}");

    let e = parse(&["suite", &scratch.str("missing.toml")])
        .run()
        .expect_err("missing path rejected");
    assert!(e.contains("no such file or directory"), "{e}");
}

/// `--checkpoint-dir` arms one `.svcp` per scenario; a finished file
/// replays the identical report.
#[test]
fn suite_checkpoints_per_scenario_and_replays() {
    let scratch = Scratch::new("ckpt");
    fs::write(
        scratch.path("ck.toml"),
        "name = \"ck\"\n\n[study]\ndies = 20\n",
    )
    .expect("write scenario");
    let ckdir = scratch.str("checkpoints");
    let invocation = ["suite", &scratch.str("ck.toml"), "--checkpoint-dir", &ckdir];
    let first = parse(&invocation).run().expect("first run");
    assert!(scratch.path("checkpoints/ck.svcp").is_file());
    let replay = parse(&invocation).run().expect("replay run");
    assert_eq!(first, replay, "checkpoint replay changed the report");
}

/// The decode path and the flag path reject with the same vocabulary.
#[test]
fn scenario_errors_are_scenario_errors() {
    let e: ScenarioError = Scenario::from_toml("[study]\nfault_rate = 2.0\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.to_string().contains("probability in [0, 1]"), "{e}");
}
