//! The golden-corpus gate: every committed scenario under
//! `docs/scenarios/`, run at its committed size, must reproduce its
//! committed text and JSON reports under `docs/results/` byte for byte.

use std::fs;
use std::path::Path;

use subvt_scenario::{RunOptions, Scenario};

use crate::workloads::{timed, Checks, Ctx};

/// Runs the corpus at `repo`, one checked operation per scenario.
pub fn golden_corpus(repo: &Path, ctx: &Ctx, checks: &mut Checks) {
    let dir = repo.join("docs/scenarios");
    let mut files: Vec<_> = match fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect(),
        Err(e) => {
            checks.op(Some(format!("{}: {e}", dir.display())));
            return;
        }
    };
    files.sort();
    if files.is_empty() {
        checks.op(Some(format!("{}: no scenarios", dir.display())));
    }
    for file in files {
        let stem = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let results = repo.join("docs/results");
        let (_, out) = timed(|| {
            let text = fs::read_to_string(&file).map_err(|e| e.to_string())?;
            let scenario = Scenario::from_toml(&text).map_err(|e| e.to_string())?;
            let opts = RunOptions {
                exec: Some(ctx.exec()),
                checkpoint: None,
            };
            let report = scenario.try_run(&opts).map_err(|e| e.to_string())?;
            for (ext, got) in [("txt", report.to_text()), ("json", report.to_json())] {
                let path = results.join(format!("{stem}.{ext}"));
                let want =
                    fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                if got != want {
                    return Err(format!("differs from {}", path.display()));
                }
            }
            Ok(())
        });
        checks.op(out.err().map(|e| format!("golden scenario {stem}: {e}")));
    }
}
