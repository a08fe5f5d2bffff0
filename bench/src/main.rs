//! Command line of the repository benchmark. Run from the repository
//! root:
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- [--workload NAME]
//!     [--seed N] [--seconds S] [--trace [0|1]]
//! cargo run --release --manifest-path bench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs in turn. Each prints
//! `workload metric value unit` lines; with `--workload` the last line
//! is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (the per-layer ones with `--trace`). Results go
//! to `bench/out/results.json`, spans to `bench/out/trace.json`. A
//! failed check exits 1, a usage error 2.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use subvt_perfbench::json::Value;
use subvt_perfbench::metrics::{self, Verdict};
use subvt_perfbench::run::{self, Outcome};
use subvt_perfbench::workloads::{self, Ctx, Sizes};
use subvt_perfbench::{out_dir, repo_root, sys, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str =
    "usage: subvt-perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
       subvt-perfbench compare A B   (each a results file or a directory of them)
workloads: yield_fleet, shootout_matrix, savings_mc, suite_many";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                if !workloads::NAMES.contains(&name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                opts.workload = Some(name.to_owned());
                i += 2;
            }
            "--seed" => {
                let raw = value(i)?;
                opts.seed = raw.parse().map_err(|_| {
                    format!("invalid --seed `{raw}` (expected an unsigned integer)")
                })?;
                i += 2;
            }
            "--seconds" => {
                let raw = value(i)?;
                opts.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("invalid --seconds `{raw}` (expected a positive number)")
                    })?;
                i += 2;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 2;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 2;
                }
                _ => {
                    opts.trace = true;
                    i += 1;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    match parse(&args) {
        Ok(opts) => bench(&opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn bench(opts: &Options) -> ExitCode {
    let out = out_dir();
    let scratch = out.join(format!("ckpt-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("{}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: opts.seed,
        jobs: sys::jobs(),
        sizes: Sizes::standard(),
        scratch: scratch.clone(),
    };
    let names: Vec<&str> = match &opts.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    for name in names {
        let mut w = workloads::by_name(name, ctx.clone()).expect("names are validated");
        let outcome = run::run(w.as_mut(), &ctx, &repo_root(), opts.seconds, opts.trace);
        for line in outcome.lines() {
            println!("{line}");
        }
        for failure in &outcome.checks.failures {
            eprintln!("FAILED {name}: {failure}");
        }
        outcomes.push(outcome);
    }
    let _ = fs::remove_dir_all(&scratch);

    let results = Value::obj()
        .with("schema", "subvt-perfbench-results-v1")
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("jobs", ctx.jobs)
        .with(
            "workloads",
            outcomes.iter().map(Outcome::to_json).collect::<Vec<_>>(),
        );
    let mut written = vec![("results.json", results)];
    if opts.trace {
        let trace = Value::obj()
            .with("schema", "subvt-perfbench-trace-v1")
            .with("seed", opts.seed)
            .with(
                "workloads",
                outcomes.iter().map(Outcome::trace_json).collect::<Vec<_>>(),
            );
        written.push(("trace.json", trace));
    }
    for (file, doc) in written {
        let path = out.join(file);
        if let Err(e) = fs::write(&path, doc.pretty()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let [only] = outcomes.as_slice() {
        println!("{}", only.result_line(opts.trace));
    }
    if outcomes.iter().all(|o| o.checks.failures.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `compare A B`: one verdict per (workload, metric) pair under the
/// bounds in `BENCHMARK.json`; exits 1 if any pair regressed or is
/// unresolved. `A` and `B` are each a results file or a directory of
/// them (a set of runs).
fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &Path| -> Result<Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let load_set = |path: &str| -> Result<Vec<Value>, String> {
        let path = Path::new(path);
        if !path.is_dir() {
            return Ok(vec![load(path)?]);
        }
        let mut files: Vec<_> = fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        files.iter().map(|f| load(f)).collect()
    };
    let rows = (|| {
        let (sa, sb) = (load_set(a)?, load_set(b)?);
        metrics::compare(&sa, &sb, &load(&repo_root().join("BENCHMARK.json"))?)
    })();
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for row in &rows {
        let change = if row.a != 0.0 {
            format!("{:+.2}%", 100.0 * (row.b - row.a) / row.a.abs())
        } else {
            "n/a".to_owned()
        };
        println!(
            "{} {} {} {} -> {} ({change})",
            row.workload,
            row.metric,
            row.verdict.label(),
            row.a,
            row.b
        );
        ok &= !matches!(row.verdict, Verdict::Regressed | Verdict::Unresolved);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
