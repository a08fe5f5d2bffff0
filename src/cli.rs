//! Argument parsing and command dispatch for the `subvt` CLI.
//!
//! Hand-rolled (the workspace has a zero-external-dependency policy;
//! see DESIGN.md) but fully testable: [`Command::parse`] is pure.

use std::fmt;
use std::str::FromStr;

use subvt_core::controller::SupplyKind;
use subvt_core::experiment::{savings_experiment, Scenario};
use subvt_core::matrix::{CellSummary, MatrixCell, StudyMatrix};
use subvt_core::study::{
    FaultPlan, StudyArgs, StudyConfig, StudyError, SupplyBackendKind, DEFAULT_BATCH,
};
use subvt_core::transient::{fig6_schedule, run_transient};
use subvt_core::{PhaseProfile, SupplySim};
use subvt_dcdc::converter::ConverterParams;
use subvt_dcdc::filter::NoLoad;
use subvt_dcdc::solver::SolverMode;
use subvt_device::corner::ProcessCorner;
use subvt_device::delay::{GateMismatch, GateTiming};
use subvt_device::energy::CircuitProfile;
use subvt_device::mep::{energy_sweep, find_mep};
use subvt_device::mosfet::Environment;
use subvt_device::tabulate::EvalMode;
use subvt_device::technology::{GateKind, Technology};
use subvt_device::units::Volts;
use subvt_exec::{CancelToken, ExecConfig, Progress};
use subvt_scenario::{RunOptions, Scenario as StudyScenario};
use subvt_tdc::sensor::{word_voltage, SensorConfig, VariationSensor};
use subvt_tdc::table1::{reproduce_table1, PAPER_SIGNATURES};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Locate the minimum-energy point.
    Mep(Operating),
    /// Print a gate delay.
    Delay {
        /// Operating point.
        op: Operating,
        /// Supply voltage.
        vdd: Volts,
        /// Gate flavour.
        gate: GateKind,
    },
    /// Run the TDC sensor once.
    Sense {
        /// Operating point of the actual die.
        op: Operating,
        /// Calibrated band (voltage word).
        word: u8,
        /// Actual supply in millivolts (defaults to the word voltage).
        vdd_mv: Option<f64>,
    },
    /// CSV energy sweep.
    Sweep {
        /// Operating point.
        op: Operating,
        /// Sweep start (mV).
        from_mv: f64,
        /// Sweep end (mV).
        to_mv: f64,
        /// Number of steps.
        steps: usize,
    },
    /// Monte-Carlo parametric yield (summary-only streaming path),
    /// optionally under fault injection (`--faults`/`--mitigation`).
    Yield {
        /// Operating point of the die population.
        op: Operating,
        /// The shared study flags (`--dies`, `--jobs`, `--seed`,
        /// `--eval`, `--supply`, `--solver`, `--faults`,
        /// `--mitigation`).
        study: StudyArgs,
    },
    /// The 18-cell supply × corner × fault shoot-out grid, scored on
    /// one shared die stream by the fused [`StudyMatrix`] engine.
    Matrix {
        /// Operating point (technology node and temperature) shared by
        /// every cell; the corners come from the grid itself.
        op: Operating,
        /// The shared study flags (`--dies`, `--jobs`, `--seed`,
        /// `--batch`, `--checkpoint`, `--solver`, `--faults`, …).
        study: StudyArgs,
        /// Score each cell with its own standalone study instead of
        /// the fused engine — the slow reference mode; the report is
        /// byte-identical by the matrix engine's contract.
        per_cell: bool,
    },
    /// Run a scenario corpus (a `.toml` file or a directory of them)
    /// on the fused matrix engine and render the shared report model.
    Suite {
        /// Scenario file or directory.
        path: String,
        /// Output directory: write `<stem>.txt` and `<stem>.json` per
        /// scenario instead of printing the text reports.
        out: Option<String>,
        /// Checkpoint directory: arm `<stem>.svcp` per scenario.
        checkpoint_dir: Option<String>,
        /// Worker-thread override (runtime-only; results and report
        /// bytes are identical at any value).
        jobs: Option<usize>,
    },
    /// Fig. 6 transient summary.
    Fig6 {
        /// Converter solver for the transient.
        solver: SolverMode,
    },
    /// Table I signatures.
    Table1,
    /// The paper's savings experiment.
    Savings {
        /// Supply backend the controller runs from.
        supply: SupplyBackendKind,
        /// Converter solver for buck-supply runs.
        solver: SolverMode,
    },
    /// Print usage.
    Help,
}

/// Technology choice plus environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Operating {
    /// Which preset technology.
    pub node: Node,
    /// Process corner.
    pub corner: ProcessCorner,
    /// Temperature in °C.
    pub celsius: f64,
    /// Switching factor for energy queries.
    pub activity: f64,
}

impl Default for Operating {
    fn default() -> Operating {
        Operating {
            node: Node::N130,
            corner: ProcessCorner::Tt,
            celsius: 25.0,
            activity: 0.1,
        }
    }
}

impl Operating {
    /// Builds the technology.
    pub fn technology(&self) -> Technology {
        match self.node {
            Node::N130 => Technology::st_130nm(),
            Node::N65 => Technology::generic_65nm(),
        }
    }

    /// Builds the environment.
    pub fn environment(&self) -> Environment {
        Environment::at_corner(self.corner).with_celsius(self.celsius)
    }
}

/// Technology node selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The paper's 0.13 µm process.
    N130,
    /// The representative 65 nm process.
    N65,
}

/// A CLI parse failure, with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCliError {}

fn err(msg: impl Into<String>) -> ParseCliError {
    ParseCliError(msg.into())
}

fn parse_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, ParseCliError> {
    let raw = value.ok_or_else(|| err(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| err(format!("invalid value `{raw}` for {flag}")))
}

/// Parses `suite <path> [--out DIR] [--checkpoint-dir DIR] [--jobs N]`.
///
/// The scenario files own every study knob, so the only flags here are
/// runtime ones — where the work runs, where the outputs and
/// checkpoints land. None of them can change report bytes.
fn parse_suite(rest: &[String]) -> Result<Command, ParseCliError> {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        match flag {
            "--out" => {
                out = Some(parse_value(flag, rest.get(i + 1))?);
                i += 2;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(parse_value(flag, rest.get(i + 1))?);
                i += 2;
            }
            "--jobs" => {
                let raw: String = parse_value(flag, rest.get(i + 1))?;
                jobs = Some(raw.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                    err(format!(
                        "invalid value `{raw}` for --jobs (expected a positive integer)"
                    ))
                })?);
                i += 2;
            }
            _ if !flag.starts_with('-') && path.is_none() => {
                path = Some(flag.to_owned());
                i += 1;
            }
            other => return Err(err(format!("unknown flag `{other}` for suite"))),
        }
    }
    let path = path.ok_or_else(|| err("suite needs a scenario file or directory"))?;
    Ok(Command::Suite {
        path,
        out,
        checkpoint_dir,
        jobs,
    })
}

/// The scenario corpus behind a `suite` path argument: the file
/// itself, or every `.toml` in the directory in name order.
fn scenario_files(path: &str) -> Result<Vec<std::path::PathBuf>, String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        let entries = std::fs::read_dir(p).map_err(|e| format!("{path}: {e}"))?;
        let mut files: Vec<std::path::PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|f| f.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{path}: no `.toml` scenarios found"));
        }
        Ok(files)
    } else if p.is_file() {
        Ok(vec![p.to_path_buf()])
    } else {
        Err(format!("{path}: no such file or directory"))
    }
}

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseCliError`] describing the first problem found.
    pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
        let mut it = args.iter();
        let sub = match it.next() {
            Some(s) => s.as_str(),
            None => return Ok(Command::Help),
        };

        // Collect flags into (name, value) pairs.
        let rest: Vec<String> = it.cloned().collect();

        // `suite` takes a positional scenario path plus its own output
        // flags; it never mixes with the study flags (the scenario
        // files are the source of truth for every study knob).
        if sub == "suite" {
            return parse_suite(&rest);
        }
        let mut op = Operating::default();
        let mut vdd_mv: Option<f64> = None;
        let mut word: Option<u8> = None;
        let mut gate = GateKind::Inverter;
        let mut from_mv = 120.0;
        let mut to_mv = 600.0;
        let mut steps = 24usize;
        let mut per_cell = false;
        let mut study = StudyArgs::new();

        let mut i = 0;
        while i < rest.len() {
            let flag = rest[i].as_str();
            let value = rest.get(i + 1);
            match flag {
                "--tech" => {
                    let v: String = parse_value(flag, value)?;
                    op.node = match v.as_str() {
                        "130" | "130nm" => Node::N130,
                        "65" | "65nm" => Node::N65,
                        other => return Err(err(format!("unknown tech `{other}` (130|65)"))),
                    };
                    i += 2;
                }
                "--corner" => {
                    let v: String = parse_value(flag, value)?;
                    op.corner = v.parse().map_err(|e| err(format!("{e}")))?;
                    i += 2;
                }
                "--temp" => {
                    op.celsius = parse_value(flag, value)?;
                    i += 2;
                }
                "--activity" => {
                    op.activity = parse_value(flag, value)?;
                    if !(0.0..=1.0).contains(&op.activity) || op.activity == 0.0 {
                        return Err(err("--activity must be in (0, 1]"));
                    }
                    i += 2;
                }
                "--vdd-mv" => {
                    vdd_mv = Some(parse_value(flag, value)?);
                    i += 2;
                }
                "--word" => {
                    let w: u8 = parse_value(flag, value)?;
                    if w > 63 {
                        return Err(err("--word must be 0..=63"));
                    }
                    word = Some(w);
                    i += 2;
                }
                "--gate" => {
                    let v: String = parse_value(flag, value)?;
                    gate = match v.as_str() {
                        "inv" | "inverter" => GateKind::Inverter,
                        "nand" | "nand2" => GateKind::Nand2,
                        "nor" | "nor2" => GateKind::Nor2,
                        other => return Err(err(format!("unknown gate `{other}`"))),
                    };
                    i += 2;
                }
                "--from-mv" => {
                    from_mv = parse_value(flag, value)?;
                    i += 2;
                }
                "--to-mv" => {
                    to_mv = parse_value(flag, value)?;
                    i += 2;
                }
                "--steps" => {
                    steps = parse_value(flag, value)?;
                    i += 2;
                }
                "--per-cell" => {
                    per_cell = true;
                    i += 1;
                }
                // Everything else is a shared study flag (`--dies`,
                // `--jobs`, `--seed`, `--eval`, `--supply`,
                // `--solver`, `--faults`, `--mitigation`) — one
                // parser, shared with the exp-* harness binaries.
                other => match study.accept(&rest, i).map_err(err)? {
                    Some(consumed) => i += consumed,
                    None => return Err(err(format!("unknown flag `{other}`"))),
                },
            }
        }

        match sub {
            "mep" => Ok(Command::Mep(op)),
            "delay" => {
                let mv = vdd_mv.ok_or_else(|| err("delay needs --vdd-mv"))?;
                Ok(Command::Delay {
                    op,
                    vdd: Volts::from_millivolts(mv),
                    gate,
                })
            }
            "sense" => {
                let word = word.ok_or_else(|| err("sense needs --word"))?;
                Ok(Command::Sense { op, word, vdd_mv })
            }
            "sweep" => {
                if from_mv >= to_mv {
                    return Err(err("--from-mv must be below --to-mv"));
                }
                if steps == 0 {
                    return Err(err("--steps must be positive"));
                }
                Ok(Command::Sweep {
                    op,
                    from_mv,
                    to_mv,
                    steps,
                })
            }
            "yield" => Ok(Command::Yield { op, study }),
            "matrix" => Ok(Command::Matrix {
                op,
                study,
                per_cell,
            }),
            "fig6" => Ok(Command::Fig6 {
                solver: study.solver,
            }),
            "table1" => Ok(Command::Table1),
            "savings" => Ok(Command::Savings {
                supply: study.supply,
                solver: study.solver,
            }),
            "help" | "--help" | "-h" => Ok(Command::Help),
            other => Err(err(format!("unknown command `{other}` (try `help`)"))),
        }
    }

    /// Executes the command, writing human output to the returned
    /// string.
    ///
    /// # Errors
    ///
    /// Returns a message when the underlying computation fails (e.g. a
    /// supply below the technology floor).
    pub fn run(&self) -> Result<String, String> {
        match self {
            Command::Help => Ok(USAGE.to_owned()),
            Command::Mep(op) => {
                let tech = op.technology();
                let profile = CircuitProfile::ring_oscillator().with_activity(op.activity);
                let mep = find_mep(
                    &tech,
                    &profile,
                    op.environment(),
                    tech.min_vdd + Volts(0.02),
                    Volts(0.9),
                )
                .map_err(|e| e.to_string())?;
                Ok(format!(
                    "MEP on {} at {} / {:.0} °C / α={}: {:.1} mV, {:.3} fJ per op",
                    tech.name,
                    op.corner,
                    op.celsius,
                    op.activity,
                    mep.vopt.millivolts(),
                    mep.energy.femtos()
                ))
            }
            Command::Delay { op, vdd, gate } => {
                let tech = op.technology();
                let d = GateTiming::new(&tech)
                    .gate_delay(*gate, *vdd, op.environment())
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "{gate:?} delay on {} at {:.1} mV, {} / {:.0} °C: {:.3} ns",
                    tech.name,
                    vdd.millivolts(),
                    op.corner,
                    op.celsius,
                    d.nanos()
                ))
            }
            Command::Sense { op, word, vdd_mv } => {
                let tech = op.technology();
                let sensor =
                    VariationSensor::new(&tech, Environment::nominal(), SensorConfig::default());
                let vdd = vdd_mv
                    .map(Volts::from_millivolts)
                    .unwrap_or_else(|| word_voltage(*word));
                let dev = sensor
                    .sense(&tech, *word, vdd, op.environment(), GateMismatch::NOMINAL)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "sensor at word {word} ({:.2} mV applied), die {} / {:.0} °C: deviation {dev:+} LSB",
                    vdd.millivolts(),
                    op.corner,
                    op.celsius
                ))
            }
            Command::Sweep {
                op,
                from_mv,
                to_mv,
                steps,
            } => {
                let tech = op.technology();
                let profile = CircuitProfile::ring_oscillator().with_activity(op.activity);
                let series = energy_sweep(
                    &tech,
                    &profile,
                    op.environment(),
                    Volts::from_millivolts(*from_mv),
                    Volts::from_millivolts(*to_mv),
                    *steps,
                );
                let mut out = String::from("vdd_mv,total_fj,dynamic_fj,leakage_fj\n");
                for e in series {
                    out.push_str(&format!(
                        "{:.2},{:.5},{:.5},{:.5}\n",
                        e.vdd.millivolts(),
                        e.total().femtos(),
                        e.dynamic.femtos(),
                        e.leakage.femtos()
                    ));
                }
                Ok(out)
            }
            Command::Yield { op, study } => {
                let cfg = study.exec();
                // The study flags carry everything but the operating
                // point; the builder gets tech/env from `op` so the
                // eval surfaces are built for the right node.
                let mut builder = StudyConfig::new(study.dies, study.seed)
                    .tech(op.technology())
                    .env(op.environment())
                    .supply_backend(study.supply)
                    .solver(study.solver)
                    .exec(cfg);
                if study.eval != EvalMode::Analytic {
                    builder = builder.eval_mode(study.eval);
                }
                if let Some(batch) = study.batch {
                    builder = builder.batch(batch);
                }
                if let Some(path) = &study.checkpoint {
                    builder = builder.checkpoint(path);
                }
                // `--cancel-after-dies N` arms a token that fires once
                // the progress counter crosses N — the in-flight chunk
                // still commits, so a `--checkpoint` file holds every
                // die scored so far and a later run resumes it.
                let token = CancelToken::new();
                let watch_token = token.clone();
                let limit = study.cancel_after_dies;
                let watch = move |p: Progress| {
                    if limit.is_some_and(|n| p.done as u64 >= n) {
                        watch_token.cancel();
                    }
                };
                if limit.is_some() {
                    builder = builder.cancel(&token).progress(&watch);
                }
                let cancelled = |what: &str| {
                    let kept = match &study.checkpoint {
                        Some(path) => format!("progress saved to {path}"),
                        None => "no --checkpoint, progress discarded".to_owned(),
                    };
                    Ok(format!(
                        "{what} study stopped by --cancel-after-dies; {kept}\n"
                    ))
                };
                let provenance = format!(
                    "(spec 110 kHz @ ≤2.9 fJ, word 11, {} model, {} supply, {} jobs, batch {})",
                    study.eval.label(),
                    supply_label(study.supply, study.solver),
                    cfg.jobs(),
                    study.batch.unwrap_or(DEFAULT_BATCH),
                );
                // `--profile-phases`: delta the process-global phase
                // timers across the run and append the attribution.
                // `--profile-phases-json` writes the same delta as JSON.
                let with_profile = profile_sink(study);
                match study.fault_plan() {
                    None => {
                        let summary = match builder.try_run_summary() {
                            Ok(summary) => summary,
                            Err(StudyError::Cancelled) => return cancelled("yield"),
                            Err(e) => return Err(e.to_string()),
                        };
                        with_profile(format!(
                            "yield over {} dies {provenance}:\n\
                             fixed {:.1}%  adaptive {:.1}%  dithered {:.1}%  mean adaptive E {}\n",
                            summary.dies,
                            summary.fixed_yield() * 100.0,
                            summary.adaptive_yield() * 100.0,
                            summary.dithered_yield() * 100.0,
                            summary
                                .mean_adaptive_energy()
                                .map_or("-".into(), |e| format!("{:.3} fJ", e.femtos()))
                        ))
                    }
                    Some(plan) => {
                        let s = match builder.faults(plan).try_run_faults() {
                            Ok(s) => s,
                            Err(StudyError::Cancelled) => return cancelled("fault"),
                            Err(e) => return Err(e.to_string()),
                        };
                        with_profile(format!(
                            "yield over {} dies {provenance}\n\
                             under faults (rate {} per domain-cycle, mitigation {}):\n\
                             fixed {:.1}%  adaptive {:.1}%  dithered {:.1}%  mean adaptive E {}\n\
                             tracking error {:.2} LSB, recovery {:.3} fJ/die, \
                             {} watchdog trips, {} faults injected\n",
                            s.dies(),
                            plan.tdc_rate,
                            if plan.mitigation { "on" } else { "off" },
                            s.fixed_yield() * 100.0,
                            s.adaptive_yield() * 100.0,
                            s.base.dithered_yield() * 100.0,
                            s.base
                                .mean_adaptive_energy()
                                .map_or("-".into(), |e| format!("{:.3} fJ", e.femtos())),
                            s.mean_tracking_error(),
                            s.mean_recovery_energy().femtos(),
                            s.watchdog_trips,
                            s.faults_injected,
                        ))
                    }
                }
            }
            Command::Matrix {
                op,
                study,
                per_cell,
            } => {
                let cfg = study.exec();
                let rate = study.faults.unwrap_or(0.02);
                let plan = FaultPlan::uniform(rate).with_mitigation(study.mitigation);
                let mut cells = Vec::new();
                for supply in [
                    SupplyBackendKind::Buck,
                    SupplyBackendKind::Dldo,
                    SupplyBackendKind::Dlr,
                ] {
                    for corner in [ProcessCorner::Tt, ProcessCorner::Ss, ProcessCorner::Ff] {
                        for faults in [None, Some(plan)] {
                            cells.push(MatrixCell {
                                supply,
                                env: Environment::at_corner(corner).with_celsius(op.celsius),
                                faults,
                            });
                        }
                    }
                }
                let build_base = || {
                    let mut b = StudyConfig::new(study.dies, study.seed)
                        .tech(op.technology())
                        .solver(study.solver)
                        .exec(cfg);
                    if study.eval != EvalMode::Analytic {
                        b = b.eval_mode(study.eval);
                    }
                    if let Some(batch) = study.batch {
                        b = b.batch(batch);
                    }
                    b
                };
                let with_profile = profile_sink(study);
                let results: Vec<CellSummary> = if *per_cell {
                    if study.checkpoint.is_some() {
                        return Err(
                            "--checkpoint needs the fused engine; drop --per-cell".to_owned()
                        );
                    }
                    // The slow reference: one standalone study per
                    // cell. Byte-identical to the fused path by the
                    // matrix engine's contract — that is what
                    // tests/matrix_equivalence.rs pins.
                    cells
                        .iter()
                        .map(|cell| {
                            let base = build_base().supply_backend(cell.supply).env(cell.env);
                            match cell.faults {
                                None => CellSummary::Yield(base.run_summary()),
                                Some(plan) => CellSummary::Faults(base.faults(plan).run_faults()),
                            }
                        })
                        .collect()
                } else {
                    let mut base = build_base();
                    if let Some(path) = &study.checkpoint {
                        base = base.checkpoint(path);
                    }
                    let token = CancelToken::new();
                    let watch_token = token.clone();
                    let limit = study.cancel_after_dies;
                    let watch = move |p: Progress| {
                        if limit.is_some_and(|n| p.done as u64 >= n) {
                            watch_token.cancel();
                        }
                    };
                    if limit.is_some() {
                        base = base.cancel(&token).progress(&watch);
                    }
                    let matrix = cells.iter().fold(StudyMatrix::new(base), |m, c| {
                        m.cell(c.supply, c.env, c.faults)
                    });
                    match matrix.try_run() {
                        Ok(results) => results,
                        Err(StudyError::Cancelled) => {
                            let kept = match &study.checkpoint {
                                Some(path) => format!("progress saved to {path}"),
                                None => "no --checkpoint, progress discarded".to_owned(),
                            };
                            return Ok(format!(
                                "matrix study stopped by --cancel-after-dies; {kept}\n"
                            ));
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                };
                let mut out = format!(
                    "study matrix over {} dies × {} cells (spec 110 kHz @ ≤2.9 fJ, {} model, \
                     {} solver, {} jobs, batch {}, fault rate {rate}, mitigation {}):\n",
                    study.dies,
                    cells.len(),
                    study.eval.label(),
                    solver_label(study.solver),
                    cfg.jobs(),
                    study.batch.unwrap_or(DEFAULT_BATCH),
                    if study.mitigation { "on" } else { "off" },
                );
                for (cell, result) in cells.iter().zip(&results) {
                    out.push_str(&matrix_line(cell, result));
                }
                with_profile(out)
            }
            Command::Suite {
                path,
                out,
                checkpoint_dir,
                jobs,
            } => {
                let files = scenario_files(path)?;
                let mut summaries = Vec::new();
                let mut combined = String::new();
                for (idx, file) in files.iter().enumerate() {
                    let name = file.display();
                    let text = std::fs::read_to_string(file).map_err(|e| format!("{name}: {e}"))?;
                    let scenario =
                        StudyScenario::from_toml(&text).map_err(|e| format!("{name}: {e}"))?;
                    let stem = file
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("scenario")
                        .to_owned();
                    let checkpoint = match checkpoint_dir {
                        Some(dir) => {
                            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                            Some(std::path::Path::new(dir).join(format!("{stem}.svcp")))
                        }
                        None => None,
                    };
                    let opts = RunOptions {
                        exec: jobs.map(ExecConfig::with_jobs),
                        checkpoint,
                    };
                    let report = scenario
                        .try_run(&opts)
                        .map_err(|e| format!("{name}: {e}"))?;
                    match out {
                        Some(dir) => {
                            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                            let txt = std::path::Path::new(dir).join(format!("{stem}.txt"));
                            let json = std::path::Path::new(dir).join(format!("{stem}.json"));
                            std::fs::write(&txt, report.to_text())
                                .map_err(|e| format!("{}: {e}", txt.display()))?;
                            std::fs::write(&json, report.to_json())
                                .map_err(|e| format!("{}: {e}", json.display()))?;
                            summaries.push(format!(
                                "{stem}: {} cells, fingerprint {:016x}, wrote {} and {}",
                                report.cells.len(),
                                scenario.fingerprint(),
                                txt.display(),
                                json.display(),
                            ));
                        }
                        None => {
                            if idx > 0 {
                                combined.push('\n');
                            }
                            combined.push_str(&report.to_text());
                        }
                    }
                }
                Ok(if out.is_some() {
                    summaries.join("\n") + "\n"
                } else {
                    combined
                })
            }
            Command::Fig6 { solver } => {
                let result = run_transient(
                    ConverterParams::default().with_solver(*solver),
                    Box::new(NoLoad),
                    &fig6_schedule(),
                );
                let mut out = String::new();
                for seg in &result.segments {
                    out.push_str(&format!(
                        "word {:2} → settled {:.2} mV (target {:.2}, ripple {:.2} mV)\n",
                        seg.word,
                        seg.settled.millivolts(),
                        seg.target.millivolts(),
                        seg.ripple.millivolts()
                    ));
                }
                out.push_str(&format!("solver: {}\n", solver_label(*solver)));
                Ok(out)
            }
            Command::Table1 => {
                let rows = reproduce_table1(&Technology::st_130nm(), Environment::nominal())
                    .map_err(|e| e.to_string())?;
                let mut out = String::new();
                for (row, &(label, paper)) in rows.iter().zip(PAPER_SIGNATURES.iter()) {
                    out.push_str(&format!("{label}: {}   (paper {paper})\n", row.hex()));
                }
                Ok(out)
            }
            Command::Savings { supply, solver } => {
                // The transient controller only models the buck stage
                // electrically; the dldo/dlr backends run the worked
                // example on the ideal rail and report their own
                // closed-form regulation figures alongside it.
                let scenario_supply = match supply {
                    SupplyBackendKind::Buck => SupplyKind::Switched,
                    _ => SupplyKind::Ideal,
                };
                let mut scenario = Scenario::paper_worked_example().with_supply(scenario_supply);
                scenario.config.converter = scenario.config.converter.with_solver(*solver);
                let report = savings_experiment(&scenario).map_err(|e| e.to_string())?;
                let mut out = format!(
                    "worked example (TT design on SS die): LUT {:+} LSB, \
                     {:.1}% vs fixed supply, {:.1}% vs uncompensated",
                    report.compensated.compensation,
                    report.savings_vs_fixed() * 100.0,
                    report.savings_vs_uncompensated() * 100.0
                );
                match supply {
                    SupplyBackendKind::Buck => {
                        out.push_str(&format!(
                            "\nbuck supply ({} solver): converter loss {:.3} fJ",
                            solver_label(*solver),
                            report.compensated.account.converter().femtos()
                        ));
                    }
                    SupplyBackendKind::Dldo | SupplyBackendKind::Dlr => {
                        if let SupplySim::Regulated(model) = supply.build_sim(*solver) {
                            out.push_str(&format!(
                                "\n{} backend at word 11: ripple {:.3} mV pp, \
                                 settle {} cycle(s), regulation {:.1} fJ/cycle",
                                model.tag(),
                                model.point(11).ripple().millivolts(),
                                model.response_cycles(),
                                model.regulation_energy_per_cycle().femtos()
                            ));
                        }
                    }
                    SupplyBackendKind::Ideal => {}
                }
                Ok(out)
            }
        }
    }
}

/// Builds the report post-processor behind `--profile-phases` and
/// `--profile-phases-json`: both delta the process-global phase timers
/// across the run — one appends the human-readable block to the
/// report, the other writes the JSON form to a file. Pure observation;
/// the report numbers are unchanged.
fn profile_sink(study: &StudyArgs) -> impl Fn(String) -> Result<String, String> + '_ {
    let before =
        (study.profile_phases || study.profile_phases_json.is_some()).then(PhaseProfile::snapshot);
    move |report: String| {
        let Some(before) = &before else {
            return Ok(report);
        };
        let delta = PhaseProfile::snapshot().since(before);
        if let Some(path) = &study.profile_phases_json {
            std::fs::write(path, delta.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        }
        Ok(if study.profile_phases {
            format!("{report}{delta}\n")
        } else {
            report
        })
    }
}

/// One row of the matrix report — a pure function of the cell and its
/// summary, so the fused and `--per-cell` paths render identically.
fn matrix_line(cell: &MatrixCell, result: &CellSummary) -> String {
    let head = format!(
        "{:<5} {}  {:<7}",
        cell.supply.label(),
        cell.env.corner,
        if cell.faults.is_some() {
            "faulted"
        } else {
            "clean"
        },
    );
    match result {
        CellSummary::Yield(s) => format!(
            "{head}  fixed {:5.1}%  adaptive {:5.1}%  dithered {:5.1}%  mean E {}\n",
            s.fixed_yield() * 100.0,
            s.adaptive_yield() * 100.0,
            s.dithered_yield() * 100.0,
            s.mean_adaptive_energy()
                .map_or("-".into(), |e| format!("{:.3} fJ", e.femtos())),
        ),
        CellSummary::Faults(s) => format!(
            "{head}  fixed {:5.1}%  adaptive {:5.1}%  dithered {:5.1}%  mean E {}  \
             trk {:.2} LSB  {} trips  {} faults\n",
            s.fixed_yield() * 100.0,
            s.adaptive_yield() * 100.0,
            s.base.dithered_yield() * 100.0,
            s.base
                .mean_adaptive_energy()
                .map_or("-".into(), |e| format!("{:.3} fJ", e.femtos())),
            s.mean_tracking_error(),
            s.watchdog_trips,
            s.faults_injected,
        ),
    }
}

/// Human label for a solver mode (used in provenance lines).
fn solver_label(solver: SolverMode) -> &'static str {
    match solver {
        SolverMode::ClosedForm => "closed-form",
        SolverMode::Rk4 => "rk4",
    }
}

/// Human label for a supply choice (used in provenance lines).
fn supply_label(supply: SupplyBackendKind, solver: SolverMode) -> String {
    match supply {
        SupplyBackendKind::Buck => format!("buck[{}]", solver_label(solver)),
        other => other.label().to_owned(),
    }
}

/// CLI usage text.
pub const USAGE: &str = "subvt — variation resilient adaptive controller toolkit

USAGE:
    subvt <command> [flags]

COMMANDS:
    mep       locate the minimum-energy point
    delay     print a gate delay         (needs --vdd-mv)
    sense     run the TDC sensor once    (needs --word)
    sweep     CSV energy sweep
    yield     Monte-Carlo parametric yield (streaming, parallel)
    matrix    the 18-cell supply × corner × fault shoot-out, scored on
              one shared die stream by the fused study-matrix engine
    suite     run a scenario corpus — a `.toml` study file, or every
              `.toml` in a directory — on the fused engine and render
              the shared report (text, and JSON with --out)
    fig6      converter transient summary
    table1    quantizer signatures vs the paper
    savings   the paper's worked example
    help      this text

FLAGS:
    --tech 130|65        technology preset       (default 130)
    --corner SS|TT|FF|FS|SF                      (default TT)
    --temp <celsius>                             (default 25)
    --activity <0..1>    switching factor        (default 0.1)
    --vdd-mv <mv>        supply for delay/sense
    --word <0..63>       voltage word for sense
    --gate inv|nand|nor  gate for delay          (default inv)
    --from-mv/--to-mv/--steps   sweep range      (default 120..600, 24)
    --dies <n>           yield population size   (default 500)
    --jobs <n>           worker threads          (default: SUBVT_JOBS
                         env var, else all cores; any value gives
                         bit-identical results)
    --seed <n>           yield root seed         (default 1)
    --batch <n>          dies scored per SoA sub-batch on the yield
                         summary path (default 32; any value gives
                         bit-identical results)
    --checkpoint <file>  chunk-granular checkpoint for yield: resumes
                         an interrupted study bit-identically, even at
                         a different --jobs/--batch; a finished file
                         replays its result without rescoring, and a
                         mismatched or damaged file is an error, never
                         silently restarted
    --cancel-after-dies <n>     stop the yield study gracefully once
                         ~n dies are scored (the in-flight chunk still
                         commits); pair with --checkpoint to resume
    --profile-phases     append the batched hot path's per-phase wall
                         time (die draw, fixed lane, word settle,
                         adaptive lanes, dither settle, dither
                         check, plus the
                         fault-seed replay and schedule draw and
                         the fault walk when a fault cell runs)
                         to the report — pure observation, results
                         unchanged
    --profile-phases-json <file>    write the same per-phase profile
                         as JSON to <file> after a yield/matrix run
    --per-cell           matrix only: score each cell with its own
                         standalone study instead of the fused engine
                         (slow reference mode; identical report)
    --eval analytic|tabulated   device model for yield: the exact
                         analytic model (default) or precomputed
                         monotone-cubic surfaces (≤1% accuracy
                         budget, much faster Monte-Carlo)
    --supply ideal|buck|dldo|dlr   supply backend for yield/savings:
                         an ideal rail (default), the buck converter,
                         a time-interleaved digital LDO, or a
                         discrete-time linear regulator — regulated
                         backends score rate at the ripple trough and
                         energy at the cycle mean
    --solver closed-form|rk4    converter solver for fig6 and
                         buck-supply runs (default closed-form;
                         rk4 is the reference integrator)
    --faults <0..1>      per-cycle fault rate for yield: inject
                         deterministic TDC/converter/controller
                         faults at this probability per domain-cycle
                         (default: no injection; for matrix, the rate
                         of the faulted half of the grid, default 0.02)
    --mitigation on|off  graceful-degradation machinery (triple-sample
                         TDC vote, signature debounce, LUT scrub, rail
                         watchdog) for faulted yield runs (default on)

SUITE FLAGS (suite <path> only — scenario files own the study knobs):
    --out <dir>          write <stem>.txt and <stem>.json per scenario
                         instead of printing the text reports
    --checkpoint-dir <dir>      arm a <stem>.svcp checkpoint per
                         scenario (resume/replay semantics as
                         --checkpoint)
    --jobs <n>           worker threads (runtime-only; report bytes
                         identical at any value)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, ParseCliError> {
        let args: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
        Command::parse(&args)
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert!(Command::Help.run().unwrap().contains("USAGE"));
    }

    #[test]
    fn mep_with_flags() {
        let c = parse(&["mep", "--corner", "SS", "--temp", "85", "--activity", "0.2"]).unwrap();
        match c {
            Command::Mep(op) => {
                assert_eq!(op.corner, ProcessCorner::Ss);
                assert_eq!(op.celsius, 85.0);
                assert_eq!(op.activity, 0.2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mep_runs_and_reports() {
        let out = parse(&["mep"]).unwrap().run().unwrap();
        assert!(out.contains("200"), "{out}");
        assert!(out.contains("2.65"), "{out}");
    }

    #[test]
    fn mep_on_the_65nm_node() {
        let out = parse(&["mep", "--tech", "65"]).unwrap().run().unwrap();
        assert!(out.contains("generic-65nm"), "{out}");
    }

    #[test]
    fn delay_requires_vdd() {
        assert!(parse(&["delay"]).is_err());
        let out = parse(&["delay", "--vdd-mv", "600"]).unwrap().run().unwrap();
        assert!(out.contains("0.442"), "{out}");
    }

    #[test]
    fn sense_detects_corner() {
        let out = parse(&["sense", "--word", "19", "--corner", "SS"])
            .unwrap()
            .run()
            .unwrap();
        assert!(out.contains("deviation -"), "{out}");
    }

    #[test]
    fn sweep_emits_csv() {
        let out = parse(&["sweep", "--steps", "4"]).unwrap().run().unwrap();
        assert!(out.starts_with("vdd_mv,total_fj"));
        assert_eq!(out.lines().count(), 6);
    }

    #[test]
    fn sweep_validates_range() {
        assert!(parse(&["sweep", "--from-mv", "700", "--to-mv", "600"]).is_err());
        assert!(parse(&["sweep", "--steps", "0"]).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        let e = parse(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        let e = parse(&["mep", "--corner", "XX"]).unwrap_err();
        assert!(e.to_string().contains("XX"));
        let e = parse(&["mep", "--tech", "45"]).unwrap_err();
        assert!(e.to_string().contains("unknown tech"));
        let e = parse(&["sense", "--word", "99"]).unwrap_err();
        assert!(e.to_string().contains("0..=63"));
        let e = parse(&["mep", "--temp"]).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
        let e = parse(&["mep", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("unknown flag"));
    }

    #[test]
    fn yield_parses_flags_and_runs() {
        let c = parse(&["yield", "--dies", "64", "--jobs", "2", "--seed", "9"]).unwrap();
        assert_eq!(
            c,
            Command::Yield {
                op: Operating::default(),
                study: StudyArgs {
                    dies: 64,
                    jobs: Some(2),
                    seed: 9,
                    ..StudyArgs::new()
                },
            }
        );
        let out = c.run().unwrap();
        assert!(out.contains("yield over 64 dies"), "{out}");
        assert!(out.contains("2 jobs"), "{out}");

        // Thread count must not change the numbers.
        let serial = parse(&["yield", "--dies", "64", "--jobs", "1", "--seed", "9"])
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.replace("2 jobs", "1 jobs"), serial);
    }

    #[test]
    fn yield_profile_phases_appends_the_profile_block() {
        let plain = parse(&["yield", "--dies", "48", "--seed", "9"])
            .unwrap()
            .run()
            .unwrap();
        assert!(!plain.contains("phase profile"), "{plain}");

        let profiled = parse(&["yield", "--dies", "48", "--seed", "9", "--profile-phases"])
            .unwrap()
            .run()
            .unwrap();
        assert!(profiled.starts_with(&plain), "{profiled}");
        assert!(profiled.contains("phase profile"), "{profiled}");
        for phase in [
            "draw",
            "word settle",
            "dither settle",
            "dither check",
            "total",
        ] {
            assert!(profiled.contains(phase), "missing {phase}: {profiled}");
        }
    }

    #[test]
    fn yield_validates_flags() {
        assert!(parse(&["yield", "--dies", "0"]).is_err());
        assert!(parse(&["yield", "--jobs", "0"]).is_err());
        assert!(parse(&["yield", "--jobs"]).is_err());
        assert!(parse(&["yield", "--eval", "magic"]).is_err());
        assert!(parse(&["yield", "--eval"]).is_err());
    }

    #[test]
    fn yield_accepts_the_tabulated_model() {
        let c = parse(&[
            "yield",
            "--dies",
            "48",
            "--eval",
            "tabulated",
            "--seed",
            "9",
        ])
        .unwrap();
        match &c {
            Command::Yield { study, .. } => assert_eq!(study.eval, EvalMode::Tabulated),
            other => panic!("{other:?}"),
        }
        let out = c.run().unwrap();
        assert!(out.contains("tabulated model"), "{out}");

        // The ≤1% interpolation budget keeps every die on the same
        // settled word, but dies sitting right on the spec boundary can
        // flip pass/fail, so the yields agree within a few dies rather
        // than exactly.
        let analytic = parse(&["yield", "--dies", "48", "--seed", "9"])
            .unwrap()
            .run()
            .unwrap();
        let yields = |s: &str| -> Vec<f64> {
            s.split('%')
                .filter_map(|chunk| chunk.rsplit(' ').next()?.parse().ok())
                .collect()
        };
        let (t, a) = (yields(&out), yields(&analytic));
        assert_eq!(t.len(), 3, "{out}");
        assert_eq!(a.len(), 3, "{analytic}");
        for (t, a) in t.iter().zip(&a) {
            assert!((t - a).abs() <= 10.0, "{out}\nvs\n{analytic}");
        }
    }

    #[test]
    fn yield_accepts_fault_injection() {
        let c = parse(&[
            "yield",
            "--dies",
            "40",
            "--seed",
            "9",
            "--faults",
            "0.02",
            "--mitigation",
            "off",
            "--jobs",
            "2",
        ])
        .unwrap();
        match &c {
            Command::Yield { study, .. } => {
                assert_eq!(study.faults, Some(0.02));
                assert!(!study.mitigation);
            }
            other => panic!("{other:?}"),
        }
        let out = c.run().unwrap();
        assert!(out.contains("rate 0.02 per domain-cycle"), "{out}");
        assert!(out.contains("mitigation off"), "{out}");
        assert!(out.contains("faults injected"), "{out}");

        // Worker count must not change the faulted numbers either.
        let serial = parse(&[
            "yield",
            "--dies",
            "40",
            "--seed",
            "9",
            "--faults",
            "0.02",
            "--mitigation",
            "off",
            "--jobs",
            "1",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(out.replace("2 jobs", "1 jobs"), serial);

        assert!(parse(&["yield", "--faults", "1.5"]).is_err());
        assert!(parse(&["yield", "--mitigation", "maybe"]).is_err());
    }

    #[test]
    fn table1_and_savings_run() {
        let t = parse(&["table1"]).unwrap().run().unwrap();
        assert!(t.contains("1.2V"), "{t}");
        let s = parse(&["savings"]).unwrap().run().unwrap();
        assert!(s.contains("+1 LSB"), "{s}");
        assert!(!s.contains("converter loss"), "{s}");
    }

    #[test]
    fn savings_on_the_buck_supply_books_converter_loss() {
        // Both the new spelling and the deprecated alias reach the
        // converter-backed scenario.
        for raw in ["buck", "switched"] {
            let s = parse(&["savings", "--supply", raw]).unwrap().run().unwrap();
            assert!(s.contains("buck supply (closed-form solver)"), "{s}");
            assert!(s.contains("converter loss"), "{s}");
        }
    }

    #[test]
    fn savings_on_the_new_backends_reports_their_figures() {
        let s = parse(&["savings", "--supply", "dldo"])
            .unwrap()
            .run()
            .unwrap();
        assert!(s.contains("dldo backend at word 11"), "{s}");
        assert!(s.contains("settle 1 cycle"), "{s}");
        let s = parse(&["savings", "--supply", "dlr"])
            .unwrap()
            .run()
            .unwrap();
        assert!(s.contains("dlr backend at word 11"), "{s}");
        assert!(s.contains("regulation 6.0 fJ/cycle"), "{s}");
    }

    #[test]
    fn yield_accepts_the_buck_supply() {
        let c = parse(&[
            "yield", "--dies", "24", "--supply", "buck", "--jobs", "2", "--seed", "9",
        ])
        .unwrap();
        match &c {
            Command::Yield { study, .. } => assert_eq!(study.supply, SupplyBackendKind::Buck),
            other => panic!("{other:?}"),
        }
        let out = c.run().unwrap();
        assert!(out.contains("buck[closed-form] supply"), "{out}");

        // Worker count must not change the buck numbers either.
        let serial = parse(&[
            "yield", "--dies", "24", "--supply", "buck", "--jobs", "1", "--seed", "9",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(out.replace("2 jobs", "1 jobs"), serial);

        // The deprecated alias is the same study, byte for byte.
        let alias = parse(&[
            "yield", "--dies", "24", "--supply", "switched", "--jobs", "1", "--seed", "9",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(alias, serial);
    }

    #[test]
    fn yield_runs_on_the_new_backends_deterministically() {
        for supply in ["dldo", "dlr"] {
            let run = |jobs: &str| {
                parse(&[
                    "yield", "--dies", "24", "--supply", supply, "--jobs", jobs, "--seed", "9",
                ])
                .unwrap()
                .run()
                .unwrap()
            };
            let parallel = run("2");
            assert!(parallel.contains(&format!("{supply} supply")), "{parallel}");
            assert_eq!(parallel.replace("2 jobs", "1 jobs"), run("1"), "{supply}");
        }
    }

    #[test]
    fn matrix_parses_runs_and_is_jobs_invariant() {
        let c = parse(&["matrix", "--dies", "12", "--seed", "9", "--jobs", "2"]).unwrap();
        match &c {
            Command::Matrix {
                study, per_cell, ..
            } => {
                assert_eq!(study.dies, 12);
                assert!(!per_cell);
            }
            other => panic!("{other:?}"),
        }
        let out = c.run().unwrap();
        assert!(out.contains("12 dies × 18 cells"), "{out}");
        assert!(out.contains("fault rate 0.02, mitigation on"), "{out}");
        // Header plus one row per cell.
        assert_eq!(out.lines().count(), 19, "{out}");
        for label in ["buck", "dldo", "dlr", "TT", "SS", "FF", "clean", "faulted"] {
            assert!(out.contains(label), "missing {label}: {out}");
        }

        let serial = parse(&["matrix", "--dies", "12", "--seed", "9", "--jobs", "1"])
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.replace("2 jobs", "1 jobs"), serial);
    }

    #[test]
    fn matrix_per_cell_reference_mode_is_byte_identical() {
        let fused = parse(&["matrix", "--dies", "10", "--seed", "9", "--jobs", "2"])
            .unwrap()
            .run()
            .unwrap();
        let per_cell = parse(&[
            "matrix",
            "--dies",
            "10",
            "--seed",
            "9",
            "--jobs",
            "2",
            "--per-cell",
        ])
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(fused, per_cell);

        // The reference mode cannot drive the fused checkpoint format.
        let e = parse(&[
            "matrix",
            "--dies",
            "10",
            "--per-cell",
            "--checkpoint",
            "/tmp/never-written.svcp",
        ])
        .unwrap()
        .run()
        .unwrap_err();
        assert!(e.contains("fused"), "{e}");
    }

    #[test]
    fn profile_phases_json_writes_the_profile_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("subvt-cli-profile-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();

        let out = parse(&[
            "matrix",
            "--dies",
            "8",
            "--seed",
            "9",
            "--profile-phases-json",
            &path_str,
        ])
        .unwrap()
        .run()
        .unwrap();
        // The JSON flag alone does not alter the report text.
        assert!(!out.contains("phase profile"), "{out}");

        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("subvt-phase-profile-v1"), "{json}");
        for key in [
            "shared_draw_nanos",
            "fault_walk_nanos",
            "draw_nanos",
            "dither_settle_nanos",
            "dither_check_nanos",
            "total_nanos",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
    }

    #[test]
    fn fig6_reports_its_solver() {
        let c = parse(&["fig6", "--solver", "rk4"]).unwrap();
        assert_eq!(
            c,
            Command::Fig6 {
                solver: SolverMode::Rk4
            }
        );
        let out = c.run().unwrap();
        assert!(out.contains("solver: rk4"), "{out}");
    }

    #[test]
    fn supply_and_solver_flags_are_validated() {
        assert!(parse(&["yield", "--supply", "battery"]).is_err());
        assert!(parse(&["yield", "--supply"]).is_err());
        assert!(parse(&["fig6", "--solver", "euler"]).is_err());
        assert!(parse(&["fig6", "--solver"]).is_err());
    }
}
