//! The run loop every workload shares, and what it reports.
//!
//! Load model: one process, a closed loop — one study in flight at a
//! time, the next rep starting when the previous one returns — on
//! `min(2, cores)` worker threads. Per workload: the correctness gates,
//! one untimed warm-up rep, then timed set-up + rep pairs for the run
//! length (at least `Sizes::min_reps`), with a host-speed probe
//! (`crate::probe`) before the first rep and after each one.
//! End-to-end values are medians over the timed pairs; throughput is
//! scaled by the probes. A traced run then makes one traced
//! pass — set-up plus one rep with a span around every call — and
//! derives the per-layer ledger from its spans and the program's own
//! counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use subvt_core::PhaseProfile;
use subvt_device::metrics::MetricsSnapshot;

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe;
use crate::stats::{median, quartiles, tail};
use crate::sys;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Checks, Ctx, Rep, Workload};

/// A reported figure with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    fn of(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn to_json(&self) -> Value {
        let (q1, q3) = quartiles(&self.samples);
        Value::obj()
            .with("unit", self.unit)
            .with("value", self.value)
            .with("q1", q1)
            .with("q3", q3)
            .with("samples", &self.samples[..])
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub checks: Checks,
    /// The `END_TO_END` metrics, in catalogue order.
    pub end_to_end: Vec<Metric>,
    /// Figures printed beside them that not every workload has.
    pub extras: Vec<Metric>,
    /// The `PER_LAYER` metrics of the traced pass, in catalogue order.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn fail_frac(&self) -> f64 {
        self.checks.failures.len() as f64 / self.checks.attempted.max(1) as f64
    }

    /// `workload metric value unit` lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in self.end_to_end.iter().chain(&self.extras) {
            out.push(format!(
                "{} {} {} {}",
                self.workload, m.name, m.value, m.unit
            ));
        }
        for (name, unit, value) in &self.layers {
            out.push(format!("{} {name} {value} {unit}", self.workload));
        }
        out
    }

    /// The last line a run prints: the end-to-end metrics, or with a
    /// trace the per-layer ones.
    pub fn result_line(&self, traced: bool) -> Value {
        let mut metrics = Value::obj();
        if traced {
            for (name, unit, value) in &self.layers {
                metrics.push(name, Value::obj().with("value", *value).with("unit", *unit));
            }
        } else {
            for m in &self.end_to_end {
                metrics.push(
                    &m.name,
                    Value::obj().with("value", m.value).with("unit", m.unit),
                );
            }
        }
        Value::obj()
            .with("correct", self.checks.failures.is_empty())
            .with("attempted", self.checks.attempted)
            .with("failed", self.checks.failures.len())
            .with("metrics", metrics)
    }

    /// This workload's entry in `results.json`.
    pub fn to_json(&self) -> Value {
        let mut e2e = Value::obj();
        for m in &self.end_to_end {
            e2e.push(&m.name, m.to_json());
        }
        let mut extras = Value::obj();
        for m in &self.extras {
            extras.push(&m.name, m.to_json());
        }
        let mut doc = Value::obj()
            .with("name", self.workload)
            .with("attempted", self.checks.attempted)
            .with("failed", self.checks.failures.len())
            .with(
                "failures",
                self.checks
                    .failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("end_to_end", e2e)
            .with("extras", extras);
        if !self.layers.is_empty() {
            let mut layers = Value::obj();
            for (name, unit, value) in &self.layers {
                layers.push(name, Value::obj().with("value", *value).with("unit", *unit));
            }
            doc.push("per_layer", layers);
        }
        doc
    }

    /// This workload's entry in `trace.json`.
    pub fn trace_json(&self) -> Value {
        let mut self_ns = Value::obj();
        for (name, ns) in trace::self_by_name(&self.spans) {
            self_ns.push(name, ns);
        }
        Value::obj()
            .with("name", self.workload)
            .with("coverage", trace::coverage(&self.spans))
            .with("self_ns", self_ns)
            .with("spans", trace::to_json(&self.spans))
    }
}

/// Books one rep's operations: each fails if it errored, or if its
/// output bytes differ from the warm-up rep's.
fn book(name: &str, rep: &Rep, warm: &Rep, checks: &mut Checks) {
    for (i, op) in rep.ops.iter().enumerate() {
        checks.op(match (&op.digest, warm.ops.get(i).map(|w| &w.digest)) {
            (Err(e), _) => Some(format!("{name} op {i}: {e}")),
            (Ok(d), Some(Ok(first))) if d == first => None,
            (Ok(_), _) => Some(format!(
                "{name} op {i}: output differs from the warm-up rep"
            )),
        });
    }
}

/// Runs one workload end to end; with `traced`, also the traced pass.
pub fn run(w: &mut dyn Workload, ctx: &Ctx, repo: &Path, seconds: f64, traced: bool) -> Outcome {
    let name = w.name();
    let mut checks = Checks::default();
    crate::gate::golden_corpus(repo, ctx, &mut checks);
    w.gate(&mut checks);
    sys::reset_peak_rss();

    // Each rep is preceded by its own set-up, so the set-up samples
    // spread over the whole run like the reps do.
    let mut off = Tracer::off();
    w.setup(&mut off);
    let warm = w.rep(&mut off, true);
    for (i, op) in warm.ops.iter().enumerate() {
        checks.op(op
            .digest
            .as_ref()
            .err()
            .map(|e| format!("{name} warm-up op {i}: {e}")));
    }
    w.check_reference(&mut checks);

    let start = Instant::now();
    let mut setup: Vec<f64> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut probes = vec![probe::probe_secs()];
    while reps.len() < ctx.sizes.min_reps.max(1) || start.elapsed().as_secs_f64() < seconds {
        let set_up = Instant::now();
        w.setup(&mut off);
        setup.push(set_up.elapsed().as_secs_f64());
        let rep = w.rep(&mut off, true);
        probes.push(probe::probe_secs());
        book(name, &rep, &warm, &mut checks);
        reps.push(rep);
    }
    let peak = sys::peak_rss_mb().unwrap_or(0.0);

    let rep_secs: Vec<f64> = reps.iter().map(Rep::op_secs).collect();
    let op_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.ops.iter().map(|op| op.secs * 1e3))
        .collect();
    let wall_rate: Vec<f64> = reps
        .iter()
        .map(|r| r.die_cells as f64 / r.op_secs())
        .collect();
    let end_to_end = vec![
        Metric::of(
            END_TO_END[0].name,
            END_TO_END[0].unit,
            wall_rate
                .iter()
                .zip(probe::rep_scales(&probes))
                .map(|(rate, scale)| rate * scale)
                .collect(),
        ),
        Metric::of(END_TO_END[1].name, END_TO_END[1].unit, setup),
        Metric::of(END_TO_END[2].name, END_TO_END[2].unit, vec![peak]),
    ];
    let mut extras = vec![
        Metric::of("die_cells_per_wall_s", "cells/s", wall_rate),
        Metric::of("probe_ms", "ms", probes.iter().map(|s| s * 1e3).collect()),
        Metric::of("ops", "count", vec![op_ms.len() as f64]),
        Metric::of("op_ms_p50", "ms", op_ms.clone()),
    ];
    if let Some((level, value)) = tail(&op_ms) {
        extras.push(Metric {
            name: format!("op_ms_p{level}"),
            unit: "ms",
            value,
            samples: vec![value],
        });
    }
    let replay_ms: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.replay_secs)
        .map(|s| s * 1e3)
        .collect();
    if !replay_ms.is_empty() {
        extras.push(Metric::of("replay_ms", "ms", replay_ms));
    }

    let mut outcome = Outcome {
        workload: name,
        checks,
        end_to_end,
        extras,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if traced {
        traced_pass(w, ctx, &warm, median(&rep_secs), &mut outcome);
    }
    let fail_frac = outcome.fail_frac();
    outcome
        .extras
        .insert(0, Metric::of("fail_frac", "frac", vec![fail_frac]));
    outcome
}

/// The traced pass and the ledger derived from it.
fn traced_pass(
    w: &mut dyn Workload,
    ctx: &Ctx,
    warm: &Rep,
    untraced_secs: f64,
    outcome: &mut Outcome,
) {
    let mut t = Tracer::on();
    let cpu0 = sys::process_cpu_s();
    let phases0 = PhaseProfile::snapshot();
    let device0 = MetricsSnapshot::snapshot();
    let rep = t.span("pass", |t| {
        t.span("setup", |t| w.setup(t));
        w.rep(t, true)
    });
    let cpu_ns = match (cpu0, sys::process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) * 1e9,
        _ => 0.0,
    };
    let phases = PhaseProfile::snapshot().since(&phases0);
    let device = MetricsSnapshot::snapshot().since(&device0);
    book(w.name(), &rep, warm, &mut outcome.checks);

    // The same rep without checkpoint files: the checkpoint-write cost
    // is the difference to the untraced reps, which all write one.
    let write_frac = if rep.checkpoint_bytes > 0 {
        let plain = w.rep(&mut Tracer::off(), false);
        book(w.name(), &plain, warm, &mut outcome.checks);
        1.0 - plain.op_secs() / untraced_secs
    } else {
        0.0
    };
    let cycles = w.replica(&mut t, &mut outcome.checks);

    let spans = t.spans().to_vec();
    let own = trace::self_by_name(&spans);
    let own_ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let incl_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pass_ns = incl_ns("pass");
    let pass_share = |name: &str| ratio(own_ns(name), pass_ns);
    let die_ns = incl_ns("savings.die") - incl_ns("check.savings_eval");
    let die_share = |name: &str| ratio(own_ns(name), die_ns);
    let interp = device.interp_hits() as f64;

    let values: BTreeMap<&str, f64> = [
        ("core.draw_share", ratio(phases.draw_nanos as f64, cpu_ns)),
        (
            "core.fixed_lane_share",
            ratio(phases.fixed_nanos as f64, cpu_ns),
        ),
        (
            "core.word_settle_share",
            ratio(phases.settle_word_nanos as f64, cpu_ns),
        ),
        (
            "core.adaptive_lanes_share",
            ratio(phases.adaptive_lane_nanos as f64, cpu_ns),
        ),
        (
            "core.dither_settle_share",
            ratio(phases.dither_nanos as f64, cpu_ns),
        ),
        (
            "core.shared_draw_share",
            ratio(phases.shared_draw_nanos as f64, cpu_ns),
        ),
        (
            "core.fault_walk_share",
            ratio(phases.fault_walk_nanos as f64, cpu_ns),
        ),
        (
            "core.phase_coverage",
            ratio(phases.total_nanos() as f64, cpu_ns),
        ),
        ("core.sub_batches", phases.sub_batches as f64),
        ("setup.share", ratio(incl_ns("setup"), pass_ns)),
        ("study.run_summary_share", pass_share("study.run_summary")),
        ("matrix.try_run_share", pass_share("matrix.try_run")),
        ("savings.summary_share", pass_share("savings.summary")),
        ("exec.cpu_util", ratio(cpu_ns, pass_ns * ctx.jobs as f64)),
        ("exec.chunks", rep.chunks as f64),
        ("exec.checkpoint_bytes", rep.checkpoint_bytes as f64),
        ("exec.checkpoint_write_frac", write_frac),
        (
            "exec.checkpoint_replay_share",
            pass_share("exec.checkpoint_replay"),
        ),
        ("device.eval_build_share", pass_share("device.eval_build")),
        (
            "device.table_build_share",
            ratio(device.table_build_nanos as f64, pass_ns),
        ),
        ("device.table_builds", device.table_builds as f64),
        (
            "device.analytic_delay_evals",
            device.analytic_delay_evals as f64,
        ),
        (
            "device.analytic_energy_evals",
            device.analytic_energy_evals as f64,
        ),
        ("device.interp_hits", interp),
        ("device.exact_fallbacks", device.exact_fallbacks as f64),
        ("device.cache_hits", device.cache_hits as f64),
        (
            "device.interp_hit_ratio",
            ratio(interp, interp + device.exact_fallbacks as f64),
        ),
        (
            "regulators.build_sim_share",
            pass_share("regulators.build_sim"),
        ),
        ("rng.sample_die_share", die_share("rng.sample_die")),
        (
            "experiment.design_eval_share",
            die_share("experiment.design_eval"),
        ),
        (
            "experiment.fixed_word_share",
            die_share("experiment.fixed_word"),
        ),
        (
            "controller.compensated_share",
            die_share("controller.run.compensated"),
        ),
        (
            "controller.uncompensated_share",
            die_share("controller.run.uncompensated"),
        ),
        ("controller.fixed_share", die_share("controller.run.fixed")),
        (
            "controller.oracle_share",
            die_share("controller.run.oracle"),
        ),
        ("controller.cycles", cycles as f64),
        ("faults.injected", rep.faults_injected as f64),
        ("faults.watchdog_trips", rep.watchdog_trips as f64),
        ("scenario.parse_share", pass_share("scenario.parse")),
        ("scenario.compile_share", pass_share("scenario.compile")),
        ("scenario.run_share", pass_share("scenario.run")),
        (
            "scenario.render_text_share",
            pass_share("scenario.render_text"),
        ),
        (
            "scenario.render_json_share",
            pass_share("scenario.render_json"),
        ),
        ("scenario.report_bytes", rep.report_bytes as f64),
        ("corpus.generate_share", pass_share("corpus.generate")),
        (
            "trace.overhead_frac",
            ratio(rep.op_secs(), untraced_secs) - 1.0,
        ),
        ("trace.coverage", trace::coverage(&spans)),
        ("trace.spans", spans.len() as f64),
        ("trace.wall_ms", pass_ns / 1e6),
    ]
    .into_iter()
    .collect();
    outcome.layers = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("ledger omits {name}"));
            (name, unit, value)
        })
        .collect();
    debug_assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "ledger computes a metric the catalogue lacks"
    );
    outcome.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Sizes, NAMES};

    #[test]
    fn every_workload_runs_clean_at_a_tiny_size() {
        let scratch = crate::out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        for name in NAMES {
            let ctx = Ctx {
                seed: crate::DEFAULT_SEED,
                jobs: sys::jobs(),
                sizes: Sizes::tiny(),
                scratch: scratch.clone(),
            };
            let mut w = by_name(name, ctx.clone()).expect("a listed workload");
            let outcome = run(w.as_mut(), &ctx, &crate::repo_root(), 0.0, true);
            assert_eq!(
                outcome.fail_frac(),
                0.0,
                "{name}: {:?}",
                outcome.checks.failures
            );
            assert!(
                outcome.checks.attempted > 3,
                "{name}: gate, warm-up and reps all count"
            );
            assert_eq!(outcome.end_to_end.len(), END_TO_END.len());
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{name} {}: {}", m.name, m.value);
            }
            assert_eq!(outcome.layers.len(), PER_LAYER.len());
            let layer = |metric: &str| outcome.layers.iter().find(|l| l.0 == metric).unwrap().2;
            assert!(layer("trace.wall_ms") > 0.0, "{name}");
            assert!(layer("trace.coverage") > 0.5, "{name}");
            let line = outcome.result_line(true).to_string();
            assert!(Value::parse(&line).is_ok(), "{line}");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
