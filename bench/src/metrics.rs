//! The metric catalogue and the comparison rule.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with
//! their regression bounds; a test pins the two lists together, and
//! `compare` reads the bounds from that file.

use crate::json::Value;
use crate::stats::{median, quartiles};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Absolute change below which a difference never counts, for
    /// values so small that a relative bound is all timer noise.
    pub floor: f64,
}

/// Every end-to-end metric, reported for every workload. This is a
/// batch simulator, so work per second is the user-facing speed;
/// operation latency is printed beside it but carries no bound.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "die_cells_per_s",
        unit: "cells/s",
        better: Better::Higher,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        floor: 50e-6,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        floor: 1.0,
    },
];

/// Every per-layer metric of a traced run: name, unit, direction.
/// Shares are fractions of a base the README states per family;
/// counts are deltas of the program's own counters over the traced
/// pass. Counts that only witness equal work (`faults.*`,
/// `controller.cycles`, `exec.chunks`) have no good direction and are
/// listed as lower-is-better.
pub const PER_LAYER: [(&str, &str, Better); 49] = [
    ("core.draw_share", "frac", Better::Lower),
    ("core.fixed_lane_share", "frac", Better::Lower),
    ("core.word_settle_share", "frac", Better::Lower),
    ("core.adaptive_lanes_share", "frac", Better::Lower),
    ("core.dither_settle_share", "frac", Better::Lower),
    ("core.shared_draw_share", "frac", Better::Lower),
    ("core.fault_walk_share", "frac", Better::Lower),
    ("core.phase_coverage", "frac", Better::Higher),
    ("core.sub_batches", "count", Better::Lower),
    ("setup.share", "frac", Better::Lower),
    ("study.run_summary_share", "frac", Better::Lower),
    ("matrix.try_run_share", "frac", Better::Lower),
    ("savings.summary_share", "frac", Better::Lower),
    ("exec.cpu_util", "frac", Better::Higher),
    ("exec.chunks", "count", Better::Lower),
    ("exec.checkpoint_bytes", "bytes", Better::Lower),
    ("exec.checkpoint_write_frac", "frac", Better::Lower),
    ("exec.checkpoint_replay_share", "frac", Better::Lower),
    ("device.eval_build_share", "frac", Better::Lower),
    ("device.table_build_share", "frac", Better::Lower),
    ("device.table_builds", "count", Better::Lower),
    ("device.analytic_delay_evals", "count", Better::Lower),
    ("device.analytic_energy_evals", "count", Better::Lower),
    ("device.interp_hits", "count", Better::Lower),
    ("device.exact_fallbacks", "count", Better::Lower),
    ("device.cache_hits", "count", Better::Higher),
    ("device.interp_hit_ratio", "frac", Better::Higher),
    ("regulators.build_sim_share", "frac", Better::Lower),
    ("rng.sample_die_share", "frac", Better::Lower),
    ("experiment.design_eval_share", "frac", Better::Lower),
    ("experiment.fixed_word_share", "frac", Better::Lower),
    ("controller.compensated_share", "frac", Better::Lower),
    ("controller.uncompensated_share", "frac", Better::Lower),
    ("controller.fixed_share", "frac", Better::Lower),
    ("controller.oracle_share", "frac", Better::Lower),
    ("controller.cycles", "count", Better::Lower),
    ("faults.injected", "count", Better::Lower),
    ("faults.watchdog_trips", "count", Better::Lower),
    ("scenario.parse_share", "frac", Better::Lower),
    ("scenario.compile_share", "frac", Better::Lower),
    ("scenario.run_share", "frac", Better::Lower),
    ("scenario.render_text_share", "frac", Better::Lower),
    ("scenario.render_json_share", "frac", Better::Lower),
    ("scenario.report_bytes", "bytes", Better::Lower),
    ("corpus.generate_share", "frac", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
    ("trace.coverage", "frac", Better::Higher),
    ("trace.spans", "count", Better::Lower),
    ("trace.wall_ms", "ms", Better::Lower),
];

/// The outcome of comparing one (workload, metric) pair across two
/// sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Agree,
    /// The second set is better by more than the bound.
    Improved,
    /// The second set is worse by more than the bound.
    Regressed,
    /// A set's own spread is wider than the bound, and the sets
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a` under a relative `bound` with an
/// absolute `floor`: a change counts only when it exceeds both
/// `bound × |median(a)|` and `floor`. When either set's interquartile
/// range is wider than that tolerance the pair is unresolved, unless
/// every sample of `b` beats every sample of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let tol = (bound * ma.abs()).max(floor);
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    // Positive when `b` is worse than `a`.
    let worse = match better {
        Better::Higher => ma - mb,
        Better::Lower => mb - ma,
    };
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_always_better = match better {
        Better::Higher => min(b) > max(a),
        Better::Lower => max(b) < min(a),
    };
    if iqr(a).max(iqr(b)) > tol {
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > tol {
        Verdict::Regressed
    } else if -worse > tol {
        Verdict::Improved
    } else {
        Verdict::Agree
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub verdict: Verdict,
    pub a: f64,
    pub b: f64,
}

/// One workload's entry for `metric` in a results document.
fn metric_entry<'a>(doc: &'a Value, workload: &str, metric: &str) -> Result<&'a Value, String> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
        })
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("{workload}: a results file lacks {metric}"))
}

/// A metric's samples on one side of a comparison: with one results
/// document, its timed reps; with several (a set of runs), one value per
/// run, so the spread is the run-to-run spread.
fn side_samples(docs: &[Value], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let entry = |doc| metric_entry(doc, workload, metric);
    let xs: Vec<f64> = match docs {
        [one] => entry(one)?
            .get("samples")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
        many => many
            .iter()
            .map(|doc| entry(doc).map(|m| m.get("value").and_then(Value::as_f64)))
            .collect::<Result<Option<Vec<f64>>, String>>()?
            .unwrap_or_default(),
    };
    if xs.is_empty() {
        return Err(format!("{workload}: no samples of {metric}"));
    }
    Ok(xs)
}

/// Compares two sets of `results.json` documents under the bounds of a
/// `BENCHMARK.json` document, pair by pair, for every workload of the
/// first document of `a`. Each side needs every end-to-end metric of
/// those workloads.
pub fn compare(a: &[Value], b: &[Value], benchmark: &Value) -> Result<Vec<Row>, String> {
    let bounds = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let names: Vec<String> = a
        .first()
        .and_then(|doc| doc.get("workloads"))
        .and_then(Value::as_array)
        .ok_or("the first set has no results")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    if b.is_empty() {
        return Err("the second set has no results".to_owned());
    }
    let mut rows = Vec::new();
    for name in &names {
        for m in END_TO_END {
            let bound = bounds
                .iter()
                .find(|x| x.get("name").and_then(Value::as_str) == Some(m.name))
                .and_then(|x| x.get("bound"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let xa = side_samples(a, name, m.name)?;
            let xb = side_samples(b, name, m.name)?;
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                verdict: judge(&xa, &xb, m.better, bound, m.floor),
                a: median(&xa),
                b: median(&xb),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = crate::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_of(entry, "name"), m.name);
            assert_eq!(str_of(entry, "unit"), m.unit);
            assert_eq!(str_of(entry, "better"), m.better.label());
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(entry, "name"), name);
            assert_eq!(str_of(entry, "unit"), unit);
            assert_eq!(str_of(entry, "better"), better.label());
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(run_seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn names_are_unique_and_well_formed_and_setup_has_the_widest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|l| l.0));
        names.extend(crate::workloads::NAMES);
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let doc = benchmark_json();
        let bounds: Vec<(&str, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    str_of(e, "name"),
                    e.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let setup = bounds.iter().find(|b| b.0 == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|b| b.1 <= setup), "{bounds:?}");
    }

    #[test]
    fn compare_reads_samples_and_bounds_from_the_documents() {
        let results = |scale: f64| {
            let mut e2e = Value::obj();
            for m in END_TO_END {
                let samples: Vec<f64> = [1.0, 1.01, 0.99].iter().map(|x| x * scale).collect();
                e2e.push(
                    m.name,
                    Value::obj()
                        .with("value", scale)
                        .with("samples", &samples[..]),
                );
            }
            Value::obj().with(
                "workloads",
                vec![Value::obj()
                    .with("name", "yield_fleet")
                    .with("end_to_end", e2e)],
            )
        };
        let bench = benchmark_json();
        let same = compare(&[results(100.0)], &[results(100.0)], &bench).unwrap();
        assert_eq!(same.len(), END_TO_END.len());
        assert!(same.iter().all(|r| r.verdict == Verdict::Agree), "{same:?}");
        let doubled = compare(&[results(100.0)], &[results(200.0)], &bench).unwrap();
        let verdict = |metric: &str| doubled.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("die_cells_per_s"), Verdict::Improved);
        assert_eq!(verdict("setup_s"), Verdict::Regressed);
        assert!(compare(&[results(1.0)], &[Value::obj()], &bench).is_err());
        // Sets of runs compare per-run values: run-to-run spread of
        // 100 vs 130 is wider than a 25 % bound of 100.
        let wide = [
            results(100.0),
            results(130.0),
            results(70.0),
            results(100.0),
        ];
        let rows = compare(&wide, &[results(100.0), results(101.0)], &bench).unwrap();
        assert_eq!(rows[0].a, 100.0);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn medians_inside_the_bound_agree() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(judge(&a, &b, Better::Higher, 0.05, 0.0), Verdict::Agree);
        assert_eq!(judge(&a, &b, Better::Lower, 0.05, 0.0), Verdict::Agree);
    }

    #[test]
    fn a_shift_past_the_bound_is_a_regression_or_a_gain_by_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05, 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, &b, Better::Higher, 0.05, 0.0), Verdict::Improved);
        assert_eq!(judge(&b, &a, Better::Lower, 0.05, 0.0), Verdict::Improved);
    }

    #[test]
    fn the_absolute_floor_absorbs_changes_to_near_zero_values() {
        // A 3 µs set-up doubling to 6 µs is +100 %, but under a 50 µs
        // floor it is timer noise, not a regression.
        let a = [3e-6, 3.1e-6, 2.9e-6];
        let b = [6e-6, 6.1e-6, 5.9e-6];
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.0), Verdict::Regressed);
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 50e-6), Verdict::Agree);
        // Above the floor the relative bound governs again.
        let c = [1e-3, 1.01e-3, 0.99e-3];
        let d = [2e-3, 2.01e-3, 1.99e-3];
        assert_eq!(
            judge(&c, &d, Better::Lower, 0.25, 50e-6),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05, 0.0), Verdict::Unresolved);
        let faster = [10.0, 12.0, 14.0, 11.0, 13.0];
        assert_eq!(
            judge(&a, &faster, Better::Lower, 0.05, 0.0),
            Verdict::Improved
        );
    }
}
