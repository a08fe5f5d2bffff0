//! `suite_many`: a corpus of scenario TOMLs generated from the seed,
//! each run through `Scenario::from_toml` → `try_run` (with its own
//! checkpoint) → `to_text` + `to_json`. Fixed cost per study dominates
//! here — tabulated table builds, supply-model builds, parsing,
//! checkpoint creation, rendering — so this is where caching or
//! sharing across studies would show; `yield_fleet` shows none of it.
//! It is also the only workload that reaches the device layer through
//! tabulated interpolation.

use subvt_rng::{Rng, StdRng};
use subvt_scenario::{RunOptions, Scenario};

use super::{digest, timed, Checks, Ctx, Op, Rep, Workload};
use crate::trace::Tracer;

const SUPPLIES: [&str; 4] = ["ideal", "buck", "dldo", "dlr"];
const EVALS: [&str; 2] = ["analytic", "tabulated"];
const CORNERS: [&str; 5] = ["SS", "SF", "TT", "FS", "FF"];

/// Scenario shapes: (corners, fault rates, dies in units). Every
/// supply × eval pair gets each shape once, so the corpus's total work
/// is the same for every seed; the seed picks the corners, the study
/// seeds and the order.
const SHAPES: [(usize, &[f64], usize); 6] = [
    (1, &[0.0], 4),
    (1, &[0.02], 1),
    (2, &[0.0, 0.005], 2),
    (3, &[0.0], 3),
    (5, &[0.0], 1),
    (1, &[0.0, 0.005, 0.02], 2),
];

/// One generated scenario.
#[derive(Debug, Clone)]
struct Generated {
    toml: String,
    dies: usize,
    cells: usize,
}

/// Generates `count` scenarios from `seed`. Slot `i` takes stratum
/// `7i mod 48` of the supply × eval × shape cross product (a
/// permutation, since 7 and 48 are coprime), so even a short corpus
/// mixes shapes, evals and supplies.
fn corpus(seed: u64, count: usize, die_unit: usize) -> Vec<Generated> {
    let strata = SUPPLIES.len() * EVALS.len() * SHAPES.len();
    let mut rng = StdRng::seed_from_u64(seed).fork("suite-corpus");
    let mut out: Vec<Generated> = (0..count)
        .map(|i| {
            let k = (7 * i) % strata;
            let supply = SUPPLIES[k % SUPPLIES.len()];
            let eval = EVALS[(k / SUPPLIES.len()) % EVALS.len()];
            let (n_corners, rates, units) = SHAPES[k / (SUPPLIES.len() * EVALS.len())];
            let mut corners = CORNERS.to_vec();
            for j in 0..n_corners {
                let pick = j + (rng.next_u64() % (corners.len() - j) as u64) as usize;
                corners.swap(j, pick);
            }
            let corners: Vec<String> = corners[..n_corners]
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect();
            let rates: Vec<String> = rates.iter().map(|r| format!("{r:?}")).collect();
            let dies = units * die_unit;
            let study_seed = rng.next_u64() >> 16;
            let toml = format!(
                "name = \"generated-{i:02}\"\n\n\
                 [study]\ndies = {dies}\nseed = {study_seed}\neval = \"{eval}\"\nsupply = \"{supply}\"\n\n\
                 [matrix]\ncorners = [{}]\nfault_rates = [{}]\n\n\
                 [report]\ntitle = \"Generated scenario ({{dies}} dies per cell, seed {{seed}})\"\n",
                corners.join(", "),
                rates.join(", "),
            );
            Generated {
                toml,
                dies,
                cells: n_corners * rates.len(),
            }
        })
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    out
}

pub struct SuiteMany {
    ctx: Ctx,
    corpus: Vec<Generated>,
}

impl SuiteMany {
    pub fn new(ctx: Ctx) -> SuiteMany {
        SuiteMany {
            ctx,
            corpus: Vec::new(),
        }
    }
}

impl Workload for SuiteMany {
    fn name(&self) -> &'static str {
        "suite_many"
    }

    fn setup(&mut self, t: &mut Tracer) {
        let sizes = self.ctx.sizes;
        self.corpus = t.span("corpus.generate", |_| {
            corpus(self.ctx.seed, sizes.suite_scenarios, sizes.suite_die_unit)
        });
        for g in &self.corpus {
            let parsed = t.span("scenario.parse", |_| Scenario::from_toml(&g.toml));
            std::hint::black_box(parsed.is_ok());
        }
    }

    fn rep(&mut self, t: &mut Tracer, checkpoint: bool) -> Rep {
        let mut rep = Rep::default();
        let exec = Some(self.ctx.exec());
        for (i, g) in self.corpus.iter().enumerate() {
            t.set_run(i as u64);
            let path = self.ctx.fresh_checkpoint(&format!("suite-{i:02}"));
            let opts = RunOptions {
                exec,
                checkpoint: checkpoint.then(|| path.clone()),
            };
            let (secs, out) = timed(|| {
                let scenario = t
                    .span("scenario.parse", |_| Scenario::from_toml(&g.toml))
                    .map_err(|e| format!("generated-{i:02}: {e}"))?;
                if t.is_on() {
                    t.span("scenario.compile", |_| {
                        std::hint::black_box((scenario.study_config(), scenario.cell_plans()))
                    });
                }
                let report = t
                    .span("scenario.run", |_| scenario.try_run(&opts))
                    .map_err(|e| format!("generated-{i:02}: {e}"))?;
                let text = t.span("scenario.render_text", |_| report.to_text());
                let json = t.span("scenario.render_json", |_| report.to_json());
                Ok((report, text, json))
            });
            let digest = out.and_then(|(report, text, json)| {
                if report.cells.len() != g.cells {
                    return Err(format!(
                        "generated-{i:02}: {} cells reported, {} expected",
                        report.cells.len(),
                        g.cells
                    ));
                }
                rep.die_cells += (g.dies * g.cells) as u64;
                rep.report_bytes += (text.len() + json.len()) as u64;
                for cell in &report.cells {
                    rep.faults_injected += cell.faults_injected.unwrap_or(0);
                    rep.watchdog_trips += cell.watchdog_trips.unwrap_or(0);
                }
                Ok(digest(&[text.as_bytes(), json.as_bytes()]))
            });
            if checkpoint {
                rep.checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            }
            rep.ops.push(Op { secs, digest });
        }
        rep
    }

    /// The corpus changes with the seed, so there are no reference
    /// values; the golden-corpus gate checks this path's bytes.
    fn check_reference(&self, _checks: &mut Checks) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_is_seeded_and_its_work_is_not() {
        let a = corpus(2009, 48, 1000);
        let b = corpus(2009, 48, 1000);
        let c = corpus(7, 48, 1000);
        let texts = |g: &[Generated]| g.iter().map(|x| x.toml.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b), "same seed, same corpus");
        assert_ne!(texts(&a), texts(&c), "another seed, another corpus");
        let work = |g: &[Generated]| {
            let mut w: Vec<(usize, usize)> = g.iter().map(|x| (x.dies, x.cells)).collect();
            w.sort_unstable();
            w
        };
        assert_eq!(work(&a), work(&c), "the seed must not change the work");
        for g in &a {
            let s = Scenario::from_toml(&g.toml).expect("generated scenarios parse");
            assert_eq!(s.cell_plans().len(), g.cells);
            assert!((1000..=4000).contains(&s.study.dies));
        }
    }
}
