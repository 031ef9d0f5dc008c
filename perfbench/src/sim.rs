//! The simulator workloads: figure regeneration (`sim-sweep`), one
//! population far beyond cache (`sim-crowd`), and the traced,
//! fault-injected, checked pipeline (`sim-traced`).

use crate::report::Report;
use crate::span::Tracer;
use crate::sys;
use crate::Pass;
use ftshlint::check::{check, Verdict, WorkflowSpec};
use gridworld::coord::DagSpec;
use gridworld::figures::{by_name_full, fig8_workload, fig9_workload, FigureRun, Scale};
use gridworld::scripts;
use gridworld::SubmitParams;
use retry::{Discipline, Dur};
use simgrid::trace::TraceRecord;
use simgrid::{FaultPlan, SeriesSet, TraceSummary};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed the committed `results/` were generated with.
pub const RESULTS_SEED: u64 = 2003;

/// The largest workload seed every workload accepts. sim-traced seeds
/// fault plans with `seed..seed + COORD_SEEDS` and round-trips them
/// through `FaultPlan::parse_json`, which reads integers exactly only
/// up to 9·10^15.
pub const MAX_SEED: u64 = 9_000_000_000_000_000 - (COORD_SEEDS - 1);

/// Parse every scenario client script (all disciplines) from its
/// source text, as a user-supplied script would be.
fn parse_scenario_scripts(sources: &[String]) -> usize {
    sources
        .iter()
        .map(|s| ftsh::parse(s).expect("scenario script parses").len())
        .sum()
}

/// Source text of every scenario client script.
fn scenario_sources() -> Vec<String> {
    Discipline::ALL
        .iter()
        .flat_map(|&d| {
            [
                scripts::submit_script(d, 1000),
                scripts::buffer_script(d),
                scripts::reader_script(d),
            ]
        })
        .map(|s| ftsh::pretty(&s))
        .collect()
}

/// Shared set-up step of every sim workload: parse the scenario
/// scripts inside an `ftsh.parse` span.
fn parse_step(t: &mut Tracer, r: &mut Report) {
    let sources = scenario_sources();
    let stmts = t.span("ftsh.parse", |_| parse_scenario_scripts(&sources));
    r.check(stmts > 0, || "scenario scripts parsed to nothing".into());
}

/// A committed figure from `results/`.
fn committed(name: &str, ext: &str) -> String {
    let path = sys::repo_root()
        .join("results")
        .join(format!("{name}.{ext}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The committed figure, when `seed` is the one it was made with.
fn golden(seed: u64, name: &str, ext: &str) -> Option<String> {
    (seed == RESULTS_SEED).then(|| committed(name, ext))
}

/// Run one figure inside a `gridworld.<name>` span; a panic counts as a
/// failed call.
fn figure(
    t: &mut Tracer,
    r: &mut Report,
    pass: &mut Pass,
    name: &str,
    seed: u64,
    traced: bool,
) -> Option<FigureRun> {
    let span = format!("gridworld.{name}");
    let run = t.span(&span, |_| {
        catch_unwind(AssertUnwindSafe(|| {
            by_name_full(name, Scale::Full, seed, traced).expect("figure exists")
        }))
    });
    r.op(run.is_ok(), || format!("{name} (seed {seed}) panicked"));
    let run = run.ok()?;
    pass.call(&span, run.events_popped);
    pass.clamps += run.clamps;
    Some(run)
}

/// `sim-sweep`: fig1, fig4 and fig5 at full scale, untraced, on the
/// default sweep worker count.
pub struct Sweep {
    seed: u64,
    golden: Vec<Option<String>>,
    /// The last pass's figures (index into `SWEEP_FIGS`), checked after
    /// its clock stops.
    out: Vec<(usize, SeriesSet)>,
}

const SWEEP_FIGS: [&str; 3] = ["fig1", "fig4", "fig5"];

impl Sweep {
    /// Parse the scripts and golden files, then warm up on the
    /// quick-scale figures.
    pub fn setup(seed: u64, t: &mut Tracer, r: &mut Report) -> Sweep {
        parse_step(t, r);
        let golden = SWEEP_FIGS.iter().map(|f| golden(seed, f, "json")).collect();
        t.span("warmup", |_| {
            for f in SWEEP_FIGS {
                let run = by_name_full(f, Scale::Quick, seed, false).expect("figure exists");
                std::hint::black_box(run.set);
            }
        });
        Sweep {
            seed,
            golden,
            out: Vec::new(),
        }
    }

    /// One pass of the workload's fixed work.
    pub fn pass(&mut self, t: &mut Tracer, r: &mut Report) -> Pass {
        let mut pass = Pass::default();
        for (i, f) in SWEEP_FIGS.iter().enumerate() {
            if let Some(run) = figure(t, r, &mut pass, f, self.seed, false) {
                self.out.push((i, run.set));
            }
        }
        pass
    }

    /// Compare the last pass's figures with the committed ones.
    pub fn check(&mut self, r: &mut Report) {
        for (i, set) in self.out.drain(..) {
            let f = SWEEP_FIGS[i];
            if let Some(want) = &self.golden[i] {
                r.check(set.to_json_pretty() == *want, || {
                    format!("{f} differs from results/{f}.json")
                });
            }
        }
    }
}

/// `sim-crowd`: fig1x's 30 000-client point, Ethernet then Aloha, one
/// `run_submission` call each on this thread.
pub struct Crowd {
    seed: u64,
    /// Jobs per discipline from `results/fig1x.csv` (results seed only).
    golden: Option<[u64; 2]>,
    /// The last pass's jobs per discipline (index into
    /// `CROWD_DISCIPLINES`), checked after its clock stops.
    out: Vec<(usize, u64)>,
}

const CROWD: usize = 30_000;
const CROWD_DISCIPLINES: [Discipline; 2] = [Discipline::Ethernet, Discipline::Aloha];

/// fig1x's parameters for one population point.
fn crowd_params(d: Discipline, n: usize, seed: u64) -> SubmitParams {
    SubmitParams {
        n_clients: n,
        discipline: d,
        seed: seed ^ (n as u64),
        start_stagger: Dur::from_secs(60),
        ..SubmitParams::default()
    }
}

/// fig1x's window.
const CROWD_WINDOW: Dur = Dur::from_secs(120);

/// The `Ethernet,Aloha` jobs of the `n` row of fig1x's CSV.
fn fig1x_row(csv: &str, n: usize) -> Option<[u64; 2]> {
    let row = csv
        .lines()
        .find(|l| l.split(',').next() == Some(&n.to_string()))?;
    let v: Vec<u64> = row
        .split(',')
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some([*v.first()?, *v.get(1)?])
}

impl Crowd {
    /// Parse the scripts and golden row, then warm up on fig1x's
    /// 3 000-client Ethernet point.
    pub fn setup(seed: u64, t: &mut Tracer, r: &mut Report) -> Crowd {
        parse_step(t, r);
        let golden = golden(seed, "fig1x", "csv")
            .map(|csv| fig1x_row(&csv, CROWD).expect("results/fig1x.csv has the 30000 row"));
        t.span("warmup", |_| {
            let o = gridworld::run_submission(
                crowd_params(Discipline::Ethernet, 3_000, seed),
                CROWD_WINDOW,
            );
            std::hint::black_box(o.jobs_submitted);
        });
        Crowd {
            seed,
            golden,
            out: Vec::new(),
        }
    }

    /// One pass of the workload's fixed work.
    pub fn pass(&mut self, t: &mut Tracer, r: &mut Report) -> Pass {
        let mut pass = Pass::default();
        for (i, d) in CROWD_DISCIPLINES.into_iter().enumerate() {
            let span = format!("gridworld.crowd.{}", d.label().to_lowercase());
            let params = crowd_params(d, CROWD, self.seed);
            let o = t.span(&span, |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    gridworld::run_submission(params, CROWD_WINDOW)
                }))
            });
            r.op(o.is_ok(), || {
                format!("{span} (seed {}) panicked", self.seed)
            });
            let Ok(o) = o else { continue };
            pass.call(&span, o.events_popped);
            pass.clamps += o.queue_clamps;
            pass.jobs.push(o.jobs_submitted);
            self.out.push((i, o.jobs_submitted));
        }
        pass
    }

    /// Compare the last pass's jobs with `results/fig1x.csv`.
    pub fn check(&mut self, r: &mut Report) {
        for (i, jobs) in self.out.drain(..) {
            if let Some(want) = self.golden {
                r.check(jobs == want[i], || {
                    format!(
                        "crowd.{}: {jobs} jobs, results/fig1x.csv has {}",
                        CROWD_DISCIPLINES[i].label().to_lowercase(),
                        want[i]
                    )
                });
            }
        }
    }
}

/// `sim-traced`: fig2 and fig3 traced at full scale as committed (the
/// results seed, so their ~155k records and their checks are the same
/// every run), then fig8 and fig9 traced over seeds derived from the
/// workload seed (each with its built-in fault plan and a clean
/// `ftshlint::check` pre-flight); the records round-trip through JSONL
/// and feed the postmortem.
pub struct Traced {
    coord_seeds: Vec<u64>,
    golden: Vec<String>,
    /// What the last pass produced, checked after its clock stops.
    out: Option<TracedOut>,
}

/// The outputs of one sim-traced pass.
struct TracedOut {
    /// fig2/fig3 series (index into `TIMELINE_JOBS`).
    sets: Vec<(usize, SeriesSet)>,
    /// Every record: fig2/fig3's, then fig8/fig9's.
    records: Vec<TraceRecord>,
    /// `from_jsonl(to_jsonl(records))`.
    back: Result<Vec<TraceRecord>, String>,
    /// Records the postmortem summarised, and the length of its text.
    summarised: (u64, usize),
}

/// How many derived seeds fig8 and fig9 run over.
pub const COORD_SEEDS: u64 = 16;

/// fig2's and fig3's final job counts at the results seed.
const TIMELINE_JOBS: [(&str, f64); 2] = [("fig2", 2524.0), ("fig3", 2690.0)];

/// The fig8/fig9 workflow specs and effective fault plans the figures
/// harness checks before a run (`figures coord --check-only`).
fn coord_workflows(seed: u64, d: Discipline) -> [(&'static str, WorkflowSpec, FaultPlan, Dur); 2] {
    let (rounds, w8, plan8) = fig8_workload(Scale::Full, seed, None);
    let (w9, plan9) = fig9_workload(Scale::Full, seed, None);
    [
        (
            "fig8",
            WorkflowSpec::allreduce(
                d,
                4,
                rounds,
                Dur::from_secs(600),
                Dur::from_secs(60),
                Dur::from_secs(2),
            ),
            plan8,
            w8,
        ),
        (
            "fig9",
            WorkflowSpec::dag(
                &DagSpec::diamond(),
                d,
                Dur::from_secs(600),
                Dur::from_secs(60),
            ),
            plan9,
            w9,
        ),
    ]
}

impl Traced {
    /// Parse the scripts and every fault plan, pre-flight every
    /// fig8/fig9 run with the workflow checker, read the golden files
    /// and warm up on quick-scale fig2.
    pub fn setup(seed: u64, t: &mut Tracer, r: &mut Report) -> Traced {
        parse_step(t, r);
        let coord_seeds: Vec<u64> = (0..COORD_SEEDS).map(|i| seed.wrapping_add(i)).collect();
        for &s in &coord_seeds {
            for d in Discipline::ALL {
                for (name, spec, plan, horizon) in coord_workflows(s, d) {
                    let text = plan.to_json();
                    let parsed = t.span("simgrid.faults.parse", |_| FaultPlan::parse_json(&text));
                    r.check(parsed.as_ref() == Ok(&plan), || {
                        format!("{name} fault plan (seed {s}) does not round-trip")
                    });
                    let report = t.span(&format!("ftshlint.check.{name}"), |_| {
                        check(&spec, parsed.as_ref().ok(), horizon)
                    });
                    r.check(report.verdict == Verdict::Clean, || {
                        format!("{name}/{d:?} (seed {s}) pre-flight: {}", report.verdict)
                    });
                }
            }
        }
        let golden = TIMELINE_JOBS
            .iter()
            .map(|(f, _)| committed(f, "json"))
            .collect();
        t.span("warmup", |_| {
            let run = by_name_full("fig2", Scale::Quick, seed, true).expect("figure exists");
            std::hint::black_box(run.trace);
        });
        Traced {
            coord_seeds,
            golden,
            out: None,
        }
    }

    /// One pass of the workload's fixed work.
    pub fn pass(&mut self, t: &mut Tracer, r: &mut Report) -> Pass {
        let mut pass = Pass::default();
        let mut sets = Vec::new();
        let mut records: Vec<TraceRecord> = Vec::new();
        for (i, (f, _)) in TIMELINE_JOBS.iter().enumerate() {
            if let Some(run) = figure(t, r, &mut pass, f, RESULTS_SEED, true) {
                records.extend(run.trace.unwrap_or_default());
                sets.push((i, run.set));
            }
        }
        let timeline = records.len();
        for &s in &self.coord_seeds {
            for f in ["fig8", "fig9"] {
                if let Some(run) = figure(t, r, &mut pass, f, s, true) {
                    records.extend(run.trace.unwrap_or_default());
                }
            }
        }
        let text = t.span("simgrid.trace.encode", |_| {
            simgrid::trace::to_jsonl(&records)
        });
        let back = t.span("simgrid.trace.decode", |_| {
            simgrid::trace::from_jsonl(&text)
        });
        let summarised = t.span("simgrid.postmortem", |_| {
            let summary = TraceSummary::from_records(&records);
            let text = summary.render() + &simgrid::postmortem::render_rounds(&records[timeline..]);
            (summary.records, text.len())
        });
        pass.records = records.len() as u64;
        pass.bytes = text.len() as u64;
        self.out = Some(TracedOut {
            sets,
            records,
            back,
            summarised,
        });
        pass
    }

    /// Check the last pass's figures, JSONL round trip and postmortem.
    pub fn check(&mut self, r: &mut Report) {
        let Some(out) = self.out.take() else {
            return;
        };
        for (i, set) in &out.sets {
            let (f, jobs) = TIMELINE_JOBS[*i];
            let last = set
                .get("Jobs Submitted")
                .and_then(|s| s.points.last())
                .map(|p| p.1);
            r.check(last == Some(jobs), || {
                format!("{f}: final jobs {last:?}, expected {jobs}")
            });
            r.check(set.to_json_pretty() == self.golden[*i], || {
                format!("{f} differs from results/{f}.json")
            });
        }
        r.check(out.back.as_ref() == Ok(&out.records), || {
            "from_jsonl(to_jsonl(records)) != records".into()
        });
        let (summarised, rendered) = out.summarised;
        r.check(
            summarised == out.records.len() as u64 && rendered > 0,
            || "postmortem did not summarise every record".into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1x_row_reads_both_disciplines() {
        let csv = "Number of Submitters,Ethernet,Aloha\n1000,108,62\n30000,5,0\n";
        assert_eq!(fig1x_row(csv, 30_000), Some([5, 0]));
        assert_eq!(fig1x_row(csv, 7), None);
    }

    #[test]
    fn scenario_scripts_round_trip_through_source() {
        let sources = scenario_sources();
        assert_eq!(sources.len(), 9);
        assert!(parse_scenario_scripts(&sources) >= sources.len());
    }
}
