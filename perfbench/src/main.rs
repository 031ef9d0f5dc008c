//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <sim-sweep|sim-crowd|sim-traced|gridd-verbs|all>
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the workload up several times, then repeats its
//! fixed work for `--seconds` and reports the end-to-end metrics.
//! `--trace 1` produces the per-layer table whichever workload is
//! named: every workload is set up and run once untraced and once
//! traced (spans, allocation counting, CPU clocks), followed by the
//! isolated layer probes. Every output is
//! checked; the last line of stdout is the JSON verdict, and a failed
//! check exits 1. See `README.md` for the workloads and the
//! layer-to-metric map.

mod probes;
mod report;
mod sim;
mod span;
mod stats;
mod sys;
mod verbs;

use report::{Metric, Report};
use simgrid::faults::json;
use span::Tracer;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups in a traced run (their spans feed the set-up layer metrics).
const SETUP_REPS: usize = 5;
/// Fewest measured passes per untraced run, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    SimSweep,
    SimCrowd,
    SimTraced,
    GriddVerbs,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::SimSweep,
        Kind::SimCrowd,
        Kind::SimTraced,
        Kind::GriddVerbs,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::SimSweep => "sim-sweep",
            Kind::SimCrowd => "sim-crowd",
            Kind::SimTraced => "sim-traced",
            Kind::GriddVerbs => "gridd-verbs",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether every pass does bit-identical simulated work.
    fn is_sim(self) -> bool {
        self != Kind::GriddVerbs
    }
}

/// What one pass of fixed work did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    /// Events popped (sim) or responses decoded (gridd).
    pub ops: u64,
    /// Per layer call: span name and events popped.
    pub calls: Vec<(String, u64)>,
    /// Past-scheduled events clamped to now.
    pub clamps: u64,
    /// Jobs submitted per crowd run.
    pub jobs: Vec<u64>,
    /// Trace records round-tripped through JSONL.
    pub records: u64,
    /// Bytes of the encoded trace.
    pub bytes: u64,
    /// VM ticks (process-wide counter delta).
    pub ticks: u64,
    /// Process and generator-thread CPU seconds (gridd).
    pub cpu: Option<(f64, f64)>,
}

impl Pass {
    /// Count a layer call and its events.
    pub fn call(&mut self, name: &str, events: u64) {
        self.ops += events;
        self.calls.push((name.to_string(), events));
    }

    /// The deterministic part, which must repeat exactly between passes.
    fn counts(&self) -> Pass {
        Pass {
            cpu: None,
            ..self.clone()
        }
    }
}

/// A set-up workload.
enum Bench {
    Sweep(sim::Sweep),
    Crowd(sim::Crowd),
    Traced(sim::Traced),
    Verbs(Box<verbs::Verbs>),
}

impl Bench {
    fn setup(kind: Kind, seed: u64, t: &mut Tracer, r: &mut Report) -> Option<Bench> {
        Some(match kind {
            Kind::SimSweep => Bench::Sweep(sim::Sweep::setup(seed, t, r)),
            Kind::SimCrowd => Bench::Crowd(sim::Crowd::setup(seed, t, r)),
            Kind::SimTraced => Bench::Traced(sim::Traced::setup(seed, t, r)),
            Kind::GriddVerbs => match verbs::Verbs::setup(seed, t, r) {
                Ok(v) => Bench::Verbs(Box::new(v)),
                Err(e) => {
                    r.fail(format!("gridd set-up: {e}"));
                    return None;
                }
            },
        })
    }

    /// Run one pass, timing it and counting VM ticks around it. Its
    /// outputs are checked by [`Bench::check`], outside the clock.
    fn pass(&mut self, t: &mut Tracer, r: &mut Report) -> (Pass, f64) {
        let ticks0 = gridworld::driver::vm_ticks_total();
        let start = Instant::now();
        let mut p = match self {
            Bench::Sweep(b) => b.pass(t, r),
            Bench::Crowd(b) => b.pass(t, r),
            Bench::Traced(b) => b.pass(t, r),
            Bench::Verbs(b) => b.pass(t, r),
        };
        let wall = start.elapsed().as_secs_f64();
        p.ticks = gridworld::driver::vm_ticks_total() - ticks0;
        (p, wall)
    }

    /// Check the last pass's outputs.
    fn check(&mut self, r: &mut Report) {
        match self {
            Bench::Sweep(b) => b.check(r),
            Bench::Crowd(b) => b.check(r),
            Bench::Traced(b) => b.check(r),
            // Each response is checked as it arrives, like a client's.
            Bench::Verbs(_) => {}
        }
    }

    fn finish(self, r: &mut Report) {
        if let Bench::Verbs(v) = self {
            v.finish(r);
        }
    }
}

/// Set up `SETUP_REPS` times, keeping the last.
fn setup_reps(kind: Kind, seed: u64, t: &mut Tracer, r: &mut Report) -> Option<Bench> {
    let mut kept: Option<Bench> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.finish(r);
        }
        kept = t.span(&format!("setup.{}", kind.name()), |t| {
            Bench::setup(kind, seed, t, r)
        });
        kept.as_ref()?;
    }
    kept
}

/// Check that every pass did exactly the first pass's simulated work.
fn check_repeats(kind: Kind, passes: &[Pass], r: &mut Report) {
    if !kind.is_sim() {
        return;
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        r.check(p.counts() == passes[0].counts(), || {
            format!(
                "{}: pass {i} did different work than pass 0 ({:?} vs {:?})",
                kind.name(),
                p.counts(),
                passes[0].counts()
            )
        });
    }
    for p in passes {
        r.check(p.clamps == 0, || {
            format!("{}: {} queue clamps", kind.name(), p.clamps)
        });
    }
}

/// gridd client latencies in µs: the read/write/submit groups users see,
/// then p50 and p99 per verb class.
fn latencies(latency_us: &[Vec<f64>; 6]) -> Vec<(String, f64)> {
    let group = |classes: &[usize]| -> Vec<f64> {
        classes
            .iter()
            .flat_map(|&c| latency_us[c].iter().copied())
            .collect()
    };
    let (read, write, submit) = (group(&[0, 1, 2, 3]), group(&[4]), group(&[5]));
    let mut out = vec![
        ("read_p50_us".to_string(), median(&read)),
        ("read_p99_us".to_string(), tail(&read, 0.99).value),
        ("write_p50_us".to_string(), median(&write)),
        ("write_p99_us".to_string(), tail(&write, 0.99).value),
        ("submit_p50_us".to_string(), median(&submit)),
    ];
    for (i, class) in verbs::CLASSES.iter().enumerate() {
        let s = &latency_us[i];
        let t99 = tail(s, 0.99);
        out.push((format!("gridd.{class}.p50_us"), median(s)));
        out.push((format!("gridd.{class}.p99_us"), t99.value));
    }
    out
}

/// Sample counts per verb class, and the percentile a short sample
/// reports in place of p99.
fn sample_notes(latency_us: &[Vec<f64>; 6], r: &mut Report) {
    for (i, class) in verbs::CLASSES.iter().enumerate() {
        let s = &latency_us[i];
        r.info(format!("gridd.{class}.samples"), "count", s.len() as f64);
        let t99 = tail(s, 0.99);
        if t99.q < 0.99 {
            r.info(format!("gridd.{class}.p99_is_p"), "%", t99.q * 100.0);
        }
    }
}

/// `--trace 0`: the end-to-end metrics of one workload. Passes run on
/// one long-lived set-up (gridd's daemon keeps serving); before every
/// later pass a fresh set-up is timed and discarded, so set-up samples
/// spread over the run the way pass samples do.
fn run_untraced(kind: Kind, seed: u64, seconds: u64) -> Report {
    let mut r = Report::default();
    let mut off = Tracer::new(false);
    let timed_setup = |r: &mut Report, setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let bench = Bench::setup(kind, seed, &mut Tracer::new(false), r);
        setups.push(t0.elapsed().as_secs_f64());
        bench
    };
    let mut setups = Vec::new();
    let Some(mut bench) = timed_setup(&mut r, &mut setups) else {
        return r;
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut passes, mut walls) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        if !passes.is_empty() {
            match timed_setup(&mut r, &mut setups) {
                Some(fresh) => fresh.finish(&mut r),
                None => break,
            }
        }
        let (p, wall) = bench.pass(&mut off, &mut r);
        bench.check(&mut r);
        if passes.is_empty() {
            // What a user's one-shot run holds: set-up plus one pass.
            // Later passes only add allocator reuse noise.
            peak_rss_mb = sys::peak_rss_mb();
        }
        passes.push(p);
        walls.push(wall);
        if r.failed > 0 {
            break;
        }
    }
    if let Bench::Verbs(v) = &bench {
        for (name, us) in latencies(&v.latency_us) {
            r.info(name, "us", us);
        }
        sample_notes(&v.latency_us, &mut r);
    }
    bench.finish(&mut r);
    check_repeats(kind, &passes, &mut r);
    let rates: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| p.ops as f64 / w)
        .collect();
    r.metric("setup_s", "s", median(&setups));
    r.metric("wall_s", "s", median(&walls));
    r.metric("ops_per_s", "1/s", median(&rates));
    r.walls = walls;
    r.setups = setups;
    r.metric("peak_rss_mb", "MiB", peak_rss_mb);
    r.info("peak_rss_mb.whole_run", "MiB", sys::peak_rss_mb());
    r.info("passes", "count", passes.len() as f64);
    r.info(
        "ops_per_pass",
        "count",
        median(&passes.iter().map(|p| p.ops as f64).collect::<Vec<_>>()),
    );
    if let Some(p) = passes.first() {
        if kind.is_sim() {
            r.info("gridworld.events", "count", p.ops as f64);
            r.info("gridworld.vm_ticks", "count", p.ticks as f64);
        }
        if kind == Kind::SimTraced {
            r.info("simgrid.trace.records", "count", p.records as f64);
        }
    }
    r
}

/// One workload's untraced and traced pass inside a traced run (a
/// gridd pass carries 1000 submits, so submit p99 has ten
/// samples beyond it).
struct Passes {
    untraced: (Pass, f64),
    traced: (Pass, f64),
    /// Process CPU seconds over the traced pass.
    cpu_s: f64,
    /// Allocations over the traced pass.
    allocs: u64,
}

/// `--trace 1`: the per-layer table. Every workload runs once untraced
/// and once traced; the probes run last.
fn run_traced(seed: u64) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut segs: Vec<(Kind, Passes)> = Vec::new();
    let mut recorded = Vec::new();
    for kind in Kind::ALL {
        t.next_run();
        let Some(mut bench) = setup_reps(kind, seed, &mut t, &mut r) else {
            return r;
        };
        let untraced = bench.pass(&mut off, &mut r);
        bench.check(&mut r);
        if let Bench::Verbs(v) = &mut bench {
            // The users' view comes from the untraced pass.
            for (name, us) in latencies(&v.latency_us) {
                if !name.starts_with("gridd.") {
                    r.metric(name, "us", us);
                }
            }
            v.latency_us = Default::default();
        }
        t.next_run();
        sys::count_allocs(true);
        let (cpu0, a0) = (sys::process_cpu_s(), sys::allocs());
        let traced = t.span(&format!("pass.{}", kind.name()), |t| bench.pass(t, &mut r));
        let (cpu_s, allocs) = (sys::process_cpu_s() - cpu0, sys::allocs() - a0);
        sys::count_allocs(false);
        bench.check(&mut r);
        check_repeats(kind, &[untraced.0.clone(), traced.0.clone()], &mut r);
        if let Bench::Verbs(v) = &mut bench {
            for (name, us) in latencies(&v.latency_us) {
                if name.starts_with("gridd.") {
                    r.metric(name, "us", us);
                }
            }
            sample_notes(&v.latency_us, &mut r);
            recorded = std::mem::take(&mut v.recorded);
        }
        bench.finish(&mut r);
        segs.push((
            kind,
            Passes {
                untraced,
                traced,
                cpu_s,
                allocs,
            },
        ));
    }
    r.spans = t.spans().to_vec();
    layer_metrics(&segs, &mut r);
    sys::count_allocs(true);
    probes::vm_probe(&mut r);
    sys::count_allocs(false);
    probes::queue_probe(&mut r, seed);
    verbs::codec_probe(&recorded, &mut r);
    r
}

/// Per-layer metrics from the spans and passes of a traced run.
fn layer_metrics(segs: &[(Kind, Passes)], r: &mut Report) {
    let spans = r.spans.clone();
    let agg = span::by_name(&spans);
    let span_us = |name: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-3)
            .collect();
        median(&d)
    };
    let self_s = |name: &str| agg.get(name).map_or(0.0, |&(_, _, own)| own as f64 * 1e-9);

    r.metric("ftsh.parse_us", "us", span_us("ftsh.parse"));
    r.metric(
        "simgrid.faults.parse_us",
        "us",
        span_us("simgrid.faults.parse"),
    );
    for f in ["fig8", "fig9"] {
        r.metric(
            format!("ftshlint.check_us.{f}"),
            "us",
            span_us(&format!("ftshlint.check.{f}")),
        );
    }

    let (mut events, mut ticks, mut clamps) = (0u64, 0u64, 0u64);
    let (mut sim_allocs, mut sim_ticks) = (0u64, 0u64);
    for (kind, seg) in segs {
        let (untraced, traced) = (seg.untraced.1, seg.traced.1);
        r.metric(
            format!("trace.{}.overhead_s", kind.name()),
            "s",
            traced - untraced,
        );
        r.info(
            format!("trace.{}.untraced_wall_s", kind.name()),
            "s",
            untraced,
        );
        r.info(format!("trace.{}.traced_wall_s", kind.name()), "s", traced);
        let (pass, wall) = &seg.traced;
        match kind {
            Kind::GriddVerbs => {
                let verbs = pass.ops;
                let (proc_cpu, gen_cpu) = pass.cpu.unwrap_or_default();
                let server = proc_cpu - gen_cpu;
                let loops = gridd::GriddConfig::default().resolved_threads() as f64;
                r.metric(
                    "gridd.server_cpu_us_per_verb",
                    "us",
                    server * 1e6 / verbs as f64,
                );
                r.metric(
                    "gridd.client_cpu_us_per_verb",
                    "us",
                    gen_cpu * 1e6 / verbs as f64,
                );
                r.metric("gridd.busy_share", "ratio", server / (wall * loops));
                r.info("gridd.verbs", "count", verbs as f64);
            }
            _ => {
                events += pass.ops;
                ticks += pass.ticks;
                clamps += pass.clamps;
                let mut per_call: BTreeMap<&str, u64> = BTreeMap::new();
                for (name, ev) in &pass.calls {
                    *per_call.entry(name).or_default() += ev;
                }
                for (name, events) in per_call {
                    let total_ns = agg.get(name).map_or(0, |a| a.1) as f64;
                    r.metric(format!("{name}.self_s"), "s", self_s(name));
                    r.metric(
                        format!("{name}.ns_per_event"),
                        "ns",
                        total_ns / events as f64,
                    );
                }
                r.info(format!("{}.events", kind.name()), "count", pass.ops as f64);
                r.info(
                    format!("{}.vm_ticks", kind.name()),
                    "count",
                    pass.ticks as f64,
                );
                if *kind != Kind::SimTraced {
                    sim_allocs += seg.allocs;
                    sim_ticks += pass.ticks;
                }
                if *kind == Kind::SimSweep {
                    let workers = gridworld::sweep::configured_threads(usize::MAX) as f64;
                    r.metric(
                        "gridworld.sweep.cpu_share",
                        "ratio",
                        seg.cpu_s / (wall * workers),
                    );
                    r.info("gridworld.sweep.workers", "count", workers);
                }
                if *kind == Kind::SimTraced {
                    r.metric("simgrid.trace.records", "count", pass.records as f64);
                    r.metric("simgrid.trace.bytes", "bytes", pass.bytes as f64);
                    for (m, s) in [
                        ("simgrid.trace.encode_s", "simgrid.trace.encode"),
                        ("simgrid.trace.decode_s", "simgrid.trace.decode"),
                        ("simgrid.postmortem_s", "simgrid.postmortem"),
                    ] {
                        r.metric(m, "s", self_s(s));
                    }
                }
            }
        }
    }
    r.metric("gridworld.events", "count", events as f64);
    r.metric("gridworld.vm_ticks", "count", ticks as f64);
    r.metric("gridworld.queue_clamps", "count", clamps as f64);
    r.metric(
        "gridworld.allocs_per_tick",
        "allocs/tick",
        sim_allocs as f64 / sim_ticks.max(1) as f64,
    );
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = sys::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    let entries = doc
        .as_object()
        .and_then(|o| json::get(o, section))
        .and_then(json::Value::as_array)
        .unwrap_or_default();
    entries
        .iter()
        .filter_map(|e| {
            let e = e.as_object()?;
            let field = |key| Some(json::get(e, key)?.as_str()?.to_string());
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// Fail the run unless its verdict metrics are exactly the ones
/// `BENCHMARK.json` declares for this mode, with the same units, and
/// every value is finite.
fn check_declared(traced: bool, r: &mut Report) {
    let want = declared(if traced { "per_layer" } else { "end_to_end" });
    let mut got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m: &Metric| (m.name.clone(), m.unit.clone()))
        .collect();
    let mut want_sorted = want.clone();
    got.sort();
    want_sorted.sort();
    r.check(got == want_sorted, || {
        let missing: Vec<_> = want_sorted.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want_sorted.contains(g)).collect();
        format!("metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}")
    });
    let bad: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    r.check(bad.is_empty(), || format!("non-finite metrics: {bad:?}"));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sim::RESULTS_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seed > sim::MAX_SEED {
        return Err(format!(
            "--seed must be at most {}: sim-traced seeds fault plans with seed..seed+{} and FaultPlan::parse_json reads integers only up to 9e15",
            sim::MAX_SEED,
            sim::COORD_SEEDS - 1
        ));
    }
    if args.workload != "all" && Kind::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// `--workload all --trace 0`: each workload in its own process, then
/// one combined verdict with workload-prefixed metrics.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut combined = Report::default();
    for kind in Kind::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .expect("the benchmark can run itself");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let verdict = json::parse(text.lines().last().unwrap_or("")).unwrap_or(json::Value::Null);
        let verdict = verdict.as_object().unwrap_or_default();
        let correct = json::get(verdict, "correct").and_then(json::Value::as_bool);
        combined.op(out.status.success() && correct == Some(true), || {
            format!("{} failed", kind.name())
        });
        let metrics = json::get(verdict, "metrics").and_then(json::Value::as_object);
        for (name, m) in metrics.unwrap_or_default() {
            let Some(m) = m.as_object() else { continue };
            let value = json::get(m, "value").and_then(json::Value::as_f64);
            let unit = json::get(m, "unit").and_then(json::Value::as_str);
            if let (Some(value), Some(unit)) = (value, unit) {
                combined.metric(format!("{}.{name}", kind.name()), unit, value);
            }
        }
    }
    println!("{}", combined.verdict_line());
    if combined.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <sim-sweep|sim-crowd|sim-traced|gridd-verbs|all> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // The traced run covers every workload whichever one is named.
    let mut r = match Kind::parse(&args.workload) {
        _ if args.trace => run_traced(args.seed),
        Some(kind) => run_untraced(kind, args.seed, args.seconds),
        None => return run_all(&args),
    };
    check_declared(args.trace, &mut r);
    let head = format!(
        "{} seed={} trace={} git={} nproc={} sweep_workers={} gridd_loops={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        sys::git_revision(),
        sys::nproc(),
        gridworld::sweep::configured_threads(usize::MAX),
        gridd::GriddConfig::default().resolved_threads(),
    );
    r.print_table(&head);
    match r.write_file(&args.workload, args.seed, args.trace) {
        Ok(path) => println!("  result file: {path}"),
        Err(e) => r.fail(format!("cannot write the result file: {e}")),
    }
    println!("{}", r.verdict_line());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shortened run of every workload: one set-up and one traced pass
    /// each, with every output check on (at the results seed, which also
    /// compares the committed figures).
    #[test]
    fn every_workload_passes_its_checks_in_one_pass() {
        for kind in Kind::ALL {
            let mut r = Report::default();
            let mut t = Tracer::new(true);
            let mut bench =
                Bench::setup(kind, sim::RESULTS_SEED, &mut t, &mut r).expect("set-up succeeds");
            let (pass, wall) = bench.pass(&mut t, &mut r);
            bench.check(&mut r);
            bench.finish(&mut r);
            assert!(r.correct(), "{}: {:?}", kind.name(), r.failures);
            assert!(pass.ops > 0 && wall > 0.0, "{} did no work", kind.name());
            assert!(
                t.spans()
                    .iter()
                    .any(|s| s.name.starts_with("gridworld.") || s.name.starts_with("gridd.")),
                "{} recorded no layer spans",
                kind.name()
            );
        }
    }
}
