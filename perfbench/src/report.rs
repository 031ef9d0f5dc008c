//! What a run reports: named metrics with units, the human-readable
//! table, the result file and the one-line JSON verdict.

use crate::span::{self, Span};
use crate::sys;
use std::fmt::Write as _;

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit, e.g. `s`, `1/s`, `us`, `count`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Report {
    /// Metrics for the verdict line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Extra figures for the table and the result file only.
    pub info: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Host seconds of every measured pass, in order.
    pub walls: Vec<f64>,
    /// Host seconds of every set-up, in order.
    pub setups: Vec<f64>,
}

impl Report {
    /// Add a verdict metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }

    /// Add a table-only figure.
    pub fn info(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.info.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }

    /// Count one operation; a failed one records `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Record a failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Check a condition that is not itself an operation: a broken
    /// invariant fails the run.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.fail(why());
        }
    }

    /// The run's verdict: every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the table to stdout: metadata, metrics, span aggregates and
    /// failures.
    pub fn print_table(&self, head: &str) {
        println!("== {head}");
        for m in self.metrics.iter().chain(&self.info) {
            println!("  {:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        if !self.spans.is_empty() {
            println!("  -- spans: calls, total s, self s --");
            for (name, (calls, total, own)) in span::by_name(&self.spans) {
                println!(
                    "  {name:<40} {calls:>8} {:>12.6} {:>12.6}",
                    total as f64 * 1e-9,
                    own as f64 * 1e-9
                );
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<40} {:>16} ratio ({} of {} failed)",
            "error_rate",
            fmt_value(rate),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// Write the result file (metadata, metrics, spans) under
    /// `.bench_out/` at the repository root; returns its path.
    pub fn write_file(&self, workload: &str, seed: u64, traced: bool) -> std::io::Result<String> {
        let dir = sys::repo_root().join(".bench_out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{workload}-seed{seed}-trace{}.json",
            u8::from(traced)
        ));
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"workload\": \"{workload}\",\n\"seed\": {seed},\n\"traced\": {traced},\n\"git_revision\": \"{}\",\n\"nproc\": {},\n\"correct\": {},\n\"attempted\": {},\n\"failed\": {},\n\"metrics\": {},\n\"info\": {},\n\"failures\": [{}],\n\"setups_s\": {:?},\n\"pass_walls_s\": {:?},\n\"spans\": {}\n}}\n",
            sys::git_revision(),
            sys::nproc(),
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            metrics_json(&self.info),
            self.failures
                .iter()
                .map(|f| format!("\"{}\"", simgrid::json_escape(f)))
                .collect::<Vec<_>>()
                .join(", "),
            self.setups,
            self.walls,
            span::to_json(&self.spans),
        );
        std::fs::write(&path, out)?;
        Ok(path.display().to_string())
    }

    /// The verdict line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn verdict_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.metric("wall_s", "s", 0.125);
        r.op(true, String::new);
        let line = r.verdict_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        r.op(false, || "bad".into());
        assert!(!r.correct());
        assert_eq!(r.failures, ["bad"]);
    }
}
