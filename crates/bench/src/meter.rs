//! The machine-readable bench trajectory: every benchmark binary wraps
//! its run in a [`BenchMeter`], which enables the [`linvar_metrics`]
//! sink, lets the bin attach run-level facts (accuracy deltas, speedup
//! ratios, sample counts), and on completion writes a canonical-JSON
//! report — `BENCH_<bin>.json` next to the process, plus a copy at
//! `--metrics <path>` when given.
//!
//! The report has four top-level sections (keys sorted, 2-space indent):
//!
//! * `"bench"` — bin name, wall time, and whatever the bin attached via
//!   [`BenchMeter::set`];
//! * `"counters"` — the deterministic work counts (identical for the
//!   same seed at any thread count, modulo the fail-fast/deadline
//!   caveats documented in `linvar_metrics`) — this is the section CI
//!   diffs between same-seed runs;
//! * `"gauges"` — run-dependent scalars (wall seconds, samples/sec);
//! * `"timers"` — per-phase call counts, total nanoseconds, and log2-ns
//!   histograms.

use crate::{BenchArgs, BenchError};
use linvar_metrics::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Observability harness for one benchmark binary run.
///
/// Construct with [`BenchMeter::start`] as the first act of `run()`
/// (it resets and enables the metrics sink), attach run-level facts
/// with [`BenchMeter::set`], and call [`BenchMeter::finish`] last.
#[derive(Debug)]
pub struct BenchMeter {
    bin: &'static str,
    start: Instant,
    extra: Json,
    /// Run-level gauges the bin measured itself.
    gauges: Vec<(&'static str, f64)>,
}

impl BenchMeter {
    /// Resets and enables the process-wide metrics sink and starts the
    /// wall clock. `bin` names the output file: `BENCH_<bin>.json`.
    pub fn start(bin: &'static str) -> BenchMeter {
        linvar_metrics::reset();
        linvar_metrics::enable();
        BenchMeter {
            bin,
            start: Instant::now(),
            extra: Json::obj(),
            gauges: Vec::new(),
        }
    }

    /// Attaches a bin-specific entry to the report's `bench` section
    /// (accuracy deltas, speedup ratios, configuration names, …).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.extra.set(key, value);
        self
    }

    /// Records a run-dependent scalar the bin measured itself (a rate over
    /// part of the run, say) in the report's `gauges` section.
    pub fn gauge(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.gauges.push((key, value));
        self
    }

    /// Finalizes the trajectory: folds this thread's local buffers into
    /// the sink, snapshots it, derives run-level gauges, and writes the
    /// report to `BENCH_<bin>.json` (and to `--metrics <path>` if set).
    ///
    /// # Errors
    ///
    /// [`BenchError::Msg`] if a report file cannot be written.
    pub fn finish(self, args: &BenchArgs) -> Result<(), BenchError> {
        linvar_metrics::flush_local();
        let wall = self.start.elapsed().as_secs_f64();
        let mut report = linvar_metrics::snapshot();
        report.set_gauge("wall_seconds", wall);
        let completed = report
            .counters
            .get("mc.samples_completed")
            .copied()
            .unwrap_or(0);
        if completed > 0 && wall > 0.0 {
            report.set_gauge("mc.samples_per_sec", completed as f64 / wall);
        }
        for &(key, value) in &self.gauges {
            report.set_gauge(key, value);
        }
        self.append_trajectory(args, wall, &report)?;
        let mut bench = self.extra;
        bench.set("bin", self.bin);
        bench.set("quick", args.quick);
        bench.set("wall_seconds", wall);
        let mut top = report.to_json_value();
        top.set("bench", bench);
        let text = top.render();
        let default_path = PathBuf::from(format!("BENCH_{}.json", self.bin));
        write_report(&default_path, &text)?;
        if let Some(path) = &args.metrics {
            write_report(path, &text)?;
        }
        Ok(())
    }

    /// Appends a compact perf entry to the trajectory file named by
    /// `LINVAR_TRAJECTORY` (no-op when unset). The file is a JSON array;
    /// a missing or empty file starts as `[]`. `LINVAR_TRAJECTORY_LABEL`
    /// tags the entry (e.g. `before-workspace` / `after-workspace`) so
    /// consecutive comparable entries can be diffed by CI.
    fn append_trajectory(
        &self,
        args: &BenchArgs,
        wall: f64,
        report: &linvar_metrics::MetricsReport,
    ) -> Result<(), BenchError> {
        let Ok(path) = std::env::var("LINVAR_TRAJECTORY") else {
            return Ok(());
        };
        if path.is_empty() {
            return Ok(());
        }
        let label = std::env::var("LINVAR_TRAJECTORY_LABEL").unwrap_or_default();
        let mut entry = Json::obj();
        entry.set("bin", self.bin);
        entry.set("label", label);
        entry.set("quick", args.quick);
        entry.set("wall_seconds", wall);
        for key in [
            "mc.samples_per_sec",
            "mc.framework_samples_per_sec",
            "ws.hits",
            "ws.misses",
            "ws.bytes_held",
        ] {
            if let Some(&v) = report.gauges.get(key) {
                entry.set(key, v);
            }
        }
        if let Some(&n) = report.counters.get("mc.samples_completed") {
            entry.set("mc.samples_completed", n);
        }
        // Record the worker count when pinned, so trajectory consumers
        // (e.g. the ci.sh regression gate) only compare like-for-like runs.
        if let Some(t) = std::env::var("LINVAR_THREADS")
            .ok()
            .and_then(|t| t.parse::<u64>().ok())
        {
            entry.set("threads", t);
        }
        // Indent the rendered entry one array level deep.
        let rendered = entry.render();
        let indented: String = rendered
            .trim_end()
            .lines()
            .map(|l| format!("  {l}\n"))
            .collect();
        let indented = indented.trim_end();
        let path = std::path::Path::new(&path);
        let existing = std::fs::read_to_string(path).unwrap_or_else(|_| "[]".to_string());
        let body = existing.trim_end();
        let body = body.strip_suffix(']').ok_or_else(|| {
            BenchError::Msg(format!(
                "trajectory file {path:?} is not a JSON array (missing trailing ']')"
            ))
        })?;
        let body = body.trim_end();
        let updated = if body == "[" {
            format!("[\n{indented}\n]\n")
        } else {
            format!("{body},\n{indented}\n]\n")
        };
        std::fs::write(path, updated)
            .map_err(|e| BenchError::Msg(format!("cannot append trajectory {path:?}: {e}")))
    }
}

fn write_report(path: &std::path::Path, text: &str) -> Result<(), BenchError> {
    std::fs::write(path, text)
        .map_err(|e| BenchError::Msg(format!("cannot write metrics report {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_writes_canonical_report_with_bench_section() {
        let _guard = linvar_metrics::test_lock();
        let dir = std::env::temp_dir().join("linvar_meter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("meter.json");
        let mut meter = BenchMeter::start("metertest");
        linvar_metrics::incr(linvar_metrics::Counter::McSamplesCompleted);
        meter.set("speedup", 8.5);
        let args = BenchArgs {
            metrics: Some(out.clone()),
            ..BenchArgs::default()
        };
        // finish() also writes BENCH_metertest.json into the CWD; point
        // the CWD-relative default at the temp dir via the --metrics copy
        // and check both exist.
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let res = meter.finish(&args);
        std::env::set_current_dir(cwd).unwrap();
        res.unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let default = std::fs::read_to_string(dir.join("BENCH_metertest.json")).unwrap();
        assert_eq!(text, default, "--metrics copy must match the default");
        for needle in [
            "\"bench\"",
            "\"bin\": \"metertest\"",
            "\"speedup\": 8.5",
            "\"counters\"",
            "\"mc.samples_completed\": 1",
            "\"gauges\"",
            "\"wall_seconds\"",
            "\"timers\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(text.ends_with('\n'));
        linvar_metrics::disable();
        linvar_metrics::reset();
    }

    #[test]
    fn trajectory_appends_labeled_entries_in_order() {
        let _guard = linvar_metrics::test_lock();
        let dir = std::env::temp_dir().join("linvar_trajectory_test");
        std::fs::create_dir_all(&dir).unwrap();
        let traj = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_file(&traj);
        std::env::set_var("LINVAR_TRAJECTORY", &traj);
        let args = BenchArgs::default();
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let run = |label: &str, framework_rate: Option<f64>| {
            std::env::set_var("LINVAR_TRAJECTORY_LABEL", label);
            let mut meter = BenchMeter::start("trajtest");
            linvar_metrics::incr(linvar_metrics::Counter::McSamplesCompleted);
            if let Some(rate) = framework_rate {
                meter.gauge("mc.framework_samples_per_sec", rate);
            }
            meter.finish(&args).unwrap();
        };
        run("before", None);
        run("after", Some(12.5));
        let report = std::fs::read_to_string(dir.join("BENCH_trajtest.json")).unwrap();
        std::env::set_current_dir(cwd).unwrap();
        std::env::remove_var("LINVAR_TRAJECTORY");
        std::env::remove_var("LINVAR_TRAJECTORY_LABEL");
        let text = std::fs::read_to_string(&traj).unwrap();
        let before = text.find("\"label\": \"before\"").expect("first entry");
        let after = text.find("\"label\": \"after\"").expect("second entry");
        assert!(before < after, "entries must append in run order:\n{text}");
        assert!(text.trim_end().ends_with(']'), "file stays a JSON array");
        assert_eq!(text.matches("\"bin\": \"trajtest\"").count(), 2);
        // A gauge the bin measured lands in the report and, for the
        // trajectory's known keys, in the entry of its own run only.
        let rate = "\"mc.framework_samples_per_sec\": 12.5";
        assert_eq!(text.matches(rate).count(), 1, "{text}");
        assert!(text.find(rate).unwrap() > after, "{text}");
        assert!(report.contains(rate), "{report}");
        linvar_metrics::disable();
        linvar_metrics::reset();
    }
}
