//! The metric registry and the result line.
//!
//! Every run prints each metric of its mode (end-to-end without
//! tracing, per-layer with it) by name and unit, then one JSON object as
//! its last line of standard output. A per-layer metric a workload does
//! not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with the metrics sink off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "1/s"),
    ("sample_ms.p50", "ms"),
    ("sample_ms.p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ref_ms_per_sample", "ms"),
    ("delay_err_vs_ref_pct", "%"),
    ("speedup_vs_ref", "ratio"),
    ("core.build_s", "s"),
    ("core.framework_ms_per_sample", "ms"),
    ("core.ref_ms_per_sample", "ms"),
    ("teta.sc_iterations_per_stage", "count"),
    ("teta.stage_evals_per_stage", "count"),
    ("teta.self_ms_per_sample", "ms"),
    ("mor.pole_extract_ms_per_sample", "ms"),
    ("mor.stabilize_ms_per_sample", "ms"),
    ("mor.unstable_poles_removed_per_sample", "count"),
    ("mor.characterize_s", "s"),
    ("numeric.lu_factors_per_sample.framework", "count"),
    ("numeric.lu_factors_per_sample.reference", "count"),
    ("numeric.lu_ms_per_sample.framework", "ms"),
    ("numeric.lu_ms_per_sample.reference", "ms"),
    ("numeric.sparse_solve_ms_per_sample", "ms"),
    ("numeric.sparse_factor_ms_per_sample", "ms"),
    ("numeric.symbolic_per_sample", "count"),
    ("numeric.ws_hit_rate", "ratio"),
    ("spice.tran_ms_per_sample", "ms"),
    ("spice.dc_ms_per_sample", "ms"),
    ("spice.self_ms_per_sample", "ms"),
    ("spice.newton_iterations_per_sample", "count"),
    ("spice.timestep_halvings_per_sample", "count"),
    ("circuit.freeze_ms_per_sample", "ms"),
    ("circuit.assemble_ms_per_sample", "ms"),
    ("stats.driver_overhead_frac", "ratio"),
    ("stats.checkpoint_ms_per_snapshot", "ms"),
    ("stats.checkpoint_bytes_per_snapshot", "bytes"),
    ("stats.checkpoints_per_run", "count"),
    ("metrics.trace_overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("layer.core.self_frac", "ratio"),
    ("layer.teta.self_frac", "ratio"),
    ("layer.mor.self_frac", "ratio"),
    ("layer.numeric.self_frac", "ratio"),
    ("layer.spice.self_frac", "ratio"),
    ("layer.circuit.self_frac", "ratio"),
    ("layer.interconnect.self_frac", "ratio"),
    ("layer.stats.self_frac", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a run prints.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Samples attempted in the measured section.
    pub attempted: usize,
    /// Samples that failed in the measured section.
    pub failed: usize,
    /// Measured metrics (a superset of the mode's registry).
    pub metrics: Metrics,
}

/// The mode's registry.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The human-readable metric lines of a run.
pub fn table(out: &Outcome, trace: bool) -> String {
    let mut s = String::new();
    for (name, unit) in registry(trace) {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(s, "  {name:<42} {v:>16.6} {unit}");
    }
    s
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the mode's metrics as `{"value", "unit"}` pairs.
/// Non-finite values cannot be written as JSON; they read 0 and make the
/// run incorrect.
pub fn json_line(out: &Outcome, trace: bool) -> String {
    let mut correct = out.correct;
    let mut metrics = Vec::new();
    for (name, unit) in registry(trace) {
        let mut v = out.metrics.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            correct = false;
            v = 0.0;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
