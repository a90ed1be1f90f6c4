//! The benchmark's own spans, and the per-layer self-time account built
//! from them plus the program's `linvar_metrics` phase timers.
//!
//! Spans are recorded only around the benchmark's calls into the
//! workspace crates (no span lives inside the program). Each span kind
//! accumulates a total duration and a call count in relaxed atomics, so
//! recording from the Monte-Carlo worker threads needs no lock. When
//! tracing is off a span costs one relaxed load.

use linvar_metrics::{Counter, Gauge, MetricsReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Span kinds the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A Monte-Carlo driver call (`monte_carlo_par`, `run_campaign`),
    /// on the coordinating thread.
    Driver,
    /// One evaluator call on a worker thread (`evaluate_sample`,
    /// `evaluate_sample_spice`, the chain transient, `ir_drop_for_sample`).
    Evaluator,
    /// `Netlist::frozen_at` called by the benchmark itself.
    CircuitFreeze,
    /// `Netlist::assemble_mna` called by the benchmark itself.
    CircuitAssemble,
    /// `linvar_spice::Transient` construction, run and crossing measure.
    SpiceTransient,
    /// `PathModel::build`.
    CoreBuild,
}

const N_SPANS: usize = 6;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NS: [AtomicU64; N_SPANS] = [const { AtomicU64::new(0) }; N_SPANS];
static CALLS: [AtomicU64; N_SPANS] = [const { AtomicU64::new(0) }; N_SPANS];

/// Turns span recording and the `linvar_metrics` sink on or off together.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if on {
        linvar_metrics::enable();
    } else {
        linvar_metrics::disable();
    }
}

/// Zeroes the span accumulators and the metrics sink.
pub fn reset() {
    for i in 0..N_SPANS {
        NS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
    linvar_metrics::reset();
}

/// Runs `f` inside a span of kind `kind` (recorded only while tracing).
pub fn span<R>(kind: Span, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    NS[kind as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    CALLS[kind as usize].fetch_add(1, Ordering::Relaxed);
    r
}

/// Everything one traced section recorded: the benchmark's spans, the
/// program's phase timers and counters, and the workspace-arena gauges.
#[derive(Debug, Clone, Default)]
pub struct Section {
    span_ns: [u64; N_SPANS],
    span_calls: [u64; N_SPANS],
    /// Program counters plus `phase.<name>.calls`, by dotted name.
    pub counters: BTreeMap<String, u64>,
    phase_ns: BTreeMap<String, u64>,
    ws_hits: u64,
    ws_misses: u64,
}

impl Section {
    /// Reads the accumulators (call after the section's worker scopes
    /// have joined) without resetting them.
    pub fn take() -> Section {
        let report: MetricsReport = linvar_metrics::snapshot();
        let mut s = Section {
            counters: report.counters,
            phase_ns: report
                .timers
                .iter()
                .map(|(k, t)| (k.clone(), t.total_ns))
                .collect(),
            ws_hits: linvar_metrics::gauge_value(Gauge::WsHits),
            ws_misses: linvar_metrics::gauge_value(Gauge::WsMisses),
            ..Section::default()
        };
        for i in 0..N_SPANS {
            s.span_ns[i] = NS[i].load(Ordering::Relaxed);
            s.span_calls[i] = CALLS[i].load(Ordering::Relaxed);
        }
        s
    }

    /// Adds another section's totals to this one.
    pub fn add(&mut self, o: &Section) {
        for i in 0..N_SPANS {
            self.span_ns[i] += o.span_ns[i];
            self.span_calls[i] += o.span_calls[i];
        }
        for (k, v) in &o.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &o.phase_ns {
            *self.phase_ns.entry(k.clone()).or_default() += v;
        }
        self.ws_hits += o.ws_hits;
        self.ws_misses += o.ws_misses;
    }

    /// Total nanoseconds in benchmark spans of one kind.
    pub fn span_ns(&self, kind: Span) -> u64 {
        self.span_ns[kind as usize]
    }

    /// Calls of one benchmark span kind.
    pub fn span_calls(&self, kind: Span) -> u64 {
        self.span_calls[kind as usize]
    }

    /// Total nanoseconds of one program phase timer (`stage_eval`, …).
    pub fn phase_ns(&self, phase: &str) -> u64 {
        self.phase_ns.get(phase).copied().unwrap_or(0)
    }

    /// Completed spans of one program phase timer.
    pub fn phase_calls(&self, phase: &str) -> u64 {
        self.count(&format!("phase.{phase}.calls"))
    }

    /// One program counter by name (`sc.chord_iterations`, …).
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A program counter by enum.
    pub fn counter(&self, c: Counter) -> u64 {
        self.count(c.name())
    }

    /// Workspace-arena hits over requests (0 when the arena was unused).
    pub fn ws_hit_rate(&self) -> f64 {
        ratio(self.ws_hits as f64, (self.ws_hits + self.ws_misses) as f64)
    }

    /// Nanoseconds in the program's LU phases (dense and sparse).
    pub fn numeric_ns(&self) -> u64 {
        NUMERIC_PHASES.iter().map(|p| self.phase_ns(p)).sum()
    }

    /// Nanoseconds in the `mor` phases run per sample (pole extraction
    /// and stabilisation).
    pub fn mor_ns(&self) -> u64 {
        self.phase_ns("eigen") + self.phase_ns("stabilize")
    }

    /// Nanoseconds in the SPICE engine's DC and transient phases.
    pub fn spice_phase_ns(&self) -> u64 {
        self.phase_ns("spice_dc") + self.phase_ns("spice_tran")
    }
}

/// The program's LU phase timers; none of them nests inside another.
pub const NUMERIC_PHASES: [&str; 5] = [
    "lu_factor",
    "lu_solve",
    "symbolic",
    "numeric_factor",
    "solve",
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Layers of the self-time table and their per-layer metric names, in
/// report order.
pub const LAYERS: [(&str, &str); 8] = [
    ("core", "layer.core.self_frac"),
    ("teta", "layer.teta.self_frac"),
    ("mor", "layer.mor.self_frac"),
    ("numeric", "layer.numeric.self_frac"),
    ("spice", "layer.spice.self_frac"),
    ("circuit", "layer.circuit.self_frac"),
    ("interconnect", "layer.interconnect.self_frac"),
    ("stats", "layer.stats.self_frac"),
];

/// Self time per layer, summed over worker threads (nanoseconds), plus
/// the thread-seconds the traced sections spanned.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    self_ns: [f64; LAYERS.len()],
    /// Worker threads × traced wall time, nanoseconds.
    pub capacity_ns: f64,
}

impl LayerTable {
    fn index(layer: &str) -> usize {
        LAYERS
            .iter()
            .position(|(l, _)| *l == layer)
            .unwrap_or_else(|| panic!("unknown layer {layer}"))
    }

    /// Adds self time to a layer (negative residues from timer jitter
    /// are clamped to 0).
    pub fn add(&mut self, layer: &str, ns: f64) {
        let i = Self::index(layer);
        self.self_ns[i] += ns.max(0.0);
    }

    /// Adds the thread-time of a traced section: `threads` workers over
    /// `wall_ns` of wall time, benchmark glue between driver calls
    /// included.
    pub fn add_wall(&mut self, threads: usize, wall_ns: f64) {
        self.capacity_ns += threads as f64 * wall_ns;
    }

    /// Charges the driver (`stats`) with the worker capacity of its calls
    /// that no evaluator used: scheduling, merge, checkpoint writes and
    /// the idle tail of each batch.
    pub fn add_driver(&mut self, threads: usize, driver_ns: f64, evaluator_ns: f64) {
        self.add("stats", threads as f64 * driver_ns - evaluator_ns);
    }

    /// One layer's share of the traced thread-time.
    pub fn frac(&self, layer: &str) -> f64 {
        ratio(self.self_ns[Self::index(layer)], self.capacity_ns)
    }

    /// The share of traced thread-time no layer's self time covers.
    pub fn unattributed_frac(&self) -> f64 {
        let covered: f64 = self.self_ns.iter().sum();
        ratio(self.capacity_ns - covered, self.capacity_ns)
    }
}
