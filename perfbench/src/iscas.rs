//! `iscas_paths`: the paper's own workload — ISCAS-89 critical paths at
//! the `table4 --quick` configurations, framework samples through
//! `monte_carlo_par` over `PathModel::evaluate_sample`, and a SPICE
//! reference on a few samples per configuration.

use crate::check;
use crate::measure::{median, spread, stream_seed, Latencies, Round};
use crate::report::Metrics;
use crate::trace::{self, ratio, LayerTable, Section, Span};
use crate::{Size, Workload, THREADS};
use linvar_core::path::{PathModel, PathSample, PathSpec, VariationSources};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_metrics::Counter;
use linvar_stats::{monte_carlo_par, rng_from_seed};
use std::path::Path;
use std::time::Instant;

/// `(circuit, linear elements per stage, samples per batch, SPICE
/// reference samples)`.
const FULL: &[(&str, usize, usize, usize)] = &[
    ("s27", 10, 10, 2),
    ("s208", 10, 10, 2),
    ("s444", 10, 10, 2),
    ("s1423", 10, 10, 2),
    ("s9234", 10, 10, 2),
    ("s27", 500, 6, 1),
    ("s208", 500, 6, 1),
    ("s444", 500, 6, 1),
];

const TINY: &[(&str, usize, usize, usize)] = &[("s27", 10, 2, 1)];

/// Input ramp transition time (s).
const INPUT_SLEW: f64 = 60e-12;

struct Config {
    label: String,
    spec: PathSpec,
    model: PathModel,
}

/// One sample of the batch.
pub struct Job {
    idx: usize,
    cfg: usize,
    sample: PathSample,
}

pub struct Iscas {
    configs: Vec<Config>,
    jobs: Vec<Job>,
    /// Batch indices that also run the SPICE reference.
    ref_jobs: Vec<usize>,
}

fn path_cells(circuit: &str) -> Result<Vec<String>, String> {
    let bench = benchmark(circuit).ok_or_else(|| format!("unknown benchmark {circuit}"))?;
    let report = longest_path(&bench.netlist).map_err(|e| e.to_string())?;
    let stages = decompose_to_primitives(&bench.netlist, &report).map_err(|e| e.to_string())?;
    Ok(stages.into_iter().map(|s| s.cell).collect())
}

impl Iscas {
    fn table(size: Size) -> &'static [(&'static str, usize, usize, usize)] {
        match size {
            Size::Full => FULL,
            Size::Tiny => TINY,
        }
    }

    fn evaluate(&self, lat: &Latencies, job: &Job) -> Result<f64, String> {
        let model = &self.configs[job.cfg].model;
        lat.time(job.idx, || {
            trace::span(Span::Evaluator, || model.evaluate_sample(&job.sample))
        })
        .map_err(|e| e.to_string())
    }

    /// The SPICE reference over `ref_jobs`: `(delays, latencies in ms)`,
    /// in `ref_jobs` order.
    fn reference(&self) -> Result<(Vec<f64>, Vec<f64>), String> {
        let jobs: Vec<&Job> = self.ref_jobs.iter().map(|&i| &self.jobs[i]).collect();
        let lat = Latencies::new(self.jobs.len());
        let res = trace::span(Span::Driver, || {
            monte_carlo_par(&jobs, THREADS, |j: &&Job| {
                lat.time(j.idx, || {
                    trace::span(Span::Evaluator, || {
                        self.configs[j.cfg].model.evaluate_sample_spice(&j.sample)
                    })
                })
            })
        });
        if res.failures > 0 {
            return Err(format!(
                "{} SPICE reference samples failed: {}",
                res.failures,
                res.first_error.unwrap_or_default()
            ));
        }
        let all = lat.into_ms();
        let ms = self.ref_jobs.iter().map(|&i| all[i]).collect();
        Ok((res.values, ms))
    }
}

impl Workload for Iscas {
    fn setup(seed: u64, size: Size, _scratch: &Path) -> Result<Self, String> {
        let tech = tech_018();
        let wire = WireTech::m018();
        let sources = VariationSources::example3_table4();
        let table = Self::table(size);
        let mut configs = Vec::new();
        let mut drawn = Vec::new();
        for (k, &(circuit, elements, per_batch, _)) in table.iter().enumerate() {
            let spec = PathSpec {
                cells: path_cells(circuit)?,
                linear_elements_between_stages: elements,
                input_slew: INPUT_SLEW,
            };
            let model = PathModel::build(&spec, &tech, &wire)
                .map_err(|e| format!("{circuit}@{elements}: {e}"))?;
            let mut rng = rng_from_seed(stream_seed(seed, k as u64));
            drawn.push(model.draw_samples(&sources, per_batch, &mut rng));
            configs.push(Config {
                label: format!("{circuit}@{elements}"),
                spec,
                model,
            });
        }
        let counts: Vec<usize> = table.iter().map(|t| t.2).collect();
        let mut jobs = Vec::new();
        let mut ref_jobs = Vec::new();
        for (idx, (cfg, j)) in spread(&counts).into_iter().enumerate() {
            if j < table[cfg].3 {
                ref_jobs.push(idx);
            }
            jobs.push(Job {
                idx,
                cfg,
                sample: drawn[cfg][j],
            });
        }
        let w = Iscas {
            configs,
            jobs,
            ref_jobs,
        };
        // Warm-up: one framework sample of every configuration and one
        // reference sample of the smallest.
        let lat = Latencies::new(w.jobs.len());
        let firsts: Vec<&Job> = (0..w.configs.len())
            .filter_map(|c| w.jobs.iter().find(|j| j.cfg == c))
            .collect();
        let warm = monte_carlo_par(&firsts, THREADS, |j: &&Job| w.evaluate(&lat, j));
        if warm.failures > 0 {
            return Err(format!(
                "warm-up failed: {}",
                warm.first_error.unwrap_or_default()
            ));
        }
        w.configs[0]
            .model
            .evaluate_sample_spice(&firsts[0].sample)
            .map_err(|e| format!("reference warm-up: {e}"))?;
        Ok(w)
    }

    fn round(&self, threads: usize) -> Result<Round, String> {
        let lat = Latencies::new(self.jobs.len());
        let t0 = Instant::now();
        let res = trace::span(Span::Driver, || {
            monte_carlo_par(&self.jobs, threads, |j: &Job| self.evaluate(&lat, j))
        });
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Round::new(
            wall_s,
            lat.into_ms(),
            &res.failed_indices,
            res.values,
            res.summary,
        ))
    }

    fn verify(&self, rounds: &[Round], m: &mut Metrics) -> Result<(), String> {
        for r in rounds {
            check::path_delays(r)?;
        }
        let (refs, ref_ms) = self.reference()?;
        let fw = &rounds[0].values;
        let pairs: Vec<(String, f64, f64)> = self
            .ref_jobs
            .iter()
            .zip(&refs)
            .map(|(&i, &r)| {
                (
                    format!("{} sample {i}", self.configs[self.jobs[i].cfg].label),
                    fw[i],
                    r,
                )
            })
            .collect();
        let worst = check::reference_agreement(&pairs)?;
        m.insert("delay_err_vs_ref_pct", 1e2 * worst);
        m.insert("ref_ms_per_sample", median(&ref_ms));
        m.insert("ref_samples", ref_ms.len() as f64);
        // Geometric mean over configurations of reference median over
        // framework median.
        let mut log_sum = 0.0;
        for c in 0..self.configs.len() {
            let fw_ms: Vec<f64> = rounds
                .iter()
                .flat_map(|r| {
                    self.jobs
                        .iter()
                        .filter(|j| j.cfg == c)
                        .map(|j| r.latencies_ms[j.idx])
                })
                .collect();
            let rf: Vec<f64> = self
                .ref_jobs
                .iter()
                .zip(&ref_ms)
                .filter(|(&i, _)| self.jobs[i].cfg == c)
                .map(|(_, &t)| t)
                .collect();
            log_sum += (median(&rf) / median(&fw_ms)).ln();
        }
        m.insert(
            "speedup_vs_ref",
            (log_sum / self.configs.len() as f64).exp(),
        );
        Ok(())
    }

    fn account(&self, s: &Section, layers: &mut LayerTable, m: &mut Metrics) -> Result<(), String> {
        let samples = s.span_calls(Span::Evaluator) as f64;
        let batches = samples / self.jobs.len() as f64;
        let stage_slots: usize = self
            .jobs
            .iter()
            .map(|j| self.configs[j.cfg].model.stage_count())
            .sum();
        let eval = s.span_ns(Span::Evaluator) as f64;
        let stage = s.phase_ns("stage_eval") as f64;
        let mor = s.mor_ns() as f64;
        let num = s.numeric_ns() as f64;
        let teta_self = stage - mor - num;
        layers.add("core", eval - stage);
        layers.add("teta", teta_self);
        layers.add("mor", mor);
        layers.add("numeric", num);
        layers.add_driver(THREADS, s.span_ns(Span::Driver) as f64, eval);
        let per = |x: f64| ratio(x, samples);
        let stage_calls = s.phase_calls("stage_eval") as f64;
        m.insert("core.framework_ms_per_sample", per(eval) * 1e-6);
        m.insert(
            "teta.sc_iterations_per_stage",
            ratio(s.counter(Counter::ScChordIterations) as f64, stage_calls),
        );
        m.insert(
            "teta.stage_evals_per_stage",
            ratio(stage_calls, batches * stage_slots as f64),
        );
        m.insert("teta.self_ms_per_sample", per(teta_self) * 1e-6);
        m.insert(
            "mor.pole_extract_ms_per_sample",
            per(s.phase_ns("eigen") as f64) * 1e-6,
        );
        m.insert(
            "mor.stabilize_ms_per_sample",
            per(s.phase_ns("stabilize") as f64) * 1e-6,
        );
        m.insert(
            "mor.unstable_poles_removed_per_sample",
            per(s.counter(Counter::MorUnstablePolesRemoved) as f64),
        );
        m.insert(
            "numeric.lu_factors_per_sample.framework",
            per(s.phase_calls("lu_factor") as f64),
        );
        m.insert(
            "numeric.lu_ms_per_sample.framework",
            per((s.phase_ns("lu_factor") + s.phase_ns("lu_solve")) as f64) * 1e-6,
        );
        m.insert("numeric.ws_hit_rate", s.ws_hit_rate());
        m.insert(
            "stats.driver_overhead_frac",
            1.0 - ratio(eval, THREADS as f64 * s.span_ns(Span::Driver) as f64),
        );

        // Model build, traced alone: the set-up cost split by layer.
        let tech = tech_018();
        let wire = WireTech::m018();
        trace::reset();
        trace::set_tracing(true);
        let built: Result<Vec<PathModel>, String> = self
            .configs
            .iter()
            .map(|c| {
                trace::span(Span::CoreBuild, || PathModel::build(&c.spec, &tech, &wire))
                    .map_err(|e| format!("{}: {e}", c.label))
            })
            .collect();
        trace::set_tracing(false);
        drop(built?);
        let b = Section::take();
        m.insert("core.build_s", b.span_ns(Span::CoreBuild) as f64 * 1e-9);
        m.insert(
            "mor.characterize_s",
            b.phase_ns("prima_project") as f64 * 1e-9,
        );

        // The SPICE reference, traced with the sink reset so its LU and
        // SPICE phases stay apart from the framework's.
        trace::reset();
        trace::set_tracing(true);
        let t0 = Instant::now();
        let res = self.reference();
        let wall = t0.elapsed().as_secs_f64();
        trace::set_tracing(false);
        res?;
        let s = Section::take();
        let samples = s.span_calls(Span::Evaluator) as f64;
        let per = |x: f64| ratio(x, samples) * 1e-6;
        let eval = s.span_ns(Span::Evaluator) as f64;
        let spice = s.spice_phase_ns() as f64;
        let num = s.numeric_ns() as f64;
        layers.add_wall(THREADS, wall * 1e9);
        layers.add("core", eval - spice);
        layers.add("spice", spice - num);
        layers.add("numeric", num);
        layers.add_driver(THREADS, s.span_ns(Span::Driver) as f64, eval);
        m.insert("core.ref_ms_per_sample", per(eval));
        m.insert(
            "numeric.lu_factors_per_sample.reference",
            ratio(s.phase_calls("lu_factor") as f64, samples),
        );
        m.insert(
            "numeric.lu_ms_per_sample.reference",
            per((s.phase_ns("lu_factor") + s.phase_ns("lu_solve")) as f64),
        );
        m.insert(
            "spice.tran_ms_per_sample",
            per(s.phase_ns("spice_tran") as f64),
        );
        m.insert("spice.dc_ms_per_sample", per(s.phase_ns("spice_dc") as f64));
        m.insert("spice.self_ms_per_sample", per(spice - num));
        m.insert(
            "spice.newton_iterations_per_sample",
            ratio(s.counter(Counter::NewtonIterations) as f64, samples),
        );
        m.insert(
            "spice.timestep_halvings_per_sample",
            ratio(s.counter(Counter::TimestepHalvings) as f64, samples),
        );
        Ok(())
    }
}
