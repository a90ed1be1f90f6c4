//! `rc_chains`: coupled RC chains above the sparse auto threshold. Each
//! sample freezes the variational netlist at an LHS draw and runs
//! `linvar_spice::Transient` under the default `SolverChoice::Auto`; the
//! result is the probe's 50 % crossing.

use crate::check;
use crate::measure::{spread, stream_seed, Latencies, Round};
use crate::report::Metrics;
use crate::trace::{self, ratio, LayerTable, Section, Span};
use crate::{Size, Workload, THREADS};
use linvar_interconnect::{rc_chain_case, ChainCase};
use linvar_metrics::Counter;
use linvar_spice::{crossing_time, Transient, TransientOptions};
use linvar_stats::monte_carlo_par;
use linvar_stats::sampling::lhs_normal_streamed;
use std::path::Path;
use std::time::Instant;

/// `(segments, samples per batch)`: 5k and 20k MNA unknowns.
const FULL: &[(usize, usize)] = &[(2_500, 22), (10_000, 2)];

const TINY: &[(usize, usize)] = &[(60, 3), (120, 1)];

/// σ of the five normalized wire parameters.
const SIGMA: f64 = 0.33;

struct Job {
    idx: usize,
    case: usize,
    w: Vec<f64>,
}

pub struct Chains {
    cases: Vec<ChainCase>,
    jobs: Vec<Job>,
}

impl Chains {
    fn evaluate(&self, lat: &Latencies, job: &Job) -> Result<f64, String> {
        let case = &self.cases[job.case];
        lat.time(job.idx, || {
            trace::span(Span::Evaluator, || {
                let frozen = trace::span(Span::CircuitFreeze, || case.netlist.frozen_at(&job.w));
                trace::span(Span::SpiceTransient, || {
                    let mut opts = TransientOptions::new(case.tstop, case.dt);
                    opts.probes.push(case.probe.clone());
                    let res = Transient::new(&frozen, &opts)
                        .and_then(|t| t.run())
                        .map_err(|e| format!("{}: {e}", case.name))?;
                    let wave = res
                        .probe(&case.probe)
                        .ok_or_else(|| format!("{}: probe {} missing", case.name, case.probe))?;
                    crossing_time(&res.times, wave, 0.5, true, 0.0)
                        .ok_or_else(|| format!("{}: no 50 % crossing in the window", case.name))
                })
            })
        })
    }
}

impl Workload for Chains {
    fn setup(seed: u64, size: Size, _scratch: &Path) -> Result<Self, String> {
        let table = match size {
            Size::Full => FULL,
            Size::Tiny => TINY,
        };
        let mut cases = Vec::new();
        let mut drawn = Vec::new();
        for (k, &(segments, per_batch)) in table.iter().enumerate() {
            cases.push(rc_chain_case(segments).map_err(|e| e.to_string())?);
            drawn.push(lhs_normal_streamed(
                stream_seed(seed, k as u64),
                per_batch,
                5,
                SIGMA,
            ));
        }
        let counts: Vec<usize> = table.iter().map(|t| t.1).collect();
        let jobs = spread(&counts)
            .into_iter()
            .enumerate()
            .map(|(idx, (case, j))| Job {
                idx,
                case,
                w: drawn[case][j].clone(),
            })
            .collect();
        let w = Chains { cases, jobs };
        // Warm-up: each case on every worker at once, so the process has
        // touched its worst-case footprint (all workers inside the largest
        // chain) before anything is timed.
        let lat = Latencies::new(w.jobs.len());
        for c in 0..w.cases.len() {
            let job = w.jobs.iter().find(|j| j.case == c).ok_or("empty case")?;
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| s.spawn(|| w.evaluate(&lat, job)))
                    .collect();
                workers.into_iter().try_for_each(|h| {
                    h.join()
                        .map_err(|_| "warm-up panicked".to_string())?
                        .map(drop)
                })
            })
            .map_err(|e| format!("warm-up failed: {e}"))?;
        }
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

    fn verify(&self, rounds: &[Round], _m: &mut Metrics) -> Result<(), String> {
        let tstops: Vec<f64> = self.jobs.iter().map(|j| self.cases[j.case].tstop).collect();
        rounds.iter().try_for_each(|r| check::crossings(r, &tstops))
    }

    fn account(&self, s: &Section, layers: &mut LayerTable, m: &mut Metrics) -> Result<(), String> {
        let samples = s.span_calls(Span::Evaluator) as f64;
        let per = |x: f64| ratio(x, samples);
        let eval = s.span_ns(Span::Evaluator) as f64;
        let freeze = s.span_ns(Span::CircuitFreeze) as f64;
        let transient = s.span_ns(Span::SpiceTransient) as f64;
        let num = s.numeric_ns() as f64;
        layers.add("circuit", freeze);
        layers.add("spice", transient - num);
        layers.add("numeric", num);
        layers.add_driver(THREADS, s.span_ns(Span::Driver) as f64, eval);
        m.insert("circuit.freeze_ms_per_sample", per(freeze) * 1e-6);
        m.insert(
            "spice.tran_ms_per_sample",
            per(s.phase_ns("spice_tran") as f64) * 1e-6,
        );
        m.insert(
            "spice.dc_ms_per_sample",
            per(s.phase_ns("spice_dc") as f64) * 1e-6,
        );
        m.insert("spice.self_ms_per_sample", per(transient - num) * 1e-6);
        m.insert(
            "spice.newton_iterations_per_sample",
            per(s.counter(Counter::NewtonIterations) as f64),
        );
        m.insert(
            "spice.timestep_halvings_per_sample",
            per(s.counter(Counter::TimestepHalvings) as f64),
        );
        m.insert(
            "numeric.sparse_solve_ms_per_sample",
            per(s.phase_ns("solve") as f64) * 1e-6,
        );
        m.insert(
            "numeric.sparse_factor_ms_per_sample",
            per(s.phase_ns("numeric_factor") as f64) * 1e-6,
        );
        m.insert(
            "numeric.symbolic_per_sample",
            per(s.phase_calls("symbolic") as f64),
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
        Ok(())
    }
}
