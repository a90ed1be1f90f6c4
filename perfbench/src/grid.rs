//! `grid_campaign`: many cheap `ir_drop_for_sample` evaluations of a
//! 16×16 stochastic power grid as a durable `run_campaign`, checkpointed
//! at the default cadence, cut at half by `sample_budget` and resumed
//! from its snapshot.

use crate::check;
use crate::measure::{stream_seed, Latencies, Round};
use crate::report::Metrics;
use crate::trace::{self, ratio, LayerTable, Section, Span};
use crate::{Size, Workload, THREADS};
use linvar_interconnect::{ir_drop_for_sample, power_grid_case, GridCase, PowerGridSpec, WireTech};
use linvar_metrics::Counter;
use linvar_numeric::SolverChoice;
use linvar_stats::sampling::lhs_normal_streamed;
use linvar_stats::{
    fingerprint_str, monte_carlo_par, run_campaign, CampaignConfig, CampaignFingerprint,
    CampaignResult, CampaignVerdict, RecoveryPolicy, SampleStatus,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(grid side, samples per campaign)`.
const FULL: (usize, usize) = (16, 1024);

const TINY: (usize, usize) = (4, 64);

/// σ of the five normalized wire parameters.
const SIGMA: f64 = 0.33;

/// Samples whose freeze and assembly the traced run times on their own.
const CIRCUIT_PROBES: usize = 256;

pub struct Grid {
    case: GridCase,
    /// `(index, wire parameters)`.
    samples: Vec<(usize, Vec<f64>)>,
    fingerprint: CampaignFingerprint,
    snapshot: PathBuf,
}

impl Grid {
    fn campaign(
        &self,
        threads: usize,
        lat: &Latencies,
        config: &CampaignConfig,
    ) -> Result<CampaignResult, String> {
        trace::span(Span::Driver, || {
            run_campaign(
                &self.samples,
                threads,
                RecoveryPolicy::default(),
                config,
                self.fingerprint,
                |s: &(usize, Vec<f64>), _attempt| {
                    lat.time(s.0, || {
                        trace::span(Span::Evaluator, || {
                            ir_drop_for_sample(&self.case, &s.1, SolverChoice::Auto)
                        })
                    })
                    .map(|v| (v, SampleStatus::Clean))
                },
            )
        })
        .map_err(|e| format!("campaign: {e}"))
    }
}

impl Workload for Grid {
    fn setup(seed: u64, size: Size, scratch: &Path) -> Result<Self, String> {
        let (side, n) = match size {
            Size::Full => FULL,
            Size::Tiny => TINY,
        };
        let case = power_grid_case(&PowerGridSpec::new(side, side, WireTech::m018()))
            .map_err(|e| e.to_string())?;
        let samples = lhs_normal_streamed(stream_seed(seed, 0), n, 5, SIGMA)
            .into_iter()
            .enumerate()
            .collect();
        let fingerprint = CampaignFingerprint {
            master_seed: seed,
            n_samples: n,
            policy: RecoveryPolicy::default(),
            model: fingerprint_str(&case.name),
        };
        let w = Grid {
            case,
            samples,
            fingerprint,
            snapshot: scratch.join("grid.ckpt"),
        };
        // Warm-up: one whole cut-and-resumed campaign.
        w.round(THREADS)?;
        Ok(w)
    }

    /// One campaign: the first run stops after half the samples (its
    /// final snapshot holds them), the second resumes and completes.
    fn round(&self, threads: usize) -> Result<Round, String> {
        let n = self.samples.len();
        let _ = std::fs::remove_file(&self.snapshot);
        let lat = Latencies::new(n);
        let t0 = Instant::now();
        let cut = self.campaign(
            threads,
            &lat,
            &CampaignConfig {
                checkpoint: Some(self.snapshot.clone()),
                sample_budget: Some(n / 2),
                ..CampaignConfig::default()
            },
        )?;
        let done = self.campaign(
            threads,
            &lat,
            &CampaignConfig {
                checkpoint: Some(self.snapshot.clone()),
                resume: Some(self.snapshot.clone()),
                ..CampaignConfig::default()
            },
        )?;
        let wall_s = t0.elapsed().as_secs_f64();
        if cut.verdict
            != (CampaignVerdict::Truncated {
                remaining: n - n / 2,
            })
            || done.verdict != CampaignVerdict::Complete
            || done.resumed != n / 2
        {
            return Err(format!(
                "campaign was not cut at half and resumed: {:?} then {:?} ({} resumed)",
                cut.verdict, done.verdict, done.resumed
            ));
        }
        Ok(Round::new(
            wall_s,
            lat.into_ms(),
            &done.failed_indices,
            done.values,
            done.summary,
        ))
    }

    fn verify(&self, rounds: &[Round], _m: &mut Metrics) -> Result<(), String> {
        let whole = monte_carlo_par(&self.samples, THREADS, |s: &(usize, Vec<f64>)| {
            ir_drop_for_sample(&self.case, &s.1, SolverChoice::Auto)
        });
        if whole.failures > 0 {
            return Err(format!(
                "uninterrupted run failed: {}",
                whole.first_error.unwrap_or_default()
            ));
        }
        for r in rounds {
            if r.failed > 0 {
                return Err(format!("{} grid samples failed", r.failed));
            }
            check::resume_matches((&r.summary, &r.values), (&whole.summary, &whole.values))?;
        }
        Ok(())
    }

    fn account(&self, s: &Section, layers: &mut LayerTable, m: &mut Metrics) -> Result<(), String> {
        let samples = s.span_calls(Span::Evaluator) as f64;
        let batches = ratio(samples, self.samples.len() as f64);
        let per = |x: f64| ratio(x, samples);
        let eval = s.span_ns(Span::Evaluator) as f64;
        let num = s.numeric_ns() as f64;

        // Freeze and assembly run inside `ir_drop_for_sample`; time them
        // on their own over the first samples, outside the traced batches
        // but on as many concurrent workers as the batches use.
        trace::reset();
        trace::set_tracing(true);
        let probes = CIRCUIT_PROBES.min(self.samples.len());
        let assembled = monte_carlo_par(
            &self.samples[..probes],
            THREADS,
            |(_, w): &(usize, Vec<f64>)| {
                let frozen = trace::span(Span::CircuitFreeze, || self.case.netlist.frozen_at(w));
                trace::span(Span::CircuitAssemble, || frozen.assemble_mna()).map(|_| 0.0)
            },
        );
        trace::set_tracing(false);
        if assembled.failures > 0 {
            return Err(format!(
                "assemble_mna: {}",
                assembled.first_error.unwrap_or_default()
            ));
        }
        let c = Section::take();
        let freeze_ms = ratio(c.span_ns(Span::CircuitFreeze) as f64, probes as f64) * 1e-6;
        let assemble_ms = ratio(c.span_ns(Span::CircuitAssemble) as f64, probes as f64) * 1e-6;
        let circuit = ((freeze_ms + assemble_ms) * 1e6 * samples).min(eval - num);
        layers.add("circuit", circuit);
        layers.add("interconnect", eval - num - circuit);
        layers.add("numeric", num);
        layers.add_driver(THREADS, s.span_ns(Span::Driver) as f64, eval);

        m.insert("circuit.freeze_ms_per_sample", freeze_ms);
        m.insert("circuit.assemble_ms_per_sample", assemble_ms);
        m.insert(
            "numeric.lu_factors_per_sample.framework",
            per(s.phase_calls("lu_factor") as f64),
        );
        m.insert(
            "numeric.lu_ms_per_sample.framework",
            per((s.phase_ns("lu_factor") + s.phase_ns("lu_solve")) as f64) * 1e-6,
        );
        m.insert("numeric.ws_hit_rate", s.ws_hit_rate());
        let snapshots = s.counter(Counter::CheckpointsWritten) as f64;
        m.insert(
            "stats.checkpoint_ms_per_snapshot",
            ratio(
                s.phase_ns("checkpoint_write") as f64,
                s.phase_calls("checkpoint_write") as f64,
            ) * 1e-6,
        );
        m.insert(
            "stats.checkpoint_bytes_per_snapshot",
            ratio(s.counter(Counter::CheckpointBytes) as f64, snapshots),
        );
        m.insert("stats.checkpoints_per_run", ratio(snapshots, batches));
        m.insert(
            "stats.driver_overhead_frac",
            1.0 - ratio(eval, THREADS as f64 * s.span_ns(Span::Driver) as f64),
        );
        Ok(())
    }
}
