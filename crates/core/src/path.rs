//! Critical-path delay statistics (paper §4.3).
//!
//! A [`PathModel`] holds one precharacterized [`StageModel`] per stage —
//! built **once**, since the chord models and therefore the effective
//! loads do not depend on the fluctuating parameters. Two statistics
//! engines run on top:
//!
//! * [`PathModel::monte_carlo`] (§4.3.1) — per sample, the stages are
//!   simulated in topological order and the *full piecewise-linear output
//!   waveform* is propagated to the next stage's input;
//!   [`PathModel::monte_carlo_par`] runs the same analysis across worker
//!   threads with bitwise-identical results (the sample set is a pure
//!   function of the master seed, evaluation is read-only `&self`);
//! * [`PathModel::gradient_analysis`] (§4.3.2) — one nominal pass plus
//!   central-difference perturbations of the input-slew and every
//!   variation source per stage; the saturated-ramp parameters `(M, S)`
//!   and their derivatives chain through eq. (31) and σ(D) follows from
//!   eq. (24).
//!
//! [`StageModel`]: linvar_teta::StageModel

use crate::error::CoreError;
use crate::recovery::{
    DegradationReport, EngineRung, McCampaignResult, McRecoveryResult, McShardedResult,
};
use crate::stage_builder::{build_stage_load, StageLoad, StageLoadSpec};
use linvar_devices::{CellLibrary, DeviceVariation, Technology};
use linvar_interconnect::WireTech;
use linvar_mor::ReductionMethod;
use linvar_stats::{
    fingerprint_str, fingerprint_words, lhs_normal, monte_carlo, monte_carlo_par,
    monte_carlo_par_with_policy, rng_from_seed, run_campaign, run_shard_worker,
    run_sharded_campaign, run_spectral, run_spectral_campaign, sobol_normal_streamed,
    CampaignConfig, CampaignFingerprint, CampaignVerdict, HealthSummary, RecoveryPolicy, SampleRng,
    SampleStatus, ShardConfig, SpectralConfig, SpectralPlan, SpectralRunError, Summary,
};
use linvar_teta::{SettleStop, StageModel, StageResult, Waveform};
use std::sync::Mutex;

/// Specification of a critical path.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Primitive cell name per stage (`inv`, `nand2`, `nand3`, `nor2`,
    /// `nor3`).
    pub cells: Vec<String>,
    /// Linear interconnect elements between consecutive stages (the
    /// Table-4 knob: 10 or 500).
    pub linear_elements_between_stages: usize,
    /// Transition time of the saturated ramp driving the path input (s).
    pub input_slew: f64,
}

/// Standard deviations of the variation sources, in normalized units
/// (1 normalized unit = one 3σ manufacturing tolerance, so a source at its
/// specified tolerance has σ = 1/3 ≈ 0.33 — the paper's `std(DL) = 0.33`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSources {
    /// σ of the five wire parameters (W, T, S, H, ρ).
    pub wire: [f64; 5],
    /// σ of the channel-length reduction source `DL`.
    pub dl: f64,
    /// σ of the threshold source `VT`.
    pub vt: f64,
}

impl VariationSources {
    /// The paper's Example-3 configuration: device sources only.
    pub fn example3(dl: f64, vt: f64) -> Self {
        VariationSources {
            wire: [0.0; 5],
            dl,
            vt,
        }
    }

    /// The Example-3 Table-4 sampling: channel length plus the W and H
    /// wire parameters, each at the standard normalized σ.
    pub fn example3_table4() -> Self {
        VariationSources {
            wire: [1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0, 0.0],
            dl: 1.0 / 3.0,
            vt: 0.0,
        }
    }

    /// All seven sources at a common σ.
    pub fn uniform(sigma: f64) -> Self {
        VariationSources {
            wire: [sigma; 5],
            dl: sigma,
            vt: sigma,
        }
    }

    /// Active sources as `(label, σ)` pairs in canonical order
    /// (W, T, S, H, rho, DL, VT).
    pub fn active(&self) -> Vec<(&'static str, f64)> {
        const WIRE_NAMES: [&str; 5] = ["W", "T", "S", "H", "rho"];
        let mut out = Vec::new();
        for (i, &s) in self.wire.iter().enumerate() {
            if s > 0.0 {
                out.push((WIRE_NAMES[i], s));
            }
        }
        if self.dl > 0.0 {
            out.push(("DL", self.dl));
        }
        if self.vt > 0.0 {
            out.push(("VT", self.vt));
        }
        out
    }
}

/// One sampled point of the variation space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathSample {
    /// Wire parameter values (normalized).
    pub wire: [f64; 5],
    /// Device variation values.
    pub device: DeviceVariation,
}

/// Result of the Monte-Carlo path analysis.
#[derive(Debug, Clone)]
pub struct McPathResult {
    /// Path delay per successful sample (s), in sample-index order.
    pub delays: Vec<f64>,
    /// Summary statistics.
    pub summary: Summary,
    /// Samples whose evaluation failed.
    pub failures: usize,
    /// Indices of the failed samples, ascending.
    pub failed_indices: Vec<usize>,
    /// Diagnostic of the lowest-index failure, if any.
    pub first_error: Option<String>,
}

/// Result of the Gradient-Analysis path analysis.
#[derive(Debug, Clone)]
pub struct GaPathResult {
    /// Nominal path delay (s) — the GA mean estimate.
    pub nominal_delay: f64,
    /// Standard deviation from eq. (24) (s).
    pub std: f64,
    /// Path-delay sensitivity per active source (s per normalized unit),
    /// aligned with [`VariationSources::active`].
    pub sensitivities: Vec<f64>,
    /// Number of stage simulations performed.
    pub evaluations: usize,
}

/// Result of the polynomial-chaos path analysis.
#[derive(Debug, Clone)]
pub struct PcPathResult {
    /// Surrogate mean delay (s) — the constant gPC coefficient.
    pub mean: f64,
    /// Surrogate delay standard deviation (s) — Parseval over the
    /// non-constant coefficients.
    pub std: f64,
    /// `(probability, delay)` quantiles of the surrogate at
    /// [`linvar_stats::QUANTILE_PROBS`].
    pub quantiles: Vec<(f64, f64)>,
    /// gPC coefficients in the plan's basis order.
    pub coefficients: Vec<f64>,
    /// Raw path delays at the collocation/testing nodes, node order.
    pub node_delays: Vec<f64>,
    /// Model solves spent (== the plan's node count).
    pub nodes_evaluated: usize,
    /// Statistics of the deterministic surrogate sample behind the
    /// quantiles.
    pub surrogate_summary: Summary,
    /// Run-level recovery-health tally over the nodes.
    pub health: HealthSummary,
}

/// Result of a durable polynomial-chaos campaign.
#[derive(Debug, Clone)]
pub struct PcCampaignResult {
    /// The completed spectral result; `None` when the campaign was
    /// truncated mid-grid (resume to finish).
    pub result: Option<PcPathResult>,
    /// Statistics over the raw completed node delays (partial when
    /// truncated). Diagnostic only — the spectral estimates live in
    /// `result`.
    pub node_summary: Summary,
    /// Complete, or truncated-but-resumable.
    pub verdict: CampaignVerdict,
    /// Completed nodes (resumed + evaluated this run).
    pub completed: usize,
    /// Nodes restored from the resume snapshot.
    pub resumed: usize,
    /// Nodes evaluated in this run.
    pub evaluated: usize,
    /// Snapshots written in this run.
    pub checkpoints_written: usize,
}

struct StageEntry {
    model: StageModel,
    /// Far-end port position in the stage's port list.
    out_port: usize,
    /// The raw load (kept for the SPICE reference flow).
    load: StageLoad,
    cell: String,
}

/// A precharacterized critical path.
pub struct PathModel {
    stages: Vec<StageEntry>,
    vdd: f64,
    input_slew: f64,
    pub(crate) tech: Technology,
}

// The parallel Monte-Carlo driver shares one PathModel across worker
// threads with `&self` evaluation. Regressing these bounds (e.g. by adding
// interior mutability to a stage model) must be a compile error, not a
// latent data race.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<PathModel>();
    assert_sync_send::<StageEntry>();
    assert_sync_send::<McPathResult>();
};

impl PathModel {
    /// Builds and precharacterizes the path: one effective-load vROM per
    /// stage (PRIMA, order 6 — small enough to be cheap, rich enough for
    /// RC lines of hundreds of segments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] for an empty path or unknown cells
    /// and propagates characterization failures.
    pub fn build(spec: &PathSpec, tech: &Technology, wire: &WireTech) -> Result<Self, CoreError> {
        if spec.cells.is_empty() {
            return Err(CoreError::BadSpec("path has no stages".into()));
        }
        if spec.input_slew <= 0.0 || spec.input_slew.is_nan() {
            return Err(CoreError::BadSpec("input slew must be positive".into()));
        }
        let cells = CellLibrary::standard(tech.clone());
        let mut stages = Vec::with_capacity(spec.cells.len());
        // Stages with the same (driver, receiver) pair share an identical
        // effective load — characterize each distinct pair once. Long
        // ISCAS paths reuse a handful of pairs, so this cuts construction
        // time by an order of magnitude.
        let mut cache: std::collections::HashMap<(String, String), (StageModel, StageLoad, usize)> =
            std::collections::HashMap::new();
        for (k, cell) in spec.cells.iter().enumerate() {
            let receiver = spec
                .cells
                .get(k + 1)
                .cloned()
                .unwrap_or_else(|| "inv".to_string());
            let key = (cell.clone(), receiver.clone());
            if !cache.contains_key(&key) {
                let load = build_stage_load(
                    &StageLoadSpec {
                        linear_elements: spec.linear_elements_between_stages,
                        driver_cell: cell.clone(),
                        receiver_cell: receiver,
                    },
                    &cells,
                    wire,
                )?;
                let model = StageModel::build(
                    &load.netlist,
                    &[load.near],
                    tech,
                    ReductionMethod::Prima { order: 6 },
                    0.02,
                )?;
                let out_port = load
                    .netlist
                    .ports()
                    .iter()
                    .position(|p| *p == load.far)
                    .expect("far end is a port");
                cache.insert(key.clone(), (model, load, out_port));
            }
            let (model, load, out_port) = cache.get(&key).expect("just inserted").clone();
            stages.push(StageEntry {
                model,
                out_port,
                load,
                cell: cell.clone(),
            });
        }
        Ok(PathModel {
            stages,
            vdd: tech.library.vdd,
            input_slew: spec.input_slew,
            tech: tech.clone(),
        })
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Cell names along the path.
    pub fn cells(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.cell.as_str()).collect()
    }

    /// The raw load of stage `k` (for the SPICE reference flow).
    pub(crate) fn stage_load(&self, k: usize) -> &StageLoad {
        &self.stages[k].load
    }

    /// The path input waveform: a rising saturated ramp.
    pub fn input_waveform(&self) -> Waveform {
        Waveform::ramp(0.0, self.vdd, self.input_slew, self.input_slew)
    }

    /// Simulation timestep used for stage evaluations.
    fn stage_h(&self) -> f64 {
        (self.input_slew / 50.0).clamp(0.2e-12, 1e-12)
    }

    /// Evaluates the path delay at one variation sample with the TETA
    /// flow, propagating full waveforms (§4.3.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageStuck`] if a stage output cannot complete
    /// its transition even with an enlarged window, or propagates solver
    /// failures.
    pub fn evaluate_sample(&self, sample: &PathSample) -> Result<f64, CoreError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SampleEval);
        let mut input = self.input_waveform();
        let m_path_in = input
            .crossing(self.vdd / 2.0, true)
            .expect("ramp crosses midpoint");
        let mut offset = 0.0; // accumulated rebasing shifts
        let mut m_out_abs = m_path_in;
        let h = self.stage_h();
        for (k, stage) in self.stages.iter().enumerate() {
            let rising_out = !input.is_rising();
            let out = self
                .stage_window(
                    k,
                    &input,
                    input.end_time() + 1.0e-9,
                    |w| self.completed(w, rising_out),
                    |t_end, stop| {
                        Ok(stage.model.evaluate_until(
                            &sample.wire,
                            sample.device,
                            std::slice::from_ref(&input),
                            h,
                            t_end,
                            stop,
                        )?)
                    },
                )?
                .ok_or(CoreError::StageStuck { stage: k })?;
            let (m_out, next, shift) = self.next_stage_input(&out, rising_out);
            m_out_abs = m_out + offset;
            input = next;
            offset += shift;
        }
        Ok(m_out_abs - m_path_in)
    }

    /// Runs stage `k` on `input` until `accept` takes its output-port
    /// waveform, doubling the window from `t_end` up to twice; `None` if
    /// no window is accepted. `eval(t_end, stop)` runs the stage; the
    /// accepted waveform comes from its last call.
    ///
    /// Each window first runs with a [`SettleStop`] on the output port,
    /// ending the time loop once the output has settled. The shortened
    /// run stands for the full window only if
    /// [`PathModel::prefix_is_exact`] holds; otherwise the window is run
    /// again in full. Either way the returned waveform, and everything the
    /// caller derives from it, is bitwise what the full window gives.
    fn stage_window(
        &self,
        k: usize,
        input: &Waveform,
        mut t_end: f64,
        accept: impl Fn(&Waveform) -> bool,
        mut eval: impl FnMut(f64, Option<SettleStop>) -> Result<StageResult, CoreError>,
    ) -> Result<Option<Waveform>, CoreError> {
        let port = self.stages[k].out_port;
        let stop = SettleStop {
            port,
            rising: !input.is_rising(),
        };
        for _attempt in 0..3 {
            let mut res = eval(t_end, Some(stop))?;
            if res.stats.settled_early && !self.prefix_is_exact(&res.waveforms[port], stop.rising) {
                res = eval(t_end, None)?;
            }
            if accept(&res.waveforms[port]) {
                // Take the winning waveform out of the result instead of
                // cloning its point vector; the rest of `res` is dropped.
                return Ok(Some(res.waveforms.swap_remove(port)));
            }
            t_end *= 2.0;
        }
        Ok(None)
    }

    /// Whether a compressed output `w` that ended at a [`SettleStop`]
    /// gives the same crossings and `m + 4·s` cut as the full window.
    ///
    /// Compressing the first `m` raw samples keeps exactly the points the
    /// full run keeps up to index `m − 2` ([`Waveform::compress`]), which
    /// include every point of `w` but its last. So every crossing that
    /// lies before `w`'s second-to-last point sits on a segment the full
    /// waveform shares, and a cut before `end_time − 2h` keeps the same
    /// points. This assumes the output stays settled over the rest of the
    /// window, as the full-window acceptance test requires anyway.
    fn prefix_is_exact(&self, w: &Waveform, rising: bool) -> bool {
        let Ok(sr) = w.to_saturated_ramp(0.0, self.vdd) else {
            return false;
        };
        if sr.rising != rising {
            return false;
        }
        // A complete ramp has crossings, hence at least two points.
        let t_pen = w.points()[w.points().len() - 2].0;
        let crossings_shared = [0.1, 0.5, 0.9]
            .iter()
            .all(|f| w.crossing(f * self.vdd, rising).is_some_and(|t| t < t_pen));
        crossings_shared && sr.m + 4.0 * sr.s < w.end_time() - 2.0 * self.stage_h()
    }

    /// Path-evaluator acceptance of a stage output: it crosses 50 % in
    /// the expected direction and ends within 5 % of the rail.
    fn completed(&self, w: &Waveform, rising: bool) -> bool {
        let rail = if rising { self.vdd } else { 0.0 };
        (w.final_value() - rail).abs() < 0.05 * self.vdd
            && w.crossing(self.vdd / 2.0, rising).is_some()
    }

    /// From an accepted stage output: its 50 % time `m_out`, the next
    /// stage's input, and the rebasing shift applied to it. The settled
    /// tail after `m_out + 4·s` is trimmed so downstream windows stay
    /// short, and the transition is moved near the time origin.
    fn next_stage_input(&self, out: &Waveform, rising: bool) -> (f64, Waveform, f64) {
        let m_out = out
            .crossing(self.vdd / 2.0, rising)
            .expect("accepted outputs cross 50 %");
        let s_est = out
            .to_saturated_ramp(0.0, self.vdd)
            .map(|sr| sr.s)
            .unwrap_or(self.input_slew);
        let shift = (m_out - 2.0 * s_est).max(0.0);
        let next = out.truncated(m_out + 4.0 * s_est).shifted(-shift);
        (m_out, next, shift)
    }

    /// Draws `n` variation samples (LHS with normal marginals).
    pub fn draw_samples(
        &self,
        sources: &VariationSources,
        n: usize,
        rng: &mut SampleRng,
    ) -> Vec<PathSample> {
        let raw = lhs_normal(rng, n, 7, 1.0);
        raw.into_iter().map(|z| scale_sample(sources, &z)).collect()
    }

    /// Draws `n` samples from the Sobol quasi-MC sequence instead of
    /// LHS: the same 7-dimensional standard-normal scaling as
    /// [`PathModel::draw_samples`], but over the digitally-shifted Sobol
    /// points of [`linvar_stats::sobol_point`]. Each sample is a pure
    /// function of `(master_seed, index)`, so the set composes with
    /// every parallel/resume contract exactly as the LHS stream does.
    pub fn draw_samples_sobol(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
    ) -> Vec<PathSample> {
        let raw = sobol_normal_streamed(master_seed, n, 7, 1.0);
        raw.into_iter().map(|z| scale_sample(sources, &z)).collect()
    }

    /// Monte-Carlo path-delay analysis (§4.3.1).
    ///
    /// # Errors
    ///
    /// Individual sample failures are counted in the result; this method
    /// itself only fails if *every* sample fails.
    pub fn monte_carlo(
        &self,
        sources: &VariationSources,
        n: usize,
        rng: &mut SampleRng,
    ) -> Result<McPathResult, CoreError> {
        let samples = self.draw_samples(sources, n, rng);
        let res = monte_carlo(&samples, |s| self.evaluate_sample(s));
        Self::mc_result(res)
    }

    /// Deterministic parallel Monte-Carlo path-delay analysis.
    ///
    /// Samples are drawn exactly as [`PathModel::monte_carlo`] would with
    /// `rng_from_seed(master_seed)`, then evaluated across `threads`
    /// scoped workers (`0` = auto: `LINVAR_THREADS`, then available
    /// parallelism). Stage models are read-only during evaluation
    /// ([`PathModel`] is `Sync` — statically asserted below), so the
    /// result is **bitwise-identical** to the serial driver for the same
    /// master seed, at any thread count.
    ///
    /// # Errors
    ///
    /// Individual sample failures are counted in the result; this method
    /// itself only fails if *every* sample fails.
    pub fn monte_carlo_par(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
    ) -> Result<McPathResult, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = self.draw_samples(sources, n, &mut rng);
        let res = monte_carlo_par(&samples, threads, |s| self.evaluate_sample(s));
        Self::mc_result(res)
    }

    /// [`PathModel::monte_carlo_par`] over the Sobol quasi-MC sample
    /// stream ([`PathModel::draw_samples_sobol`]) instead of LHS — the
    /// cheap variance-reduction rung for plain MC. Bitwise-identical at
    /// any thread count, like every other engine.
    ///
    /// # Errors
    ///
    /// Individual sample failures are counted in the result; this method
    /// itself only fails if *every* sample fails.
    pub fn monte_carlo_par_sobol(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
    ) -> Result<McPathResult, CoreError> {
        let samples = self.draw_samples_sobol(sources, n, master_seed);
        let res = monte_carlo_par(&samples, threads, |s| self.evaluate_sample(s));
        Self::mc_result(res)
    }

    fn mc_result(res: linvar_stats::MonteCarloResult) -> Result<McPathResult, CoreError> {
        if res.values.is_empty() {
            return Err(CoreError::BadSpec(match &res.first_error {
                Some(diag) => format!("all monte-carlo samples failed; first error: {diag}"),
                None => "all monte-carlo samples failed".to_string(),
            }));
        }
        Ok(McPathResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
        })
    }

    /// Evaluates the path delay at one sample under the per-stage
    /// failure-recovery ladder.
    ///
    /// Each stage runs [`linvar_teta::StageModel::evaluate_recovering`]
    /// (vROM with order degradation, SC retry schedule, exact reduction,
    /// unreduced MNA); if the whole TETA ladder is exhausted for a stage
    /// and `spice_fallback` is set, that stage alone is served by the
    /// baseline SPICE engine. The returned [`DegradationReport`] names the
    /// most severe rung used along the path (`sample_index` is left 0 for
    /// the caller to fill).
    ///
    /// # Errors
    ///
    /// Returns the stage's terminal error when the ladder is exhausted and
    /// SPICE fallback is disabled (or itself fails).
    pub fn evaluate_sample_recovering(
        &self,
        sample: &PathSample,
        spice_fallback: bool,
    ) -> Result<(f64, DegradationReport), CoreError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SampleEval);
        let mut input = self.input_waveform();
        let m_path_in = input
            .crossing(self.vdd / 2.0, true)
            .expect("ramp crosses midpoint");
        let mut offset = 0.0;
        let mut m_out_abs = m_path_in;
        let h = self.stage_h();
        let mut report = DegradationReport::clean();
        for (k, stage) in self.stages.iter().enumerate() {
            let rising_out = !input.is_rising();
            let mut stage_rec = None;
            let served = self.stage_window(
                k,
                &input,
                input.end_time() + 1.0e-9,
                |w| self.completed(w, rising_out),
                |t_end, stop| {
                    let (res, rec) = stage.model.evaluate_recovering(
                        &sample.wire,
                        sample.device,
                        std::slice::from_ref(&input),
                        h,
                        t_end,
                        stop,
                    )?;
                    stage_rec = Some(rec);
                    Ok(res)
                },
            );
            let out = match (served, spice_fallback) {
                (Ok(Some(w)), _) => w,
                (_, true) => {
                    stage_rec = None;
                    let w = self.spice_stage_output(k, &input, sample, rising_out)?;
                    linvar_metrics::incr(linvar_metrics::Counter::StageSpiceRescues);
                    report.rung = report.rung.worst(EngineRung::SpiceBaseline);
                    report.notes.push(format!(
                        "stage {k} ({}): served by baseline SPICE",
                        stage.cell
                    ));
                    w
                }
                (Err(e), false) => return Err(e),
                (Ok(None), false) => return Err(CoreError::StageStuck { stage: k }),
            };
            if let Some(rec) = stage_rec {
                report.sc_retries += rec.sc_retries;
                let rung = EngineRung::from_stage(&rec);
                report.rung = report.rung.worst(rung);
                if !rec.was_clean() {
                    report.notes.push(format!(
                        "stage {k} ({}): {rung}, order {}→{}, {} SC retr{}",
                        stage.cell,
                        rec.original_order,
                        rec.served_order,
                        rec.sc_retries,
                        if rec.sc_retries == 1 { "y" } else { "ies" }
                    ));
                }
            }
            let (m_out, next, shift) = self.next_stage_input(&out, rising_out);
            m_out_abs = m_out + offset;
            input = next;
            offset += shift;
        }
        Ok((m_out_abs - m_path_in, report))
    }

    /// Deterministic parallel Monte-Carlo with the failure-recovery
    /// ladder.
    ///
    /// Attempt mapping per sample: attempt 0 is the fast path
    /// ([`PathModel::evaluate_sample`]); attempts `1..=max_retries` run
    /// the per-stage TETA recovery ladder
    /// ([`PathModel::evaluate_sample_recovering`], with per-stage SPICE
    /// fallback when the policy allows fallback); the final fallback
    /// attempt runs the whole path through the baseline SPICE engine.
    /// Every assisted sample gets a [`DegradationReport`]; the run-level
    /// health tally distinguishes clean / recovered / degraded / failed.
    ///
    /// Inherits both determinism contracts: the sample set is a pure
    /// function of `master_seed`, every attempt is a pure function of
    /// `(sample, attempt)`, and results merge in sample-index order — so
    /// the result (reports included) is **bitwise-identical at any thread
    /// count**, fail-fast truncation included.
    ///
    /// Unlike [`PathModel::monte_carlo_par`], an all-failed run is not an
    /// error: the health summary *is* the answer.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond sample bookkeeping; returns `Result`
    /// so stricter run-level gates can be added without an API break.
    pub fn monte_carlo_par_recovering(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
    ) -> Result<McRecoveryResult, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = self.draw_samples(sources, n, &mut rng);
        let indexed: Vec<(usize, PathSample)> = samples.into_iter().enumerate().collect();
        // Side channel for the degradation reports: keyed by sample index,
        // written at most once per sample (only the succeeding attempt
        // writes), sorted after the merge — deterministic because each
        // report is a pure function of its sample.
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = monte_carlo_par_with_policy(
            &indexed,
            threads,
            policy,
            |&(idx, ref sample), attempt| -> Result<(f64, SampleStatus), String> {
                if attempt == 0 {
                    return self
                        .evaluate_sample(sample)
                        .map(|d| {
                            linvar_metrics::incr(linvar_metrics::Counter::RungVariationalRom);
                            (d, SampleStatus::Clean)
                        })
                        .map_err(|e| e.to_string());
                }
                if policy.is_fallback_attempt(attempt) {
                    let d = self
                        .evaluate_sample_spice(sample)
                        .map_err(|e| e.to_string())?;
                    let mut report = DegradationReport::clean();
                    report.sample_index = idx;
                    report.rung = EngineRung::SpiceBaseline;
                    report
                        .notes
                        .push("whole path served by baseline SPICE".into());
                    reports.lock().expect("reports lock").push(report);
                    linvar_metrics::incr(linvar_metrics::Counter::RungSpiceBaseline);
                    return Ok((d, SampleStatus::Degraded));
                }
                let (d, mut report) = self
                    .evaluate_sample_recovering(sample, policy.allow_fallback)
                    .map_err(|e| e.to_string())?;
                report.sample_index = idx;
                let status = report.status();
                linvar_metrics::incr(rung_counter(report.rung));
                if !report.is_clean() {
                    reports.lock().expect("reports lock").push(report);
                }
                Ok((d, status))
            },
        );
        let mut reports = reports.into_inner().expect("workers joined");
        // Drop reports for samples beyond a fail-fast truncation point
        // (they were evaluated before the cancellation propagated but are
        // not part of the run's output).
        if let Some(cut) = res.truncated_at {
            reports.retain(|r| r.sample_index <= cut);
        }
        reports.sort_by_key(|r| r.sample_index);
        Ok(McRecoveryResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
            sample_health: res.sample_health,
            health: res.health,
            truncated_at: res.truncated_at,
            reports,
        })
    }

    /// Fingerprint of everything (beyond seed and sample count) that
    /// shapes a sample's delay: the cells along the path, the stage
    /// count, input slew, supply, and the σ of every variation source.
    ///
    /// Stored in campaign checkpoints so a snapshot taken against one
    /// path/source configuration refuses to resume against another.
    pub fn campaign_fingerprint(&self, sources: &VariationSources) -> u64 {
        let mut words = Vec::with_capacity(self.stages.len() + 10);
        for stage in &self.stages {
            words.push(fingerprint_str(&stage.cell));
        }
        words.push(self.stages.len() as u64);
        words.push(self.input_slew.to_bits());
        words.push(self.vdd.to_bits());
        for &s in &sources.wire {
            words.push(s.to_bits());
        }
        words.push(sources.dl.to_bits());
        words.push(sources.vt.to_bits());
        fingerprint_words(words)
    }

    /// Durable Monte-Carlo path-delay campaign: the recovering parallel
    /// driver ([`PathModel::monte_carlo_par_recovering`], same attempt
    /// ladder) wrapped in the checkpoint/resume/deadline machinery of
    /// [`linvar_stats::campaign`].
    ///
    /// * `config.checkpoint` — atomic, checksummed snapshots of every
    ///   completed sample, written periodically and once more before
    ///   returning;
    /// * `config.resume` — restore completed samples from a snapshot and
    ///   evaluate only the missing indices. The snapshot's seed, sample
    ///   count, policy and model fingerprints must match
    ///   ([`PathModel::campaign_fingerprint`]) or the resume refuses with
    ///   a typed error. The merged result is **bitwise-identical** to an
    ///   uninterrupted run at any thread count;
    /// * `config.deadline` / `config.sample_budget` — graceful
    ///   truncation: in-flight samples finish, the result carries valid
    ///   partial statistics, a `Truncated` verdict, and a resumable final
    ///   snapshot;
    /// * `config.sample_timeout` — the cooperative watchdog: an attempt
    ///   overrunning the soft budget floors the sample's health to
    ///   [`SampleStatus::TimedOut`] (an overrunning *failure* falls down
    ///   the recovery ladder instead of stalling the queue).
    ///
    /// `policy.fail_fast` is ignored by campaigns — their answer to a
    /// failing sample is quarantine-and-checkpoint, not truncation.
    ///
    /// # Errors
    ///
    /// Checkpoint load/validation failures and the final snapshot write,
    /// as [`CoreError::Checkpoint`].
    pub fn monte_carlo_campaign(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<McCampaignResult, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = self.draw_samples(sources, n, &mut rng);
        let model = self.campaign_fingerprint(sources);
        self.run_path_campaign(samples, master_seed, threads, policy, config, model)
    }

    /// [`PathModel::monte_carlo_campaign`] over the Sobol quasi-MC
    /// sample stream ([`PathModel::draw_samples_sobol`]) instead of LHS.
    /// The checkpoint fingerprint folds the sample-source tag, so a
    /// snapshot taken under one stream refuses to resume under the
    /// other.
    ///
    /// # Errors
    ///
    /// As [`PathModel::monte_carlo_campaign`].
    pub fn monte_carlo_campaign_sobol(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<McCampaignResult, CoreError> {
        let samples = self.draw_samples_sobol(sources, n, master_seed);
        let model = fingerprint_words([
            self.campaign_fingerprint(sources),
            fingerprint_str("sobol-v1"),
        ]);
        self.run_path_campaign(samples, master_seed, threads, policy, config, model)
    }

    /// Shared campaign tail of the LHS and Sobol sample streams: index
    /// the samples, run the durable campaign over the shared attempt
    /// ladder ([`PathModel::campaign_eval`]), collect the degradation
    /// reports.
    fn run_path_campaign(
        &self,
        samples: Vec<PathSample>,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
        model: u64,
    ) -> Result<McCampaignResult, CoreError> {
        let n = samples.len();
        let indexed: Vec<(usize, PathSample)> = samples.into_iter().enumerate().collect();
        let fingerprint = CampaignFingerprint {
            master_seed,
            n_samples: n,
            policy,
            model,
        };
        // Report side channel, as in `monte_carlo_par_recovering`: written
        // at most once per sample evaluated this run, sorted after the
        // merge. Resumed samples carry no report (checkpoints persist
        // status/attempts, not notes).
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = run_campaign(
            &indexed,
            threads,
            policy,
            config,
            fingerprint,
            |s: &(usize, PathSample), attempt| self.campaign_eval(policy, &reports, s, attempt),
        )?;
        let mut reports = reports.into_inner().expect("workers joined");
        reports.sort_by_key(|r| r.sample_index);
        Ok(McCampaignResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
            sample_health: res.sample_health,
            health: res.health,
            verdict: res.verdict,
            completed: res.completed,
            resumed: res.resumed,
            evaluated: res.evaluated,
            checkpoints_written: res.checkpoints_written,
            reports,
        })
    }

    /// The campaign attempt ladder for one globally-indexed sample:
    /// attempt 0 on the vROM fast path, middle attempts through the
    /// per-stage recovery ladder, the final attempt on the whole-path
    /// SPICE baseline. Shared verbatim by [`PathModel::monte_carlo_campaign`],
    /// [`PathModel::monte_carlo_sharded`] and
    /// [`PathModel::monte_carlo_shard_worker`] — structural identity of
    /// the evaluator is one half of the sharded bitwise-identity
    /// contract (the other is the index-ordered merge).
    fn campaign_eval(
        &self,
        policy: RecoveryPolicy,
        reports: &Mutex<Vec<DegradationReport>>,
        s: &(usize, PathSample),
        attempt: usize,
    ) -> Result<(f64, SampleStatus), String> {
        let (idx, ref sample) = *s;
        if attempt == 0 {
            return self
                .evaluate_sample(sample)
                .map(|d| {
                    linvar_metrics::incr(linvar_metrics::Counter::RungVariationalRom);
                    (d, SampleStatus::Clean)
                })
                .map_err(|e| e.to_string());
        }
        if policy.is_fallback_attempt(attempt) {
            let d = self
                .evaluate_sample_spice(sample)
                .map_err(|e| e.to_string())?;
            let mut report = DegradationReport::clean();
            report.sample_index = idx;
            report.rung = EngineRung::SpiceBaseline;
            report
                .notes
                .push("whole path served by baseline SPICE".into());
            reports.lock().expect("reports lock").push(report);
            linvar_metrics::incr(linvar_metrics::Counter::RungSpiceBaseline);
            return Ok((d, SampleStatus::Degraded));
        }
        let (d, mut report) = self
            .evaluate_sample_recovering(sample, policy.allow_fallback)
            .map_err(|e| e.to_string())?;
        report.sample_index = idx;
        let status = report.status();
        linvar_metrics::incr(rung_counter(report.rung));
        if !report.is_clean() {
            reports.lock().expect("reports lock").push(report);
        }
        Ok((d, status))
    }

    /// Hermite-basis polynomial-chaos path-delay analysis: builds a
    /// [`SpectralPlan`] over the **active** variation sources (canonical
    /// [`VariationSources::active`] order defines the germ dimensions),
    /// evaluates the path at each collocation/testing node through the
    /// same attempt ladder as the campaigns
    /// ([`PathModel::campaign_eval`]), and solves for the coefficients,
    /// moments and surrogate quantiles. A node in standard-normal germ
    /// coordinates maps to a sample by scaling each coordinate with its
    /// source's σ.
    ///
    /// `master_seed` seeds only the quantile surrogate stream — the node
    /// set is seed-free — but is kept in the signature so engines swap
    /// interchangeably in the bench bins.
    ///
    /// Bitwise-identical at any thread count.
    ///
    /// # Errors
    ///
    /// A source set with no active sources or an unbuildable plan as
    /// [`CoreError::Spectral`] ([`CoreError::BadSpec`] for the former);
    /// node failures and solve failures as [`CoreError::Spectral`].
    pub fn polynomial_chaos(
        &self,
        sources: &VariationSources,
        config: SpectralConfig,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
    ) -> Result<PcPathResult, CoreError> {
        let active = sources.active();
        if active.is_empty() {
            return Err(CoreError::BadSpec(
                "polynomial chaos needs at least one active variation source".into(),
            ));
        }
        let plan = SpectralPlan::build(active.len(), config)?;
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = run_spectral(&plan, threads, policy, master_seed, |node, attempt| {
            let s = (0usize, sample_at_node(&active, node));
            self.campaign_eval(policy, &reports, &s, attempt)
        })
        .map_err(CoreError::Spectral)?;
        Ok(Self::pc_result(res))
    }

    /// Durable polynomial-chaos campaign: [`PathModel::polynomial_chaos`]
    /// wrapped in the checkpoint/resume/deadline machinery, exactly as
    /// [`PathModel::monte_carlo_campaign`] wraps the MC driver. The
    /// checkpoint fingerprint extends
    /// [`PathModel::campaign_fingerprint`] with the plan's own
    /// fingerprint, so a snapshot taken under one grid/basis refuses to
    /// resume under another. Kill-and-resume is bitwise-exact.
    ///
    /// # Errors
    ///
    /// Checkpoint failures as [`CoreError::Checkpoint`]; plan/node/solve
    /// failures as [`CoreError::Spectral`]. Deadline or budget truncation
    /// is not an error: `result` comes back `None` with a `Truncated`
    /// verdict and a resumable snapshot.
    pub fn polynomial_chaos_campaign(
        &self,
        sources: &VariationSources,
        config: SpectralConfig,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        campaign: &CampaignConfig,
    ) -> Result<PcCampaignResult, CoreError> {
        let active = sources.active();
        if active.is_empty() {
            return Err(CoreError::BadSpec(
                "polynomial chaos needs at least one active variation source".into(),
            ));
        }
        let plan = SpectralPlan::build(active.len(), config)?;
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = run_spectral_campaign(
            &plan,
            threads,
            policy,
            campaign,
            master_seed,
            self.campaign_fingerprint(sources),
            |node, attempt| {
                let s = (0usize, sample_at_node(&active, node));
                self.campaign_eval(policy, &reports, &s, attempt)
            },
        )
        .map_err(|e| match e {
            SpectralRunError::Checkpoint(ck) => CoreError::Checkpoint(ck),
            SpectralRunError::Spectral(sp) => CoreError::Spectral(sp),
        })?;
        Ok(PcCampaignResult {
            result: res.result.map(Self::pc_result),
            node_summary: res.node_summary,
            verdict: res.verdict,
            completed: res.completed,
            resumed: res.resumed,
            evaluated: res.evaluated,
            checkpoints_written: res.checkpoints_written,
        })
    }

    fn pc_result(res: linvar_stats::SpectralResult) -> PcPathResult {
        PcPathResult {
            mean: res.mean,
            std: res.std,
            quantiles: res.quantiles,
            coefficients: res.coefficients,
            node_delays: res.node_values,
            nodes_evaluated: res.nodes_evaluated,
            surrogate_summary: res.surrogate_summary,
            health: res.health,
        }
    }

    /// Sharded Monte-Carlo path-delay campaign: the sample range is
    /// split into `config.n_shards` supervised shards, each running the
    /// same attempt ladder as [`PathModel::monte_carlo_campaign`] with
    /// its own fingerprinted checkpoint, heartbeat-watched for stalls,
    /// retried with capped backoff on death, and merged first-writer-
    /// wins per sample index.
    ///
    /// The merged result is **bitwise-identical** to
    /// [`PathModel::monte_carlo_campaign`] at any shard count and any
    /// thread count — including under every injected
    /// [`linvar_stats::ShardFault`].
    ///
    /// # Errors
    ///
    /// Shard-plan problems, as [`CoreError::Shard`]. Shard deaths do
    /// not error: a permanently dead shard surfaces as `Failed` samples
    /// in the merged health, with a typed per-shard verdict.
    pub fn monte_carlo_sharded(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &ShardConfig,
    ) -> Result<McShardedResult, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = self.draw_samples(sources, n, &mut rng);
        let indexed: Vec<(usize, PathSample)> = samples.into_iter().enumerate().collect();
        let fingerprint = CampaignFingerprint {
            master_seed,
            n_samples: n,
            policy,
            model: self.campaign_fingerprint(sources),
        };
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = run_sharded_campaign(
            &indexed,
            threads,
            policy,
            config,
            &fingerprint,
            |s: &(usize, PathSample), attempt| self.campaign_eval(policy, &reports, s, attempt),
        )?;
        let mut reports = reports.into_inner().expect("supervisor joined");
        // Shard retries and straggler re-dispatches can evaluate a
        // sample more than once; reports are pure per (sample, attempt
        // trail), so keeping the first of each index is exact.
        reports.sort_by_key(|r| r.sample_index);
        reports.dedup_by_key(|r| r.sample_index);
        Ok(McShardedResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
            sample_health: res.sample_health,
            health: res.health,
            completed: res.completed,
            resumed: res.resumed,
            evaluated: res.evaluated,
            checkpoints_written: res.checkpoints_written,
            shards: res.shards,
            reports,
        })
    }

    /// Runs exactly one shard of the plan — the process-per-shard mode
    /// behind the bench bins' `--shard-index` flag. The shard's
    /// fingerprinted snapshot is its output; a later
    /// [`PathModel::monte_carlo_sharded`] over the same prefix with
    /// `resume: true` merges the per-process snapshots without
    /// re-evaluating anything.
    ///
    /// # Errors
    ///
    /// Shard-plan problems (including a missing checkpoint prefix) and
    /// the shard campaign's own checkpoint errors, as
    /// [`CoreError::Shard`].
    // Mirrors `monte_carlo_campaign`'s signature plus the shard index;
    // collapsing the knobs into a struct would just move the noise.
    #[allow(clippy::too_many_arguments)]
    pub fn monte_carlo_shard_worker(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &ShardConfig,
        shard_index: usize,
    ) -> Result<McCampaignResult, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = self.draw_samples(sources, n, &mut rng);
        let indexed: Vec<(usize, PathSample)> = samples.into_iter().enumerate().collect();
        let fingerprint = CampaignFingerprint {
            master_seed,
            n_samples: n,
            policy,
            model: self.campaign_fingerprint(sources),
        };
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let res = run_shard_worker(
            &indexed,
            threads,
            policy,
            config,
            &fingerprint,
            shard_index,
            |s: &(usize, PathSample), attempt| self.campaign_eval(policy, &reports, s, attempt),
        )?;
        let mut reports = reports.into_inner().expect("worker joined");
        reports.sort_by_key(|r| r.sample_index);
        Ok(McCampaignResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
            sample_health: res.sample_health,
            health: res.health,
            verdict: res.verdict,
            completed: res.completed,
            resumed: res.resumed,
            evaluated: res.evaluated,
            checkpoints_written: res.checkpoints_written,
            reports,
        })
    }

    /// One GA stage evaluation: ramp input with slew `s_in` (direction by
    /// stage parity), returning `(stage delay, output slew)`.
    fn ga_stage(&self, k: usize, s_in: f64, sample: &PathSample) -> Result<(f64, f64), CoreError> {
        let stage = &self.stages[k];
        let rising_in = k.is_multiple_of(2);
        let (v0, v1) = if rising_in {
            (0.0, self.vdd)
        } else {
            (self.vdd, 0.0)
        };
        let input = Waveform::ramp(v0, v1, s_in, s_in);
        let m_in = 1.5 * s_in;
        let h = self.stage_h();
        let ramp = |w: &Waveform| w.to_saturated_ramp(0.0, self.vdd);
        let out = self
            .stage_window(
                k,
                &input,
                3.0 * s_in + 1.0e-9,
                |w| ramp(w).is_ok(),
                |t_end, stop| {
                    Ok(stage.model.evaluate_until(
                        &sample.wire,
                        sample.device,
                        std::slice::from_ref(&input),
                        h,
                        t_end,
                        stop,
                    )?)
                },
            )?
            .ok_or(CoreError::StageStuck { stage: k })?;
        let sr = ramp(&out).expect("accepted outputs have a ramp");
        Ok((sr.m - m_in, sr.s))
    }

    /// Gradient-Analysis path-delay statistics (§4.3.2).
    ///
    /// Per stage: one nominal evaluation, two input-slew perturbations and
    /// two per active source; `(M, S)` derivatives chain through eq. (31)
    /// and the path σ follows from eq. (24).
    ///
    /// # Errors
    ///
    /// Propagates stage-evaluation failures.
    pub fn gradient_analysis(&self, sources: &VariationSources) -> Result<GaPathResult, CoreError> {
        let active = sources.active();
        let n_src = active.len();
        let nominal = PathSample::default();
        let mut evaluations = 0usize;

        // dM/dw and dS/dw accumulated along the path, per source.
        let mut dm = vec![0.0; n_src];
        let mut ds = vec![0.0; n_src];
        let mut s_in = self.input_slew;
        let mut total_delay = 0.0;

        for k in 0..self.stages.len() {
            let (d0, s_out0) = self.ga_stage(k, s_in, &nominal)?;
            evaluations += 1;
            // Input-slew sensitivities (∂Π/∂S_in, ∂Ψ/∂S_in).
            let ds_in = 0.05 * s_in;
            let (d_hi, s_hi) = self.ga_stage(k, s_in + ds_in, &nominal)?;
            let (d_lo, s_lo) = self.ga_stage(k, s_in - ds_in, &nominal)?;
            evaluations += 2;
            let dpi_dsin = (d_hi - d_lo) / (2.0 * ds_in);
            let dpsi_dsin = (s_hi - s_lo) / (2.0 * ds_in);
            // Per-source sensitivities (∂Π/∂w, ∂Ψ/∂w) at step ±σ.
            for (l, &(name, sigma)) in active.iter().enumerate() {
                let mut hi = nominal;
                let mut lo = nominal;
                apply_source(&mut hi, name, sigma);
                apply_source(&mut lo, name, -sigma);
                let (dh, sh) = self.ga_stage(k, s_in, &hi)?;
                let (dl_, sl) = self.ga_stage(k, s_in, &lo)?;
                evaluations += 2;
                let dpi_dw = (dh - dl_) / (2.0 * sigma);
                let dpsi_dw = (sh - sl) / (2.0 * sigma);
                // Eq. (31): chain through the input-slew dependence.
                let dm_new = dm[l] + dpi_dw + dpi_dsin * ds[l];
                let ds_new = dpsi_dw + dpsi_dsin * ds[l];
                dm[l] = dm_new;
                ds[l] = ds_new;
            }
            total_delay += d0;
            s_in = s_out0;
        }
        // Eq. (24) with the source σ's.
        let sigmas: Vec<f64> = active.iter().map(|&(_, s)| s).collect();
        let std = linvar_stats::gradient_std(&sigmas, &dm);
        Ok(GaPathResult {
            nominal_delay: total_delay,
            std,
            sensitivities: dm,
            evaluations,
        })
    }
}

impl McPathResult {
    /// Empirical timing yield at the given clock period (s) — the
    /// fraction of samples meeting it (paper §4, ref \[13\]).
    pub fn timing_yield(&self, period: f64) -> f64 {
        linvar_stats::empirical_yield(&self.delays, period)
    }
}

impl GaPathResult {
    /// Normal-model timing yield at the given clock period (s), from the
    /// GA (mean, σ).
    pub fn timing_yield(&self, period: f64) -> f64 {
        linvar_stats::normal_yield(self.nominal_delay, self.std, period)
    }

    /// Clock period achieving the target yield under the GA normal model.
    pub fn period_for_yield(&self, target: f64) -> f64 {
        linvar_stats::period_for_yield(self.nominal_delay, self.std, target)
    }
}

/// Applies `value` (normalized units) of the named source to a sample.
pub(crate) fn apply_source_pub(sample: &mut PathSample, name: &str, value: f64) {
    apply_source(sample, name, value);
}

/// Maps one collocation node in standard-normal germ coordinates onto a
/// [`PathSample`]: coordinate `k` scales by the σ of the `k`-th active
/// source (canonical [`VariationSources::active`] order).
fn sample_at_node(active: &[(&'static str, f64)], node: &[f64]) -> PathSample {
    let mut sample = PathSample::default();
    for ((name, sigma), &x) in active.iter().zip(node) {
        apply_source(&mut sample, name, sigma * x);
    }
    sample
}

/// Maps one 7-dimensional standard-normal draw onto a [`PathSample`] by
/// the per-source σ — shared by the LHS and Sobol sample streams.
fn scale_sample(sources: &VariationSources, z: &[f64]) -> PathSample {
    let mut wire = [0.0; 5];
    for i in 0..5 {
        wire[i] = z[i] * sources.wire[i];
    }
    PathSample {
        wire,
        device: DeviceVariation::new(z[5] * sources.dl, z[6] * sources.vt),
    }
}

/// Applies `value` (normalized units) of the named source to a sample.
/// Maps the rung that served a sample to its observability counter.
///
/// Recorded by the *succeeding* attempt only; since every attempt is a
/// pure function of `(sample, attempt)`, the tally is deterministic at
/// any thread count (fail-fast truncation excepted — samples evaluated
/// past the truncation point still count their rung).
fn rung_counter(rung: EngineRung) -> linvar_metrics::Counter {
    match rung {
        EngineRung::VariationalRom => linvar_metrics::Counter::RungVariationalRom,
        EngineRung::RefinedSc => linvar_metrics::Counter::RungRefinedSc,
        EngineRung::ExactReduction => linvar_metrics::Counter::RungExactReduction,
        EngineRung::DegradedOrder(_) => linvar_metrics::Counter::RungDegradedOrder,
        EngineRung::UnreducedMna => linvar_metrics::Counter::RungUnreducedMna,
        EngineRung::SpiceBaseline => linvar_metrics::Counter::RungSpiceBaseline,
    }
}

fn apply_source(sample: &mut PathSample, name: &str, value: f64) {
    match name {
        "W" => sample.wire[0] += value,
        "T" => sample.wire[1] += value,
        "S" => sample.wire[2] += value,
        "H" => sample.wire[3] += value,
        "rho" => sample.wire[4] += value,
        "DL" => sample.device.dl += value,
        "VT" => sample.device.vt += value,
        other => unreachable!("unknown source {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::tech_018;
    use linvar_stats::rng_from_seed;

    fn small_path() -> PathModel {
        let spec = PathSpec {
            cells: vec!["inv".into(), "nand2".into(), "inv".into()],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap()
    }

    #[test]
    fn nominal_delay_is_positive_and_reasonable() {
        let model = small_path();
        let d = model.evaluate_sample(&PathSample::default()).unwrap();
        // 3 lightly loaded 0.18 µm stages: tens to hundreds of ps.
        assert!(d > 10e-12 && d < 2e-9, "delay {d}");
    }

    #[test]
    fn slower_devices_increase_delay() {
        let model = small_path();
        let nominal = model.evaluate_sample(&PathSample::default()).unwrap();
        let slow = model
            .evaluate_sample(&PathSample {
                wire: [0.0; 5],
                device: DeviceVariation::new(-1.0, 2.0), // longer L, higher VT
            })
            .unwrap();
        assert!(slow > nominal, "{slow} vs {nominal}");
    }

    #[test]
    fn monte_carlo_produces_spread() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let mut rng = rng_from_seed(5);
        let mc = model.monte_carlo(&sources, 12, &mut rng).unwrap();
        assert_eq!(mc.failures, 0);
        assert_eq!(mc.delays.len(), 12);
        assert!(mc.summary.std > 0.0);
        assert!(mc.summary.std < 0.3 * mc.summary.mean, "plausible spread");
    }

    #[test]
    fn parallel_mc_is_bitwise_identical_to_serial() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let seed = 21;
        let serial = model
            .monte_carlo(&sources, 8, &mut rng_from_seed(seed))
            .unwrap();
        for threads in [1, 2, 4] {
            let par = model.monte_carlo_par(&sources, 8, seed, threads).unwrap();
            let serial_bits: Vec<u64> = serial.delays.iter().map(|d| d.to_bits()).collect();
            let par_bits: Vec<u64> = par.delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(par_bits, serial_bits, "delays at {threads} threads");
            assert_eq!(par.failures, serial.failures);
            assert_eq!(
                par.summary.mean.to_bits(),
                serial.summary.mean.to_bits(),
                "mean at {threads} threads"
            );
        }
    }

    #[test]
    fn recovering_mc_is_bitwise_identical_across_threads() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let policy = RecoveryPolicy::default();
        let seed = 21;
        let base = model
            .monte_carlo_par_recovering(&sources, 8, seed, 1, policy)
            .unwrap();
        // A moderate spread is served entirely by the fast path.
        assert!(base.health.all_clean(), "health: {:?}", base.health);
        assert!(base.reports.is_empty());
        assert!(base.truncated_at.is_none());
        assert_eq!(base.health.total(), 8);
        let base_bits: Vec<u64> = base.delays.iter().map(|d| d.to_bits()).collect();
        for threads in [2, 4] {
            let par = model
                .monte_carlo_par_recovering(&sources, 8, seed, threads, policy)
                .unwrap();
            let par_bits: Vec<u64> = par.delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(par_bits, base_bits, "delays at {threads} threads");
            assert_eq!(par.sample_health, base.sample_health);
            assert_eq!(par.health, base.health);
            assert_eq!(par.reports, base.reports);
        }
        // On a clean run the recovering driver reproduces the plain one.
        let plain = model.monte_carlo_par(&sources, 8, seed, 2).unwrap();
        let plain_bits: Vec<u64> = plain.delays.iter().map(|d| d.to_bits()).collect();
        assert_eq!(plain_bits, base_bits);
    }

    #[test]
    fn ga_matches_mc_roughly() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let ga = model.gradient_analysis(&sources).unwrap();
        let mut rng = rng_from_seed(9);
        let mc = model.monte_carlo(&sources, 24, &mut rng).unwrap();
        // Means within a few percent; σ within a factor of two (the
        // paper's Table 5 shows GA σ within ~30 % of MC σ).
        let mean_err = (ga.nominal_delay - mc.summary.mean).abs() / mc.summary.mean;
        assert!(mean_err < 0.05, "GA mean off by {mean_err}");
        assert!(
            ga.std > 0.3 * mc.summary.std && ga.std < 3.0 * mc.summary.std,
            "GA std {} vs MC std {}",
            ga.std,
            mc.summary.std
        );
        assert_eq!(ga.sensitivities.len(), 2);
        assert!(ga.evaluations > 0);
    }

    #[test]
    fn bad_specs_rejected() {
        let tech = tech_018();
        let wire = WireTech::m018();
        let empty = PathSpec {
            cells: vec![],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        assert!(PathModel::build(&empty, &tech, &wire).is_err());
        let bad_slew = PathSpec {
            cells: vec!["inv".into()],
            linear_elements_between_stages: 10,
            input_slew: 0.0,
        };
        assert!(PathModel::build(&bad_slew, &tech, &wire).is_err());
        let bad_cell = PathSpec {
            cells: vec!["mystery".into()],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        assert!(PathModel::build(&bad_cell, &tech, &wire).is_err());
    }

    #[test]
    fn timing_yield_integration() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let mut rng = rng_from_seed(3);
        let mc = model.monte_carlo(&sources, 16, &mut rng).unwrap();
        let ga = model.gradient_analysis(&sources).unwrap();
        // Yield is monotone in the period and hits the extremes.
        assert_eq!(mc.timing_yield(0.0), 0.0);
        assert_eq!(mc.timing_yield(1.0), 1.0);
        let p50 = ga.period_for_yield(0.5);
        assert!((ga.timing_yield(p50) - 0.5).abs() < 1e-6);
        let p999 = ga.period_for_yield(0.999);
        assert!(p999 > p50);
        // GA and MC yields agree loosely near the distribution center.
        let y_mc = mc.timing_yield(p50);
        assert!((0.1..=0.9).contains(&y_mc), "MC yield at GA median: {y_mc}");
    }

    #[test]
    fn sources_active_enumeration() {
        let s = VariationSources::example3(0.33, 0.0);
        assert_eq!(s.active(), vec![("DL", 0.33)]);
        let s = VariationSources::example3_table4();
        let names: Vec<&str> = s.active().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["W", "H", "DL"]);
        let s = VariationSources::uniform(0.1);
        assert_eq!(s.active().len(), 7);
    }
}
