//! Logic-stage assembly: the Table-1 "construction" step.
//!
//! A [`StageModel`] packages everything the framework precharacterizes
//! once per stage:
//!
//! 1. the chord output conductances `G_out` of the nonlinear drivers;
//! 2. the *effective load* — the stage's linear interconnect with `G_out`
//!    folded onto the driven ports (paper eq. 12);
//! 3. the variational reduced-order model library of that effective load.
//!
//! Evaluating the model at a parameter sample performs the Table-1
//! "evaluation" steps: first-order ROM evaluation, pole/residue
//! transformation, stability filtering and the successive-chords transient.

use crate::engine::{DriverSpec, SettleStop, StageSolver, StageSolverOptions, StageStats};
use crate::error::TetaError;
use crate::waveform::Waveform;
use linvar_circuit::{Netlist, NodeId};
use linvar_devices::{chord_conductance, DeviceVariation, MosParams, Technology};
use linvar_mor::{
    extract_pole_residue, extract_stabilized_degrading, stabilize, PoleResidueModel, ReducedModel,
    ReductionMethod, StabilityReport, VariationalRom, DEFAULT_BETA_TOL,
};
use linvar_numeric::with_workspace;

/// A precharacterized logic stage.
#[derive(Debug, Clone)]
pub struct StageModel {
    vrom: VariationalRom,
    /// The effective-load variational matrices (chords already folded),
    /// kept for the exact-reduction reference flow.
    var: linvar_circuit::VariationalMna,
    /// `(port index, g_out)` of each driven port, in driver order.
    driver_ports: Vec<(usize, f64)>,
    nmos: MosParams,
    pmos: MosParams,
    wn: f64,
    wp: f64,
    length: f64,
    /// Supply voltage (V).
    pub vdd: f64,
}

// Stage models are built once and evaluated read-only from many threads by
// the parallel Monte-Carlo engine; `Sync + Send` is part of the public
// contract and must not regress silently.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<StageModel>();
};

/// Result of one stage evaluation.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Waveform at every load port (port-marking order).
    pub waveforms: Vec<Waveform>,
    /// What the stability filter did to this sample's macromodel.
    pub stability: StabilityReport,
    /// Solver statistics.
    pub stats: StageStats,
}

/// What [`StageModel::evaluate_recovering`] had to do to serve a sample.
///
/// The ladder, in order: first-order variational ROM with the MOR
/// order-degradation ladder, SC retry schedule (step refinement plus
/// under-relaxation, the chord re-selection analog), the exact per-sample
/// reduction, and finally the unreduced MNA load. A clean evaluation uses
/// the first rung at full order with the plain SC iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRecovery {
    /// SC attempts that failed before one succeeded (0 = first try).
    pub sc_retries: usize,
    /// Reduced order of the variational ROM as characterized.
    pub original_order: usize,
    /// Order of the model that finally served the sample (full MNA
    /// dimension when `unreduced_fallback` is set).
    pub served_order: usize,
    /// Right-half-plane poles the stability filter removed.
    pub removed_poles: usize,
    /// `max |β - 1|` of the served model's DC rescale.
    pub max_beta_deviation: f64,
    /// The exact per-sample reduction replaced the variational ROM.
    pub exact_reduction: bool,
    /// The unreduced MNA load replaced every reduced model.
    pub unreduced_fallback: bool,
}

impl StageRecovery {
    /// `true` when the fast path served the sample unassisted.
    pub fn was_clean(&self) -> bool {
        self.sc_retries == 0
            && self.served_order == self.original_order
            && !self.exact_reduction
            && !self.unreduced_fallback
    }
}

/// SC retry schedule: `(timestep divisor, damping)` per attempt. The first
/// entry is the plain iteration; later entries refine the step and damp the
/// fixed point.
const SC_SCHEDULE: [(f64, f64); 3] = [(1.0, 1.0), (2.0, 0.7), (4.0, 0.5)];

/// Is this error worth another rung, or a configuration mistake that every
/// rung would repeat?
fn recoverable(e: &TetaError) -> bool {
    matches!(e, TetaError::ScDivergence { .. } | TetaError::Numeric(_))
}

impl StageModel {
    /// Builds the stage model from the interconnect netlist.
    ///
    /// `driven` lists the netlist nodes that carry drivers (each must be a
    /// marked port of the netlist); every driver is the technology's unit
    /// equivalent inverter. `method`/`delta` configure the variational
    /// reduction (see [`VariationalRom::characterize`]).
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] for nodes that are not ports or
    /// missing device models, and propagates characterization failures.
    pub fn build(
        netlist: &Netlist,
        driven: &[NodeId],
        tech: &Technology,
        method: ReductionMethod,
        delta: f64,
    ) -> Result<Self, TetaError> {
        let mut var = netlist
            .assemble_variational()
            .map_err(|e| TetaError::BadStage(e.to_string()))?;
        let nmos = tech
            .library
            .get(&tech.library.nmos_name())
            .ok_or_else(|| TetaError::BadStage("missing nmos model".into()))?
            .clone();
        let pmos = tech
            .library
            .get(&tech.library.pmos_name())
            .ok_or_else(|| TetaError::BadStage("missing pmos model".into()))?
            .clone();
        let vdd = tech.library.vdd;
        let g_out = chord_conductance(&nmos, tech.wn, tech.library.lmin, vdd)
            + chord_conductance(&pmos, tech.wp, tech.library.lmin, vdd);
        // Map driven nodes to port positions and fold the chords.
        let ports = netlist.ports();
        let mut driver_ports = Vec::with_capacity(driven.len());
        for node in driven {
            let port_pos = ports.iter().position(|p| p == node).ok_or_else(|| {
                TetaError::BadStage(format!(
                    "driven node {:?} is not a marked port",
                    netlist.node_name(*node)
                ))
            })?;
            let mna_idx = var.port_indices[port_pos];
            var.add_grounded_conductance(mna_idx, g_out)
                .map_err(|e| TetaError::BadStage(e.to_string()))?;
            driver_ports.push((port_pos, g_out));
        }
        let vrom = VariationalRom::characterize(&var, method, delta)?;
        Ok(StageModel {
            vrom,
            var,
            driver_ports,
            nmos,
            pmos,
            wn: tech.wn,
            wp: tech.wp,
            length: tech.library.lmin,
            vdd,
        })
    }

    /// Number of load ports.
    pub fn port_count(&self) -> usize {
        self.vrom.port_count()
    }

    /// Number of drivers.
    pub fn driver_count(&self) -> usize {
        self.driver_ports.len()
    }

    /// The underlying variational ROM (for diagnostics and benches).
    pub fn vrom(&self) -> &VariationalRom {
        &self.vrom
    }

    /// Evaluates the stage at an interconnect parameter sample `w` and a
    /// device variation sample, driving each driver port with the
    /// corresponding input waveform over the full window `[0, t_end]`.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] if `inputs.len()` differs from the
    /// driver count, and propagates pole-extraction or SC-divergence
    /// failures.
    pub fn evaluate(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
    ) -> Result<StageResult, TetaError> {
        self.evaluate_until(w, variation, inputs, h, t_end, None)
    }

    /// [`StageModel::evaluate`] whose time loop may end before `t_end` at
    /// a [`SettleStop`] (`None` runs the full window).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StageModel::evaluate`].
    pub fn evaluate_until(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<SettleStop>,
    ) -> Result<StageResult, TetaError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::StageEval);
        // Serve the per-sample reduced matrices from the worker's workspace
        // pool: `evaluate_into` writes the same values `evaluate` would
        // allocate (copy + identical AXPY accumulation), so results are
        // bitwise unchanged. The scope closes before `evaluate_with_rom`
        // so the pole/residue extraction can borrow the same pool.
        let rom = with_workspace(|ws| {
            let mut rom = ReducedModel::take_from(ws, self.vrom.order(), self.vrom.port_count());
            self.vrom.evaluate_into(w, &mut rom).map(|()| rom)
        })?;
        let result = self.evaluate_with_rom(&rom, variation, inputs, h, t_end, stop);
        with_workspace(|ws| rom.recycle(ws));
        result
    }

    /// Evaluates the stage under the failure-recovery ladder.
    ///
    /// Rungs, in order; each reduced-model rung gets the full SC retry
    /// schedule (plain iteration, then step refinement with damping):
    ///
    /// 1. first-order variational ROM, passed through the MOR
    ///    order-degradation ladder ([`extract_stabilized_degrading`]);
    /// 2. exact per-sample reduction (fresh matrices, fresh basis);
    /// 3. the unreduced MNA load — no reduction at all, pole/residue
    ///    extraction straight from `(G(w), C(w))`.
    ///
    /// Configuration errors ([`TetaError::BadStage`]) abort immediately:
    /// every rung would repeat them. On success the [`StageRecovery`]
    /// records which rung and retry served the sample. `stop` may end
    /// each run early, as in [`StageModel::evaluate_until`].
    ///
    /// # Errors
    ///
    /// Returns the last rung's error once the ladder is exhausted. Callers
    /// with access to a SPICE engine should treat that as "degrade to
    /// baseline SPICE".
    pub fn evaluate_recovering(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<SettleStop>,
    ) -> Result<(StageResult, StageRecovery), TetaError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::StageEval);
        let mut recovery = StageRecovery::default();
        let mut sc_retries = 0usize;
        let mut last_err: Option<TetaError> = None;

        // Rung 1: variational ROM + order-degradation ladder.
        let rung1 = self
            .vrom
            .evaluate(w)
            .map_err(TetaError::from)
            .and_then(|rom| {
                recovery.original_order = rom.order();
                extract_stabilized_degrading(&rom, DEFAULT_BETA_TOL).map_err(TetaError::from)
            });
        match rung1 {
            Ok((stable, stability, deg)) => {
                recovery.served_order = deg.served_order;
                recovery.removed_poles = deg.removed_poles;
                recovery.max_beta_deviation = deg.max_beta_deviation;
                match self.sc_attempts(
                    &stable,
                    &stability,
                    variation,
                    inputs,
                    h,
                    t_end,
                    stop,
                    &mut sc_retries,
                )? {
                    Ok(res) => {
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        // Rung 2: exact reduction at the sample.
        let rung2 = self
            .vrom
            .evaluate_exact(&self.var, w)
            .map_err(TetaError::from)
            .and_then(|rom| {
                extract_stabilized_degrading(&rom, DEFAULT_BETA_TOL).map_err(TetaError::from)
            });
        match rung2 {
            Ok((stable, stability, deg)) => {
                match self.sc_attempts(
                    &stable,
                    &stability,
                    variation,
                    inputs,
                    h,
                    t_end,
                    stop,
                    &mut sc_retries,
                )? {
                    Ok(res) => {
                        recovery.exact_reduction = true;
                        recovery.served_order = deg.served_order;
                        recovery.removed_poles = deg.removed_poles;
                        recovery.max_beta_deviation = deg.max_beta_deviation;
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        // Rung 3: the unreduced MNA load — stabilize the full node-space
        // pencil directly. Expensive (dense eigensolve at full dimension)
        // but the most faithful model short of baseline SPICE.
        let rung3 = self
            .var
            .eval(w)
            .map_err(TetaError::from)
            .and_then(|(g, c)| {
                let full = ReducedModel {
                    gr: g,
                    cr: c,
                    br: self.var.port_incidence(),
                };
                let pr = extract_pole_residue(&full)?;
                Ok((full.order(), stabilize(&pr)))
            });
        match rung3 {
            Ok((order, (stable, stability))) => {
                match self.sc_attempts(
                    &stable,
                    &stability,
                    variation,
                    inputs,
                    h,
                    t_end,
                    stop,
                    &mut sc_retries,
                )? {
                    Ok(res) => {
                        recovery.unreduced_fallback = true;
                        recovery.served_order = order;
                        recovery.removed_poles = stability.removed_poles.len();
                        recovery.max_beta_deviation = stability.max_beta_deviation;
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        Err(last_err.unwrap_or_else(|| {
            TetaError::BadStage("stage recovery ladder exhausted with no recorded error".into())
        }))
    }

    /// Runs the SC retry schedule against one stabilized model. The outer
    /// `Result` carries unrecoverable configuration errors (abort the
    /// ladder); the inner one reports whether any attempt converged.
    #[allow(clippy::too_many_arguments)]
    fn sc_attempts(
        &self,
        stable: &PoleResidueModel,
        stability: &StabilityReport,
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<SettleStop>,
        sc_retries: &mut usize,
    ) -> Result<Result<StageResult, TetaError>, TetaError> {
        let mut last: Option<TetaError> = None;
        for &(refine, damping) in &SC_SCHEDULE {
            match self.run_sc(
                stable,
                stability,
                variation,
                inputs,
                h / refine,
                t_end,
                damping,
                stop,
            ) {
                Ok(res) => return Ok(Ok(res)),
                Err(e) if recoverable(&e) => {
                    *sc_retries += 1;
                    linvar_metrics::incr(linvar_metrics::Counter::ScStageRetries);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Err(last.unwrap_or_else(|| {
            TetaError::BadStage("empty SC retry schedule".into())
        })))
    }

    /// Reference evaluation: recomputes the *exact* reduction at the
    /// sample (fresh matrices, fresh basis) instead of the first-order
    /// variational model — what a non-variational flow would pay for every
    /// sample. Used by the Figure-6 accuracy comparison.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StageModel::evaluate`].
    pub fn evaluate_exact(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
    ) -> Result<StageResult, TetaError> {
        let rom = self.vrom.evaluate_exact(&self.var, w)?;
        self.evaluate_with_rom(&rom, variation, inputs, h, t_end, None)
    }

    fn evaluate_with_rom(
        &self,
        rom: &linvar_mor::ReducedModel,
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<SettleStop>,
    ) -> Result<StageResult, TetaError> {
        let pr = extract_pole_residue(rom)?;
        let (stable, stability) = stabilize(&pr);
        self.run_sc(&stable, &stability, variation, inputs, h, t_end, 1.0, stop)
    }

    /// One successive-chords run against a stabilized load model. The
    /// stability report is borrowed so the SC retry schedule does not clone
    /// it per attempt; only the successful run materializes a copy into the
    /// returned [`StageResult`].
    #[allow(clippy::too_many_arguments)]
    fn run_sc(
        &self,
        stable: &PoleResidueModel,
        stability: &StabilityReport,
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        sc_damping: f64,
        stop: Option<SettleStop>,
    ) -> Result<StageResult, TetaError> {
        if inputs.len() != self.driver_ports.len() {
            return Err(TetaError::BadStage(format!(
                "{} inputs for {} drivers",
                inputs.len(),
                self.driver_ports.len()
            )));
        }
        let drivers: Vec<DriverSpec> = self
            .driver_ports
            .iter()
            .zip(inputs)
            .map(|(&(port, g_out), input)| DriverSpec {
                port,
                input: input.clone(),
                nmos: self.nmos.clone(),
                pmos: self.pmos.clone(),
                wn: self.wn,
                wp: self.wp,
                length: self.length,
                g_out,
            })
            .collect();
        let mut opts = StageSolverOptions::new(self.vdd, t_end, h);
        opts.variation = variation;
        opts.compress_tol = 1e-4 * self.vdd;
        opts.sc_damping = sc_damping;
        opts.settle_stop = stop;
        let (waveforms, stats) = StageSolver::new(stable, drivers, opts)?.run()?;
        Ok(StageResult {
            waveforms,
            stability: stability.clone(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::tech_018;
    use linvar_interconnect::{CoupledLineSpec, WireTech};

    /// Single line, 20 µm, driver at the near end, observer at the far end.
    fn line_stage() -> (StageModel, usize) {
        let tech = tech_018();
        let spec = CoupledLineSpec::new(1, 20e-6, WireTech::m018());
        let built = linvar_interconnect::builder::build_coupled_lines(&spec).unwrap();
        let model = StageModel::build(
            &built.netlist,
            &[built.inputs[0]],
            &tech,
            ReductionMethod::Prima { order: 6 },
            0.02,
        )
        .unwrap();
        // Output port position: far end was marked after the near ends.
        let out_pos = built
            .netlist
            .ports()
            .iter()
            .position(|p| *p == built.outputs[0])
            .unwrap();
        (model, out_pos)
    }

    #[test]
    fn nominal_stage_switches() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let res = model
            .evaluate(
                &[0.0; 5],
                DeviceVariation::nominal(),
                &[input],
                1e-12,
                1.5e-9,
            )
            .unwrap();
        let out = &res.waveforms[out_pos];
        assert!(out.initial_value() > 1.7, "far end starts high");
        assert!(out.final_value() < 0.1, "far end discharges");
    }

    #[test]
    fn wire_variation_changes_delay() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let delay = |w: &[f64]| -> f64 {
            let res = model
                .evaluate(
                    w,
                    DeviceVariation::nominal(),
                    std::slice::from_ref(&input),
                    1e-12,
                    2e-9,
                )
                .unwrap();
            res.waveforms[out_pos].crossing(0.9, false).expect("falls")
        };
        let nominal = delay(&[0.0; 5]);
        // Thicker metal (+T) raises both R⁻¹… T up → R down but C up; use
        // resistivity which is unambiguous: +rho → slower.
        let slow = delay(&[0.0, 0.0, 0.0, 0.0, 1.0]);
        let fast = delay(&[0.0, 0.0, 0.0, 0.0, -1.0]);
        assert!(
            slow > nominal && nominal > fast,
            "rho ordering: {fast} < {nominal} < {slow}"
        );
    }

    #[test]
    fn wrong_input_count_rejected() {
        let (model, _) = line_stage();
        let res = model.evaluate(&[0.0; 5], DeviceVariation::nominal(), &[], 1e-12, 1e-9);
        assert!(res.is_err());
    }

    #[test]
    fn clean_sample_recovering_matches_plain_evaluate() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let plain = model
            .evaluate(
                &[0.0; 5],
                DeviceVariation::nominal(),
                std::slice::from_ref(&input),
                1e-12,
                1.5e-9,
            )
            .unwrap();
        let (recovered, recovery) = model
            .evaluate_recovering(
                &[0.0; 5],
                DeviceVariation::nominal(),
                &[input],
                1e-12,
                1.5e-9,
                None,
            )
            .unwrap();
        assert!(recovery.was_clean(), "recovery: {recovery:?}");
        assert_eq!(recovery.sc_retries, 0);
        assert!(!recovery.exact_reduction && !recovery.unreduced_fallback);
        // The clean rung is the same computation as the plain flow:
        // identical waveforms, bitwise.
        assert_eq!(
            plain.waveforms[out_pos].points(),
            recovered.waveforms[out_pos].points()
        );
    }

    #[test]
    fn stability_report_is_returned() {
        let (model, _) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 40e-12);
        let res = model
            .evaluate(&[0.5; 5], DeviceVariation::nominal(), &[input], 1e-12, 1e-9)
            .unwrap();
        // Whether or not poles were removed, β must be finite and the
        // resulting run completed.
        assert!(res.stability.max_beta_deviation.is_finite());
    }
}
