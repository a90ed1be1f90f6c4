//! The successive-chords stage solver.
//!
//! Each time point solves the fixed point between the chord Norton sources
//! of the nonlinear drivers and the instantaneous impedance of the
//! (stabilized) pole/residue load:
//!
//! ```text
//! v⁽ᵐ⁾ = Z_inst · i_eq(v⁽ᵐ⁻¹⁾) + hist,
//! i_eq(v)_j = I_driver,j(v_in,j(t), v_j) + G_out,j · v_j
//! ```
//!
//! The chord conductances `G_out` were folded into the load *before*
//! reduction (paper eq. 12), so the macromodel already sees them; the
//! Norton source is the residual nonlinearity. Because the chord bounds
//! the device slope, the map is a contraction for reasonable timesteps.
//! No full-matrix factorization occurs anywhere in the time loop.

use crate::conv::RecursiveConvolution;
use crate::error::TetaError;
use crate::waveform::{segment_crossing, Waveform};
use linvar_devices::{DeviceVariation, MosParams};
use linvar_mor::PoleResidueModel;

/// One nonlinear driver bound to a load port: a CMOS equivalent inverter
/// (NMOS pull-down + PMOS pull-up) driven by a known input waveform.
#[derive(Debug, Clone)]
pub struct DriverSpec {
    /// Port index of the load the driver output connects to.
    pub port: usize,
    /// Gate input waveform.
    pub input: Waveform,
    /// NMOS model.
    pub nmos: MosParams,
    /// PMOS model.
    pub pmos: MosParams,
    /// NMOS width (m).
    pub wn: f64,
    /// PMOS width (m).
    pub wp: f64,
    /// Drawn channel length (m).
    pub length: f64,
    /// Chord output conductance folded into the load (S). Must equal the
    /// value used when the effective load was built.
    pub g_out: f64,
}

/// Options of the stage solver.
#[derive(Debug, Clone)]
pub struct StageSolverOptions {
    /// Timestep (s).
    pub h: f64,
    /// Stop time (s).
    pub t_end: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// SC convergence tolerance on port voltages (V).
    pub vtol: f64,
    /// SC iteration limit per time point.
    pub max_iterations: usize,
    /// Device variation sample (ΔL, ΔV_T). The chords stay nominal.
    pub variation: DeviceVariation,
    /// Adaptive-breakpoint compression tolerance for the recorded
    /// waveforms (V); 0 disables compression.
    pub compress_tol: f64,
    /// SC under-relaxation factor in `(0, 1]`. `1.0` is the plain chord
    /// fixed point; smaller values damp the update
    /// `v ← v + λ·(v_new − v)`, trading iterations for contraction — the
    /// recovery ladder's "chord re-selection" analog when the plain
    /// iteration diverges.
    pub sc_damping: f64,
    /// Ends the time loop before `t_end` once one port has completed its
    /// transition and settled; `None` runs the full window.
    pub settle_stop: Option<SettleStop>,
}

/// Early end of the time loop: stop once `port` has crossed 10, 50 and
/// 90 % of the supply in the given direction, is within 5 % of the rail
/// it heads for, and the time is past `t50 + 4.2·s + 3h` — `t50` and the
/// full-swing transition time `s` taken from the raw (uncompressed)
/// samples. Path evaluation cuts each stage output at `t50 + 4·s`
/// anyway, so the steps after that only confirm the settled rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleStop {
    /// Port whose transition is watched.
    pub port: usize,
    /// Direction of that transition.
    pub rising: bool,
}

impl StageSolverOptions {
    /// Reasonable defaults for the given supply and horizon.
    pub fn new(vdd: f64, t_end: f64, h: f64) -> Self {
        StageSolverOptions {
            h,
            t_end,
            vdd,
            vtol: 1e-6,
            max_iterations: 400,
            variation: DeviceVariation::nominal(),
            compress_tol: 0.0,
            sc_damping: 1.0,
            settle_stop: None,
        }
    }
}

/// Performance counters of one stage evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Accepted time points.
    pub steps: usize,
    /// Total SC iterations.
    pub sc_iterations: usize,
    /// The time loop ended early at the [`SettleStop`].
    pub settled_early: bool,
}

/// Raw-sample tracker of a [`SettleStop`].
struct SettleWatch {
    stop: SettleStop,
    /// The 10/50/90 % levels in crossing order.
    levels: [f64; 3],
    /// First crossing time of each level.
    crossed: [Option<f64>; 3],
    rail: f64,
    band: f64,
    h: f64,
}

impl SettleWatch {
    fn new(stop: SettleStop, vdd: f64, h: f64) -> Self {
        let levels = if stop.rising {
            [0.1 * vdd, 0.5 * vdd, 0.9 * vdd]
        } else {
            [0.9 * vdd, 0.5 * vdd, 0.1 * vdd]
        };
        SettleWatch {
            stop,
            levels,
            crossed: [None; 3],
            rail: if stop.rising { vdd } else { 0.0 },
            band: 0.05 * vdd,
            h,
        }
    }

    /// Feeds the newest raw segment of the watched port; `true` once the
    /// stop condition holds at its end.
    fn settled(&mut self, from: (f64, f64), to: (f64, f64)) -> bool {
        for (level, at) in self.levels.iter().zip(self.crossed.iter_mut()) {
            if at.is_none() {
                *at = segment_crossing(from, to, *level, self.stop.rising);
            }
        }
        let [Some(t_first), Some(t50), Some(t_second)] = self.crossed else {
            return false;
        };
        let s = (t_second - t_first) / 0.8;
        to.0 > t50 + 4.2 * s + 3.0 * self.h && (to.1 - self.rail).abs() < self.band
    }
}

/// The stage solver: load + drivers, ready to run.
#[derive(Debug)]
pub struct StageSolver {
    conv: RecursiveConvolution,
    drivers: Vec<DriverSpec>,
    opts: StageSolverOptions,
}

impl StageSolver {
    /// Creates a solver for the given stabilized load model and drivers.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] if a driver references a port out of
    /// range, two drivers share a port, or the model is unstable (run the
    /// stability filter first).
    pub fn new(
        load: &PoleResidueModel,
        drivers: Vec<DriverSpec>,
        opts: StageSolverOptions,
    ) -> Result<Self, TetaError> {
        let np = load.port_count();
        let mut seen = vec![false; np];
        for d in &drivers {
            if d.port >= np {
                return Err(TetaError::BadStage(format!(
                    "driver port {} out of range ({} ports)",
                    d.port, np
                )));
            }
            if seen[d.port] {
                return Err(TetaError::BadStage(format!(
                    "two drivers on port {}",
                    d.port
                )));
            }
            seen[d.port] = true;
        }
        if !load.is_stable() {
            return Err(TetaError::BadStage(
                "load model has unstable poles; apply the stability filter first".into(),
            ));
        }
        if !(opts.h > 0.0 && opts.t_end > opts.h) {
            return Err(TetaError::BadStage("bad time axis".into()));
        }
        if opts.settle_stop.is_some_and(|stop| stop.port >= np) {
            return Err(TetaError::BadStage(format!(
                "settle-stop port out of range ({np} ports)"
            )));
        }
        if !(opts.sc_damping > 0.0 && opts.sc_damping <= 1.0) {
            return Err(TetaError::BadStage(format!(
                "sc_damping must be in (0, 1], got {}",
                opts.sc_damping
            )));
        }
        Ok(StageSolver {
            conv: RecursiveConvolution::new(load, opts.h),
            drivers,
            opts,
        })
    }

    /// Driver Norton source current at a port: residual device current plus
    /// the chord make-up term.
    fn i_eq(&self, d: &DriverSpec, vin: f64, vout: f64) -> f64 {
        let dl = self.opts.variation.delta_l();
        let dvt = self.opts.variation.delta_vt();
        let vdd = self.opts.vdd;
        let n = d.nmos.eval(vin, vout, 0.0, d.wn, d.length, dl, dvt);
        let p = d
            .pmos
            .eval(vin - vdd, vout - vdd, 0.0, d.wp, d.length, dl, dvt);
        // Injection into the port: -ids_n - ids_p; add back the chord
        // conductance that lives inside the load.
        -(n.ids + p.ids) + d.g_out * vout
    }

    /// Applies SC under-relaxation `v_new ← v + λ·(v_new − v)` in place.
    ///
    /// At `λ = 1.0` this is a no-op branch (not an algebraic identity):
    /// the undamped path must remain bitwise identical to the legacy
    /// iteration so determinism guarantees carry over.
    fn damp(&self, v_new: &mut [f64], v: &[f64]) {
        let lambda = self.opts.sc_damping;
        if lambda < 1.0 {
            for (a, b) in v_new.iter_mut().zip(v) {
                *a = *b + lambda * (*a - *b);
            }
        }
    }

    /// Runs the stage, returning one waveform per load port and the SC
    /// statistics. With a [`SettleStop`] the waveforms may end before
    /// `t_end` ([`StageStats::settled_early`]).
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::ScDivergence`] if the fixed point fails at any
    /// time point.
    pub fn run(mut self) -> Result<(Vec<Waveform>, StageStats), TetaError> {
        let np = self.conv.port_count();
        let h = self.opts.h;
        let steps = (self.opts.t_end / h).ceil() as usize;
        let mut stats = StageStats::default();

        // ---- DC initialization: v = Z(0)·i_eq(v) fixed point -----------
        let zdc = self.conv.dc_impedance();
        let mut v = vec![0.0; np];
        // Start from the logical quiescent levels: output of an inverting
        // driver with a low input is VDD, with a high input 0.
        for d in &self.drivers {
            let vin0 = d.input.initial_value();
            v[d.port] = if vin0 < self.opts.vdd / 2.0 {
                self.opts.vdd
            } else {
                0.0
            };
        }
        // Gate input values are iteration-invariant at a fixed time, so
        // they are evaluated once per time point, not once per chord
        // iteration (same values, same results, far fewer waveform
        // interpolations — the inputs of late path stages carry hundreds
        // of breakpoints).
        let mut vin_at: Vec<f64> = self.drivers.iter().map(|d| d.input.eval(0.0)).collect();
        let mut i = vec![0.0; np];
        let mut v_new: Vec<f64> = Vec::with_capacity(np);
        for iter in 0..self.opts.max_iterations * 2 {
            for x in i.iter_mut() {
                *x = 0.0;
            }
            for (d, &vin) in self.drivers.iter().zip(&vin_at) {
                i[d.port] = self.i_eq(d, vin, v[d.port]);
            }
            zdc.mul_vec_into(&i, &mut v_new);
            self.damp(&mut v_new, &v);
            // NaN-aware convergence check: `f64::max` ignores NaN, so an
            // exploding fixed point could otherwise masquerade as
            // converged.
            let mut delta = 0.0_f64;
            let mut finite = true;
            for (a, b) in v_new.iter().zip(&v) {
                finite &= a.is_finite();
                delta = delta.max((a - b).abs());
            }
            // Buffer rotation instead of a move: `v` receives the new
            // iterate, the stale contents parked in `v_new` are fully
            // overwritten at the top of the next iteration.
            std::mem::swap(&mut v, &mut v_new);
            if !finite || v.iter().any(|x| x.abs() > 1e6) {
                return Err(TetaError::ScDivergence {
                    time: 0.0,
                    iterations: iter + 1,
                });
            }
            if delta < self.opts.vtol {
                break;
            }
            if iter == self.opts.max_iterations * 2 - 1 {
                return Err(TetaError::ScDivergence {
                    time: 0.0,
                    iterations: iter + 1,
                });
            }
        }
        self.conv.initialize_dc(&i);

        // ---- time loop ---------------------------------------------------
        // Every buffer of the SC fixed point lives outside the loop: the
        // steady state runs allocation-free (`hist`/`i_new`/`v_new` are
        // fully overwritten each step, `recorded` is sized up front), and
        // each rewrite below is bitwise identical to the allocating
        // original — same values, same operation order, only the
        // allocator traffic is gone.
        let mut recorded: Vec<Vec<(f64, f64)>> = (0..np)
            .map(|p| {
                let mut rec = Vec::with_capacity(steps + 1);
                rec.push((0.0, v[p]));
                rec
            })
            .collect();
        let mut hist: Vec<f64> = Vec::with_capacity(np);
        let mut i_new: Vec<f64> = Vec::with_capacity(np);
        let mut watch = self
            .opts
            .settle_stop
            .map(|stop| SettleWatch::new(stop, self.opts.vdd, h));
        let mut t = 0.0;
        for _ in 0..steps {
            t += h;
            self.conv.history_into(&mut hist);
            // Gate inputs depend only on `t`: evaluate once per step.
            vin_at.clear();
            vin_at.extend(self.drivers.iter().map(|d| d.input.eval(t)));
            // SC fixed point, warm-started from the previous voltages.
            let mut converged = false;
            i_new.clear();
            i_new.extend_from_slice(&i);
            for iter in 0..self.opts.max_iterations {
                stats.sc_iterations += 1;
                linvar_metrics::incr(linvar_metrics::Counter::ScChordIterations);
                for x in i_new.iter_mut() {
                    *x = 0.0;
                }
                for (d, &vin) in self.drivers.iter().zip(&vin_at) {
                    i_new[d.port] = self.i_eq(d, vin, v[d.port]);
                }
                self.conv.voltages_into(&i_new, &hist, &mut v_new);
                self.damp(&mut v_new, &v);
                let mut delta = 0.0_f64;
                let mut finite = true;
                for (a, b) in v_new.iter().zip(&v) {
                    finite &= a.is_finite();
                    delta = delta.max((a - b).abs());
                }
                std::mem::swap(&mut v, &mut v_new);
                // Check for blow-up *before* declaring convergence:
                // `f64::max` ignores NaN, so an all-NaN iterate would
                // otherwise read as delta = 0.
                if !finite || v.iter().any(|x| x.abs() > 1e3) {
                    return Err(TetaError::ScDivergence {
                        time: t,
                        iterations: iter + 1,
                    });
                }
                if delta < self.opts.vtol {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(TetaError::ScDivergence {
                    time: t,
                    iterations: self.opts.max_iterations,
                });
            }
            self.conv.advance(&i_new);
            i.copy_from_slice(&i_new);
            stats.steps += 1;
            for (p, rec) in recorded.iter_mut().enumerate() {
                rec.push((t, v[p]));
            }
            if let Some(watch) = watch.as_mut() {
                let rec = &recorded[watch.stop.port];
                if watch.settled(rec[rec.len() - 2], rec[rec.len() - 1]) {
                    stats.settled_early = true;
                    break;
                }
            }
        }
        let waveforms = recorded
            .into_iter()
            .map(|pts| {
                let w = Waveform::from_points(pts);
                if self.opts.compress_tol > 0.0 {
                    w.compress(self.opts.compress_tol)
                } else {
                    w
                }
            })
            .collect();
        Ok((waveforms, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::{chord_conductance, tech_018};
    use linvar_mor::PoleResidueModel;
    use linvar_numeric::{CMatrix, Complex, Matrix};

    /// One-port load: parallel combination of the chord conductance and a
    /// capacitor — Z(s) = (1/C)/(s + G/C).
    fn chord_rc_load(g: f64, c: f64) -> PoleResidueModel {
        let mut r = CMatrix::zeros(1, 1);
        r[(0, 0)] = Complex::from_real(1.0 / c);
        PoleResidueModel {
            poles: vec![Complex::from_real(-g / c)],
            residues: vec![r],
            direct: Matrix::zeros(1, 1),
        }
    }

    fn unit_driver(input: Waveform, g_out: f64) -> DriverSpec {
        let tech = tech_018();
        DriverSpec {
            port: 0,
            input,
            nmos: tech.library.get(&tech.library.nmos_name()).unwrap().clone(),
            pmos: tech.library.get(&tech.library.pmos_name()).unwrap().clone(),
            wn: tech.wn,
            wp: tech.wp,
            length: tech.library.lmin,
            g_out,
        }
    }

    fn unit_gout() -> f64 {
        let tech = tech_018();
        let n = tech.library.get(&tech.library.nmos_name()).unwrap();
        let p = tech.library.get(&tech.library.pmos_name()).unwrap();
        chord_conductance(n, tech.wn, tech.library.lmin, 1.8)
            + chord_conductance(p, tech.wp, tech.library.lmin, 1.8)
    }

    #[test]
    fn inverter_discharges_capacitive_load() {
        let g_out = unit_gout();
        let cl = 20e-15;
        let load = chord_rc_load(g_out, cl);
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, stats) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        let out = &waves[0];
        assert!(
            out.initial_value() > 1.7,
            "starts at VDD: {}",
            out.initial_value()
        );
        assert!(out.final_value() < 0.05, "ends at 0: {}", out.final_value());
        assert!(!out.is_rising());
        assert!(stats.steps > 100);
        // SC converges in a handful of iterations per point on average.
        let avg = stats.sc_iterations as f64 / stats.steps as f64;
        assert!(avg < 30.0, "avg SC iterations {avg}");
    }

    #[test]
    fn falling_input_produces_rising_output() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        let input = Waveform::ramp(1.8, 0.0, 20e-12, 60e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, _) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(waves[0].initial_value() < 0.05);
        assert!(waves[0].final_value() > 1.75);
    }

    #[test]
    fn delta_vt_slows_the_stage() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 30e-15);
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 40e-12);
        let mut opts = StageSolverOptions::new(1.8, 3e-9, 1e-12);
        let delay_at = |opts: &StageSolverOptions| -> f64 {
            let (waves, _) =
                StageSolver::new(&load, vec![unit_driver(input.clone(), g_out)], opts.clone())
                    .unwrap()
                    .run()
                    .unwrap();
            waves[0].crossing(0.9, false).expect("output falls")
        };
        let nominal = delay_at(&opts);
        opts.variation = DeviceVariation::new(0.0, 2.0); // +60 mV threshold
        let slowed = delay_at(&opts);
        assert!(
            slowed > nominal,
            "higher VT must slow the stage: {slowed} vs {nominal}"
        );
    }

    #[test]
    fn chords_stay_nominal_under_variation() {
        // The load (with folded chords) is identical across variation
        // samples; only the Norton sources change. This is structural in
        // the API: the same `load` object is reused. Smoke-check it runs.
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        for vt in [-1.0, 0.0, 1.0] {
            let mut opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
            opts.variation = DeviceVariation::new(0.0, vt);
            let input = Waveform::ramp(0.0, 1.8, 10e-12, 30e-12);
            let (waves, _) = StageSolver::new(&load, vec![unit_driver(input, g_out)], opts)
                .unwrap()
                .run()
                .unwrap();
            assert!(waves[0].final_value() < 0.1);
        }
    }

    #[test]
    fn bad_configurations_rejected() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 1e-15);
        let input = Waveform::ramp(0.0, 1.8, 0.0, 1e-11);
        let mut d = unit_driver(input.clone(), g_out);
        d.port = 5;
        let opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        assert!(StageSolver::new(&load, vec![d], opts.clone()).is_err());

        // Duplicate port.
        let d1 = unit_driver(input.clone(), g_out);
        let d2 = unit_driver(input.clone(), g_out);
        assert!(StageSolver::new(&load, vec![d1, d2], opts.clone()).is_err());

        // Unstable load.
        let mut unstable = chord_rc_load(g_out, 1e-15);
        unstable.poles[0] = Complex::from_real(1e12);
        assert!(StageSolver::new(&unstable, vec![unit_driver(input, g_out)], opts).is_err());
    }

    #[test]
    fn undriven_port_observes_coupling() {
        // Two-port load: driven port 0, observed port 1 coupled through
        // the residue matrix.
        let g_out = unit_gout();
        let c = 20e-15;
        let mut r = CMatrix::zeros(2, 2);
        r[(0, 0)] = Complex::from_real(1.0 / c);
        r[(1, 1)] = Complex::from_real(1.0 / c);
        r[(0, 1)] = Complex::from_real(0.8 / c);
        r[(1, 0)] = Complex::from_real(0.8 / c);
        let load = PoleResidueModel {
            poles: vec![Complex::from_real(-g_out / c)],
            residues: vec![r],
            direct: Matrix::zeros(2, 2),
        };
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, _) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        // The observed port must move with the driven one (transfer 0.8).
        let v0 = waves[0].final_value();
        let v1 = waves[1].final_value();
        assert!(
            (v1 - 0.8 * v0).abs() < 0.15 + 0.1 * v0.abs(),
            "v0={v0} v1={v1}"
        );
    }

    #[test]
    fn damped_iteration_still_converges() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 20e-15);
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let mut opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        opts.sc_damping = 0.6;
        let (waves, stats) = StageSolver::new(&load, vec![unit_driver(input.clone(), g_out)], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(waves[0].final_value() < 0.05);
        assert!(stats.steps > 0);
        // Out-of-range damping is a configuration error, not a panic.
        let mut bad = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        bad.sc_damping = 0.0;
        assert!(StageSolver::new(&load, vec![unit_driver(input, g_out)], bad).is_err());
    }

    #[test]
    fn settle_stop_ends_the_run_on_a_prefix_of_the_full_run() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 20e-15);
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let run = |stop: Option<SettleStop>| {
            let mut opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
            opts.settle_stop = stop;
            StageSolver::new(&load, vec![unit_driver(input.clone(), g_out)], opts)
                .unwrap()
                .run()
                .unwrap()
        };
        let (full, full_stats) = run(None);
        let (cut, cut_stats) = run(Some(SettleStop {
            port: 0,
            rising: false,
        }));
        assert!(!full_stats.settled_early);
        assert!(cut_stats.settled_early);
        assert!(cut_stats.steps < full_stats.steps / 2, "{cut_stats:?}");
        // The same time loop, only shorter: its samples are the full run's
        // first ones, bit for bit, and the output has reached the low rail.
        let n = cut[0].points().len();
        assert_eq!(cut[0].points(), &full[0].points()[..n]);
        assert!(cut[0].final_value() < 0.05 * 1.8);
        // A watched port must exist.
        let mut bad = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        bad.settle_stop = Some(SettleStop {
            port: 3,
            rising: false,
        });
        assert!(StageSolver::new(&load, vec![unit_driver(input, g_out)], bad).is_err());
    }

    #[test]
    fn compression_reduces_points() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 30e-12);
        let mut opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        opts.compress_tol = 1e-3;
        let (waves, stats) = StageSolver::new(&load, vec![unit_driver(input, g_out)], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            waves[0].points().len() < stats.steps / 2,
            "compressed {} of {}",
            waves[0].points().len(),
            stats.steps
        );
    }
}
