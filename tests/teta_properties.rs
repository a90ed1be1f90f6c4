//! Property-based tests of the TETA waveform machinery and the
//! engine-agreement invariant.

use linvar::teta::Waveform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Strategy: a strictly increasing time axis with values in [-2, 2].
fn waveform_strategy() -> impl Strategy<Value = Waveform> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(1e-12f64..1e-9, n),
            prop::collection::vec(-2.0f64..2.0, n),
        )
            .prop_map(|(dts, vals)| {
                let mut t = 0.0;
                let points: Vec<(f64, f64)> = dts
                    .into_iter()
                    .zip(vals)
                    .map(|(dt, v)| {
                        t += dt;
                        (t, v)
                    })
                    .collect();
                Waveform::from_points(points)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compression never deviates more than its tolerance anywhere.
    #[test]
    fn compress_bounds_error(w in waveform_strategy(), tol in 1e-4f64..0.5) {
        let c = w.compress(tol);
        prop_assert!(c.points().len() <= w.points().len());
        // Check on a dense grid spanning the waveform.
        let t0 = w.points()[0].0;
        let t1 = w.end_time();
        for k in 0..=200 {
            let t = t0 + (t1 - t0) * k as f64 / 200.0;
            let err = (c.eval(t) - w.eval(t)).abs();
            prop_assert!(err <= tol * 1.0001, "err {} > tol {} at t={}", err, tol, t);
        }
        // Endpoints always survive.
        prop_assert_eq!(c.points()[0], w.points()[0]);
        prop_assert_eq!(*c.points().last().unwrap(), *w.points().last().unwrap());
    }

    /// Shifting is exact and invertible.
    #[test]
    fn shift_roundtrip(w in waveform_strategy(), dt in -1e-9f64..1e-9) {
        let back = w.shifted(dt).shifted(-dt);
        for (a, b) in w.points().iter().zip(back.points()) {
            prop_assert!((a.0 - b.0).abs() < 1e-20 + 1e-12 * a.0.abs());
            prop_assert_eq!(a.1, b.1);
        }
        // eval agrees under the shift.
        let t_mid = (w.points()[0].0 + w.end_time()) / 2.0;
        prop_assert!((w.shifted(dt).eval(t_mid + dt) - w.eval(t_mid)).abs() < 1e-9);
    }

    /// Truncation preserves the early samples exactly and extrapolates
    /// constantly beyond the cut.
    #[test]
    fn truncation_properties(w in waveform_strategy()) {
        let t_cut = (w.points()[0].0 + w.end_time()) / 2.0;
        let t = w.truncated(t_cut);
        prop_assert!(t.end_time() <= t_cut);
        for p in t.points() {
            prop_assert!((w.eval(p.0) - p.1).abs() < 1e-12);
        }
        // After the cut: constant at the last kept value.
        prop_assert_eq!(t.eval(w.end_time() + 1e-9), t.final_value());
    }

    /// Saturated-ramp extraction inverts materialization for any (M, S).
    #[test]
    fn saturated_ramp_roundtrip(
        m in 1e-10f64..1e-8,
        s in 1e-11f64..1e-9,
        rising in any::<bool>(),
        vdd in 0.5f64..5.0,
    ) {
        let sr = linvar::teta::SaturatedRamp { m, s, rising };
        let w = sr.to_waveform(0.0, vdd);
        let back = w.to_saturated_ramp(0.0, vdd).expect("complete transition");
        prop_assert!((back.m - m).abs() < 1e-12 + 1e-9 * m);
        prop_assert!((back.s - s).abs() < 1e-12 + 1e-6 * s);
        prop_assert_eq!(back.rising, rising);
    }

    /// Crossings returned by `crossing` actually lie on the waveform.
    #[test]
    fn crossing_is_on_the_waveform(w in waveform_strategy(), level in -1.5f64..1.5) {
        for rising in [true, false] {
            if let Some(t) = w.crossing(level, rising) {
                prop_assert!((w.eval(t) - level).abs() < 1e-9,
                    "crossing at t={} evals to {}", t, w.eval(t));
            }
        }
    }
}

/// The greedy breakpoint scan `Waveform::compress` must reproduce bit for
/// bit: from the last kept point, sample `k` is dropped while the chord to
/// sample `k + 1` passes within `tol` of every sample in between, each
/// sample rechecked at every step.
fn greedy_compress(points: &[(f64, f64)], tol: f64) -> Vec<(f64, f64)> {
    if points.len() <= 2 {
        return points.to_vec();
    }
    let mut kept = vec![points[0]];
    let mut anchor = 0;
    for k in 1..points.len() - 1 {
        let (t0, v0) = points[anchor];
        let (t1, v1) = points[k + 1];
        let mut ok = true;
        for p in &points[anchor + 1..=k] {
            let interp = v0 + (v1 - v0) * (p.0 - t0) / (t1 - t0);
            if (interp - p.1).abs() > tol {
                ok = false;
                break;
            }
        }
        if !ok {
            kept.push(points[k]);
            anchor = k;
        }
    }
    kept.push(points[points.len() - 1]);
    kept
}

fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// Chord value at `t` exactly as the greedy scan computes it.
fn chord_at((t0, v0): (f64, f64), (t1, v1): (f64, f64), t: f64) -> f64 {
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// A waveform and a tolerance of one of four kinds, from `seed`:
///
/// 0. random samples on a random time axis;
/// 1. chords with samples placed at, just inside and just outside `±tol`
///    of them — the margin where the slope cones cannot decide;
/// 2. an exponential transition into a long flat tail, with noise of up
///    to (and sometimes exactly) `tol`;
/// 3. degenerate tolerances (zero, negative, NaN, infinite), samples
///    that are NaN, infinite, huge or tiny, and vanishing time steps.
fn compress_case(seed: u64, kind: usize) -> (Vec<(f64, f64)>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut step = |rng: &mut StdRng, lo: f64, hi: f64| {
        t += rng.random_range(lo..hi);
        t
    };
    match kind {
        0 => {
            let n = rng.random_range(2..300usize);
            let tol = 10f64.powf(rng.random_range(-5.0..0.0));
            let smooth = rng.random_bool(0.5);
            let mut v = 0.0;
            let points = (0..n)
                .map(|_| {
                    v = if smooth {
                        v + rng.random_range(-0.05..0.05)
                    } else {
                        rng.random_range(-2.0..2.0)
                    };
                    (step(&mut rng, 1e-13, 1e-11), v)
                })
                .collect();
            (points, tol)
        }
        1 => {
            let tol = [1e-4, 1.8e-4, 0.01, 0.3][rng.random_range(0..4usize)];
            let mut a = (0.0, rng.random_range(-2.0..2.0));
            let mut points = vec![a];
            for _ in 0..rng.random_range(1..8usize) {
                let interior = rng.random_range(1..40usize);
                let times: Vec<f64> = (0..=interior)
                    .map(|_| step(&mut rng, 1e-13, 1e-11))
                    .collect();
                let b = (times[interior], rng.random_range(-2.0..2.0));
                for &ti in &times[..interior] {
                    // Mostly on the chord, so that chords from the anchor
                    // to later samples stay close to it.
                    let margin = match rng.random_range(0..10usize) {
                        0 => 1.0,
                        1 => 1.0 - 1e-15,
                        2 => 1.0 + 1e-15,
                        3 => 1.0 - 1e-9,
                        4 => 1.0 + 1e-9,
                        5 => rng.random_range(0.0..1.0),
                        _ => 0.0,
                    };
                    let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                    points.push((ti, chord_at(a, b, ti) + sign * margin * tol));
                }
                points.push(b);
                a = b;
            }
            (points, tol)
        }
        2 => {
            let tol = 1.8e-4;
            let n = rng.random_range(200..3000usize);
            let tau = rng.random_range(5.0..200.0);
            let noise = [0.0, 0.5, 1.0, 1.000001][rng.random_range(0..4usize)] * tol;
            let points = (0..n)
                .map(|k| {
                    let settle = 1.8 * (-(k as f64) / tau).exp();
                    let jitter = noise * rng.random_range(-1.0..1.0);
                    (k as f64 * 1e-12, 1.8 - settle + jitter)
                })
                .collect();
            (points, tol)
        }
        _ => {
            let tol =
                [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300, 1e-3][rng.random_range(0..6usize)];
            let n = rng.random_range(3..60usize);
            let (dt, unit) =
                [(1e-12, 1.0), (1e-250, 1.0), (1e-12, 1e-150)][rng.random_range(0..3usize)];
            let points = (0..n)
                .map(|_| {
                    let v = match rng.random_range(0..8usize) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => 1e200,
                        3 => 0.0,
                        _ => unit * rng.random_range(-2.0..2.0),
                    };
                    (step(&mut rng, dt, 10.0 * dt), v)
                })
                .collect();
            (points, tol)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The linear-time compressor keeps exactly the points of the greedy
    /// scan, bit for bit, on every kind of waveform.
    #[test]
    fn compress_matches_the_greedy_scan(seed in any::<u64>(), kind in 0usize..4) {
        let (points, tol) = compress_case(seed, kind);
        let fast = Waveform::from_points(points.clone()).compress(tol);
        prop_assert_eq!(bits(fast.points()), bits(&greedy_compress(&points, tol)));
    }

    /// Compressing a prefix `points[..m]` keeps the same points with index
    /// `≤ m − 2` as compressing the whole waveform — the property that
    /// lets a stage run stop early without changing its kept points.
    #[test]
    fn compressed_prefix_agrees_with_the_whole(
        seed in any::<u64>(),
        kind in 0usize..4,
        cut in 0.0f64..1.0,
    ) {
        let (points, tol) = compress_case(seed, kind);
        let m = 2 + (cut * (points.len() - 1) as f64) as usize;
        let m = m.min(points.len());
        let whole = Waveform::from_points(points.clone()).compress(tol);
        let prefix = Waveform::from_points(points[..m].to_vec()).compress(tol);
        let t_limit = points[m - 2].0;
        let shared: Vec<(f64, f64)> = whole
            .points()
            .iter()
            .copied()
            .take_while(|&(t, _)| t <= t_limit)
            .collect();
        let (last, head) = prefix.points().split_last().expect("nonempty");
        prop_assert_eq!(bits(head), bits(&shared));
        prop_assert_eq!(bits(&[*last]), bits(&[points[m - 1]]));
    }
}

/// A 200 000-point settled tail compresses to its two endpoints in one
/// pass. Rechecking every sample since the anchor would take about 2·10¹⁰
/// interpolations here.
#[test]
fn long_flat_tail_compresses_to_its_endpoints() {
    let n = 200_000;
    let points: Vec<(f64, f64)> = (0..n)
        .map(|k| (k as f64 * 1e-12, 1.8 - 1e-6 * (-(k as f64) / 1e3).exp()))
        .collect();
    let c = Waveform::from_points(points.clone()).compress(1.8e-4);
    assert_eq!(c.points(), &[points[0], points[n - 1]]);
}

// ---- The stage loop's step ladder ---------------------------------------

use linvar::devices::{chord_conductance, tech_018, DeviceVariation};
use linvar::mor::PoleResidueModel;
use linvar::numeric::{CMatrix, Complex, Matrix};
use linvar::teta::engine::DriverSpec;
use linvar::teta::{RecursiveConvolution, SettleStop, StageSolver, StageSolverOptions, MAX_RUNG};

const VDD: f64 = 1.8;
const H0: f64 = 1e-12;

/// Chord output conductance of the unit inverter.
fn unit_gout() -> f64 {
    let tech = tech_018();
    let n = tech.library.get(&tech.library.nmos_name()).unwrap();
    let p = tech.library.get(&tech.library.pmos_name()).unwrap();
    chord_conductance(n, tech.wn, tech.library.lmin, VDD)
        + chord_conductance(p, tech.wp, tech.library.lmin, VDD)
}

/// The unit inverter on port 0.
fn unit_driver(input: Waveform) -> DriverSpec {
    let tech = tech_018();
    DriverSpec {
        port: 0,
        input,
        nmos: tech.library.get(&tech.library.nmos_name()).unwrap().clone(),
        pmos: tech.library.get(&tech.library.pmos_name()).unwrap().clone(),
        wn: tech.wn,
        wp: tech.wp,
        length: tech.library.lmin,
        g_out: unit_gout(),
    }
}

/// Two-port load: the driven port 0 (chord conductance and `c`) coupled
/// to an observed port 1, with a second, four times faster pole. Port 0's
/// DC impedance is `1/g_out`, as the chord folding requires.
fn two_port_load(c: f64) -> PoleResidueModel {
    let g = unit_gout();
    let residue = |a: f64, b: f64, d: f64| {
        let mut r = CMatrix::zeros(2, 2);
        r[(0, 0)] = Complex::from_real(a / c);
        r[(0, 1)] = Complex::from_real(b / c);
        r[(1, 0)] = Complex::from_real(b / c);
        r[(1, 1)] = Complex::from_real(d / c);
        r
    };
    PoleResidueModel {
        poles: vec![Complex::from_real(-g / c), Complex::from_real(-4.0 * g / c)],
        residues: vec![residue(0.95, 0.6, 0.8), residue(0.2, 0.1, 0.3)],
        direct: Matrix::zeros(2, 2),
    }
}

/// A monotone PWL gate input from `seed`: 2 to 8 breakpoints at times off
/// the `H0` grid, between 5 and 300 ps, rising or falling.
fn random_input(seed: u64) -> Waveform {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2..9usize);
    let mut times: Vec<f64> = (0..n).map(|_| rng.random_range(5e-12..300e-12)).collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    let mut levels: Vec<f64> = (0..times.len())
        .map(|_| rng.random_range(0.0..VDD))
        .collect();
    levels.sort_by(f64::total_cmp);
    let last = levels.len() - 1;
    (levels[0], levels[last]) = (0.0, VDD);
    if rng.random_range(0..2usize) == 1 {
        levels.reverse();
    }
    Waveform::from_points(times.into_iter().zip(levels).collect())
}

fn ladder_options(t_end: f64) -> StageSolverOptions {
    let mut opts = StageSolverOptions::new(VDD, t_end, H0);
    opts.compress_tol = 1e-4 * VDD;
    opts
}

/// The fixed-step time loop as it was before the step ladder: every step
/// `h`, `ceil(t_end / h)` of them, no compression. Kept here as the
/// reference the ladder must reproduce with `compress_tol = 0`.
fn fixed_step_loop(
    load: &PoleResidueModel,
    d: &DriverSpec,
    opts: &StageSolverOptions,
) -> Vec<Waveform> {
    let np = load.port_count();
    let h = opts.h;
    let steps = (opts.t_end / h).ceil() as usize;
    let mut conv = RecursiveConvolution::new(load, h);
    let (dl, dvt) = (opts.variation.delta_l(), opts.variation.delta_vt());
    let i_eq = |vin: f64, vout: f64| {
        let n = d.nmos.eval(vin, vout, 0.0, d.wn, d.length, dl, dvt);
        let p = d.pmos.eval(
            vin - opts.vdd,
            vout - opts.vdd,
            0.0,
            d.wp,
            d.length,
            dl,
            dvt,
        );
        -(n.ids + p.ids) + d.g_out * vout
    };
    let damp = |v_new: &mut Vec<f64>, v: &[f64]| {
        if opts.sc_damping < 1.0 {
            for (a, b) in v_new.iter_mut().zip(v) {
                *a = *b + opts.sc_damping * (*a - *b);
            }
        }
    };
    let zdc = conv.dc_impedance();
    let mut v = vec![0.0; np];
    v[d.port] = if d.input.initial_value() < opts.vdd / 2.0 {
        opts.vdd
    } else {
        0.0
    };
    let vin0 = d.input.eval(0.0);
    let mut i = vec![0.0; np];
    let mut v_new = Vec::new();
    for _ in 0..opts.max_iterations * 2 {
        i.iter_mut().for_each(|x| *x = 0.0);
        i[d.port] = i_eq(vin0, v[d.port]);
        zdc.mul_vec_into(&i, &mut v_new);
        damp(&mut v_new, &v);
        let delta = v_new
            .iter()
            .zip(&v)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        std::mem::swap(&mut v, &mut v_new);
        if delta < opts.vtol {
            break;
        }
    }
    conv.initialize_dc(&i);
    let mut recorded: Vec<Vec<(f64, f64)>> = v.iter().map(|&x| vec![(0.0, x)]).collect();
    let (mut hist, mut i_new) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    for _ in 0..steps {
        t += h;
        conv.history_into(&mut hist);
        let vin = d.input.eval(t);
        i_new.clone_from(&i);
        for _ in 0..opts.max_iterations {
            i_new.iter_mut().for_each(|x| *x = 0.0);
            i_new[d.port] = i_eq(vin, v[d.port]);
            conv.voltages_into(&i_new, &hist, &mut v_new);
            damp(&mut v_new, &v);
            let delta = v_new
                .iter()
                .zip(&v)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            std::mem::swap(&mut v, &mut v_new);
            if delta < opts.vtol {
                break;
            }
        }
        conv.advance(&i_new);
        i.copy_from_slice(&i_new);
        for (rec, &x) in recorded.iter_mut().zip(&v) {
            rec.push((t, x));
        }
    }
    recorded.into_iter().map(Waveform::from_points).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every accepted step is `H0·2^k` with `k ≤ MAX_RUNG`, starts on a
    /// multiple of its own length, and a step above rung 0 has no input
    /// breakpoint strictly inside it.
    #[test]
    fn ladder_steps_are_aligned_rungs_clear_of_input_breakpoints(
        seed in any::<u64>(),
        c in 5e-15f64..60e-15,
    ) {
        let input = random_input(seed);
        let breakpoints: Vec<f64> = input.points().iter().map(|p| p.0).collect();
        let (raw, stats) = StageSolver::new(&two_port_load(c), vec![unit_driver(input)], ladder_options(1.2e-9))
            .unwrap()
            .run_samples()
            .unwrap();
        let points = raw[0].points();
        prop_assert_eq!(points.len(), stats.steps + 1);
        let mut top = 0;
        for w in points.windows(2) {
            let (t0, t1) = (w[0].0, w[1].0);
            let steps = (t1 - t0) / H0;
            let k = steps.round().log2().round() as u32;
            prop_assert!((steps - f64::from(1u32 << k)).abs() < 1e-6, "step {steps} h0 at {t0:e}");
            prop_assert!(k as usize <= MAX_RUNG);
            let n = (t0 / H0).round() as u64;
            prop_assert_eq!(n % (1u64 << k), 0, "rung {} from {}", k, n);
            if k > 0 {
                let snap = 1e-6 * H0;
                prop_assert!(
                    !breakpoints.iter().any(|&b| t0 + snap < b && b < t1 - snap),
                    "rung {} step {:e}..{:e} straddles a breakpoint", k, t0, t1
                );
            }
            top = top.max(k);
        }
        prop_assert!(top >= 3, "the ladder never left the bottom rungs (top {})", top);
        prop_assert!(raw[0].end_time() >= 1.2e-9);
    }

    /// With `compress_tol = 0` the loop takes only `H0` steps and its
    /// waveforms are bitwise those of the fixed-step loop, damped or not.
    #[test]
    fn without_compression_the_loop_is_the_fixed_step_loop(
        seed in any::<u64>(),
        c in 5e-15f64..60e-15,
        damped in any::<bool>(),
    ) {
        let input = random_input(seed);
        let load = two_port_load(c);
        let mut opts = StageSolverOptions::new(VDD, 0.8e-9, H0);
        opts.variation = DeviceVariation::new(0.3, -0.4);
        if damped {
            opts.sc_damping = 0.7;
        }
        let reference = fixed_step_loop(&load, &unit_driver(input.clone()), &opts);
        let (waves, stats) = StageSolver::new(&load, vec![unit_driver(input)], opts)
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(stats.steps, 800);
        prop_assert_eq!(stats.rejected_steps, 0);
        for (w, r) in waves.iter().zip(&reference) {
            prop_assert_eq!(bits(w.points()), bits(r.points()));
        }
    }

    /// A run stopped at its settle point is a bitwise prefix of the full
    /// window's run on the ladder: the step sequence does not depend on
    /// where the run ends.
    #[test]
    fn ladder_settle_stop_is_a_prefix_of_the_full_window(
        seed in any::<u64>(),
        c in 5e-15f64..60e-15,
    ) {
        let input = random_input(seed);
        let stop = SettleStop { port: 0, rising: !input.is_rising() };
        let load = two_port_load(c);
        let run = |stop: Option<SettleStop>| {
            let mut opts = ladder_options(2e-9);
            opts.settle_stop = stop;
            StageSolver::new(&load, vec![unit_driver(input.clone())], opts)
                .unwrap()
                .run_samples()
                .unwrap()
        };
        let (full, _) = run(None);
        let (cut, cut_stats) = run(Some(stop));
        prop_assert!(cut_stats.settled_early);
        for (c, f) in cut.iter().zip(&full) {
            let n = c.points().len();
            prop_assert!(n < f.points().len());
            prop_assert_eq!(bits(c.points()), bits(&f.points()[..n]));
        }
    }
}

/// Tightening the tolerance moves a two-stage path's 50 % delay
/// monotonically toward the all-`H0` result (`compress_tol = 0`).
///
/// The tolerances are 16 times apart. The path error is the sum of the
/// two stages' errors, which differ in sign here, and each stage's error
/// moves in steps as the controller's rung pattern changes; at tolerances
/// only 2 or 4 times apart those steps can outweigh the trend.
#[test]
fn tighter_tolerance_moves_the_path_delay_toward_the_base_step_result() {
    let stage1 = two_port_load(20e-15);
    let stage2 = two_port_load(35e-15);
    let delay = |tol: f64| {
        let run = |load: &PoleResidueModel, input: Waveform| {
            let mut opts = StageSolverOptions::new(VDD, 1.5e-9, H0);
            opts.compress_tol = tol;
            let (waves, _) = StageSolver::new(load, vec![unit_driver(input)], opts)
                .unwrap()
                .run()
                .unwrap();
            waves.into_iter().next().unwrap()
        };
        let mid = run(&stage1, Waveform::ramp(0.0, VDD, 40e-12, 60e-12));
        let out = run(&stage2, mid);
        out.crossing(VDD / 2.0, true)
            .expect("the path output rises")
            - 70e-12
    };
    let base = delay(0.0);
    let errors: Vec<f64> = [4e-3, 2.5e-4, 1.5625e-5, 1e-6]
        .iter()
        .map(|&tol| (delay(tol) - base).abs() / base)
        .collect();
    for w in errors.windows(2) {
        assert!(w[1] <= w[0], "delay errors not monotone: {errors:?}");
    }
    assert!(
        errors[0] > 1e-3 && errors[errors.len() - 1] < 1e-5,
        "{errors:?}"
    );
}
