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
