//! Piecewise-linear waveforms and the saturated-ramp abstraction.
//!
//! The framework propagates "a fine resolution waveform model which
//! captures almost the exact waveform … represented by a piece-wise linear
//! model that adaptively selects the breakpoints" (paper §4.3.1). The
//! Gradient Analysis flow abstracts waveforms further to the saturated
//! ramp with the 50 % arrival point `M` and transition time `S`
//! (paper eq. 29).

use crate::error::TetaError;

/// A piecewise-linear waveform: `(time, value)` samples with constant
/// extrapolation outside the sampled range.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    points: Vec<(f64, f64)>,
}

impl Waveform {
    /// Creates a waveform from `(time, value)` samples.
    ///
    /// # Panics
    ///
    /// Panics if times are not strictly increasing.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "waveform times must be strictly increasing"
            );
        }
        Waveform { points }
    }

    /// Creates a saturated-ramp waveform from `v0` to `v1` starting at
    /// `t0` with transition time `tr`.
    pub fn ramp(v0: f64, v1: f64, t0: f64, tr: f64) -> Self {
        Waveform {
            points: vec![(t0, v0), (t0 + tr.max(1e-18), v1)],
        }
    }

    /// Constant waveform.
    pub fn constant(v: f64) -> Self {
        Waveform {
            points: vec![(0.0, v)],
        }
    }

    /// The sample points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Value at time `t` (linear interpolation, constant extrapolation).
    pub fn eval(&self, t: f64) -> f64 {
        let p = &self.points;
        if p.is_empty() {
            return 0.0;
        }
        if t <= p[0].0 {
            return p[0].1;
        }
        if t >= p[p.len() - 1].0 {
            return p[p.len() - 1].1;
        }
        let mut lo = 0;
        let mut hi = p.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if p[mid].0 <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, v0) = p[lo];
        let (t1, v1) = p[hi];
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// First and last values.
    pub fn initial_value(&self) -> f64 {
        self.points.first().map_or(0.0, |p| p.1)
    }

    /// Value after the last breakpoint.
    pub fn final_value(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1)
    }

    /// Time of the last breakpoint.
    pub fn end_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.0)
    }

    /// `true` if the waveform ends higher than it starts.
    pub fn is_rising(&self) -> bool {
        self.final_value() > self.initial_value()
    }

    /// Adaptive breakpoint selection: drops samples that a linear
    /// interpolation of their neighbours reproduces within `tol` (absolute).
    /// This is the "adaptively selects the breakpoints" compression of the
    /// paper; typical savings are 5–20x on smooth stage outputs.
    ///
    /// The selection is greedy. From the last kept point (the anchor),
    /// sample `k` is dropped while the chord from the anchor to sample
    /// `k + 1` passes within `tol` of every sample in between; otherwise
    /// `k` is kept and becomes the anchor. Rechecking every sample since
    /// the anchor would make a long settled tail quadratic, so the chord
    /// slopes that pass all of them are tracked as an interval (a cone)
    /// that each new sample narrows in O(1). Two cones are kept, at
    /// `tol − δ` and `tol + δ`, with `δ` orders of magnitude above the
    /// rounding error of either test: a slope inside the inner cone
    /// passes the sample-by-sample check, one outside the outer cone
    /// fails it, and only a slope in the thin margin between them runs
    /// that check. The kept points are therefore exactly those of the
    /// sample-by-sample scan, in O(n) for any waveform whose chords do
    /// not graze the tolerance.
    ///
    /// Decisions up to sample `k` read only samples `0..=k + 1`, so
    /// compressing a prefix `points[..m]` keeps the same points with
    /// index `≤ m − 2` as compressing the whole waveform.
    pub fn compress(&self, tol: f64) -> Waveform {
        let p = &self.points;
        if p.len() <= 2 {
            return self.clone();
        }
        // The rounding argument behind the cones needs every slope and
        // bound finite and clear of the subnormal range: a non-negative
        // tolerance, samples of moderate magnitude and time steps that are
        // not vanishingly small. Anything else runs the sample-by-sample
        // check at every step.
        let scale = p.iter().fold(tol, |m, &(_, v)| m.max(v.abs()));
        let cones = (0.0..1e100).contains(&tol)
            && scale > 1e-100
            && p.iter().all(|&(t, v)| t.abs() < 1e100 && v.abs() < 1e100)
            && p.windows(2).all(|w| w[1].0 - w[0].0 >= 1e-200);
        let delta = scale * f64::EPSILON * 1e6;
        let (inner, outer) = (tol - delta, tol + delta);
        let mut kept = vec![p[0]];
        let mut anchor = 0;
        let mut cone = SlopeCone::OPEN;
        for k in 1..p.len() - 1 {
            let (t0, v0) = p[anchor];
            let (t1, v1) = p[k + 1];
            let decided = if cones {
                let (tk, vk) = p[k];
                cone.narrow(tk - t0, vk - v0, inner, outer);
                cone.decide((v1 - v0) / (t1 - t0))
            } else {
                None
            };
            let fits =
                decided.unwrap_or_else(|| chord_fits(&p[anchor + 1..=k], (t0, v0), (t1, v1), tol));
            if !fits {
                kept.push(p[k]);
                anchor = k;
                cone = SlopeCone::OPEN;
            }
        }
        kept.push(*p.last().expect("nonempty"));
        Waveform { points: kept }
    }

    /// Returns the waveform translated in time by `dt` (positive shifts
    /// later). Stage-by-stage path analysis uses this to rebase each
    /// stage's input near the time origin so simulation windows stay short.
    pub fn shifted(&self, dt: f64) -> Waveform {
        Waveform {
            points: self.points.iter().map(|&(t, v)| (t + dt, v)).collect(),
        }
    }

    /// Returns the waveform truncated after `t_max` (constant extrapolation
    /// continues from the last kept sample). Path analysis trims each stage
    /// output after it settles, so downstream simulation windows do not
    /// inherit the full upstream time span.
    pub fn truncated(&self, t_max: f64) -> Waveform {
        let mut points: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .take_while(|&(t, _)| t <= t_max)
            .collect();
        if points.is_empty() {
            if let Some(&first) = self.points.first() {
                points.push(first);
            }
        }
        Waveform { points }
    }

    /// Time of the first crossing of `level` in the given direction, or
    /// `None`.
    pub fn crossing(&self, level: f64, rising: bool) -> Option<f64> {
        self.points
            .windows(2)
            .find_map(|w| segment_crossing(w[0], w[1], level, rising))
    }

    /// Extracts the saturated-ramp abstraction `(M, S)` between the given
    /// rails: `M` is the 50 % arrival time, `S` the full-swing transition
    /// time inferred from the 10–90 % interval.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::IncompleteTransition`] if the waveform does not
    /// cross the required levels.
    pub fn to_saturated_ramp(&self, v_low: f64, v_high: f64) -> Result<SaturatedRamp, TetaError> {
        let swing = v_high - v_low;
        let rising = self.is_rising();
        let m = self
            .crossing(v_low + 0.5 * swing, rising)
            .ok_or(TetaError::IncompleteTransition { what: "50% point" })?;
        let (l10, l90) = (v_low + 0.1 * swing, v_low + 0.9 * swing);
        let (first, second) = if rising { (l10, l90) } else { (l90, l10) };
        let t_first = self
            .crossing(first, rising)
            .ok_or(TetaError::IncompleteTransition { what: "10% point" })?;
        let t_second = self
            .crossing(second, rising)
            .ok_or(TetaError::IncompleteTransition { what: "90% point" })?;
        let s = (t_second - t_first) / 0.8;
        Ok(SaturatedRamp { m, s, rising })
    }
}

/// Time at which the segment from `(t0, v0)` to `(t1, v1)` crosses
/// `level` in the given direction, or `None` if it does not.
pub(crate) fn segment_crossing(
    (t0, v0): (f64, f64),
    (t1, v1): (f64, f64),
    level: f64,
    rising: bool,
) -> Option<f64> {
    let crossed = if rising {
        v0 < level && v1 >= level
    } else {
        v0 > level && v1 <= level
    };
    if !crossed {
        None
    } else if (v1 - v0).abs() < 1e-300 {
        Some(t1)
    } else {
        Some(t0 + (t1 - t0) * (level - v0) / (v1 - v0))
    }
}

/// `true` if the chord from `a` to `b` passes within `tol` of every
/// sample in `between` — the sample-by-sample test of
/// [`Waveform::compress`].
fn chord_fits(
    between: &[(f64, f64)],
    (t0, v0): (f64, f64),
    (t1, v1): (f64, f64),
    tol: f64,
) -> bool {
    !between.iter().any(|&(t, v)| {
        let interp = v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        (interp - v).abs() > tol
    })
}

/// The chord slopes from an anchor that pass within `tol − δ` (inner) and
/// `tol + δ` (outer) of every sample fed to [`SlopeCone::narrow`].
#[derive(Clone, Copy)]
struct SlopeCone {
    inner: (f64, f64),
    outer: (f64, f64),
}

impl SlopeCone {
    const OPEN: SlopeCone = SlopeCone {
        inner: (f64::NEG_INFINITY, f64::INFINITY),
        outer: (f64::NEG_INFINITY, f64::INFINITY),
    };

    /// Narrows both cones to the slopes passing a sample `dt` after the
    /// anchor and `dv` above it.
    fn narrow(&mut self, dt: f64, dv: f64, inner_tol: f64, outer_tol: f64) {
        self.inner.0 = self.inner.0.max((dv - inner_tol) / dt);
        self.inner.1 = self.inner.1.min((dv + inner_tol) / dt);
        self.outer.0 = self.outer.0.max((dv - outer_tol) / dt);
        self.outer.1 = self.outer.1.min((dv + outer_tol) / dt);
    }

    /// Whether the chord of this slope fits: `Some(true)` inside the
    /// inner cone, `Some(false)` outside the outer one, `None` in the
    /// margin between them.
    fn decide(&self, slope: f64) -> Option<bool> {
        if self.inner.0 <= slope && slope <= self.inner.1 {
            Some(true)
        } else if slope < self.outer.0 || slope > self.outer.1 {
            Some(false)
        } else {
            None
        }
    }
}

/// Saturated-ramp waveform parameters `(M, S)` — the 50 % arrival point and
/// the (full-swing-equivalent) transition time (paper eq. 29).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatedRamp {
    /// 50 % arrival time (s).
    pub m: f64,
    /// Full-swing transition time (s).
    pub s: f64,
    /// Transition direction.
    pub rising: bool,
}

impl SaturatedRamp {
    /// Materializes the ramp as a waveform between the given rails.
    pub fn to_waveform(&self, v_low: f64, v_high: f64) -> Waveform {
        let (v0, v1) = if self.rising {
            (v_low, v_high)
        } else {
            (v_high, v_low)
        };
        let t0 = self.m - self.s / 2.0;
        Waveform::ramp(v0, v1, t0, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_eval_and_extrapolation() {
        let w = Waveform::ramp(0.0, 1.8, 1e-9, 2e-9);
        assert_eq!(w.eval(0.0), 0.0);
        assert!((w.eval(2e-9) - 0.9).abs() < 1e-12);
        assert_eq!(w.eval(9e-9), 1.8);
        assert!(w.is_rising());
        assert_eq!(w.initial_value(), 0.0);
        assert_eq!(w.final_value(), 1.8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_times_panic() {
        let _ = Waveform::from_points(vec![(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    fn compress_straight_line() {
        // 100 collinear samples compress to 2 points.
        let points: Vec<(f64, f64)> = (0..100).map(|k| (k as f64, 2.0 * k as f64)).collect();
        let w = Waveform::from_points(points).compress(1e-9);
        assert_eq!(w.points().len(), 2);
        assert!((w.eval(50.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn compress_keeps_corners() {
        let w = Waveform::from_points(vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 1.0),
            (3.0, 1.0),
            (4.0, 1.0),
        ]);
        let c = w.compress(1e-6);
        // The two corner points must survive.
        assert!(c.points().len() >= 4 - 1);
        for t in [0.5, 1.5, 2.5, 3.5] {
            assert!((c.eval(t) - w.eval(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn crossing_detection() {
        let w = Waveform::ramp(0.0, 1.0, 0.0, 2.0);
        let t = w.crossing(0.5, true).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        assert!(w.crossing(0.5, false).is_none());
    }

    #[test]
    fn saturated_ramp_roundtrip() {
        let sr = SaturatedRamp {
            m: 5e-9,
            s: 2e-9,
            rising: true,
        };
        let w = sr.to_waveform(0.0, 1.8);
        let back = w.to_saturated_ramp(0.0, 1.8).unwrap();
        assert!((back.m - sr.m).abs() < 1e-12);
        assert!((back.s - sr.s).abs() < 1e-12);
        assert!(back.rising);
    }

    #[test]
    fn falling_ramp_extraction() {
        let w = Waveform::ramp(1.8, 0.0, 1e-9, 4e-9);
        let sr = w.to_saturated_ramp(0.0, 1.8).unwrap();
        assert!(!sr.rising);
        assert!((sr.m - 3e-9).abs() < 1e-12);
        assert!((sr.s - 4e-9).abs() < 1e-11);
    }

    #[test]
    fn incomplete_transition_is_error() {
        let w = Waveform::ramp(0.0, 0.4, 0.0, 1e-9); // never reaches 0.9 V
        assert!(matches!(
            w.to_saturated_ramp(0.0, 1.8),
            Err(TetaError::IncompleteTransition { .. })
        ));
    }

    #[test]
    fn constant_waveform() {
        let w = Waveform::constant(1.8);
        assert_eq!(w.eval(-1.0), 1.8);
        assert_eq!(w.eval(100.0), 1.8);
        assert!(!w.is_rising());
    }
}
