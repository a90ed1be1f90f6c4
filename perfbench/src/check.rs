//! Output checks. Each returns `Err` with a one-line reason; any failed
//! check makes the run report `"correct": false`.

use crate::measure::{digest, Round};
use linvar_stats::Summary;
use std::collections::BTreeMap;

/// Relative budget of a framework delay against its SPICE reference —
/// the light-load budget of the workspace's engine-agreement tests.
pub const REF_BUDGET: f64 = 0.10;

/// Every path delay is finite and positive, and no sample failed.
pub fn path_delays(round: &Round) -> Result<(), String> {
    if round.failed > 0 || round.values.len() != round.attempted {
        return Err(format!(
            "{} of {} path samples failed",
            round.attempted - round.values.len(),
            round.attempted
        ));
    }
    match round
        .values
        .iter()
        .position(|d| !(d.is_finite() && *d > 0.0))
    {
        Some(i) => Err(format!(
            "path delay {} at sample {i} is not a finite positive time",
            round.values[i]
        )),
        None => Ok(()),
    }
}

/// Framework delays agree with their SPICE references within
/// [`REF_BUDGET`]; returns the largest relative error.
pub fn reference_agreement(pairs: &[(String, f64, f64)]) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (label, fw, reference) in pairs {
        if !(fw.is_finite() && *fw > 0.0 && reference.is_finite() && *reference > 0.0) {
            return Err(format!(
                "{label}: framework {fw} / reference {reference} not finite positive"
            ));
        }
        let err = (fw - reference).abs() / reference;
        if err > REF_BUDGET {
            return Err(format!(
                "{label}: framework {fw:e} s vs SPICE {reference:e} s differ by {:.2} % (budget {:.0} %)",
                1e2 * err,
                1e2 * REF_BUDGET
            ));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

/// Every chain sample crossed 50 % strictly inside its window
/// `(0, tstop)`, and none failed.
pub fn crossings(round: &Round, tstops: &[f64]) -> Result<(), String> {
    if round.failed > 0 || round.values.len() != tstops.len() {
        return Err(format!(
            "{} of {} chain samples found no 50 % crossing",
            round.failed, round.attempted
        ));
    }
    for (i, (t, tstop)) in round.values.iter().zip(tstops).enumerate() {
        if !(t.is_finite() && *t > 0.0 && t < tstop) {
            return Err(format!(
                "chain sample {i}: crossing {t} outside its window (0, {tstop})"
            ));
        }
    }
    Ok(())
}

/// A resumed campaign's summary and values equal an uninterrupted run's,
/// bit for bit.
pub fn resume_matches(
    resumed: (&Summary, &[f64]),
    uninterrupted: (&Summary, &[f64]),
) -> Result<(), String> {
    if digest(resumed.0, resumed.1, &[]) == digest(uninterrupted.0, uninterrupted.1, &[]) {
        Ok(())
    } else {
        Err(format!(
            "resumed campaign (n={} mean={:e}) differs from the uninterrupted run (n={} mean={:e})",
            resumed.0.n, resumed.0.mean, uninterrupted.0.n, uninterrupted.0.mean
        ))
    }
}

/// Every round of the same batch produced a bitwise-identical result.
pub fn same_results(rounds: &[Round]) -> Result<(), String> {
    match rounds.iter().position(|r| r.digest != rounds[0].digest) {
        Some(i) => Err(format!(
            "round {i} result digest differs from round 0 (same seed, same batch)"
        )),
        None => Ok(()),
    }
}

/// Counters that count misses of a per-worker cache rather than work
/// fixed by the samples, so they depend on which worker meets which
/// circuit first: the sparse symbolic analysis is cached per worker
/// thread (one analysis per pattern per worker). They are reported, but
/// left out of the exact-count comparison.
pub const PER_WORKER_CACHE_COUNTS: &[&str] = &["phase.symbolic.calls"];

/// Two runs of the same batch counted exactly the same work (every
/// counter but [`PER_WORKER_CACHE_COUNTS`]).
pub fn same_counts(
    what: &str,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Result<(), String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for k in keys
        .into_iter()
        .filter(|k| !PER_WORKER_CACHE_COUNTS.contains(&k.as_str()))
    {
        let (x, y) = (
            a.get(k).copied().unwrap_or(0),
            b.get(k).copied().unwrap_or(0),
        );
        if x != y {
            return Err(format!("{what}: counter {k} reads {x} vs {y}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(values: Vec<f64>) -> Round {
        let summary = Summary::of(&values);
        Round::new(0.0, vec![0.0; values.len()], &[], values, summary)
    }

    #[test]
    fn rejects_nan_and_nonpositive_delays() {
        assert!(path_delays(&round(vec![1e-10, 2e-10])).is_ok());
        assert!(path_delays(&round(vec![1e-10, f64::NAN])).is_err());
        assert!(path_delays(&round(vec![1e-10, -1e-12])).is_err());
        assert!(path_delays(&round(vec![1e-10, f64::INFINITY])).is_err());
        let mut failed = round(vec![1e-10]);
        failed.attempted = 2;
        failed.failed = 1;
        assert!(path_delays(&failed).is_err());
    }

    #[test]
    fn reference_budget_is_enforced() {
        let ok = [("a".to_string(), 1.05e-10, 1.0e-10)];
        assert!((reference_agreement(&ok).unwrap() - 0.05).abs() < 1e-12);
        let off = [("a".to_string(), 1.2e-10, 1.0e-10)];
        assert!(reference_agreement(&off).is_err());
        let nan = [("a".to_string(), f64::NAN, 1.0e-10)];
        assert!(reference_agreement(&nan).is_err());
    }

    #[test]
    fn crossings_must_sit_inside_the_window() {
        assert!(crossings(&round(vec![1e-10]), &[1e-9]).is_ok());
        assert!(crossings(&round(vec![2e-9]), &[1e-9]).is_err());
        assert!(crossings(&round(vec![f64::NAN]), &[1e-9]).is_err());
    }

    #[test]
    fn rejects_a_resumed_summary_that_differs() {
        let v = [0.1, 0.2, 0.3];
        let s = Summary::of(&v);
        assert!(resume_matches((&s, &v), (&s, &v)).is_ok());
        let mut w = v;
        w[2] = f64::from_bits(w[2].to_bits() + 1);
        assert!(resume_matches((&Summary::of(&w), &w), (&s, &v)).is_err());
        assert!(resume_matches((&s, &v[..2]), (&s, &v)).is_err());
    }

    #[test]
    fn differing_rounds_and_counts_are_caught() {
        let mut a = round(vec![1.0]);
        a.digest = 1;
        let mut b = a.clone();
        assert!(same_results(&[a.clone(), b.clone()]).is_ok());
        b.digest = 2;
        assert!(same_results(&[a, b]).is_err());
        let x: BTreeMap<String, u64> = [("sc.chord_iterations".to_string(), 5)].into();
        let y: BTreeMap<String, u64> = [("sc.chord_iterations".to_string(), 6)].into();
        assert!(same_counts("t", &x, &x).is_ok());
        assert!(same_counts("t", &x, &y).is_err());
        assert!(same_counts("t", &x, &BTreeMap::new()).is_err());
        let s1: BTreeMap<String, u64> = [("phase.symbolic.calls".to_string(), 4)].into();
        let s2: BTreeMap<String, u64> = [("phase.symbolic.calls".to_string(), 8)].into();
        assert!(same_counts("t", &s1, &s2).is_ok());
    }
}
