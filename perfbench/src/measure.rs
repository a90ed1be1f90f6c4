//! Timing rounds, latency quantiles, result digests and process memory.

use linvar_stats::Summary;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One fixed batch evaluated by the closed-loop driver.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time of the driver call(s), seconds.
    pub wall_s: f64,
    /// Samples attempted.
    pub attempted: usize,
    /// Samples that failed.
    pub failed: usize,
    /// Per-sample evaluator latency, milliseconds, in sample-index order.
    pub latencies_ms: Vec<f64>,
    /// Result values in sample-index order (failed samples omitted).
    pub values: Vec<f64>,
    /// The driver's summary of `values`.
    pub summary: Summary,
    /// FNV-1a digest of the summary, values and failed indices, bit for
    /// bit.
    pub digest: u64,
}

impl Round {
    /// A batch result; `failed_indices` are the samples that failed.
    pub fn new(
        wall_s: f64,
        latencies_ms: Vec<f64>,
        failed_indices: &[usize],
        values: Vec<f64>,
        summary: Summary,
    ) -> Round {
        Round {
            wall_s,
            attempted: latencies_ms.len(),
            failed: failed_indices.len(),
            digest: digest(&summary, &values, failed_indices),
            latencies_ms,
            values,
            summary,
        }
    }
}

/// Per-sample latency slots written by the worker threads.
pub struct Latencies(Vec<AtomicU64>);

impl Latencies {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        Latencies((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    /// Times `f` and stores its duration in slot `idx`.
    pub fn time<R>(&self, idx: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.0[idx].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// The slots in milliseconds.
    pub fn into_ms(self) -> Vec<f64> {
        self.0
            .into_iter()
            .map(|a| a.into_inner() as f64 * 1e-6)
            .collect()
    }
}

/// Folds a summary and the ordered values into a bitwise digest: two
/// results digest equal only if every bit of every field agrees.
pub fn digest(summary: &Summary, values: &[f64], failed_indices: &[usize]) -> u64 {
    let mut words = vec![
        summary.n as u64,
        summary.mean.to_bits(),
        summary.std.to_bits(),
        summary.min.to_bits(),
        summary.max.to_bits(),
        summary.std_err_mean.to_bits(),
        summary.rel_err_std.to_bits(),
    ];
    words.extend(values.iter().map(|v| v.to_bits()));
    words.extend(failed_indices.iter().map(|&i| i as u64));
    fnv1a(&words)
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Mixes a workload seed with a stream index into an independent seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of unsorted data (`q` in (0, 1]); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples ranked strictly above the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Peak resident set size of this process (VmHWM), MiB; 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Orders a batch made of `counts[k]` samples of each group so every
/// group is spread evenly over it: the heavy groups do not bunch into
/// one worker's claim at the end of a batch.
pub fn spread(counts: &[usize]) -> Vec<(usize, usize)> {
    let mut slots: Vec<(f64, usize, usize)> = Vec::new();
    for (g, &n) in counts.iter().enumerate() {
        for j in 0..n {
            slots.push(((j as f64 + 0.5) / n as f64, g, j));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, g, j)| (g, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), 100.0);
        assert_eq!(quantile(&xs, 0.95), 190.0);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let v = [1.0, 2.0, 3.0];
        let s = Summary::of(&v);
        let mut w = v;
        w[1] = f64::from_bits(w[1].to_bits() ^ 1);
        assert_ne!(digest(&s, &v, &[]), digest(&s, &w, &[]));
        assert_eq!(digest(&s, &v, &[]), digest(&Summary::of(&v), &v, &[]));
    }

    #[test]
    fn spread_interleaves_groups_evenly() {
        let order = spread(&[3, 1]);
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (0, 2)]);
        let order = spread(&[22, 2]);
        let heavy: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (g, _))| *g == 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(heavy.len(), 2);
        assert!(heavy[1] - heavy[0] >= 10, "{heavy:?}");
    }
}
