//! `linvar-perfbench`: closed-loop Monte-Carlo benchmark of the linvar
//! workspace, end to end and by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <iscas_paths|rc_chains|grid_campaign> --seed <n> \
//!     --seconds <s> --trace <0|1> [--size tiny|full]
//! ```
//!
//! Each workload is a fixed batch of samples drawn from `--seed`,
//! evaluated again and again by 2 worker threads (each claims the next
//! sample when its last one is done) until the batches have taken
//! `--seconds`. With `--trace 0` the metrics sink is off and the run
//! reports the end-to-end metrics, with set-ups spread through the
//! batches; with `--trace 1` untraced and traced batches
//! alternate and the run reports the per-layer metrics, including the
//! tracing overhead. Every run checks the program's outputs and prints
//! one JSON result object as its last line. See `README.md`.

mod chains;
mod check;
mod grid;
mod iscas;
mod measure;
mod report;
mod trace;

use measure::{beyond, median, peak_rss_mb, quantile, Round};
use report::{Metrics, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{LayerTable, Section, LAYERS};

/// Worker threads of every timed batch.
pub const THREADS: usize = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Samples a full-size run measures at least, so the p95 latency has ten
/// samples beyond it.
const MIN_TAIL_SAMPLES: usize = 200;

/// Workload size: the benchmark's own (`Full`) or a seconds-long smoke
/// configuration for the benchmark's tests (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the model or case, draws the batch from `seed` and warms
    /// up; `scratch` is a private directory for durable files.
    fn setup(seed: u64, size: Size, scratch: &Path) -> Result<Self, String>;

    /// Evaluates the whole batch once on `threads` workers.
    fn round(&self, threads: usize) -> Result<Round, String>;

    /// Checks the outputs of the measured rounds, outside the timed
    /// region; may add workload-level metrics.
    fn verify(&self, rounds: &[Round], m: &mut Metrics) -> Result<(), String>;

    /// Splits the traced rounds' time into layer self times, runs the
    /// workload's traced passes beyond the batch (model build, SPICE
    /// reference, circuit timing; each resets the sink) and derives the
    /// per-layer metrics.
    fn account(
        &self,
        traced: &Section,
        layers: &mut LayerTable,
        m: &mut Metrics,
    ) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad("0 to 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => {
                size = match val.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("tiny or full")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Runs batches until `seconds` of batch time have passed (at least two
/// batches, so repeated results can be compared), extending a full-size
/// run until the p95 latency has ten samples beyond it. `round` gets the
/// batch time so far.
fn timed_rounds(
    args: &Args,
    mut round: impl FnMut(f64) -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let min_samples = if args.size == Size::Full {
        MIN_TAIL_SAMPLES
    } else {
        0
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut busy = 0.0;
    loop {
        rounds.push(round(busy)?);
        busy += rounds[rounds.len() - 1].wall_s;
        let samples: usize = rounds.iter().map(|r| r.latencies_ms.len()).sum();
        let tail_ok = samples >= min_samples || busy >= 2.0 * args.seconds;
        if rounds.len() >= 2 && busy >= args.seconds && tail_ok {
            return Ok(rounds);
        }
    }
}

/// Drops the state in `w`, then sets the workload up again in its place
/// (so two states never coexist); the set-up's duration goes into
/// `setups`.
fn set_up<W: Workload>(
    w: &mut Option<W>,
    args: &Args,
    scratch: &Path,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    *w = None;
    let t0 = Instant::now();
    *w = Some(W::setup(args.seed, args.size, scratch)?);
    setups.push(t0.elapsed().as_secs_f64());
    Ok(())
}

fn totals(rounds: &[Round]) -> (usize, usize) {
    rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// End-to-end run: sink off, batches timed back to back. The workload is
/// set up `SETUPS` times, spread evenly through the batches (each set-up
/// replaces the state the batches run on), so `setup_s`, their median,
/// sees the same conditions as the batches do.
fn end_to_end<W: Workload>(
    args: &Args,
    scratch: &Path,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(usize, usize), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w: Option<W> = None;
    let due = |done: usize| args.seconds * done as f64 / SETUPS as f64;
    let rounds = timed_rounds(args, |busy| {
        if setups.len() < SETUPS && busy >= due(setups.len()) {
            set_up(&mut w, args, scratch, &mut setups)?;
        }
        w.as_ref().ok_or("no set-up ran")?.round(THREADS)
    })?;
    while setups.len() < SETUPS {
        set_up(&mut w, args, scratch, &mut setups)?;
    }
    let w = w.ok_or("no set-up ran")?;
    m.insert("setup_s", median(&setups));
    let (attempted, failed) = totals(&rounds);
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| (r.attempted - r.failed) as f64 / r.wall_s)
        .collect();
    m.insert("samples_per_s", median(&rates));
    // Latency quantiles per block of consecutive batches holding enough
    // samples for ten beyond the p95, then the median over blocks: one
    // burst of outside load moves one block, not the result.
    let min_block = if args.size == Size::Full {
        MIN_TAIL_SAMPLES
    } else {
        1
    };
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for r in &rounds {
        let last = blocks.last_mut().expect("one block at least");
        if last.len() >= min_block {
            blocks.push(r.latencies_ms.clone());
        } else {
            last.extend(&r.latencies_ms);
        }
    }
    if blocks.len() > 1 && blocks[blocks.len() - 1].len() < min_block {
        let short = blocks.pop().expect("checked above");
        blocks.last_mut().expect("checked above").extend(short);
    }
    let block_q = |q: f64| median(&blocks.iter().map(|b| quantile(b, q)).collect::<Vec<_>>());
    m.insert("sample_ms.p50", block_q(0.5));
    m.insert("sample_ms.p95", block_q(0.95));
    let smallest = blocks.iter().map(Vec::len).min().unwrap_or(0);
    m.insert("sample_ms.blocks", blocks.len() as f64);
    m.insert("sample_ms.block_n_min", smallest as f64);
    m.insert("sample_ms.p95.beyond_min", beyond(smallest, 0.95) as f64);
    m.insert("rounds", rounds.len() as f64);
    m.insert("failed_frac", failed as f64 / attempted as f64);
    problems.extend(check::same_results(&rounds).err());
    problems.extend(w.verify(&rounds, m).err());
    m.insert("peak_rss_mb", peak_rss_mb());
    Ok((attempted, failed))
}

/// Traced run: untraced and traced batches alternate, so the tracing
/// overhead is measured on the same work under the same conditions.
fn traced<W: Workload>(
    w: &W,
    args: &Args,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(usize, usize), String> {
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut total = Section::default();
    let mut layers = LayerTable::default();
    let mut first_counts = None;
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(w.round(THREADS)?);
        trace::reset();
        trace::set_tracing(true);
        let t0 = Instant::now();
        let r = w.round(THREADS);
        let wall = t0.elapsed().as_secs_f64();
        trace::set_tracing(false);
        traced.push(r?);
        let section = Section::take();
        match &first_counts {
            None => first_counts = Some(section.counters.clone()),
            Some(c) => {
                problems.extend(check::same_counts("repeated batch", c, &section.counters).err())
            }
        }
        total.add(&section);
        layers.add_wall(THREADS, wall * 1e9);
    }
    let medians = |rs: &[Round]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.insert(
        "metrics.trace_overhead_frac",
        medians(&traced) / medians(&plain) - 1.0,
    );
    w.account(&total, &mut layers, m)?;

    // The same batch on one worker must count exactly the same work.
    trace::reset();
    trace::set_tracing(true);
    let single = w.round(1);
    trace::set_tracing(false);
    let single = single?;
    let single_counts = Section::take().counters;
    if let Some(c) = &first_counts {
        problems.extend(check::same_counts("1 vs 2 worker threads", &single_counts, c).err());
    }
    let all: Vec<Round> = plain
        .iter()
        .chain(&traced)
        .chain([&single])
        .cloned()
        .collect();
    problems.extend(check::same_results(&all).err());
    problems.extend(w.verify(&plain, m).err());
    trace::reset();

    for (layer, key) in LAYERS {
        m.insert(key, layers.frac(layer));
    }
    m.insert("trace.unattributed_frac", layers.unattributed_frac());
    m.insert("rounds", traced.len() as f64);
    Ok(totals(&traced))
}

fn run<W: Workload>(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut metrics = Metrics::new();
    let mut problems = Vec::new();
    let (attempted, failed) = if args.trace {
        let w = W::setup(args.seed, args.size, scratch)?;
        traced(&w, args, &mut metrics, &mut problems)?
    } else {
        end_to_end::<W>(args, scratch, &mut metrics, &mut problems)?
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// A private scratch directory inside the benchmark's own tree, removed
/// when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too, unless another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linvar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = Scratch(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scratch")
            .join(format!("{}-{}", args.workload, std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!(
            "linvar-perfbench: cannot create {}: {e}",
            scratch.0.display()
        );
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "iscas_paths" => run::<iscas::Iscas>(&args, &scratch.0),
        "rc_chains" => run::<chains::Chains>(&args, &scratch.0),
        "grid_campaign" => run::<grid::Grid>(&args, &scratch.0),
        other => Err(format!("unknown workload {other:?}")),
    };
    drop(scratch);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("linvar-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload={} seed={} threads={THREADS} available_parallelism={cores} trace={} \
         attempted={} failed={} correct={}",
        args.workload, args.seed, args.trace as u8, out.attempted, out.failed, out.correct
    );
    let registry = report::registry(args.trace);
    for (k, v) in &out.metrics {
        if !registry.iter().any(|(n, _)| n == k) {
            println!("  note {k} = {v}");
        }
    }
    print!("{}", report::table(&out, args.trace));
    println!("{}", report::json_line(&out, args.trace));
}
