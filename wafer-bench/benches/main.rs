//! `wafer-bench`: the repository benchmark.
//!
//! Runs one named workload against the simulator's library crates for a
//! fixed host-time budget and prints, as the last line of standard
//! output, one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": 16, "failed": 0, "metrics": {"wall_s": {"value": 3.41, "unit": "s"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! spans off and scaled to a reference host speed (see `calib`); with
//! `--trace 1` they are the per-layer ones, from repeats with spans on,
//! interleaved with dark repeats for the span overhead.
//! Every repeat's simulated outputs are checked and digested; a failed
//! check, or repeats whose digests differ, exits 1.
//!
//! ```text
//! cargo run --release --manifest-path wafer-bench/Cargo.toml -- \
//!     --workload paper-suite --seed 2026 --seconds 25 --trace 0
//! ```

mod calib;
mod paper;
mod serve;
mod spans;

use calib::Calibrator;
use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_tokens_per_s", "tokens/s"),
    ("slowest_point_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed with `--trace 1`. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("sim.build_s", "s"),
    ("sim.builds", "count"),
    ("sim.builds_capacity_bound", "count"),
    ("sim.simulate_s", "s"),
    ("sim.points", "count"),
    ("pipeline.schedule_s", "s"),
    ("pipeline.stage_token_cells", "count"),
    ("kvcache.replay_s", "s"),
    ("baselines.evaluate_s", "s"),
    ("baselines.evaluations", "count"),
    ("serve.start_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.route_s", "s"),
    ("serve.routes", "count"),
    ("serve.engine_s", "s"),
    ("serve.engine_events", "count"),
    ("serve.event_p50_ns", "ns"),
    ("serve.event_p99_ns", "ns"),
    ("serve.event_samples", "count"),
    ("serve.snapshot_s", "s"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.resume_s", "s"),
    ("trace.events", "count"),
    ("trace.analyze_s", "s"),
    ("kvcache.admissions", "count"),
    ("kvcache.evictions", "count"),
    ("kvcache.recomputed_tokens", "count"),
    ("kvcache.prefix_hit_ratio", "ratio"),
    ("serve.migrations", "count"),
    ("serve.migrated_bytes", "bytes"),
    ("serve.faults", "count"),
    ("serve.completed", "count"),
    ("serve.dropped", "count"),
    ("bench.span_overhead", "ratio"),
];

/// Before each repeat a run sets up again for about `SETUP_SLICE_S` of
/// set-up time, and takes at least `SETUPS_MIN` set-up samples in all;
/// `setup_s` is their mean.
const SETUP_SLICE_S: f64 = 0.1;
const SETUPS_MIN: usize = 5;
/// Set-ups faster than this are timed in batches of up to
/// `SETUP_BATCH_MAX`, one sample per batch.
const SETUP_BATCH_S: f64 = 0.01;
const SETUP_BATCH_MAX: usize = 10_000;

/// Input size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSuite,
    PaperRowact,
    ServeSteady,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("paper-suite", Workload::PaperSuite),
        ("paper-rowact", Workload::PaperRowact),
        ("serve-steady", Workload::ServeSteady),
        ("serve-mixed", Workload::ServeMixed),
    ];
}

/// A workload's inputs, made by set-up and consumed by each repeat.
enum Prepared {
    Paper(paper::Paper),
    Serve(Box<serve::Serve>),
}

impl Prepared {
    fn setup(workload: Workload, seed: u64, size: Size, rec: &mut Recorder) -> Prepared {
        match workload {
            Workload::PaperSuite => Prepared::Paper(paper::Paper::suite(seed, size, rec)),
            Workload::PaperRowact => Prepared::Paper(paper::Paper::rowact(seed, size, rec)),
            Workload::ServeSteady => Prepared::Serve(Box::new(serve::Serve::steady(seed, size, rec))),
            Workload::ServeMixed => Prepared::Serve(Box::new(serve::Serve::mixed(seed, size, rec))),
        }
    }

    fn repeat(&self, rec: &mut Recorder, cal: &mut Calibrator, inject_failure: bool) -> Outcome {
        match self {
            Prepared::Paper(p) => p.repeat(rec, cal, inject_failure),
            Prepared::Serve(s) => s.repeat(rec, cal, inject_failure),
        }
    }
}

/// Named per-layer values of one repeat.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }
}

/// What one repeat of a workload measured and produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time of the measured section (less any traced-only probe and
    /// any calibration sample).
    pub wall_s: f64,
    /// Host time of each figure point, or of the one serve cell.
    pub point_s: Vec<f64>,
    /// Simulated trace tokens, prompt plus output, over every point.
    pub tokens: u64,
    /// Figure points, or requests.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every simulated output of the repeat.
    pub digest: u64,
    pub failures: Vec<String>,
    pub layers: Layers,
}

/// FNV-1a, continuing from `h` (0 starts a fresh digest).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mean(v: impl ExactSizeIterator<Item = f64>) -> f64 {
    assert!(v.len() > 0, "mean of no samples");
    let n = v.len() as f64;
    v.sum::<f64>() / n
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    inject_failure: bool,
}

const USAGE: &str = "usage: wafer-bench --workload <paper-suite|paper-rowact|serve-steady|serve-mixed> \
                     [--seed N (2026)] [--seconds S (25)] [--trace 0|1] [--size full|tiny] \
                     [--inject-failure]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSuite,
        seed: 2026,
        seconds: 25.0,
        trace: false,
        size: Size::Full,
        inject_failure: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-failure" {
            args.inject_failure = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(name, _)| *name == value)
                        .map(|&(_, w)| w)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be finite and non-negative, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wafer-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = Workload::ALL.iter().find(|(_, w)| *w == args.workload).map_or("?", |(n, _)| *n);

    let setup = |rec: &mut Recorder| {
        let t = Instant::now();
        let p = Prepared::setup(args.workload, args.seed, args.size, rec);
        (p, t.elapsed().as_secs_f64())
    };
    let (mut prepared, first_s) = setup(&mut Recorder::new(false));
    let log = |kind: &str, i: usize, o: &Outcome| {
        let slowest = o.point_s.iter().copied().fold(0.0, f64::max);
        eprintln!("wafer-bench: {name} {kind} repeat {i}: {:.4} s, slowest point {slowest:.4} s", o.wall_s);
    };

    // The warm-up repeat is checked and digested like every other, but not
    // timed: it pays for cold caches and a cold allocator. The peak memory
    // is read after it, before any calibration sample, and later repeats
    // redo the same work, so the peak does not depend on the budget.
    let budget = Instant::now();
    let warm_up =
        prepared.repeat(&mut Recorder::new(false), &mut Calibrator::new(false), args.inject_failure);
    log("warm-up", 0, &warm_up);
    let peak_mb = peak_rss_mb();
    let mut dark = vec![warm_up];
    let mut cal = Calibrator::new(!args.trace);

    // Then rounds of a slice of set-ups and one repeat, so that set-ups and
    // repeats are timed over the same stretch of the run and scaled by the
    // same calibration. The set-ups keep the last inputs. A set-up faster
    // than `SETUP_BATCH_S` is timed in batches, each sample being a batch's
    // time over its size, so the clock's own cost does not dominate.
    //
    // Rounds go on until the budget is spent, never cutting a repeat short:
    // at least one timed dark repeat, or (traced) traced and dark repeats
    // alternating, at least one traced. With the warm-up that makes two
    // repeats at least, so the digest check always has something to compare.
    let batch = ((SETUP_BATCH_S / first_s.max(1e-9)).ceil() as usize).clamp(1, SETUP_BATCH_MAX);
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut spans_json = String::new();
    let mut span_table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    loop {
        let mut slice_s = 0.0;
        while slice_s < SETUP_SLICE_S || setup_s.len() < SETUPS_MIN {
            let mut rec = Recorder::new(args.trace);
            let mut total_s = 0.0;
            for _ in 0..batch {
                let (p, s) = setup(&mut rec);
                total_s += s;
                prepared = p;
            }
            slice_s += total_s;
            setup_s.push(total_s / batch as f64);
            generate_s.push(rec.total_s("workload.generate") / batch as f64);
            cal.tick();
        }

        let on = args.trace && dark.len() > traced.len();
        let mut rec = Recorder::new(on);
        let outcome = prepared.repeat(&mut rec, &mut cal, args.inject_failure);
        if on {
            log("traced", traced.len(), &outcome);
            spans_json.push_str(&rec.json_lines(traced.len()));
            for (span, (n, total, own)) in rec.self_times() {
                let e = span_table.entry(span).or_default();
                e.0 += n;
                e.1 += total;
                e.2 += own;
            }
            traced.push(outcome);
        } else {
            log("dark", dark.len(), &outcome);
            dark.push(outcome);
        }
        let enough = if args.trace { !traced.is_empty() } else { dark.len() >= 2 };
        if enough && budget.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let all = || dark.iter().chain(&traced);
    let attempted: u64 = all().map(|o| o.attempted).sum();
    let failed: u64 = all().map(|o| o.failed).sum();
    let digest = dark[0].digest;
    let mut correct = failed == 0;
    for o in all() {
        for f in &o.failures {
            eprintln!("wafer-bench: {name}: output check failed: {f}");
        }
    }
    if let Some(o) = all().find(|o| o.digest != digest) {
        eprintln!("wafer-bench: {name}: repeats disagree: digest {digest:016x} vs {:016x}", o.digest);
        correct = false;
    }
    eprintln!(
        "wafer-bench: {name} seed {} digest {digest:016x} over {} dark + {} traced repeats, {failed}/{attempted} failed",
        args.seed,
        dark.len(),
        traced.len()
    );

    // The warm-up is not timed; a traced run may have no other dark repeat,
    // and then the warm-up stands in.
    let timed = if dark.len() > 1 { &dark[1..] } else { &dark[..] };
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        for (n, (count, total, own)) in &span_table {
            eprintln!("  span {n:<22} x{count:<6} total {total:>10.6} s  self {own:>10.6} s");
        }
        // Every layer from one repeat, the median one, so the shares add up.
        let typical = median_run(&traced);
        for &(metric, _) in PER_LAYER {
            metrics.insert(metric, typical.layers.0.get(metric).copied().unwrap_or(0.0));
        }
        metrics.insert("workload.generate_s", median(generate_s));
        let dark_s = median(timed.iter().map(|o| o.wall_s).collect());
        metrics.insert("bench.span_overhead", typical.wall_s / dark_s - 1.0);
        eprint!("{spans_json}");
    } else {
        // Each time is a mean over the timed stretch of the run, scaled to
        // the reference host speed by the calibration kernel's mean over
        // the same stretch (see `calib`).
        let wall = mean(timed.iter().map(|o| o.wall_s));
        let scale = cal.scale();
        eprintln!(
            "wafer-bench: {name} unscaled wall_s {wall:.6} s; calibration kernel {:.6} s over {} samples, \
             times scaled by {scale:.4}",
            cal.kernel_s(),
            cal.len()
        );
        metrics.insert("wall_s", wall * scale);
        metrics.insert("sim_tokens_per_s", dark[0].tokens as f64 / (wall * scale));
        let point_s = (0..dark[0].point_s.len()).map(|p| mean(timed.iter().map(|o| o.point_s[p])));
        metrics.insert("slowest_point_s", point_s.fold(0.0, f64::max) * scale);
        metrics.insert("setup_s", mean(setup_s.iter().copied()) * scale);
        metrics.insert("peak_rss_mb", peak_mb);
    }

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(metric, unit)) in catalog.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(metrics[metric])
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repeat of median host time (the faster of the middle two).
fn median_run(runs: &[Outcome]) -> &Outcome {
    let mut by_time: Vec<&Outcome> = runs.iter().collect();
    by_time.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_time[(by_time.len() - 1) / 2]
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
