//! Overhead of the observability layer on the scenario driver itself.
//!
//! Four variants of the same seed-pinned faulty disaggregated run:
//!
//! * `dark` — the plain [`Scenario::run`] path, no instrumentation code
//!   reachable,
//! * `disabled` — the [`Scenario::run_full`] path with every collector
//!   off: the shape every pre-observability caller now takes,
//! * `trace` — request-lifecycle tracing armed,
//! * `trace+telemetry+profile` — everything on.
//!
//! The harness asserts the zero-cost-when-disabled claim directly: the
//! median `disabled` run must stay within noise of the median `dark` run
//! (the two are interleaved sample for sample so drift hits both equally).
//! The enabled variants are reported as medians but unasserted — they are
//! allowed to cost what they cost.
//!
//! ```text
//! cargo bench -p ouro-bench --bench trace_overhead
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use ouro_bench::SEED;
use ouro_model::zoo;
use ouro_serve::{FaultConfig, Scenario, SloConfig};
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, TimedTrace, TraceGenerator};

/// Timed runs per variant; every reported time is the median.
const ROUNDS: usize = 15;

/// Wall time of one closure call, in seconds.
fn time_s(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Median wall time of [`ROUNDS`] calls, in seconds.
fn median_s(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..ROUNDS).map(|_| time_s(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[ROUNDS / 2]
}

fn workload() -> TimedTrace {
    let trace = TraceGenerator::new(SEED).generate(&LengthConfig::fixed(64, 32), 120);
    ArrivalConfig::Poisson { rate_rps: 400.0 }.assign(&trace, SEED)
}

fn scenario(timed: &TimedTrace) -> Scenario {
    Scenario::disaggregated(2, 2)
        .slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 })
        .faults(FaultConfig::new(0.02, SEED))
        .workload(timed.clone())
}

fn main() {
    let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
    let timed = workload();
    let cadence_s = timed.last_arrival_s() / 64.0;

    let trace = median_s(|| {
        black_box(scenario(&timed).trace(true).run_full(&system).unwrap());
    });
    let everything = median_s(|| {
        black_box(
            scenario(&timed).trace(true).telemetry_every(cadence_s).profile(true).run_full(&system).unwrap(),
        );
    });
    println!("trace_overhead/trace: {:.3} ms (median of {ROUNDS})", trace * 1e3);
    println!("trace_overhead/trace+telemetry+profile: {:.3} ms (median of {ROUNDS})", everything * 1e3);

    // The zero-cost-when-disabled assertion. Interleaved rounds: each
    // round times one dark and one disabled run back to back, so clock
    // drift and cache state perturb both sides alike.
    // Generous CI slack — a shared runner can easily jitter 2x on
    // millisecond-scale sections; a real always-on cost would show up far
    // beyond this once the medians settle.
    const SLACK: f64 = 1.5;
    let mut dark = Vec::with_capacity(ROUNDS);
    let mut disabled = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        dark.push(time_s(|| {
            black_box(scenario(&timed).run(&system).unwrap());
        }));
        disabled.push(time_s(|| {
            black_box(scenario(&timed).run_full(&system).unwrap());
        }));
    }
    dark.sort_by(f64::total_cmp);
    disabled.sort_by(f64::total_cmp);
    let (dark_med, disabled_med) = (dark[ROUNDS / 2], disabled[ROUNDS / 2]);
    let ratio = disabled_med / dark_med;
    println!(
        "trace_overhead/zero-cost-when-disabled: dark {:.3} ms, disabled {:.3} ms, ratio {ratio:.3} (slack {SLACK})",
        dark_med * 1e3,
        disabled_med * 1e3,
    );
    assert!(
        disabled_med <= dark_med * SLACK + Duration::from_micros(200).as_secs_f64(),
        "run_full with collectors off must stay within noise of run \
         (dark {dark_med:.6}s, disabled {disabled_med:.6}s, ratio {ratio:.3})"
    );
}
