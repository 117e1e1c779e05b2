//! Laws and schema pins for the analysis layer: latency attribution and
//! utilization.
//!
//! The central law is **telescoping attribution**: the analyzer
//! decomposes each request's E2E latency into exclusive phases, so the
//! per-request phase sums must equal E2E within float tolerance — on the
//! pinned golden scenario and (property-tested) on every one of the four
//! golden scenario shapes. The analysis is also strictly post-hoc: an
//! analyzed run's `RunReport` must be bit-identical to the dark run's.
//! The `analyze` JSON schema is pinned as a key-set golden.

use std::sync::OnceLock;

use ouroboros::model::zoo;
use ouroboros::serve::{routers, FaultConfig, RunOutcome, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::trace::{
    Analysis, ANALYZE_PHASE_KEYS, ANALYZE_SCHEMA_VERSION, ANALYZE_SUMMARY_KEYS, ANALYZE_WAFER_KEYS,
    PHASE_COUNT, PHASE_NAMES,
};
use ouroboros::workload::{ArrivalConfig, LengthConfig, TimedTrace, TraceGenerator};
use proptest::prelude::*;

fn tiny_system() -> &'static OuroborosSystem {
    static SYS: OnceLock<OuroborosSystem> = OnceLock::new();
    SYS.get_or_init(|| OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap())
}

fn slo() -> SloConfig {
    SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
}

fn timed(n: usize, rate: f64, seed: u64) -> TimedTrace {
    let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(64, 32), n);
    ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed)
}

/// The pinned golden scenario — the same shape `trace_golden.rs` pins
/// its digest with and `experiments analyze` runs.
fn golden_outcome() -> RunOutcome {
    Scenario::disaggregated(2, 2)
        .slo(slo())
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed(50, 400.0, 8))
        .trace(true)
        .telemetry_every(0.005)
        .run_full(tiny_system())
        .unwrap()
}

/// Asserts the telescoping law on every request of an analysis: phases
/// are exclusive and exhaustive, so they sum to E2E (and the clipped
/// phases to TTFT) within float-addition tolerance.
fn assert_phases_telescope(analysis: &Analysis) {
    for r in &analysis.requests {
        for (name, v) in PHASE_NAMES.iter().zip(&r.phases) {
            assert!(*v >= -1e-12, "req {}: negative {name} phase {v}", r.req);
        }
        if let Some(e2e) = r.e2e_s() {
            let sum = r.phase_sum_s();
            assert!(
                (sum - e2e).abs() <= 1e-9 * e2e.abs().max(1.0),
                "req {}: phase sum {sum} != e2e {e2e}",
                r.req
            );
        }
        if let Some(ttft) = r.ttft_s() {
            let sum = r.ttft_phase_sum_s();
            assert!(
                (sum - ttft).abs() <= 1e-9 * ttft.abs().max(1.0),
                "req {}: clipped phase sum {sum} != ttft {ttft}",
                r.req
            );
        }
    }
}

#[test]
fn golden_scenario_phases_sum_to_e2e() {
    let outcome = golden_outcome();
    let analysis = outcome.analysis().unwrap();
    let s = &outcome.report.serving;
    assert_eq!(analysis.requests.len(), s.injected, "every injected request is reconstructed");
    assert_eq!(analysis.completed().count(), s.completed);
    assert_eq!(analysis.dropped(), s.dropped);
    assert_phases_telescope(&analysis);
    // The golden shape migrates and faults, so the interesting phases
    // are all live.
    let stats = analysis.phase_stats();
    let idx = |name: &str| PHASE_NAMES.iter().position(|n| *n == name).unwrap();
    assert!(stats[idx("kv_transit")].total_s > 0.0, "disaggregation ships KV");
    assert!(stats[idx("decode_compute")].total_s > 0.0);
    assert!(stats[idx("fault_stall")].total_s > 0.0, "the accelerated MTBF must cost time");
}

#[test]
fn analysis_is_strictly_post_hoc() {
    let dark = Scenario::disaggregated(2, 2)
        .slo(slo())
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed(50, 400.0, 8))
        .run(tiny_system())
        .unwrap();
    let lit = golden_outcome();
    let _ = lit.analysis().unwrap().report();
    assert_eq!(
        dark.json_object().render(),
        lit.report.json_object().render(),
        "analysis must never perturb the report"
    );
}

#[test]
fn attribution_table_names_every_phase() {
    let text = golden_outcome().analysis().unwrap().report();
    for name in PHASE_NAMES {
        assert!(text.contains(name), "report must name phase {name}");
    }
    assert!(text.contains("where the latency goes"));
    assert!(text.contains("wafer utilization"));
}

proptest! {
    /// Satellite law: the decomposition telescopes on every one of the
    /// four golden scenario shapes, across seeds and load levels — the
    /// same sampling ranges the trace well-formedness law uses.
    #[test]
    fn sampled_runs_decompose_exhaustively(
        seed in 0u64..1_000,
        rate in 150.0f64..900.0,
        n in 8usize..28,
        shape in 0u8..4,
    ) {
        let workload = timed(n, rate, seed);
        let scenario = match shape {
            0 => Scenario::colocated(2).router(routers::least_kv_load()),
            1 => Scenario::colocated(2).faults(FaultConfig::new(0.02, seed)),
            2 => Scenario::disaggregated(1, 1),
            _ => Scenario::disaggregated(2, 2).faults(FaultConfig::new(0.03, seed)),
        };
        let outcome = scenario.slo(slo()).workload(workload).trace(true).run_full(tiny_system()).unwrap();
        let analysis = outcome.analysis().unwrap();
        let s = &outcome.report.serving;
        prop_assert_eq!(analysis.requests.len(), s.injected);
        prop_assert_eq!(analysis.completed().count(), s.completed);
        prop_assert_eq!(analysis.dropped(), s.dropped);
        assert_phases_telescope(&analysis);
        // Busy fractions are fractions on every sampled run.
        for w in &analysis.wafers {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&w.busy_fraction));
        }
    }
}

// ---- telemetry joins the utilization rows --------------------------------

#[test]
fn utilization_rows_cover_every_wafer_and_read_telemetry() {
    let outcome = golden_outcome();
    let analysis = outcome.analysis().unwrap();
    assert_eq!(analysis.wafers.len(), 4, "2 prefill + 2 decode wafers");
    let samples_per_wafer = outcome.telemetry().iter().filter(|s| s.wafer == 0).count();
    for w in &analysis.wafers {
        assert_eq!(w.samples, samples_per_wafer, "telemetry joins by wafer");
    }
    // Decode wafers (2, 3) do the stepping in a disaggregated run.
    let steps: u64 = analysis.wafers.iter().filter(|w| w.wafer >= 2).map(|w| w.steps).sum();
    assert!(steps > 0);
}

// ---- schema pins ---------------------------------------------------------

#[test]
fn analyze_rows_match_their_pinned_schema() {
    assert_eq!(ANALYZE_SCHEMA_VERSION, 1, "bump deliberately, with the key-set goldens");
    let analysis = golden_outcome().analysis().unwrap();
    let rows = analysis.json_rows();
    assert_eq!(rows.len(), 1 + PHASE_COUNT + analysis.wafers.len());
    assert_eq!(rows[0].keys(), ANALYZE_SUMMARY_KEYS);
    for row in &rows[1..=PHASE_COUNT] {
        assert_eq!(row.keys(), ANALYZE_PHASE_KEYS);
    }
    for row in &rows[1 + PHASE_COUNT..] {
        assert_eq!(row.keys(), ANALYZE_WAFER_KEYS);
    }
    for row in &rows {
        assert!(row.render().starts_with(&format!("{{\"schema_version\": {ANALYZE_SCHEMA_VERSION}")));
    }
}
