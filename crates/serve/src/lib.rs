//! Online serving simulator for Ouroboros deployments.
//!
//! The offline crates answer "how fast does a wafer chew through a fixed
//! batch"; this crate answers the production question — "how much live
//! traffic can a deployment absorb while meeting latency SLOs". Its
//! experiment-facing API is one composable builder:
//!
//! * **[`Scenario`]** ([`scenario`]): compose a deployment
//!   ([`Scenario::colocated`] replicas or [`Scenario::disaggregated`]
//!   prefill/decode pools with KV migration over the optical fabric), a
//!   timed workload ([`ouro_workload::ArrivalConfig`]: open-loop Poisson,
//!   bursty Gamma, closed-loop think-time clients, session traces),
//!   routing/placement policies, an optional runtime fault plan,
//!   prefix-caching and SLO config — then `.run()` drives one shared
//!   discrete-event loop and returns one [`RunReport`] with a stable JSON
//!   schema ([`report::SCHEMA_VERSION`]).
//!
//! Underneath sit the building blocks:
//!
//! * **a continuous-batching engine** ([`engine::Engine`]): discrete-event
//!   iterations that admit requests FCFS into the distributed KV cache under
//!   the offline scheduler's admission/eviction rules (one admission path,
//!   [`Engine::submit_with`], parameterized by [`Admission`]), interleave
//!   chunked prefill with decode in the token-grained pipeline, and charge
//!   wall-clock from the hardware-derived [`ouro_sim::HwStageTimes`],
//! * **open policy traits** ([`policy`]): object-safe [`Router`] /
//!   [`Placement`] with the classic built-ins as constructors
//!   ([`routers`], [`placements`]) — all tie-breaking funnels through
//!   [`pick_min_index`] so equal scores resolve to the lowest wafer index,
//! * **shared-prefix KV reuse**: requests tagged with an
//!   [`ouro_workload::SharedPrefix`] share the whole-block portion of
//!   their common prompt in the cache ([`ouro_kvcache::KvManager`]'s
//!   refcounted copy-on-write chains); the engine charges prefill only
//!   for the uncached suffix and prefix-affinity policies steer sharers
//!   to the wafer already holding their prefix,
//! * **SLO metrics and load sweeps** ([`metrics`], [`sweep`]): TTFT / TPOT /
//!   E2E p50/p95/p99, goodput under an SLO, utilization, and
//!   throughput-vs-latency curves over offered load,
//! * **runtime fault injection** ([`fault`]): a seeded MTBF process fires
//!   mid-run, each fault is healed by a replacement-chain remap
//!   (`ouro_mapping::fault`), the absorbed KV is evicted and recomputed,
//!   routers steer around degraded wafers, and the report's fault section
//!   accounts availability and tail-latency inflation.
//!
//! # Example
//!
//! ```
//! use ouro_model::zoo;
//! use ouro_serve::{capacity_rps_estimate, ideal_latencies, LoadSweep, SloConfig};
//! use ouro_sim::{OuroborosConfig, OuroborosSystem};
//! use ouro_workload::LengthConfig;
//!
//! let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
//! let lengths = LengthConfig::fixed(64, 32);
//! let capacity = capacity_rps_estimate(system.stage_times(), &lengths);
//! let (ttft, tpot) = ideal_latencies(system.stage_times(), 64, 96);
//! let mut sweep = LoadSweep::around_capacity(capacity, 2, lengths, SloConfig::with_slack(ttft, tpot, 10.0));
//! sweep.requests = 40;
//! let points = sweep.run(&system);
//! assert_eq!(points.len(), 6);
//! assert!(points[0].report.is_conserved());
//! ```

pub(crate) mod arena;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod parallel;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod snapshot;
pub mod stage;
pub mod sweep;

/// The workspace's dependency-free JSON writer (re-exported from
/// `ouro-trace`, where it moved so the observability exporters and the
/// serving stack share one implementation).
pub use ouro_trace::json;
pub use ouro_trace::{
    Analysis, Counters, EventKind, LoopProfile, PhaseStats, RequestPhases, RingSink, SpanPhase,
    TelemetryConfig, TelemetryRecorder, TelemetrySample, Trace, TraceEvent, TraceSink, Tracer, WaferGauges,
    WaferUtilization, ANALYZE_SCHEMA_VERSION, PHASE_NAMES, TELEMETRY_SCHEMA_VERSION, TRACE_SCHEMA_VERSION,
};

pub use engine::{Admission, Engine, EngineConfig, EngineFaultImpact, EngineStats};
pub use fault::{FaultComparison, FaultConfig, FaultInjector, FaultPoll, FaultReport};
pub use metrics::{LatencyStats, RequestRecord, RunTotals, ServingReport, SloConfig};
pub use parallel::{default_threads, parallel_map_indexed};
pub use policy::{
    pick_min_index, pick_prefix_affine_index, pick_serviceable_min_index, pick_serviceable_min_index_by,
    placements, routers, Placement, Router,
};
pub use report::{DeploymentInfo, Migration, MigrationStats, RunReport, SCHEMA_VERSION};
pub use scenario::{Deployment, DisaggConfig, RunOutcome, RunState, Scenario};
pub use snapshot::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use stage::{event_kind, Stage, EVENT_OWNERS};
pub use sweep::{capacity_rps_estimate, format_sweep, ideal_latencies, LoadSweep, SweepPoint};
