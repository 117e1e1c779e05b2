//! The serving workloads: one `Scenario` run per repeat, stepped one event
//! at a time so the traced run can time each step.

use crate::calib::Calibrator;
use crate::spans::{Recorder, StepTimes};
use crate::{fnv1a, Outcome, Size};
use ouro_model::zoo;
use ouro_serve::{
    capacity_rps_estimate, placements, routers, FaultConfig, RunState, Scenario, Snapshot, TelemetryConfig,
};
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the simulated hardware, pinned to the figures' own seed; the
/// workload seed drives the trace, the arrivals and the fault process.
const HW_SEED: u64 = 2026;

/// Steps between looks at the calibration clock (a step takes microseconds).
const CAL_EVERY_STEPS: u64 = 1024;

/// A serve workload: the scenario and the system it replicates.
pub struct Serve {
    scenario: Scenario,
    system: OuroborosSystem,
    requests: usize,
    prompt_tokens: u64,
    total_tokens: u64,
    /// Take a checkpoint → JSON → parse → resume round trip once this
    /// many requests have completed.
    checkpoint_at: Option<u64>,
}

fn requests(size: Size) -> usize {
    match size {
        Size::Full => 100_000,
        Size::Tiny => 400,
    }
}

fn llama_13b_wafer(rec: &mut Recorder) -> OuroborosSystem {
    let mut cfg = OuroborosConfig::single_wafer();
    cfg.seed = HW_SEED;
    rec.span("sim.build", |_| {
        OuroborosSystem::new(cfg, &zoo::llama_13b()).expect("LLaMA-13B fits on one wafer")
    })
}

impl Serve {
    /// 16 colocated LLaMA-13B wafers, WikiText-2-like lengths, Poisson
    /// arrivals at 0.8 × capacity, least-KV-load routing; no faults, no
    /// prefix caching, no lifecycle trace.
    pub fn steady(seed: u64, size: Size, rec: &mut Recorder) -> Serve {
        let wafers = 16;
        let system = llama_13b_wafer(rec);
        let lengths = LengthConfig::wikitext2_like();
        let rate = 0.8 * capacity_rps_estimate(system.stage_times(), &lengths) * wafers as f64;
        let n = requests(size);
        let (trace, timed) = rec.span("workload.generate", |_| {
            let trace = TraceGenerator::new(seed).generate(&lengths, n);
            let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed);
            (trace, timed)
        });
        let scenario = Scenario::colocated(wafers)
            .router(routers::least_kv_load())
            .prefix_caching(false)
            .workload(timed);
        Serve {
            scenario,
            system,
            requests: n,
            prompt_tokens: trace.total_prompt_tokens(),
            total_tokens: trace.total_tokens(),
            checkpoint_at: None,
        }
    }

    /// 1 prefill + 3 decode wafers on chat sessions (4 system prompts, 70%
    /// shared) with bursty Gamma arrivals (cv = 4) at 0.8 × capacity:
    /// prefix caching with prefix-affinity placement, MTBF faults, the
    /// lifecycle trace with telemetry, and one mid-run checkpoint/resume.
    pub fn mixed(seed: u64, size: Size, rec: &mut Recorder) -> Serve {
        let wafers = 4;
        let system = llama_13b_wafer(rec);
        let session = SessionConfig::chat(4, 0.7);
        let lengths = LengthConfig::fixed(
            session.shared_prefix_tokens + session.user_turn_tokens,
            session.decode_tokens,
        );
        let rate = 0.8 * capacity_rps_estimate(system.stage_times(), &lengths) * wafers as f64;
        let n = requests(size);
        let (trace, timed) = rec.span("workload.generate", |_| {
            let trace = session.generate(n, seed);
            let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, seed);
            (trace, timed)
        });
        let span_s = timed.last_arrival_s();
        let scenario = Scenario::disaggregated(1, wafers - 1)
            .placement(placements::prefix_affinity())
            .prefix_caching(true)
            .faults(FaultConfig::new(span_s / 2.0, seed))
            .trace(true)
            .telemetry(TelemetryConfig::every(span_s / 32.0))
            .workload(timed);
        Serve {
            scenario,
            system,
            requests: n,
            prompt_tokens: trace.total_prompt_tokens(),
            total_tokens: trace.total_tokens(),
            checkpoint_at: Some(n as u64 / 2),
        }
    }

    /// Serves the whole workload once.
    pub fn repeat(&self, rec: &mut Recorder, cal: &mut Calibrator, inject_failure: bool) -> Outcome {
        let mut out = Outcome::default();
        let mut steps = rec.is_on().then(StepTimes::default);
        let t_repeat = Instant::now();
        let sc = &self.scenario;
        let mut run = rec.span("serve.start", |_| sc.start(&self.system).expect("the deployment builds"));
        let mut checkpoint_at = self.checkpoint_at;
        let (mut n_steps, mut cal_ns) = (0u64, 0u64);
        while step(&mut run, steps.as_mut()) {
            n_steps += 1;
            if n_steps % CAL_EVERY_STEPS == 0 {
                cal_ns += cal.tick();
            }
            if checkpoint_at.is_some_and(|at| run.completed() >= at) {
                checkpoint_at = None;
                let snapshot = rec.span("serve.snapshot", |_| {
                    let json = sc.checkpoint(&run).to_json();
                    out.layers.add("serve.snapshot_bytes", json.len() as f64);
                    Snapshot::parse(&json).expect("a checkpoint parses back")
                });
                drop(run);
                run = rec.span("serve.resume", |_| {
                    sc.resume(&self.system, &snapshot).expect("the snapshot resumes")
                });
            }
        }
        let outcome = rec.span("serve.finish", |_| run.finish());
        if outcome.trace().is_some() {
            black_box(rec.span("trace.analyze", |_| outcome.analysis()));
        }
        out.wall_s = (t_repeat.elapsed().as_nanos() as u64 - cal_ns) as f64 * 1e-9;
        // One cell per repeat: the run is its own slowest point.
        out.point_s.push(out.wall_s);

        let mut report = outcome.report.clone();
        if inject_failure {
            report.serving.completed -= 1;
            report.serving.dropped += 1;
        }
        let s = &report.serving;
        out.attempted = self.requests as u64;
        out.failed = (self.requests - s.completed.min(self.requests)) as u64;
        for (ok, what) in [
            (report.is_conserved(), "request conservation"),
            (report.kv_bytes_conserved(), "KV-byte conservation"),
            (
                s.injected == self.requests && s.completed + s.dropped == s.injected,
                "completed + dropped = injected",
            ),
            (s.dropped == 0 && s.queued_at_horizon == 0 && s.in_flight_at_horizon == 0, "the run drains"),
        ] {
            if !ok {
                out.failures.push(format!("{what} broken: {s:?}"));
            }
        }
        if !out.failures.is_empty() {
            out.failed = out.failed.max(1);
        }
        out.tokens = self.total_tokens;
        out.digest = fnv1a(0, format!("{report:?}").as_bytes());

        let l = &mut out.layers;
        let stats = outcome.engines().iter().map(|e| *e.stats());
        let (mut admissions, mut evictions, mut recomputed, mut cached) = (0, 0, 0, 0);
        for st in stats {
            admissions += st.admissions;
            evictions += st.evictions;
            recomputed += st.recomputed_tokens;
            cached += st.cached_prefix_tokens;
        }
        l.add("kvcache.admissions", admissions as f64);
        l.add("kvcache.evictions", evictions as f64);
        l.add("kvcache.recomputed_tokens", recomputed as f64);
        l.add("kvcache.prefix_hit_ratio", cached as f64 / self.prompt_tokens.max(1) as f64);
        let migration = report.migration.as_ref();
        l.add("serve.migrations", migration.map_or(0, |m| m.migrations) as f64);
        l.add("serve.migrated_bytes", migration.map_or(0, |m| m.exported_kv_bytes) as f64);
        l.add("serve.faults", report.faults.as_ref().map_or(0, |f| f.faults_injected) as f64);
        l.add("serve.completed", s.completed as f64);
        l.add("serve.dropped", s.dropped as f64);
        l.add("trace.events", outcome.trace().map_or(0, |t| t.len()) as f64);
        if let Some(st) = steps.as_mut() {
            l.add("serve.route_s", st.route_ns as f64 * 1e-9);
            l.add("serve.routes", st.routes as f64);
            l.add("serve.engine_s", st.engine_ns as f64 * 1e-9);
            l.add("serve.engine_events", st.engine_events as f64);
            l.add("serve.event_samples", st.samples_ns.len() as f64);
            l.add("serve.event_p50_ns", st.quantile_ns(0.50));
            l.add("serve.event_p99_ns", st.quantile_ns(0.99));
            for (metric, span) in [
                ("serve.start_s", "serve.start"),
                ("serve.finish_s", "serve.finish"),
                ("serve.snapshot_s", "serve.snapshot"),
                ("serve.resume_s", "serve.resume"),
                ("trace.analyze_s", "trace.analyze"),
            ] {
                l.add(metric, rec.total_s(span));
            }
        }
        out
    }
}

/// One `step_once`; when traced, times it and files it as a routing step
/// (the waiting queue shrank) or an engine step (everything else).
fn step(run: &mut RunState, steps: Option<&mut StepTimes>) -> bool {
    let Some(steps) = steps else { return run.step_once() };
    let waiting = run.waiting();
    let t = Instant::now();
    let more = run.step_once();
    let ns = t.elapsed().as_nanos() as u64;
    if more {
        steps.record(ns, run.waiting() < waiting);
    }
    more
}
