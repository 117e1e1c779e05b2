//! Differential tests of the schedulers' cost sums against the per-token
//! and per-stage loops they replaced.
//!
//! The token-grained schedule prices each stage kind once per context
//! length and sums prefixes of that table; the sequence-grained schedule
//! prices each request once per stage kind. Both must reproduce the
//! original loops bit for bit — same values, same order of floating-point
//! additions — for every stage-time model, on random traces that include
//! empty traces and zero-length requests.

use ouro_hw::CimCore;
use ouro_model::{zoo, ModelConfig, StageKind, STAGES_PER_BLOCK};
use ouro_noc::CommCost;
use ouro_pipeline::{
    estimate_streaming, simulate_exact, ConstantStageTimes, Granularity, PipelineReport, PipelineScheduler,
    RateStageTimes, StageTimeModel,
};
use ouro_sim::HwStageTimes;
use ouro_workload::{Request, Trace};
use proptest::prelude::*;

// ---- the replaced loops (the reference) ------------------------------------

/// Token-grained schedule with every token of every request priced afresh.
fn reference_token_grained<T: StageTimeModel>(
    model: &ModelConfig,
    times: &T,
    trace: &Trace,
    granularity: Granularity,
) -> PipelineReport {
    let stages = STAGES_PER_BLOCK * model.blocks;
    let mut kind_totals = [0.0f64; STAGES_PER_BLOCK];
    let mut first_token_times = [0.0f64; STAGES_PER_BLOCK];
    let mut first = true;
    for req in &trace.requests {
        for t in 0..req.total_tokens() {
            let attended = t + 1;
            for (k, kind) in StageKind::ALL.iter().enumerate() {
                let time = times.token_time_s(*kind, attended);
                kind_totals[k] += time;
                if first {
                    first_token_times[k] = time;
                }
            }
            first = false;
        }
    }
    let stage_totals: Vec<f64> = (0..stages).map(|s| kind_totals[s % STAGES_PER_BLOCK]).collect();
    let firsts: Vec<f64> = (0..stages).map(|s| first_token_times[s % STAGES_PER_BLOCK]).collect();
    let (mut makespan, busy) = estimate_streaming(&stage_totals, &firsts);
    if granularity == Granularity::TokenWithBlock {
        makespan += reference_blocking_bubble_s(times, trace);
    }
    report(makespan, &busy, stages, trace.total_tokens() as usize, trace)
}

/// Sequence-grained schedule with every (request, stage) pair priced afresh.
fn reference_sequence_grained<T: StageTimeModel>(
    model: &ModelConfig,
    times: &T,
    trace: &Trace,
) -> PipelineReport {
    let stages = STAGES_PER_BLOCK * model.blocks;
    let (makespan, busy) = simulate_exact(trace.len(), stages, |unit, stage| {
        let req = &trace.requests[unit];
        let kind = StageKind::ALL[stage % STAGES_PER_BLOCK];
        times.sequence_time_s(kind, req.prompt_len, 0)
            + times.sequence_time_s(kind, req.decode_len, req.prompt_len)
    });
    report(makespan, &busy, stages, trace.len(), trace)
}

/// The §4.2.2 blocking bubble, as the scheduler computes it.
fn reference_blocking_bubble_s<T: StageTimeModel>(times: &T, trace: &Trace) -> f64 {
    let mut running_max = 0usize;
    let mut bubble_tokens = 0usize;
    for req in &trace.requests {
        let len = req.total_tokens();
        if len > running_max {
            bubble_tokens += len - running_max;
            running_max = len;
        }
    }
    let bottleneck =
        StageKind::ALL.iter().map(|&k| times.token_time_s(k, running_max.max(1))).fold(0.0f64, f64::max);
    bubble_tokens as f64 * bottleneck
}

fn report(makespan_s: f64, busy: &[f64], num_stages: usize, units: usize, trace: &Trace) -> PipelineReport {
    let mut stage_busy_s = vec![0.0f64; STAGES_PER_BLOCK];
    for (s, b) in busy.iter().enumerate() {
        stage_busy_s[s % STAGES_PER_BLOCK] += b;
    }
    PipelineReport {
        makespan_s,
        stage_busy_s,
        num_stages,
        units,
        total_tokens: trace.total_tokens(),
        output_tokens: trace.total_decode_tokens(),
    }
}

// ---- comparison --------------------------------------------------------------

fn assert_bit_identical(actual: &PipelineReport, expected: &PipelineReport, what: &str) {
    assert_eq!(actual.makespan_s.to_bits(), expected.makespan_s.to_bits(), "{what}: makespan");
    let bits = |r: &PipelineReport| r.stage_busy_s.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(actual), bits(expected), "{what}: stage busy times");
    assert_eq!(
        (actual.num_stages, actual.units, actual.total_tokens, actual.output_tokens),
        (expected.num_stages, expected.units, expected.total_tokens, expected.output_tokens),
        "{what}: counts"
    );
}

/// Runs every valid granularity on `trace` and compares each with its
/// reference.
fn check_all_granularities<T: StageTimeModel>(model: &ModelConfig, times: &T, trace: &Trace, what: &str) {
    let sched = PipelineScheduler::new(model, times);
    for granularity in [Granularity::Token, Granularity::TokenWithBlock] {
        if granularity.is_valid_for(model) {
            let expected = reference_token_grained(model, times, trace, granularity);
            assert_bit_identical(&sched.run(trace, granularity), &expected, &format!("{what} {granularity}"));
        }
    }
    let expected = reference_sequence_grained(model, times, trace);
    assert_bit_identical(&sched.run(trace, Granularity::Sequence), &expected, &format!("{what} sequence"));
}

/// All three stage-time models on one model shape.
fn check_every_stage_time_model(model: &ModelConfig, trace: &Trace, knobs: (f64, f64, usize)) {
    let (a, b, cores) = knobs;
    let constant = ConstantStageTimes { base_s: a * 1e-6, per_context_s: b * 1e-9 };
    check_all_granularities(model, &constant, trace, "constant");
    let rate = RateStageTimes { model: model.clone(), macs_per_s: a * 1e12, sfu_ops_per_s: b * 1e11 };
    check_all_granularities(model, &rate, trace, "rate");
    let hw = HwStageTimes {
        model: model.clone(),
        core: CimCore::paper(),
        cores_per_stage: [cores, 0, 0, cores / 2 + 1, cores + 3, cores + 3],
        comm: CommCost::paper(),
        mean_hops: a * 4.0,
        inter_wafer_crossings_per_token: if cores % 2 == 0 { 0.0 } else { 1.0 },
    };
    check_all_granularities(model, &hw, trace, "hw");
}

/// A request that may be empty: `Request::new` refuses an empty prompt, but
/// a trace built field by field can hold one, and the sums must cope.
fn request(id: usize, prompt_len: usize, decode_len: usize) -> Request {
    Request { id, prompt_len, decode_len, shared_prefix: None }
}

fn model_with_blocks(index: usize, blocks: usize) -> ModelConfig {
    let all = zoo::all();
    ModelConfig { blocks, ..all[index % all.len()].clone() }
}

#[test]
fn empty_trace_matches_reference() {
    let trace = Trace { requests: Vec::new() };
    for index in 0..zoo::all().len() {
        check_every_stage_time_model(&model_with_blocks(index, 2), &trace, (1.0, 1.0, 4));
    }
}

#[test]
fn zero_length_requests_match_reference() {
    let only_empty = Trace { requests: vec![request(0, 0, 0), request(1, 0, 0)] };
    let leading_empty = Trace { requests: vec![request(0, 0, 0), request(1, 5, 3), request(2, 0, 0)] };
    for trace in [only_empty, leading_empty] {
        check_every_stage_time_model(&model_with_blocks(1, 3), &trace, (0.7, 1.3, 5));
    }
}

proptest! {
    #[test]
    fn schedules_match_the_replaced_loops(
        shape in (0usize..32, 1usize..5),
        lengths in proptest::collection::vec((0usize..5, 0usize..300, 0usize..300), 0..12),
        knobs in (0.1f64..2.0, 0.1f64..2.0, 1usize..40),
    ) {
        // One request in five is empty; the others have a non-empty prompt.
        let requests = lengths
            .iter()
            .enumerate()
            .map(|(id, &(kind, prompt, decode))| {
                if kind == 0 { request(id, 0, 0) } else { request(id, prompt + 1, decode) }
            })
            .collect();
        let trace = Trace { requests };
        check_every_stage_time_model(&model_with_blocks(shape.0, shape.1), &trace, knobs);
    }
}
