//! The decode stage: work selection over the active set and autoregressive
//! token growth. Owns the `decode_step` and `first_token` trace kinds.

use super::Stage;
use crate::engine::Engine;
use ouro_kvcache::KvError;
use ouro_sim::HwStageTimes;
use ouro_trace::EventKind;

/// The step-pricing memo: `(token_pipeline_latency_s, bottleneck_stage_s)`
/// per mean context, priced on first use. Both depend only on the mean
/// context and the engine's `HwStageTimes`, whose one field that changes
/// at run time is `mean_hops` (a fault adds its penalty, a resume restores
/// it); the table is keyed on its bits, so either empties it without a
/// call site of its own. Derived state: never checkpointed, and it holds
/// the exact `f64`s a direct pricing returns.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepPrices {
    /// `mean_hops.to_bits()` the table was priced under.
    mean_hops_bits: u64,
    by_context: Vec<Option<(f64, f64)>>,
}

impl StepPrices {
    /// `(pipeline latency, bottleneck interval)` at `mean_ctx` under `times`.
    pub(crate) fn get(&mut self, times: &HwStageTimes, mean_ctx: usize) -> (f64, f64) {
        let bits = times.mean_hops.to_bits();
        if bits != self.mean_hops_bits {
            self.by_context.clear();
            self.mean_hops_bits = bits;
        }
        if mean_ctx >= self.by_context.len() {
            self.by_context.resize(mean_ctx + 1, None);
        }
        let prices = *self.by_context[mean_ctx].get_or_insert_with(|| {
            (times.token_pipeline_latency_s(mean_ctx), times.bottleneck_stage_s(mean_ctx))
        });
        debug_assert_eq!(
            prices,
            (times.token_pipeline_latency_s(mean_ctx), times.bottleneck_stage_s(mean_ctx)),
            "step-pricing memo went stale"
        );
        prices
    }
}

/// Work selection for one iteration: a chunk of prefill tokens per
/// prefilling sequence, one decode token per decoding sequence — all
/// interleaved in the same token-grained pipeline pass. Returns the step's
/// token count and wall-clock duration.
///
/// A step that moves `T` tokens with mean context `c̄` takes
/// `max(L(c̄), T · b(c̄))` seconds: with few tokens in flight the pipeline
/// drains before it refills, with many it streams one token per bottleneck
/// interval. The context sum is exact in any order: every addend is an
/// integer and every partial sum stays far below 2^53. The loop reads
/// only [`ActiveSeq`](super::ActiveSeq) fields, and the two stage-time
/// sums come from the engine's [`StepPrices`] memo.
pub(crate) fn plan_step(e: &mut Engine) -> (usize, f64) {
    let mut step_tokens = 0usize;
    let mut ctx_sum = 0.0f64;
    for a in &e.active {
        ctx_sum += (a.prompt_len + a.decoded) as f64;
        if a.prefill_remaining > 0 {
            step_tokens += a.prefill_remaining.min(e.config.prefill_chunk);
        } else if !a.prefill_only && a.decoded < a.decode_len {
            step_tokens += 1;
        }
    }
    let mean_ctx = (ctx_sum / e.active.len() as f64).max(1.0) as usize;
    let (pipeline_s, bottleneck_s) = e.step_prices.get(&e.times, mean_ctx);
    let step_s = if step_tokens == 0 {
        // Every resident sequence finished prefill with zero decode
        // tokens requested; charge one drain pass so completion time is
        // well defined.
        pipeline_s
    } else {
        pipeline_s.max(step_tokens as f64 * bottleneck_s)
    };
    (step_tokens, step_s)
}

/// Emits the step's `decode_step` event (one per iteration, covering the
/// whole interleaved batch).
pub(crate) fn emit_step(e: &mut Engine, end_s: f64, step_tokens: usize) {
    let batch = e.active.len();
    Stage::Decode.emit(&mut e.tracer, end_s, None, EventKind::DecodeStep { batch, tokens: step_tokens });
}

/// Advances active sequence `i` by one decode token (no-op for prefill-only
/// or finished sequences). A KV-growth failure marks the sequence for
/// eviction instead.
///
/// A token that fits the open K/V blocks is only counted here. Once they
/// are full, the unsynced tokens are written back and the token goes to
/// the manager as a one-token append, which opens the next blocks: the
/// allocation, or an `OutOfCapacity` eviction, lands at the same step and
/// in the same active-set order as when every token was appended.
pub(crate) fn advance_one(e: &mut Engine, i: usize, end_s: f64, evicted_now: &mut Vec<usize>) {
    let a = &mut e.active[i];
    if a.prefill_only || a.decoded >= a.decode_len {
        // Prefill-only sequences decode on another wafer, zero-decode ones
        // complete as they are; both retire in the Complete stage.
        return;
    }
    if a.room > 0 {
        a.room -= 1;
        a.unsynced += 1;
        e.unsynced_tokens += 1;
    } else {
        e.unsynced_tokens -= a.write_back(&mut e.manager);
        match e.manager.append_tokens(a.rec as u64, 1) {
            Ok(()) => a.room = e.manager.append_room(a.rec as u64),
            Err(KvError::OutOfCapacity) => {
                evicted_now.push(i);
                return;
            }
            Err(err) => panic!("unexpected kv error during decode: {err}"),
        }
    }
    a.decoded += 1;
    debug_assert_eq!(a.room + a.unsynced, e.manager.append_room(a.rec as u64), "decode room drifted");
    if a.decoded == 1 {
        let rec = &mut e.records[a.rec];
        debug_assert!(rec.first_token_s.is_nan(), "a first token is emitted once");
        rec.first_token_s = end_s;
        let id = rec.id;
        Stage::Decode.emit(&mut e.tracer, end_s, Some(id), EventKind::FirstToken);
    }
}
