//! Per-stage operation and data-volume counters.
//!
//! These counters are the contract between the model description and the
//! hardware/pipeline simulators: for a single token flowing through one
//! transformer block, each stage reports how many multiply-accumulate
//! operations it performs, how many weight bytes it touches, how much KV
//! cache it reads and writes, and how large its input/output activations are.
//!
//! Attention stages scale with the number of *attended* positions, which is
//! where the prefill/decode asymmetry and the causal-mask savings of
//! token-grained pipelining come from.

use crate::config::ModelConfig;
use crate::mask::MaskKind;
use crate::stage::{StageKind, STAGES_PER_BLOCK};

/// Operation and data-volume counts for one pipeline stage processing one
/// token that attends to `attended` KV positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCosts {
    /// Multiply–accumulate-equivalent floating point operations (1 MAC = 2 FLOPs).
    pub flops: u64,
    /// Static weight bytes the stage must have resident (and, on non-CIM
    /// hardware, read from memory) to process the token.
    pub weight_bytes: u64,
    /// KV-cache bytes read in situ by the stage.
    pub kv_read_bytes: u64,
    /// KV-cache bytes written (appended) by the stage.
    pub kv_write_bytes: u64,
    /// Input activation bytes consumed.
    pub act_in_bytes: u64,
    /// Output activation bytes produced.
    pub act_out_bytes: u64,
    /// Element-wise / reduction operations executed on the SFU.
    pub sfu_ops: u64,
}

impl StageCosts {
    /// Computes the costs of `kind` for one token of `model` attending to
    /// `attended` KV positions (including itself).
    pub fn for_token(model: &ModelConfig, kind: StageKind, attended: usize) -> StageCosts {
        let d = model.hidden_dim as u64;
        let qkv = (model.heads * model.head_dim) as u64;
        let f = model.ffn_dim as u64;
        let heads = model.heads as u64;
        let att = attended as u64;
        let b = model.precision.bytes();

        match kind {
            StageKind::QkvGeneration => StageCosts {
                flops: 2 * d * 3 * qkv,
                weight_bytes: 3 * d * qkv * b,
                kv_write_bytes: 2 * qkv * b,
                act_in_bytes: d * b,
                act_out_bytes: 3 * qkv * b,
                sfu_ops: 4 * d, // LayerNorm mean/var/normalise
                ..StageCosts::default()
            },
            StageKind::Score => StageCosts {
                // Q·Kᵀ per head: head_dim MACs per attended position.
                flops: 2 * att * qkv,
                kv_read_bytes: att * qkv * b,
                act_in_bytes: qkv * b,
                act_out_bytes: att * heads * b,
                ..StageCosts::default()
            },
            StageKind::Softmax => StageCosts {
                // exp + running max/sum + divide per score entry.
                sfu_ops: 5 * att * heads,
                act_in_bytes: att * heads * b,
                act_out_bytes: att * heads * b,
                ..StageCosts::default()
            },
            StageKind::ContextProjection => StageCosts {
                // softmax(S)·V plus the output projection.
                flops: 2 * att * qkv + 2 * qkv * d,
                weight_bytes: qkv * d * b,
                kv_read_bytes: att * qkv * b,
                act_in_bytes: att * heads * b,
                act_out_bytes: d * b,
                sfu_ops: d, // residual add
                ..StageCosts::default()
            },
            StageKind::Ffn1 => StageCosts {
                flops: 2 * d * f,
                weight_bytes: d * f * b,
                act_in_bytes: d * b,
                act_out_bytes: f * b,
                sfu_ops: 4 * d + f, // LayerNorm + activation function
                ..StageCosts::default()
            },
            StageKind::Ffn2 => StageCosts {
                flops: 2 * f * d,
                weight_bytes: f * d * b,
                act_in_bytes: f * b,
                act_out_bytes: d * b,
                sfu_ops: d, // residual add
                ..StageCosts::default()
            },
        }
    }
}

impl std::ops::Add for StageCosts {
    type Output = StageCosts;

    /// Sum of two cost records, field-wise.
    fn add(self, other: StageCosts) -> StageCosts {
        StageCosts {
            flops: self.flops + other.flops,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            kv_read_bytes: self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes: self.kv_write_bytes + other.kv_write_bytes,
            act_in_bytes: self.act_in_bytes + other.act_in_bytes,
            act_out_bytes: self.act_out_bytes + other.act_out_bytes,
            sfu_ops: self.sfu_ops + other.sfu_ops,
        }
    }
}

/// Aggregated costs of one token flowing through one whole transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCosts {
    /// Per-stage costs in pipeline order.
    pub stages: [StageCosts; STAGES_PER_BLOCK],
}

impl BlockCosts {
    /// Costs of one token attending to `attended` positions in one block.
    pub fn for_token(model: &ModelConfig, attended: usize) -> BlockCosts {
        let mut stages = [StageCosts::default(); STAGES_PER_BLOCK];
        for (i, kind) in StageKind::ALL.iter().enumerate() {
            stages[i] = StageCosts::for_token(model, *kind, attended);
        }
        BlockCosts { stages }
    }

    /// Total over all six stages.
    pub fn total(&self) -> StageCosts {
        self.stages.iter().fold(StageCosts::default(), |acc, s| acc + *s)
    }

    /// Costs of the stage with the given kind.
    pub fn stage(&self, kind: StageKind) -> StageCosts {
        self.stages[kind.index()]
    }
}

impl ModelConfig {
    /// FLOPs performed by `kind` for one token attending to `attended`
    /// positions (see [`StageCosts::for_token`]).
    pub fn stage_flops(&self, kind: StageKind, attended: usize) -> u64 {
        StageCosts::for_token(self, kind, attended).flops
    }

    /// Total FLOPs to run one token through the entire model (all blocks)
    /// when it attends to `attended` positions.
    pub fn token_flops(&self, attended: usize) -> u64 {
        BlockCosts::for_token(self, attended).total().flops * self.blocks as u64
    }

    /// Total FLOPs of the prefill phase of a prompt of `prompt_len` tokens
    /// under this model's mask (token *t* attends to `attended_positions(t)`).
    pub fn prefill_flops(&self, prompt_len: usize) -> u64 {
        match self.mask() {
            MaskKind::Causal => self.context_run_flops(0, prompt_len),
            // A prefix mask whose prefix is the whole prompt is bidirectional
            // over it: every prompt token attends to all `prompt_len`.
            MaskKind::Bidirectional | MaskKind::Prefix => prompt_len as u64 * self.token_flops(prompt_len),
        }
    }

    /// Total FLOPs of decoding `decode_len` tokens after a prompt of
    /// `prompt_len` tokens (each decode step attends to everything so far).
    pub fn decode_flops(&self, prompt_len: usize, decode_len: usize) -> u64 {
        self.context_run_flops(prompt_len, decode_len)
    }

    /// `Σ token_flops(start + 1 ..= start + n)`, the FLOPs of `n` tokens whose
    /// context grows by one position per token, in closed form.
    ///
    /// `token_flops` is affine in `attended` (a test pins this), so the sum is
    /// `n·base + slope·(n·start + n(n+1)/2)`. The integer result equals the
    /// per-token loop exactly, and each product below is at most the final
    /// sum, so nothing overflows unless that loop's own sum would.
    fn context_run_flops(&self, start: usize, n: usize) -> u64 {
        let base = self.token_flops(0);
        let slope = self.token_flops(1) - base;
        let (n, start) = (n as u64, start as u64);
        // slope · n(n+1)/2, halving whichever factor is even first.
        let triangle = if n % 2 == 0 { slope * (n / 2) * (n + 1) } else { slope * n * n.div_ceil(2) };
        n * base + slope * n * start + triangle
    }

    /// KV-cache bytes resident after prefill of `prompt_len` plus
    /// `decoded` generated tokens, for one sequence across the whole model.
    pub fn kv_bytes_for_sequence(&self, prompt_len: usize, decoded: usize) -> u64 {
        (prompt_len + decoded) as u64 * self.kv_bytes_per_token()
    }

    /// Number of *valid* score entries of a full prefill under this model's
    /// mask — the attention work that the causal mask saves shows up here.
    pub fn prefill_score_entries(&self, prompt_len: usize) -> u64 {
        MaskKind::valid_score_entries(self.mask(), prompt_len, prompt_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use proptest::prelude::*;

    #[test]
    fn ffn_flops_independent_of_context() {
        let m = zoo::llama_13b();
        let a = StageCosts::for_token(&m, StageKind::Ffn1, 1);
        let b = StageCosts::for_token(&m, StageKind::Ffn1, 4096);
        assert_eq!(a.flops, b.flops);
    }

    #[test]
    fn score_flops_scale_linearly_with_context() {
        let m = zoo::llama_13b();
        let one = StageCosts::for_token(&m, StageKind::Score, 1).flops;
        let thousand = StageCosts::for_token(&m, StageKind::Score, 1000).flops;
        assert_eq!(thousand, one * 1000);
    }

    #[test]
    fn qkv_writes_kv_for_every_head() {
        let m = zoo::llama_13b();
        let c = StageCosts::for_token(&m, StageKind::QkvGeneration, 1);
        assert_eq!(c.kv_write_bytes, m.kv_bytes_per_token_per_block());
    }

    #[test]
    fn only_attention_stages_read_kv() {
        let m = zoo::llama_13b();
        for kind in StageKind::ALL {
            let c = StageCosts::for_token(&m, kind, 128);
            assert_eq!(c.kv_read_bytes > 0, kind.uses_kv_cache());
        }
    }

    #[test]
    fn block_total_is_sum_of_stages() {
        let m = zoo::llama_13b();
        let block = BlockCosts::for_token(&m, 256);
        let manual: u64 = block.stages.iter().map(|s| s.flops).sum();
        assert_eq!(block.total().flops, manual);
    }

    #[test]
    fn softmax_has_no_macs() {
        let m = zoo::llama_13b();
        let c = StageCosts::for_token(&m, StageKind::Softmax, 512);
        assert_eq!(c.flops, 0);
        assert!(c.sfu_ops > 0);
    }

    #[test]
    fn token_flops_multiplies_blocks() {
        let m = zoo::llama_13b();
        let per_block = BlockCosts::for_token(&m, 10).total().flops;
        assert_eq!(m.token_flops(10), per_block * m.blocks as u64);
    }

    #[test]
    fn decode_flops_grow_with_decode_length() {
        let m = zoo::llama_13b();
        assert!(m.decode_flops(128, 256) > m.decode_flops(128, 128));
        assert_eq!(m.decode_flops(128, 0), 0);
    }

    #[test]
    fn prefill_uses_mask_causal_cheaper_than_bidirectional_score() {
        let llama = zoo::llama_13b();
        let bert = zoo::bert_large();
        // Causal prefill touches ~half the score entries of bidirectional.
        let l = llama.prefill_score_entries(512) as f64 / 512.0 / 512.0;
        let b = bert.prefill_score_entries(512) as f64 / 512.0 / 512.0;
        assert!(l < 0.52 && l > 0.49);
        assert!((b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kv_bytes_for_sequence_accumulate() {
        let m = zoo::llama_13b();
        assert_eq!(m.kv_bytes_for_sequence(100, 28), 128 * m.kv_bytes_per_token());
    }

    /// The per-token prefill sum the closed form replaced (the reference).
    fn per_token_prefill_flops(m: &ModelConfig, prompt_len: usize) -> u64 {
        let mask = m.mask();
        (0..prompt_len).map(|t| m.token_flops(mask.attended_positions(t, prompt_len, prompt_len))).sum()
    }

    /// The per-token decode sum the closed form replaced (the reference).
    fn per_token_decode_flops(m: &ModelConfig, prompt_len: usize, decode_len: usize) -> u64 {
        (0..decode_len).map(|t| m.token_flops(prompt_len + t + 1)).sum()
    }

    #[test]
    fn zoo_covers_every_mask() {
        let masks: Vec<MaskKind> = zoo::all().iter().map(ModelConfig::mask).collect();
        for mask in [MaskKind::Causal, MaskKind::Bidirectional, MaskKind::Prefix] {
            assert!(masks.contains(&mask), "no zoo model has a {mask} mask");
        }
    }

    #[test]
    fn closed_form_flop_sums_match_at_the_edges() {
        for m in zoo::all() {
            for len in [0, 1, 2, 3] {
                assert_eq!(
                    m.prefill_flops(len),
                    per_token_prefill_flops(&m, len),
                    "{} prefill {len}",
                    m.name
                );
                for decode in [0, 1, 2] {
                    assert_eq!(m.decode_flops(len, decode), per_token_decode_flops(&m, len, decode));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn closed_form_flop_sums_equal_the_per_token_sums(prompt in 0usize..5000, decode in 0usize..5000) {
            for m in zoo::all() {
                prop_assert_eq!(m.prefill_flops(prompt), per_token_prefill_flops(&m, prompt));
                prop_assert_eq!(m.decode_flops(prompt, decode), per_token_decode_flops(&m, prompt, decode));
            }
        }

        #[test]
        fn token_flops_is_affine_in_attended(attended in 0usize..1_000_000) {
            // The premise of the closed-form sums: a cost term that is not
            // linear in the context length must fail here first.
            for m in zoo::all() {
                let base = m.token_flops(0);
                let slope = m.token_flops(1) - base;
                prop_assert_eq!(m.token_flops(attended), base + slope * attended as u64);
            }
        }

        #[test]
        fn stage_costs_monotone_in_context(att1 in 1usize..2048, extra in 0usize..2048) {
            let m = zoo::llama_13b();
            let att2 = att1 + extra;
            for kind in StageKind::ALL {
                let a = StageCosts::for_token(&m, kind, att1);
                let b = StageCosts::for_token(&m, kind, att2);
                prop_assert!(b.flops >= a.flops);
                prop_assert!(b.kv_read_bytes >= a.kv_read_bytes);
                prop_assert!(b.sfu_ops >= a.sfu_ops);
            }
        }

        #[test]
        fn prefill_plus_decode_matches_stepwise(prompt in 1usize..64, decode in 0usize..64) {
            let m = zoo::llama_13b();
            let total = m.prefill_flops(prompt) + m.decode_flops(prompt, decode);
            let manual: u64 = (0..prompt + decode)
                .map(|t| m.token_flops(t + 1))
                .sum();
            prop_assert_eq!(total, manual);
        }
    }
}
