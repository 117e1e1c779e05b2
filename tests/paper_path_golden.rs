//! Seed-pinned golden of the paper path's cost sums.
//!
//! Fig. 13's grid — the four decoder models × `LengthConfig::paper_suite()`
//! — at 16 requests, seed 2026. For every point the test pins the exact
//! `f64` bit patterns of:
//!
//! * the `PipelineReport` of the system's hardware stage times at all three
//!   granularities (the token-grained stream sums and the sequence-grained
//!   recurrence);
//! * the `SystemReport` of each of the four roofline baselines (their
//!   prefill and decode FLOP sums).
//!
//! The values were captured from the per-token summation loops before they
//! were replaced by a lookup table and a closed form, so any drift here
//! means a cost sum changed its result or its order of additions.
//!
//! Ouroboros' own `SystemReport` is deliberately left out: it includes the
//! offline KV replay, whose behaviour is due to change on its own.

use ouro_bench::{baseline_systems, build_ouroboros, decoder_models};
use ouroboros::baselines::SystemReport;
use ouroboros::pipeline::{Granularity, PipelineReport, PipelineScheduler};
use ouroboros::workload::{LengthConfig, TraceGenerator};

const SEED: u64 = 2026;
const REQUESTS: usize = 16;

fn bits(values: impl IntoIterator<Item = f64>) -> String {
    values.into_iter().map(|v| format!("{:016x}", v.to_bits())).collect::<Vec<_>>().join(" ")
}

fn pipeline_line(granularity: Granularity, r: &PipelineReport) -> String {
    format!(
        "{granularity} units={} tokens={} out={} makespan={} busy=[{}]",
        r.units,
        r.total_tokens,
        r.output_tokens,
        bits([r.makespan_s]),
        bits(r.stage_busy_s.iter().copied())
    )
}

fn baseline_line(r: &SystemReport) -> String {
    let e = &r.energy_per_token;
    format!(
        "{} out={} fits={} tps/time/energy=[{}]",
        r.system,
        r.output_tokens,
        r.fits_in_memory,
        bits([
            r.throughput_tokens_per_s,
            r.total_time_s,
            e.compute_j,
            e.on_chip_j,
            e.off_chip_j,
            e.communication_j
        ])
    )
}

/// Every pinned line, in model-major, length-mix-minor order.
fn paper_path_lines() -> Vec<String> {
    let gen = TraceGenerator::new(SEED);
    let mut lines = Vec::new();
    for model in decoder_models() {
        let sys = build_ouroboros(&model);
        let sched = PipelineScheduler::new(sys.model(), sys.stage_times());
        for (label, config) in LengthConfig::paper_suite() {
            let trace = gen.generate(&config, REQUESTS);
            let point = format!("{} / {label}", model.name);
            for granularity in [Granularity::Token, Granularity::TokenWithBlock, Granularity::Sequence] {
                lines.push(format!(
                    "{point}: {}",
                    pipeline_line(granularity, &sched.run(&trace, granularity))
                ));
            }
            for baseline in baseline_systems() {
                lines.push(format!("{point}: {}", baseline_line(&baseline.evaluate(&model, &trace, &label))));
            }
        }
    }
    lines
}

#[test]
fn paper_path_cost_sums_are_bit_identical_to_the_per_token_loops() {
    let actual = paper_path_lines();
    for (i, line) in actual.iter().enumerate() {
        let expected = GOLDEN.get(i).copied().unwrap_or("<missing>");
        assert_eq!(line, expected, "paper-path golden line {i} drifted");
    }
    assert_eq!(actual.len(), GOLDEN.len(), "paper-path golden has a different number of lines");
}

/// Captured from the per-token loops at seed 2026.
const GOLDEN: &[&str] = &[
   "LLaMA-13B / WikiText-2: token-grained units=7571 tokens=7571 out=3011 makespan=3f953cdb60f29aa1 busy=[3fe4479fc370f581 3fa8408b272cb159 3f95bb66f3d4f96e 3fe0d2dd157da3ef 3fea1824aba2a64d 3fe7b0e37edc9ee3]",
   "LLaMA-13B / WikiText-2: token-grained+block units=7571 tokens=7571 out=3011 makespan=3f9762ba14efb4e6 busy=[3fe4479fc370f581 3fa8408b272cb159 3f95bb66f3d4f96e 3fe0d2dd157da3ef 3fea1824aba2a64d 3fe7b0e37edc9ee3]",
   "LLaMA-13B / WikiText-2: sequence-grained units=16 tokens=7571 out=3011 makespan=3fd3ad9cbd572aa3 busy=[3fe4479fc370f52c 3fa83f1789a6232d 3f95b5bdbc8e9126 3fe0d6a7ecee804e 3fea1824aba2a243 3fe7b0e37edc9b8e]",
   "LLaMA-13B / WikiText-2: DGX A100 out=3011 fits=true tps/time/energy=[40ccc9d49c0d2f03 3fca25cea02b6182 3f93c300c3bb1b5f 3f6f9e679f91c565 3f7954065ee12e50 3edeb718bb2d093f]",
   "LLaMA-13B / WikiText-2: TPUv4 out=3011 fits=true tps/time/energy=[40c8746f68280a90 3fcec7ffc91ee3e6 3f9077d5f871417a 3f6a59565a4ecf29 3f77a3c1ade33c4b 3ed8927a2f573a99]",
   "LLaMA-13B / WikiText-2: AttAcc out=3011 fits=true tps/time/energy=[40d0f672415d614e 3fc6303bf3e940ff 3f93c300c3bb1b5f 3f75ab7629110d3a 3f50a92bc40f4a31 3edeb718bb2d093f]",
   "LLaMA-13B / WikiText-2: Cerebras out=3011 fits=true tps/time/energy=[40aaf76bfb42908b 3febea0dc993c0ab 3f9077d5f871417a 3f7022ebd88ad57c 0000000000000000 0000000000000000]",
   "LLaMA-13B / LP=128 LD=2048: token-grained units=34816 tokens=34816 out=32768 makespan=3fb8170bfcd5111b busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400dffd398a72ea1 400b3c7fc66d1af5]",
   "LLaMA-13B / LP=128 LD=2048: token-grained+block units=34816 tokens=34816 out=32768 makespan=3fb99709c4770730 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400dffd398a72ea1 400b3c7fc66d1af5]",
   "LLaMA-13B / LP=128 LD=2048: sequence-grained units=16 tokens=34816 out=32768 makespan=3feecc023e3a6a03 busy=[4007508cee9ebcf9 3fd73ba28a1fc5bb 3fd54d442b7e081c 4009d21c7b442754 400dffd398a7399c 400b3c7fc66d1a9d]",
   "LLaMA-13B / LP=128 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40c59eefbe9c7170 4007ae4c2c45d347 3f8125b263346dc9 3f5b6f83d1ed7c74 3f90ef05ea217241 3ede17740e3a6d73]",
   "LLaMA-13B / LP=128 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40bfdf2476801d55 4010107eb49e9468 3f7c942950020c4f 3f56dcedd99b3d0c 3f906c1499165349 3ed812c33e95245c]",
   "LLaMA-13B / LP=128 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40e36ae575655308 3fea5e2d69e5b872 3f8125b263346dc9 3f6cbe60d31b71d4 3f63815ef2056997 3ede17740e3a6d73]",
   "LLaMA-13B / LP=128 LD=2048: Cerebras out=32768 fits=true tps/time/energy=[4093d60da996e431 4039cfbc36261377 3f7c942950020c4f 3f74f2d130f8722d 0000000000000000 0000000000000000]",
   "LLaMA-13B / LP=2048 LD=128: token-grained units=34816 tokens=34816 out=2048 makespan=3fb8170bfcd5111b busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400dffd398a72ea1 400b3c7fc66d1af5]",
   "LLaMA-13B / LP=2048 LD=128: token-grained+block units=34816 tokens=34816 out=2048 makespan=3fb99709c4770730 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400dffd398a72ea1 400b3c7fc66d1af5]",
   "LLaMA-13B / LP=2048 LD=128: sequence-grained units=16 tokens=34816 out=2048 makespan=3feeed902d7bd5e7 busy=[4007508cee9ebcf9 3fd73ba28a1fc5bb 3fd54d442b7e081c 400a58543849d6c4 400dffd398a7399c 400b3c7fc66d1a9d]",
   "LLaMA-13B / LP=2048 LD=128: DGX A100 out=2048 fits=true tps/time/energy=[409dbacdc7a4305b 3ff138ca1ca8f339 3fc125b263346dc9 3f9b6f83d1ed7c74 3f9d0366495cc121 3ee277e6665cf379]",
   "LLaMA-13B / LP=2048 LD=128: TPUv4 out=2048 fits=true tps/time/energy=[409abd4a24c0675f 3ff325d3f484e55e 3fbc942950020c4f 3f96dcedd99b3d0c 3f9bb24c696fd01b 3edd8ca3d6fb1f29]",
   "LLaMA-13B / LP=2048 LD=128: AttAcc out=2048 fits=true tps/time/energy=[40a3a2de9abd57d6 3fea1303f5ce0e87 3fc125b263346dc9 3fa279dbb55c3b95 3f63815ef2056997 3ee277e6665cf379]",
   "LLaMA-13B / LP=2048 LD=128: Cerebras out=2048 fits=true tps/time/energy=[4081951abc93b972 400d1eb5f8baa1da 3fbc942950020c4f 3f9aabd3483fa5c7 0000000000000000 0000000000000000]",
   "LLaMA-13B / LP=2048 LD=2048: token-grained units=65536 tokens=65536 out=32768 makespan=3fc6a20ce8ffe08e busy=[4015f175954a0bc4 3feff018ba9a536f 3ff23a6a34264d27 4017b6386f15ac7b 401c3c12718e4551 4019a25a242a654a]",
   "LLaMA-13B / LP=2048 LD=2048: token-grained+block units=65536 tokens=65536 out=32768 makespan=3fc80b743b7a3193 busy=[4015f175954a0bc4 3feff018ba9a536f 3ff23a6a34264d27 4017b6386f15ac7b 401c3c12718e4551 4019a25a242a654a]",
   "LLaMA-13B / LP=2048 LD=2048: sequence-grained units=16 tokens=65536 out=32768 makespan=3ffdef379424482d busy=[4015f175954a1b46 3fefeec121ac3080 3ff2340a1dbb26d9 4018cb9a8f548de4 401c3c12718e5459 4019a25a242a735c]",
   "LLaMA-13B / LP=2048 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40af405940dad4c4 4020621f0815eda3 3f909f2ca70d2aa2 3f6a984771aeaa9c 3fa5a01a0d746c30 3ede7e8855ab567b]",
   "LLaMA-13B / LP=2048 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40a7d82686608f59 402578fc8264f3c1 3f8bb3f5166b470e 3f662990debc38d8 3fa4c87294cdef09 3ed86539de22ab96]",
   "LLaMA-13B / LP=2048 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40d425b4dd40b64f 3ff969b0432f4327 3f909f2ca70d2aa2 3f800ab548cb42ae 3f7262654245d648 3ede7e8855ab567b]",
   "LLaMA-13B / LP=2048 LD=2048: Cerebras out=32768 fits=true tps/time/energy=[407d81dad45d68a6 40515a0714f3006b 3f8bb3f5166b470e 3f82de873aee7cc4 0000000000000000 0000000000000000]",
   "Baichuan-13B / WikiText-2: token-grained units=7571 tokens=7571 out=3011 makespan=3f9530e3301ee62c busy=[3fe4479fc370f581 3fa8408b272cb159 3f95bb66f3d4f96e 3fe0d2dd157da3ef 3fea09420fb69f77 3fe7b0e37edc9ee3]",
   "Baichuan-13B / WikiText-2: token-grained+block units=7571 tokens=7571 out=3011 makespan=3f97558839669bdc busy=[3fe4479fc370f581 3fa8408b272cb159 3f95bb66f3d4f96e 3fe0d2dd157da3ef 3fea09420fb69f77 3fe7b0e37edc9ee3]",
   "Baichuan-13B / WikiText-2: sequence-grained units=16 tokens=7571 out=3011 makespan=3fd3a9ed72f3a693 busy=[3fe4479fc370f52c 3fa83f1789a6232d 3f95b5bdbc8e9126 3fe0d6a7ecee804e 3fea09420fb69dfb 3fe7b0e37edc9b8e]",
   "Baichuan-13B / WikiText-2: DGX A100 out=3011 fits=true tps/time/energy=[40cccfe229ed3852 3fca20505d5d0780 3f93a3e688720eb2 3f6f6ca40d834ab6 3f7972a06416b37e 3edeb718bb2d093f]",
   "Baichuan-13B / WikiText-2: TPUv4 out=3011 fits=true tps/time/energy=[40c87585fe666945 3fcec6a13091cef0 3f905deac709b6e9 3f6a2fde0b42be42 3f77c0516e7b9677 3ed8927a2f573a99]",
   "Baichuan-13B / WikiText-2: AttAcc out=3011 fits=true tps/time/energy=[40d1112b19bbebfa 3fc60d7e5c3e66f8 3f93a3e688720eb2 3f758c5bedc8008c 3f50fac67c9e02ad 3edeb718bb2d093f]",
   "Baichuan-13B / WikiText-2: Cerebras out=3011 fits=true tps/time/energy=[40aafbf732297e5f 3febe55a7b5cd666 3f905deac709b6e9 3f704a26746dcc0e 0000000000000000 0000000000000000]",
   "Baichuan-13B / LP=128 LD=2048: token-grained units=34816 tokens=34816 out=32768 makespan=3fb809575e526d60 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400deeb6bacb08ae 400b3c7fc66d1af5]",
   "Baichuan-13B / LP=128 LD=2048: token-grained+block units=34816 tokens=34816 out=32768 makespan=3fb9887a1adc9386 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400deeb6bacb08ae 400b3c7fc66d1af5]",
   "Baichuan-13B / LP=128 LD=2048: sequence-grained units=16 tokens=34816 out=32768 makespan=3feec62051f6b473 busy=[4007508cee9ebcf9 3fd73ba28a1fc5bb 3fd54d442b7e081c 4009d21c7b442754 400deeb6bacafaf7 400b3c7fc66d1a9d]",
   "Baichuan-13B / LP=128 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40c5908d466a9556 4007be180332237a 3f810b696058eaae 3f5b457566f4aab1 3f90faf717deeae8 3ede17740e3a6d73]",
   "Baichuan-13B / LP=128 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40bfb9fda0b640bf 4010234e6dd32696 3f7c685a4b3edc78 3f56b9e1d5cbe393 3f908025b63a3ca6 3ed812c33e95245c]",
   "Baichuan-13B / LP=128 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40e3887bb5754c90 3fea363ce530dadf 3f810b696058eaae 3f6ca417d03feeba 3f63e0e85ff12ed7 3ede17740e3a6d73]",
   "Baichuan-13B / LP=128 LD=2048: Cerebras out=32768 fits=true tps/time/energy=[4093d61aa4343cec 4039cfab52b16e7e 3f7c685a4b3edc78 3f7534aa467877ae 0000000000000000 0000000000000000]",
   "Baichuan-13B / LP=2048 LD=128: token-grained units=34816 tokens=34816 out=2048 makespan=3fb809575e526d60 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400deeb6bacb08ae 400b3c7fc66d1af5]",
   "Baichuan-13B / LP=2048 LD=128: token-grained+block units=34816 tokens=34816 out=2048 makespan=3fb9887a1adc9386 busy=[4007508cee9eb939 3fd73d0f9c9ccae9 3fd55ad05b21b9dd 40082d8ff7cbf080 400deeb6bacb08ae 400b3c7fc66d1af5]",
   "Baichuan-13B / LP=2048 LD=128: sequence-grained units=16 tokens=34816 out=2048 makespan=3feee7ae41382057 busy=[4007508cee9ebcf9 3fd73ba28a1fc5bb 3fd54d442b7e081c 400a58543849d6c4 400deeb6bacafaf7 400b3c7fc66d1a9d]",
   "Baichuan-13B / LP=2048 LD=128: DGX A100 out=2048 fits=true tps/time/energy=[409dd7d303faf5eb 3ff1280ad951b562 3fc10b696058eaae 3f9b457566f4aab1 3f9d0f57771a39c9 3ee277e6665cf379]",
   "Baichuan-13B / LP=2048 LD=128: TPUv4 out=2048 fits=true tps/time/energy=[409ad17a31a1106a 3ff3176a0f49aa90 3fbc685a4b3edc78 3f96b9e1d5cbe393 3f9bc65d8693b978 3edd8ca3d6fb1f29]",
   "Baichuan-13B / LP=2048 LD=128: AttAcc out=2048 fits=true tps/time/energy=[40a3c120e8bf966e 3fe9eb13711930f4 3fc10b696058eaae 3fa25f92b280b87b 3f63e0e85ff12ed7 3ee277e6665cf379]",
   "Baichuan-13B / LP=2048 LD=128: Cerebras out=2048 fits=true tps/time/energy=[40819a35741d4202 400d16443e682569 3fbc685a4b3edc78 3f9a9b6e4a0d4345 0000000000000000 0000000000000000]",
   "Baichuan-13B / LP=2048 LD=2048: token-grained units=65536 tokens=65536 out=32768 makespan=3fc69528698efeb0 busy=[4015f175954a0bc4 3feff018ba9a536f 3ff23a6a34264d27 4017b6386f15ac7b 401c2bf74664be51 4019a25a242a654a]",
   "Baichuan-13B / LP=2048 LD=2048: token-grained+block units=65536 tokens=65536 out=32768 makespan=3fc7fdc1937a6de3 busy=[4015f175954a0bc4 3feff018ba9a536f 3ff23a6a34264d27 4017b6386f15ac7b 401c2bf74664be51 4019a25a242a654a]",
   "Baichuan-13B / LP=2048 LD=2048: sequence-grained units=16 tokens=65536 out=32768 makespan=3ffde9ae3d4df79c busy=[4015f175954a1b46 3fefeec121ac3080 3ff2340a1dbb26d9 4018cb9a8f548de4 401c2bf74664aff1 4019a25a242a735c]",
   "Baichuan-13B / LP=2048 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40af361d84b9a629 4020677e2a9877ec 3f90866f772f8211 3f6a70b2584c034e 3fa5ab5b8803b1c5 3ede7e8855ab567b]",
   "Baichuan-13B / LP=2048 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40a7cc9f238a3c6e 402583635ba37328 3f8b8ab9c6a48371 3f6608949eea02c1 3fa4d5e367e873d2 3ed86539de22ab96]",
   "Baichuan-13B / LP=2048 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40d443ae5f34bb94 3ff944192fb23660 3f90866f772f8211 3f7ffcad61b8dcca 3f72bc7116c002f3 3ede7e8855ab567b]",
   "Baichuan-13B / LP=2048 LD=2048: Cerebras out=32768 fits=true tps/time/energy=[407d824db6fc035b 405159c387206c88 3f8b8ab9c6a48371 3f831790be9f4fa0 0000000000000000 0000000000000000]",
   "LLaMA-32B / WikiText-2: token-grained units=7571 tokens=7571 out=3011 makespan=3f97c52225358fa8 busy=[3fefd81f913fda8c 3fb26bf2cd119632 3fa0c3a2163fdd5e 3ff43ade0ce61762 3ff5adb214e59962 3ff35a49b804eaab]",
   "LLaMA-32B / WikiText-2: token-grained+block units=7571 tokens=7571 out=3011 makespan=3f9a57c77e1a5285 busy=[3fefd81f913fda8c 3fb26bf2cd119632 3fa0c3a2163fdd5e 3ff43ade0ce61762 3ff5adb214e59962 3ff35a49b804eaab]",
   "LLaMA-32B / WikiText-2: sequence-grained units=16 tokens=7571 out=3011 makespan=3fe109ad5aec8ab0 busy=[3fefd81f913fd8e3 3fb26adc16ecab92 3fa0bf632ccb0f36 3ff43db62e7abcb2 3ff5adb214e5954e 3ff35a49b804e99b]",
   "LLaMA-32B / WikiText-2: DGX A100 out=3011 fits=true tps/time/energy=[40b8f04162b0b458 3fde2f2b676c0c22 3fa8f41f956458d5 3f83f67faab6ad77 3f8a69191c7c4f96 3eedbc66d8e6900e]",
   "LLaMA-32B / WikiText-2: TPUv4 out=3011 fits=true tps/time/energy=[40b56f164bd4fa1a 3fe18f4d3ce00240 3fa4cb6fa728f4b2 3f80a2bfb8ed908e 3f88c3f7ae812794 3ee7c9ebe0b8733e]",
   "LLaMA-32B / WikiText-2: AttAcc out=3011 fits=true tps/time/energy=[40bae60b2bc2f019 3fdbfc1694a5ae20 3fa8f41f956458d5 3f8ad05ed831be3d 3f67b8fab01f72e3 3eedbc66d8e6900f]",
   "LLaMA-32B / WikiText-2: Cerebras out=3011 fits=false tps/time/energy=[4091f11acaa82b49 4004fa3f89f74f38 3fa4cb6fa728f4b2 3fb2bc14c4e6f9a9 3fef64fd4c97d009 0000000000000000]",
   "LLaMA-32B / LP=128 LD=2048: token-grained units=34816 tokens=34816 out=32768 makespan=3fbcd6be0b214395 busy=[40124e0b50c10528 3fe19005712e159e 3fe026560011c891 401ae2846f0ff33a 4018ec351ced42b5 40163fb27283817c]",
   "LLaMA-32B / LP=128 LD=2048: token-grained+block units=34816 tokens=34816 out=32768 makespan=3fbebd50af5bd391 busy=[40124e0b50c10528 3fe19005712e159e 3fe026560011c891 401ae2846f0ff33a 4018ec351ced42b5 40163fb27283817c]",
   "LLaMA-32B / LP=128 LD=2048: sequence-grained units=16 tokens=34816 out=32768 makespan=3ffa35300d8ededd busy=[40124e0b50c10da7 3fe18ef3a35051a9 3fe01c2cdc570371 401c1dedd1aa2c34 4018ec351ced4ba7 40163fb27283801e]",
   "LLaMA-32B / LP=128 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40b1759deb97628c 401d533a501c5a62 3f95861a0cdaaf6f 3f713814d7155926 3fa4fa4d250f723c 3eed54a23548ddfc]",
   "LLaMA-32B / LP=128 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40a81656d342c1f9 4025418c595bc464 3f91efc0600b9232 3f6cb2cd6678e9ea 3fa5d3b3b2c36a14 3ee776e82aa0b197]",
   "LLaMA-32B / LP=128 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40c9c4127b2f63f6 4003df0841e2af7d 3f95861a0cdaaf6f 3f806a4876945ce4 3f8b60e232b7953f 3eed54a23548ddfc]",
   "LLaMA-32B / LP=128 LD=2048: Cerebras out=32768 fits=false tps/time/energy=[4083fd9b785e1fe3 40499caa01361ff2 3f91efc0600b9232 3fb18d5338fd0ee7 3fef3e695219a168 0000000000000000]",
   "LLaMA-32B / LP=2048 LD=128: token-grained units=34816 tokens=34816 out=2048 makespan=3fbcd6be0b214395 busy=[40124e0b50c10528 3fe19005712e159e 3fe026560011c891 401ae2846f0ff33a 4018ec351ced42b5 40163fb27283817c]",
   "LLaMA-32B / LP=2048 LD=128: token-grained+block units=34816 tokens=34816 out=2048 makespan=3fbebd50af5bd391 busy=[40124e0b50c10528 3fe19005712e159e 3fe026560011c891 401ae2846f0ff33a 4018ec351ced42b5 40163fb27283817c]",
   "LLaMA-32B / LP=2048 LD=128: sequence-grained units=16 tokens=34816 out=2048 makespan=3ffa54a51ddc3409 busy=[40124e0b50c10da7 3fe18ef3a35051aa 3fe01c2cdc570371 401c82979f6e6fc5 4018ec351ced4ba7 40163fb27283801e]",
   "LLaMA-32B / LP=2048 LD=128: DGX A100 out=2048 fits=true tps/time/energy=[4088637e511c76b7 4004fe4dd635e5d6 3fd5861a0cdaaf6f 3fb13814d7155926 3fb060af275b092c 3ef0e3d4588ddce1]",
   "LLaMA-32B / LP=2048 LD=128: TPUv4 out=2048 fits=true tps/time/energy=[4085bad41441ef01 40078fe6bad9b135 3fd1efc0600b9232 3facb2cd6678e9ea 3fb068e1dbc0884a 3eeb06208dafc7cf]",
   "LLaMA-32B / LP=2048 LD=128: AttAcc out=2048 fits=true tps/time/energy=[408eefc87228dccf 40008cc96b66b53b 3fd5861a0cdaaf6f 3fb6d1c2568e4b4a 3f8b60e232b7953f 3ef0e3d4588ddce1]",
   "LLaMA-32B / LP=2048 LD=128: Cerebras out=2048 fits=false tps/time/energy=[406ea7538a9e26a0 4020b3e8025d5308 3fd1efc0600b9232 3fbf01238105bc8c 3fef78f705dd1908 0000000000000000]",
   "LLaMA-32B / LP=2048 LD=2048: token-grained units=65536 tokens=65536 out=32768 makespan=3fcbd600ba00ef51 busy=[40213a6500b5b8da 3ff81448e247077d 3ffb77d5a48cbcab 402a0539d0b1424b 402774e6b1d066df 4024f0a7f34e75f2]",
   "LLaMA-32B / LP=2048 LD=2048: token-grained+block units=65536 tokens=65536 out=32768 makespan=3fcd9ff427653a99 busy=[40213a6500b5b8da 3ff81448e247077d 3ffb77d5a48cbcab 402a0539d0b1424b 402774e6b1d066df 4024f0a7f34e75f2]",
   "LLaMA-32B / LP=2048 LD=2048: sequence-grained units=16 tokens=65536 out=32768 makespan=400966ae5fcf4879 busy=[40213a6500b5b285 3ff813472f946d2f 3ffb6e4582ec0324 402ad54368e06937 402774e6b1d0472d 4024f0a7f34e96bf]",
   "LLaMA-32B / LP=2048 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[409a6ca5048fb3b1 40336043ebdbf3bc 3fa4ba94afcc0db4 3f809543bfd6715d 3fb96b295b488990 3eed97a296ebdbdb]",
   "LLaMA-32B / LP=2048 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40935523e9652783 403a7bd9c4edd6ec 3fa14626927f60c1 3f7ba370ea65679b 3fb9a0db2d2325e5 3ee7ac821256497c]",
   "LLaMA-32B / LP=2048 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40b3d88b13713ada 4019cc7f31a7c7e6 3fa4ba94afcc0db4 3f91e6eeed6f6314 3f9a4c3795c48bfc 3eed97a296ebdbdb]",
   "LLaMA-32B / LP=2048 LD=2048: Cerebras out=32768 fits=false tps/time/energy=[406dfc73fdfda3b8 40611315dc6512ab 3fa14626927f60c1 3fb261f3dc6f9e11 3fef3e695219a168 0000000000000000]",
   "Qwen-32B / WikiText-2: token-grained units=7571 tokens=7571 out=3011 makespan=3f9a71dd28fc629b busy=[3ff03d44c5eea601 3fb3a6585234e47a 3fa1e1bdf59974aa 3feaf2eba8be5dff 3ff9d25925de313f 3ff2f7e15bde58d6]",
   "Qwen-32B / WikiText-2: token-grained+block units=7571 tokens=7571 out=3011 makespan=3f9d1a051a519979 busy=[3ff03d44c5eea601 3fb3a6585234e47a 3fa1e1bdf59974aa 3feaf2eba8be5dff 3ff9d25925de313f 3ff2f7e15bde58d6]",
   "Qwen-32B / WikiText-2: sequence-grained units=16 tokens=7571 out=3011 makespan=3fe098df2c75d4c7 busy=[3ff03d44c5eea321 3fb3a52f0762d926 3fa1dd36962dee16 3feaf8fd0172f1bf 3ff9d25925de332d 3ff2f7e15bde5b7e]",
   "Qwen-32B / WikiText-2: DGX A100 out=3011 fits=true tps/time/energy=[40b970cfe6d87f71 3fdd96a4806adf00 3faa1cb10cc84905 3f84e3c0d706a0d1 3f87b628663db117 3ee86085d1114ee1]",
   "Qwen-32B / WikiText-2: TPUv4 out=3011 fits=true tps/time/energy=[40b62b1c9f1e4f5c 3fe0fa5da6c88398 3fa5c2938aa6e785 3f81687608858603 3f86217b0a177216 3ee3806b0da7724e]",
   "Qwen-32B / WikiText-2: AttAcc out=3011 fits=true tps/time/energy=[40b9ba3eab8b895c 3fdd42309a1f9fae 3faa1cb10cc84905 3f8ba3755dd9d74e 3f6686a3497b0621 3ee86085d1114ee1]",
   "Qwen-32B / WikiText-2: Cerebras out=3011 fits=false tps/time/energy=[4093591a3fbd7116 400373ee7f8d9387 3fa5c2938aa6e785 3fb4325e2f0cb5a8 3ff0fbf5ee022581 0000000000000000]",
   "Qwen-32B / LP=128 LD=2048: token-grained units=34816 tokens=34816 out=32768 makespan=3fbdd77733d21996 busy=[4012ab676075716a 3fe2bbc189cac1ba 3fe139f555684d69 40135c369b000f14 401daf96330a8d3f 4015ce900d1a9c41]",
   "Qwen-32B / LP=128 LD=2048: token-grained+block units=34816 tokens=34816 out=32768 makespan=3fbfb2709702c35a busy=[4012ab676075716a 3fe2bbc189cac1ba 3fe139f555684d69 40135c369b000f14 401daf96330a8d3f 4015ce900d1a9c41]",
   "Qwen-32B / LP=128 LD=2048: sequence-grained units=16 tokens=34816 out=32768 makespan=3ff99224d84eb332 busy=[4012ab67607574ba 3fe2ba9d7b005719 3fe12f1ec8e55901 4014aca7042cfd00 401daf96330a9c3f 4015ce900d1a8c6a]",
   "Qwen-32B / LP=128 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[40b47d4e9f2c21e0 4018fd09e08b483b 3f966cbe0e7a2bb7 3f71f0980b94efc6 3fa1cf7a60dcd0c5 3ee810b37a9800fb]",
   "Qwen-32B / LP=128 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40ac39aa959fa08b 402223c8a43766b6 3f92aff3b6bb246e 3f6de652bdf83a4a 3fa2960a9a722024 3ee3408f9546672f]",
   "Qwen-32B / LP=128 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40cc32563ad6b473 4002287fc27415f9 3f966cbe0e7a2bb7 3f7fb3b001996227 3f88db2fc3d732e7 3ee810b37a9800fb]",
   "Qwen-32B / LP=128 LD=2048: Cerebras out=32768 fits=false tps/time/energy=[40883818c073cb4a 404523ebb738bcd0 3f92aff3b6bb246e 3fb2f48203ebc6ba 3ff0e717166b2821 0000000000000000]",
   "Qwen-32B / LP=2048 LD=128: token-grained units=34816 tokens=34816 out=2048 makespan=3fbdd77733d21996 busy=[4012ab676075716a 3fe2bbc189cac1ba 3fe139f555684d69 40135c369b000f14 401daf96330a8d3f 4015ce900d1a9c41]",
   "Qwen-32B / LP=2048 LD=128: token-grained+block units=34816 tokens=34816 out=2048 makespan=3fbfb2709702c35a busy=[4012ab676075716a 3fe2bbc189cac1ba 3fe139f555684d69 40135c369b000f14 401daf96330a8d3f 4015ce900d1a9c41]",
   "Qwen-32B / LP=2048 LD=128: sequence-grained units=16 tokens=34816 out=2048 makespan=3ff9acfccae96fe3 busy=[4012ab67607574ba 3fe2ba9d7b00571a 3fe12f1ec8e55901 40151806ce97efbf 401daf96330a9c3f 4015ce900d1a8c6a]",
   "Qwen-32B / LP=2048 LD=128: DGX A100 out=2048 fits=true tps/time/energy=[4088b173304be012 4004bc071cda3130 3fd66cbe0e7a2bb7 3fb1f0980b94efc6 3fab79611372a978 3eeb7cdfd9d7bdba]",
   "Qwen-32B / LP=2048 LD=128: TPUv4 out=2048 fits=true tps/time/energy=[408649937d247861 4006f8fd40eb3c23 3fd2aff3b6bb246e 3fade652bdf83a4a 3fab9b040decea66 3ee5fd7fe1796495]",
   "Qwen-32B / LP=2048 LD=128: AttAcc out=2048 fits=true tps/time/energy=[408df6251c1880da 400116ae27ace87c 3fd66cbe0e7a2bb7 3fb77cdf1d0069f4 3f88db2fc3d732e7 3eeb7cdfd9d7bdba]",
   "Qwen-32B / LP=2048 LD=128: Cerebras out=2048 fits=false tps/time/energy=[407127659874f662 401dd8f282d1f6a7 3fd2aff3b6bb246e 3fc07c3c667c1106 3ff106c46c0a7d22 0000000000000000]",
   "Qwen-32B / LP=2048 LD=2048: token-grained units=65536 tokens=65536 out=32768 makespan=3fcc047ddd9ad4cb busy=[402192432d9ba825 3ff9af3cad189085 3ffd4c9f9e73fc73 4022fc78a8a4ffa6 402bf08d5d370e92 4024862d39825dec]",
   "Qwen-32B / LP=2048 LD=2048: token-grained+block units=65536 tokens=65536 out=32768 makespan=3fcdc386b36e4765 busy=[402192432d9ba825 3ff9af3cad189085 3ffd4c9f9e73fc73 4022fc78a8a4ffa6 402bf08d5d370e92 4024862d39825dec]",
   "Qwen-32B / LP=2048 LD=2048: sequence-grained units=16 tokens=65536 out=32768 makespan=4008d3749ac5a7c0 busy=[402192432d9bb923 3ff9ae29cc5a0e0f 3ffd426c4762257c 4023da60c270e1a7 402bf08d5d3729ae 4024862d39826602]",
   "Qwen-32B / LP=2048 LD=2048: DGX A100 out=32768 fits=true tps/time/energy=[409ebdf95d486c61 4030a799f127815f 3fa57e01fa43f897 3f81319b2e9cc6df 3fb5569508d5f826 3ee8443d9e50757e]",
   "Qwen-32B / LP=2048 LD=2048: TPUv4 out=32768 fits=true tps/time/energy=[40964f77b860842f 4036f2ec41aa9828 3fa1e901a5e34f28 3f7ca802a3054b74 3fb5d9f5194151ac 3ee369cae50d2acc]",
   "Qwen-32B / LP=2048 LD=2048: AttAcc out=32768 fits=true tps/time/energy=[40b529913b2cef86 401831a2711ab780 3fa57e01fa43f897 3f90ee4cf48c2096 3f97815c793275b3 3ee8443d9e50757e]",
   "Qwen-32B / LP=2048 LD=2048: Cerebras out=32768 fits=false tps/time/energy=[40722c8a269b6725 405c2c1163a897fe 3fa1e901a5e34f28 3fb3cfcf982c599e 3ff0e717166b2821 0000000000000000]",
];
