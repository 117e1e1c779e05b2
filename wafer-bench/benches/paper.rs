//! The paper-figure workloads: the Fig. 13 grid and Fig. 11's
//! row-activation sweep, run point by point through `ouro-sim`.

use crate::calib::Calibrator;
use crate::spans::Recorder;
use crate::{fnv1a, Outcome, Size};
use ouro_baselines::{RooflineSystem, SystemReport};
use ouro_hw::{CoreConfig, CrossbarConfig};
use ouro_model::{zoo, ModelConfig};
use ouro_pipeline::{Granularity, PipelineScheduler};
use ouro_sim::{BuildError, OuroborosConfig, OuroborosSystem};
use ouro_workload::{LengthConfig, Trace, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the simulated hardware (defect map and mapping anneal), pinned
/// to the figures' own seed. The workload seed drives only the traces.
const HW_SEED: u64 = 2026;

/// One figure point: a model, a trace and the configurations to build.
struct Point {
    model: ModelConfig,
    label: String,
    trace: Trace,
    /// Configurations tried in order until one builds; Fig. 11 has one.
    configs: Vec<OuroborosConfig>,
    /// A Fig. 13 point: evaluate the baselines too, and spill to more
    /// wafers until Ouroboros builds. Otherwise (Fig. 11) a build error is
    /// the point's outcome, printed as "capacity-bound".
    spill: bool,
}

/// A paper workload: its points, prepared by set-up.
pub struct Paper {
    points: Vec<Point>,
}

fn decoder_models() -> Vec<ModelConfig> {
    vec![zoo::llama_13b(), zoo::baichuan_13b(), zoo::llama_32b(), zoo::qwen_32b()]
}

fn baseline_systems() -> Vec<RooflineSystem> {
    vec![
        ouro_baselines::dgx_a100(8),
        ouro_baselines::tpu_v4(),
        ouro_baselines::attacc(),
        ouro_baselines::cerebras_wse2(),
    ]
}

/// The configurations `ouro_bench::build_ouroboros` tries: one to four
/// wafers, 2 000 anneal moves.
fn spill_configs() -> Vec<OuroborosConfig> {
    (1..=4)
        .map(|wafers| {
            let mut cfg = if wafers == 1 {
                OuroborosConfig::single_wafer()
            } else {
                OuroborosConfig::multi_wafer(wafers)
            };
            cfg.mapping_iterations = 2_000;
            cfg.seed = HW_SEED;
            cfg
        })
        .collect()
}

impl Paper {
    /// Fig. 13: 4 decoder models × the 4 paper length mixes, 200 requests.
    pub fn suite(seed: u64, size: Size, rec: &mut Recorder) -> Paper {
        let (models, requests) = match size {
            Size::Full => (decoder_models(), 200),
            Size::Tiny => (vec![zoo::llama_13b()], 8),
        };
        let mut points = Vec::new();
        rec.span("workload.generate", |_| {
            let gen = TraceGenerator::new(seed);
            for model in &models {
                for (label, config) in LengthConfig::paper_suite() {
                    points.push(Point {
                        model: model.clone(),
                        trace: gen.generate(&config, requests),
                        label,
                        configs: spill_configs(),
                        spill: true,
                    });
                }
            }
        });
        Paper { points }
    }

    /// Fig. 11: LLaMA-13B, 100 × fixed(2048, 2048), row activation
    /// 1/128 … 1/4. The size is the figure's own.
    pub fn rowact(seed: u64, size: Size, rec: &mut Recorder) -> Paper {
        let requests = match size {
            Size::Full => 100,
            Size::Tiny => 4,
        };
        let model = zoo::llama_13b();
        let trace = rec.span("workload.generate", |_| {
            TraceGenerator::new(seed).generate(&LengthConfig::fixed(2048, 2048), requests)
        });
        let points = [128u32, 64, 32, 16, 8, 4]
            .into_iter()
            .map(|denom| {
                let mut cfg = OuroborosConfig::single_wafer();
                cfg.core = CoreConfig::with_crossbar(CrossbarConfig::with_row_activation(1.0 / denom as f64));
                cfg.seed = HW_SEED;
                Point {
                    model: model.clone(),
                    label: format!("1/{denom}"),
                    trace: trace.clone(),
                    configs: vec![cfg],
                    spill: false,
                }
            })
            .collect();
        Paper { points }
    }

    /// Runs every point once.
    pub fn repeat(&self, rec: &mut Recorder, cal: &mut Calibrator, inject_failure: bool) -> Outcome {
        let mut out = Outcome::default();
        let mut probe_ns = 0u64;
        let mut cal_ns = 0u64;
        let mut spoil = inject_failure;
        let t_repeat = Instant::now();
        for (i, point) in self.points.iter().enumerate() {
            rec.set_cell(i);
            let t_point = Instant::now();
            let result = rec.span("point", |rec| run_point(point, rec));
            let mut point_ns = t_point.elapsed().as_nanos() as u64;
            if let Some(probe) = result.probe_ns {
                // The separate pipeline probe is not part of the workload.
                probe_ns += probe;
                point_ns -= probe;
            }
            out.point_s.push(point_ns as f64 * 1e-9);
            cal_ns += cal.tick();
            out.attempted += 1;
            out.layers.add("sim.builds", result.builds as f64);
            out.layers.add("sim.builds_capacity_bound", result.capacity_bound as f64);
            out.layers.add("pipeline.stage_token_cells", result.stage_token_cells as f64);
            let mut reports = result.reports;
            if spoil {
                // Spoil the first report there is, so the check must fire.
                if let Some(r) = reports.last_mut() {
                    r.throughput_tokens_per_s = f64::NAN;
                    spoil = false;
                }
            }
            let built = result.ours.as_ref().is_some_and(|o| o.is_ok() || !point.spill);
            if let Some(problem) = check_point(&reports, built) {
                out.failed += 1;
                out.failures.push(format!("{} / {}: {problem}", point.model.name, point.label));
            }
            match &result.ours {
                Some(Ok(())) => {
                    out.tokens += point.trace.total_tokens();
                    out.layers.add("sim.points", 1.0);
                }
                Some(Err(e)) => out.digest = fnv1a(out.digest, format!("capacity-bound {e}").as_bytes()),
                None => {}
            }
            for r in &reports {
                out.digest = fnv1a(out.digest, format!("{r:?}").as_bytes());
            }
            out.layers.add("baselines.evaluations", result.evaluations as f64);
        }
        out.wall_s = (t_repeat.elapsed().as_nanos() as u64 - probe_ns - cal_ns) as f64 * 1e-9;
        if rec.is_on() {
            for (metric, span) in [
                ("sim.build_s", "sim.build"),
                ("sim.simulate_s", "sim.simulate"),
                ("pipeline.schedule_s", "pipeline.schedule"),
                ("baselines.evaluate_s", "baselines.evaluate"),
            ] {
                out.layers.add(metric, rec.total_s(span));
            }
            // KV replay plus the (negligible) energy model: everything
            // `simulate` does besides the pipeline schedule.
            out.layers
                .add("kvcache.replay_s", rec.total_s("sim.simulate") - rec.total_s("pipeline.schedule"));
        }
        out
    }
}

struct PointResult {
    /// Baseline reports, then Ouroboros' report when it built.
    reports: Vec<SystemReport>,
    /// Whether Ouroboros built, or the last build error.
    ours: Option<Result<(), BuildError>>,
    builds: u64,
    capacity_bound: u64,
    evaluations: u64,
    stage_token_cells: u64,
    probe_ns: Option<u64>,
}

fn run_point(point: &Point, rec: &mut Recorder) -> PointResult {
    let mut res = PointResult {
        reports: Vec::new(),
        ours: None,
        builds: 0,
        capacity_bound: 0,
        evaluations: 0,
        stage_token_cells: 0,
        probe_ns: None,
    };
    if point.spill {
        for sys in baseline_systems() {
            let r =
                rec.span("baselines.evaluate", |_| sys.evaluate(&point.model, &point.trace, &point.label));
            res.reports.push(r);
            res.evaluations += 1;
        }
    }
    for cfg in &point.configs {
        res.builds += 1;
        match rec.span("sim.build", |_| OuroborosSystem::new(cfg.clone(), &point.model)) {
            Ok(sys) => {
                let r = rec.span("sim.simulate", |_| sys.simulate_labeled(&point.trace, &point.label));
                res.reports.push(r);
                res.ours = Some(Ok(()));
                if rec.is_on() {
                    let t = Instant::now();
                    let sched = PipelineScheduler::new(sys.model(), sys.stage_times());
                    let granularity = if sys.config().tgp {
                        Granularity::finest_for(sys.model())
                    } else {
                        Granularity::Sequence
                    };
                    rec.span("pipeline.schedule", |_| black_box(sched.run(&point.trace, granularity)));
                    res.stage_token_cells = sched.num_stages() as u64 * point.trace.total_tokens();
                    res.probe_ns = Some(t.elapsed().as_nanos() as u64);
                }
                break;
            }
            Err(e) => {
                res.capacity_bound += 1;
                res.ours = Some(Err(e));
            }
        }
    }
    res
}

/// The output check of one point: Ouroboros must have built (unless a
/// build error is the figure's outcome) with finite, positive throughput
/// and energy; a baseline must be finite, and positive when it fits.
fn check_point(reports: &[SystemReport], built: bool) -> Option<String> {
    if !built {
        return Some("no configuration builds".to_string());
    }
    for r in reports {
        let (tps, e) = (r.throughput_tokens_per_s, r.energy_per_token_j());
        let ok = tps.is_finite() && e.is_finite() && (!r.fits_in_memory || (tps > 0.0 && e > 0.0));
        if !ok {
            return Some(format!("{}: throughput {tps} tokens/s, energy {e} J/token", r.system));
        }
    }
    None
}
