//! `rl_tlt`: the token-level TLT RL run — speculative rollouts with an
//! adaptively trained drafter, GRPO updates of the micro model.
//!
//! The untraced run calls [`tlt::run_token_experiment`]. The traced run
//! re-drives the same loop call by call through the public functions of
//! `tlt-model`, `tlt-rollout`, `tlt-draft`, `tlt-rl` and `tlt-workload`, one
//! span per call, and must reproduce the untraced report bit for bit.

use crate::metrics::Values;
use crate::probe::{Layer, Probe};
use crate::{Run, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlt::{DrafterAccuracyPoint, TokenExperimentConfig, TokenExperimentReport};
use tlt_draft::{
    DataBuffer, DataBufferConfig, DrafterTrainer, FeatureSource, TrainerConfig, TrainingSample,
};
use tlt_model::{TinyLm, TokenId};
use tlt_rl::{PolicyTrainer, RolloutGroup};
use tlt_rollout::{speculative_generate, SpecDrafter};
use tlt_workload::TaskGenerator;

/// Independent RL trainings per repetition. The seed sets the model's
/// initial weights as well as its prompts, and acceptance varies with the
/// initial weights, so one repetition averages several trainings.
pub const RUNS: u64 = 8;

/// The benchmark's RL trainings: `TokenExperimentConfig::small` scaled to
/// 5 steps x 8 prompts x 8 responses of up to 128 tokens, each on its own
/// seed derived from the workload seed.
pub fn configs(seed: u64) -> Vec<TokenExperimentConfig> {
    (0..RUNS)
        .map(|j| TokenExperimentConfig {
            num_steps: 5,
            prompts_per_step: 8,
            group_size: 8,
            max_new_tokens: 128,
            seed: seed.wrapping_mul(RUNS).wrapping_add(j),
            ..TokenExperimentConfig::small(true, true)
        })
        .collect()
}

/// The `rl_tlt` workload.
pub struct RlTlt {
    configs: Vec<TokenExperimentConfig>,
    reference: Vec<TokenExperimentReport>,
}

impl RlTlt {
    /// The workload over `configs` (speculative rollouts and drafter
    /// adaptation must both be on: that is the path the traced run
    /// re-drives).
    pub fn new(configs: Vec<TokenExperimentConfig>) -> Self {
        assert!(
            configs.iter().all(|c| c.use_speculative && c.adapt_drafter),
            "rl_tlt re-drives the speculative, adaptive-drafter loop only"
        );
        RlTlt {
            configs,
            reference: Vec::new(),
        }
    }

    fn summarize(
        &mut self,
        reports: Vec<TokenExperimentReport>,
        wall_s: f64,
        part_walls: Vec<f64>,
    ) -> Result<Run, String> {
        let mut run = Run {
            wall_s,
            part_walls,
            tokens: 0,
            requests: 0,
            attempted: 0,
            failed: 0,
            accept_len: 0.0,
        };
        let mut accept_sum = 0.0;
        for (config, report) in self.configs.iter().zip(&reports) {
            let steps = config.num_steps;
            if report.reward_curve.len() != steps
                || report.kl_curve.len() != steps
                || report.response_len_curve.len() != steps
                || report.accept_length_curve.len() != steps
            {
                return Err(format!(
                    "RL run reported curves of the wrong length for {steps} steps"
                ));
            }
            if report.generated_tokens == 0 || report.rollout_target_steps == 0 {
                return Err("RL run generated no tokens".to_string());
            }
            if report.drafter_accuracy.is_empty() {
                return Err("adaptive RL run recorded no drafter accuracy".to_string());
            }
            // A step fails when its update produced a non-finite reward or
            // KL, or it generated nothing to learn from.
            run.failed += (0..steps)
                .filter(|&s| {
                    !report.reward_curve[s].is_finite()
                        || !report.kl_curve[s].is_finite()
                        || report.response_len_curve[s] <= 0.0
                })
                .count() as u64;
            run.attempted += steps as u64;
            run.tokens += report.generated_tokens as u64;
            run.requests += (steps * config.prompts_per_step * config.group_size) as u64;
            accept_sum += report.accept_length_curve.iter().sum::<f64>();
        }
        run.accept_len = accept_sum / run.attempted as f64;
        if self.reference.is_empty() {
            self.reference = reports;
        } else {
            for (first, report) in self.reference.iter().zip(&reports) {
                same_report(first, report)?;
            }
        }
        Ok(run)
    }
}

impl Workload for RlTlt {
    fn setup(&mut self) -> Result<(), String> {
        // The model and drafter construction the runs themselves repeat.
        for config in &self.configs {
            std::hint::black_box(init(config, &mut Probe::untimed()));
        }
        Ok(())
    }

    fn run(&mut self) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let (reports, part_walls) = self
            .configs
            .iter()
            .map(|c| {
                let part = std::time::Instant::now();
                let report = tlt::run_token_experiment(c).0;
                (report, part.elapsed().as_secs_f64())
            })
            .unzip();
        let wall_s = start.elapsed().as_secs_f64();
        self.summarize(reports, wall_s, part_walls)
    }

    fn run_traced(&mut self, probe: &mut Probe, values: &mut Values) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let (reports, updates): (Vec<_>, Vec<_>) =
            self.configs.iter().map(|c| redrive(c, probe)).unzip();
        let wall_s = start.elapsed().as_secs_f64();
        let tokens: usize = reports.iter().map(|r| r.generated_tokens).sum();
        let target_steps: usize = reports.iter().map(|r| r.rollout_target_steps).sum();
        let update_tokens: usize = updates.iter().flatten().sum();
        let top3 = reports
            .iter()
            .map(|r| final_top3(&r.drafter_accuracy))
            .sum::<f64>()
            / reports.len() as f64;
        let rollout = probe.stats(Layer::Rollout);
        let features = probe.stats(Layer::DraftFeatures);
        let train = probe.stats(Layer::DraftTrain);
        let eval = probe.stats(Layer::DraftEval);
        let update = probe.stats(Layer::RlUpdate);
        values.set("rollout.s", rollout.secs());
        values.set("rollout.calls", rollout.all.calls as f64);
        values.set(
            "rollout.us_per_tok",
            rollout.secs() * 1e6 / tokens.max(1) as f64,
        );
        values.set("rollout.target_steps", target_steps as f64);
        values.set(
            "rollout.us_per_target_step",
            rollout.secs() * 1e6 / target_steps.max(1) as f64,
        );
        values.set("rollout.share", rollout.secs() / wall_s);
        values.set("draft.features_s", features.secs());
        values.set("draft.train_s", train.secs());
        values.set("draft.train_iters", train.all.calls as f64);
        values.set(
            "draft.ms_per_iter",
            train.secs() * 1e3 / train.all.calls.max(1) as f64,
        );
        values.set("draft.eval_s", eval.secs());
        values.set(
            "draft.share",
            (features.secs() + train.secs() + eval.secs()) / wall_s,
        );
        values.set("draft.top3", top3);
        values.set("rl.update_s", update.secs());
        values.set(
            "rl.update_tok_per_s",
            update_tokens as f64 / update.secs().max(1e-12),
        );
        values.set("rl.share", update.secs() / wall_s);
        self.summarize(reports, wall_s, vec![wall_s])
    }
}

/// Top-3 accuracy of the last drafter evaluation (taken after the final
/// target update).
fn final_top3(points: &[DrafterAccuracyPoint]) -> f64 {
    points.last().map_or(0.0, |p| p.top3_accuracy)
}

/// Everything the RL loop constructs before its first step.
struct Init {
    target: TinyLm,
    policy_trainer: PolicyTrainer,
    drafter_trainer: DrafterTrainer,
    buffer: DataBuffer,
    task_gen: TaskGenerator,
    rng: StdRng,
}

fn init(config: &TokenExperimentConfig, probe: &mut Probe) -> Init {
    probe.span(Layer::ModelInit, None, || {
        let target = TinyLm::new(config.model, config.seed);
        let reference = target.reference_copy();
        let policy_trainer = PolicyTrainer::new(reference, config.rl);
        let drafter_trainer =
            DrafterTrainer::new(&target, TrainerConfig::default(), config.seed + 1);
        let buffer = DataBuffer::new(DataBufferConfig {
            retained_long_samples: 16,
            ..DataBufferConfig::default()
        });
        Init {
            target,
            policy_trainer,
            drafter_trainer,
            buffer,
            task_gen: TaskGenerator::new(config.model.vocab_size),
            rng: StdRng::seed_from_u64(config.seed),
        }
    })
}

/// `tlt::run_token_experiment`'s loop (speculative rollouts, adaptive
/// drafter), one probe span per call into a layer. Returns the report and
/// each step's update token count.
pub fn redrive(
    config: &TokenExperimentConfig,
    probe: &mut Probe,
) -> (TokenExperimentReport, Vec<usize>) {
    let Init {
        mut target,
        mut policy_trainer,
        mut drafter_trainer,
        mut buffer,
        mut task_gen,
        mut rng,
    } = init(config, probe);
    let vocab = task_gen.vocabulary();
    let mut report = TokenExperimentReport {
        reward_curve: Vec::new(),
        kl_curve: Vec::new(),
        response_len_curve: Vec::new(),
        accept_length_curve: Vec::new(),
        drafter_accuracy: Vec::new(),
        rollout_target_steps: 0,
        generated_tokens: 0,
    };
    let mut update_tokens = Vec::with_capacity(config.num_steps);

    for step in 0..config.num_steps {
        let parent = probe.begin(Layer::RlStep, None);
        let tasks = probe.span(Layer::Tasks, parent, || {
            task_gen.generate_batch(config.prompts_per_step, &mut rng)
        });

        let mut groups = Vec::with_capacity(tasks.len());
        let mut accept_sum = 0.0;
        let mut accept_count = 0usize;
        for task in &tasks {
            let prompt = task.prompt_tokens();
            let mut responses = Vec::with_capacity(config.group_size);
            let mut rewards = Vec::with_capacity(config.group_size);
            for _ in 0..config.group_size {
                let result = probe.span(Layer::Rollout, parent, || {
                    speculative_generate(
                        &target,
                        &SpecDrafter::Learned(&drafter_trainer.drafter),
                        &prompt,
                        config.max_new_tokens,
                        config.sd_strategy,
                        config.sampling,
                        Some(vocab.eos()),
                        &mut rng,
                    )
                });
                report.rollout_target_steps += result.target_steps;
                report.generated_tokens += result.tokens.len();
                if !result.accept_lengths.is_empty() {
                    accept_sum += result.mean_accept_length();
                    accept_count += 1;
                }
                rewards.push(task.reward(&result.tokens));
                responses.push(result.tokens);
            }
            groups.push(RolloutGroup {
                prompt,
                responses,
                rewards,
            });
        }
        report.accept_length_curve.push(if accept_count == 0 {
            1.0
        } else {
            accept_sum / accept_count as f64
        });

        for (i, group) in groups.iter().enumerate().take(4) {
            if let Some(response) = group.responses.iter().max_by_key(|r| r.len()) {
                if response.len() >= 3 {
                    let mut tokens: Vec<TokenId> = group.prompt.clone();
                    tokens.extend_from_slice(response);
                    let sample = probe.span(Layer::DraftFeatures, parent, || {
                        TrainingSample::from_rollout(
                            &target,
                            FeatureSource::LastLayer,
                            &tokens,
                            response.len(),
                            step as u64,
                            i as u64,
                        )
                    });
                    buffer.push(sample);
                }
            }
        }
        for _ in 0..config.drafter_iterations_per_step {
            let batch = buffer.sample_batch(4, &mut rng);
            let metrics = probe.span(Layer::DraftTrain, parent, || {
                drafter_trainer.train_iteration(&target, &batch)
            });
            if let Some(metrics) = metrics {
                report.drafter_accuracy.push(DrafterAccuracyPoint {
                    iteration: metrics.iteration,
                    top3_accuracy: metrics.top3_accuracy,
                    after_target_update: false,
                });
            }
        }
        buffer.advance_step();

        let metrics = probe.span(Layer::RlUpdate, parent, || {
            policy_trainer.train_step(&mut target, &groups)
        });
        report.reward_curve.push(metrics.mean_reward);
        report.kl_curve.push(metrics.mean_kl);
        report.response_len_curve.push(metrics.mean_response_len);
        update_tokens.push(metrics.update_tokens);

        let eval_batch = buffer.sample_batch(4, &mut rng);
        if !eval_batch.is_empty() {
            let (_, top3) = probe.span(Layer::DraftEval, parent, || {
                drafter_trainer.evaluate(&target, &eval_batch)
            });
            report.drafter_accuracy.push(DrafterAccuracyPoint {
                iteration: drafter_trainer.iterations(),
                top3_accuracy: top3,
                after_target_update: true,
            });
        }
        probe.end(parent);
    }
    (report, update_tokens)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks two RL reports are identical bit for bit.
pub fn same_report(a: &TokenExperimentReport, b: &TokenExperimentReport) -> Result<(), String> {
    let curves = [
        ("reward", &a.reward_curve, &b.reward_curve),
        ("kl", &a.kl_curve, &b.kl_curve),
        ("response_len", &a.response_len_curve, &b.response_len_curve),
        (
            "accept_length",
            &a.accept_length_curve,
            &b.accept_length_curve,
        ),
    ];
    for (name, x, y) in curves {
        if !same_bits(x, y) {
            return Err(format!("RL {name} curves differ between runs"));
        }
    }
    let points_equal = a.drafter_accuracy.len() == b.drafter_accuracy.len()
        && a.drafter_accuracy
            .iter()
            .zip(&b.drafter_accuracy)
            .all(|(p, q)| {
                p.iteration == q.iteration
                    && p.top3_accuracy.to_bits() == q.top3_accuracy.to_bits()
                    && p.after_target_update == q.after_target_update
            });
    if !points_equal {
        return Err("RL drafter accuracy curves differ between runs".to_string());
    }
    if a.rollout_target_steps != b.rollout_target_steps || a.generated_tokens != b.generated_tokens
    {
        return Err("RL rollout counts differ between runs".to_string());
    }
    Ok(())
}
