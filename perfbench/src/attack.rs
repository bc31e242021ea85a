//! `attack`: back-to-back seeded CFT+BR attacks on one victim, the paper's
//! unit of work.
//!
//! Set-up trains the tiny ResNet-20 victim. The run then attacks it in a
//! closed loop, one attack at a time: `AttackPipeline::run_offline`
//! (CFT+BR) then `run_online` (templating, matching, placement,
//! hammering, evaluation), restoring the base weights between attacks.
//! Attack `i` templates its DRAM from `sub_seed(seed, i)`. The offline
//! phase does not depend on that seed, so every attack must reproduce
//! attack 0's offline result, which also checks the restore.

use crate::report::{median, quantile, ratio, RunResult};
use crate::trace::Tracer;
use crate::{sub_seed, train_victim, Args, SETUP_REPS, TARGET_LABEL, TRIGGER_PATCH};
use rhb_core::cft::CftConfig;
use rhb_core::groupsel::{group_sort_select, GroupPlan};
use rhb_core::metrics::{attack_success_rate, test_accuracy};
use rhb_core::objective::Objective;
use rhb_core::pipeline::{AttackMethod, AttackPipeline, OfflineReport, OnlineReport};
use rhb_core::trigger::Trigger;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::optim::{Sgd, SgdConfig};
use rhb_nn::weightfile::WeightFile;
use std::time::Instant;

/// Attacks every pass runs, however short.
const MIN_ATTACKS: usize = 2;
/// Repetitions of each layer-probe call; medians are reported.
const PROBE_REPS: usize = 20;
/// Unrecorded probe rounds first, so the probe times the warm state CFT
/// runs in rather than cold caches and scratch buffers.
const PROBE_WARMUP: usize = 3;

/// The CFT+BR configuration `AttackPipeline::run_offline` builds inline;
/// mirrored here to count its calls and to probe the same batch.
fn cft_config(budget: usize) -> CftConfig {
    CftConfig {
        iterations: 150,
        bit_reduction_period: 25,
        eta: 0.5,
        epsilon: 0.005,
        ..CftConfig::cft_br(budget, TARGET_LABEL)
    }
}

/// `Objective::evaluate` calls in one CFT run: one per iteration for the
/// weight gradients, one more per iteration when the trigger is learned,
/// one per bit-reduction checkpoint plus one after the final reduction,
/// and one to harvest alternates.
pub fn evaluate_calls(cfg: &CftConfig) -> usize {
    let per_iteration = 1 + usize::from(cfg.update_trigger);
    let reductions = if cfg.bit_reduction {
        cfg.iterations / cfg.bit_reduction_period.max(1) + 1
    } else {
        0
    };
    cfg.iterations * per_iteration + reductions + 1
}

/// The offline result every attack of a run must reproduce.
type OfflineKey = (u64, f64, f64);

fn offline_key(o: &OfflineReport) -> OfflineKey {
    (o.n_flip, o.attack_success_rate, o.test_accuracy)
}

/// The paper's bars (as in the pipeline tests); `Err` names the first miss.
fn check(offline: &OfflineReport, online: &OnlineReport, first: &OfflineKey) -> Result<(), String> {
    if online.r_match < 95.0 {
        return Err(format!("r_match {:.2}% below 95%", online.r_match));
    }
    if online.n_matched != online.n_targets || online.verified_flips != online.n_targets {
        return Err(format!(
            "{} matched and {} verified of {} targets",
            online.n_matched, online.verified_flips, online.n_targets
        ));
    }
    if (online.attack_success_rate - offline.attack_success_rate).abs() > 0.15 {
        return Err(format!(
            "online ASR {:.3} strays from offline {:.3}",
            online.attack_success_rate, offline.attack_success_rate
        ));
    }
    if offline_key(offline) != *first {
        return Err("offline phase differs from attack 0: restore or determinism broken".into());
    }
    Ok(())
}

pub fn run(args: &Args, tracer: &Tracer) -> RunResult {
    let mut result = RunResult::default();
    let (mut setups, mut pretrains) = (Vec::new(), Vec::new());
    let mut victim = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (model, pretrain_s) = train_victim();
        let mut pipe = AttackPipeline::new(model, TARGET_LABEL, args.seed);
        pipe.trigger_patch = Some(TRIGGER_PATCH);
        victim = Some(pipe);
        setups.push(start.elapsed().as_secs_f64());
        pretrains.push(pretrain_s);
    }
    let mut pipe = victim.expect("at least one set-up");
    let cfg = cft_config(pipe.default_flip_budget());

    let mut index = 0u64;
    let mut first: Option<OfflineKey> = None;
    let mut untraced_p50_ms = 0.0;
    for (traced, secs) in args.passes() {
        tracer.set_enabled(traced);
        let (mut walls, mut offs, mut ons, mut scores, mut shares) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        // Starts another attack only if one more, as long as the median
        // so far, still ends within the pass.
        while walls.len() < MIN_ATTACKS || start.elapsed().as_secs_f64() + median(&walls) <= secs {
            pipe.seed = sub_seed(args.seed, index);
            let ((offline, online, off_s, on_s), wall) =
                tracer.timed("attack", index, None, |slot| {
                    let (offline, off_s) = tracer.timed("core.offline", index, slot, |_| {
                        pipe.run_offline(AttackMethod::CftBr)
                    });
                    let (online, on_s) =
                        tracer.timed("core.online", index, slot, |_| pipe.run_online(&offline));
                    (offline, online, off_s, on_s)
                });
            result.attempted += 1;
            let key = *first.get_or_insert_with(|| {
                result.set("core.r_match_pct", online.r_match, 1);
                result.set("core.online_asr", online.attack_success_rate, 1);
                result.set("core.clean_acc", online.test_accuracy, 1);
                result.note("r_match_pct", online.r_match, "%", 1);
                result.note("online_asr", online.attack_success_rate, "ratio", 1);
                result.note("clean_acc", online.test_accuracy, "ratio", 1);
                offline_key(&offline)
            });
            if let Err(why) = check(&offline, &online, &key) {
                result.fail(format!("attack {index}: {why}"));
            }
            if traced {
                let model = &mut pipe.model;
                let (_, score_s) = tracer.timed("core.score", index, None, |_| {
                    let net = model.net.as_mut();
                    let ta = test_accuracy(net, &model.test_data);
                    let asr =
                        attack_success_rate(net, &model.test_data, &offline.trigger, TARGET_LABEL);
                    (ta, asr)
                });
                scores.push(score_s * 1e3);
            }
            tracer.timed("nn.load_into", index, None, |_| {
                offline
                    .base_weights
                    .load_into(pipe.model.net.as_mut())
                    .expect("base weights match the victim")
            });
            walls.push(wall);
            offs.push(off_s);
            ons.push(on_s);
            shares.push(ratio(off_s + on_s, wall) * 100.0);
            index += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let p50_ms = median(&walls) * 1e3;
        if !traced {
            untraced_p50_ms = p50_ms;
            result.set("p50_ms", p50_ms, walls.len());
            result.set("p90_ms", quantile(&walls, 0.9) * 1e3, walls.len());
            result.set("ops_per_s", walls.len() as f64 / elapsed, walls.len());
            result.note("attack_s", median(&walls), "s", walls.len());
        } else {
            result.set("core.offline_s", median(&offs), offs.len());
            result.set("core.online_s", median(&ons), ons.len());
            result.set("core.score_ms", median(&scores), scores.len());
            result.set("core.attributed_pct", median(&shares), shares.len());
            let overhead = (ratio(p50_ms, untraced_p50_ms) - 1.0) * 100.0;
            result.set("bench.trace_overhead_pct", overhead, walls.len());
        }
    }
    result.set("setup_s", median(&setups), setups.len());
    result.note("setup_s", median(&setups), "s", setups.len());
    result.set("models.pretrain_s", median(&pretrains), pretrains.len());

    if args.trace {
        probe(&mut pipe, &cfg, tracer, &mut result);
    }
    result
}

/// Times CFT's public per-step calls on the victim and CFT batch
/// `run_offline` uses, then restores the victim.
fn probe(pipe: &mut AttackPipeline, cfg: &CftConfig, tracer: &Tracer, result: &mut RunResult) {
    let trigger = Trigger::black_square(pipe.trigger_mask());
    let model = &mut pipe.model;
    let base = WeightFile::from_network(model.net.as_ref());
    let indices: Vec<usize> = (0..cfg.batch_size.min(model.test_data.len())).collect();
    let (batch, labels) = model.test_data.batch(&indices);
    let net = model.net.as_mut();
    let objective = Objective {
        alpha: cfg.alpha,
        target_label: cfg.target_label,
    };
    let plan = GroupPlan::new(net.num_params(), cfg.n_flip);
    let mut opt = Sgd::new(
        &*net,
        SgdConfig {
            lr: cfg.eta,
            momentum: 0.0,
            weight_decay: 0.0,
        },
    );
    let (mut evaluate, mut select, mut step, mut fwd, mut bwd) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..(PROBE_WARMUP + PROBE_REPS) as u64 {
        if rep == PROBE_WARMUP as u64 {
            for times in [&mut evaluate, &mut select, &mut step, &mut fwd, &mut bwd] {
                times.clear();
            }
        }
        net.zero_grad();
        let (_, s) = tracer.timed("core.evaluate", rep, None, |_| {
            objective.evaluate(net, &batch, &labels, &trigger)
        });
        evaluate.push(s * 1e3);
        let (mask, s) = tracer.timed("core.group_select", rep, None, |_| {
            group_sort_select(&*net, &plan)
        });
        select.push(s * 1e3);
        let (_, s) = tracer.timed("core.step_masked", rep, None, |_| {
            opt.step_masked(net, &mask)
        });
        step.push(s * 1e3);
        net.zero_grad();
        let (logits, s) = tracer.timed("nn.fwd_frozen", rep, None, |_| {
            net.forward(&batch, Mode::Frozen)
        });
        fwd.push(s * 1e3);
        let loss = cross_entropy(&logits, &labels);
        let (_, s) = tracer.timed("nn.bwd", rep, None, |_| net.backward(&loss.grad_logits));
        bwd.push(s * 1e3);
    }
    base.load_into(net).expect("base weights match the victim");

    let calls = evaluate_calls(cfg);
    let evaluate_ms = median(&evaluate);
    result.set("core.evaluate_ms", evaluate_ms, evaluate.len());
    result.set("core.evaluate_calls", calls as f64, 1);
    result.note(
        "core.evaluate_calls (computed from CftConfig)",
        calls as f64,
        "count",
        1,
    );
    result.set("core.group_select_ms", median(&select), select.len());
    result.set("core.step_masked_ms", median(&step), step.len());
    result.set("nn.fwd_frozen_ms", median(&fwd), fwd.len());
    result.set("nn.bwd_ms", median(&bwd), bwd.len());
    // An estimate: the computed call count times the probed per-call
    // cost, over the measured offline time. Probe and CFT timings differ
    // by noise, so the product can overshoot; the share is capped at 1.
    let offline_ms = result.value("core.offline_s") * 1e3;
    let share = ratio(calls as f64 * evaluate_ms, offline_ms);
    result.set("core.evaluate_share", share.min(1.0), evaluate.len());
    result.note(
        "core.evaluate_share (uncapped)",
        share,
        "ratio",
        evaluate.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_calls_match_the_pipeline_config() {
        // 150 iterations x (trigger step + weight step) + 6 periodic and 1
        // final bit-reduction checkpoints + 1 alternate harvest.
        assert_eq!(evaluate_calls(&cft_config(5)), 308);
        let plain = CftConfig {
            bit_reduction: false,
            update_trigger: false,
            ..cft_config(5)
        };
        assert_eq!(evaluate_calls(&plain), 151);
    }
}
