//! `online`: back-to-back DRAM online phases on synthetic weight images.
//!
//! `attack` gives `dram` no measurable share of its time. Matching scans
//! every templated cell for each target (`find_matching_page`), so its
//! cost grows with targets x cells, and only this workload lets a `dram`
//! change show. Each phase templates the paper's full 128 MB buffer
//! (`FlipProfile::template`, 32,768 pages), then runs `OnlineAttack`
//! (extended templating as in `AttackPipeline::run_online`, plus a 20%
//! flaky-flip chaos mix so recovery runs) `execute_adaptive` against a
//! page-aligned 100-page image with 100 targets: the paper's maximum
//! N_flip, one per page, high-order bits, each in the direction its
//! stored bit permits.
//!
//! Phase `i` draws its own input from `sub_seed(seed, i)`, outside its
//! timing, so a run's time averages over as many inputs as it runs
//! phases. Set-up runs one warm-up phase. The reported outcome, the mean
//! verified share of the first `OUTCOME_PHASES` phases, repeats exactly
//! for a seed.

use crate::report::{mean, median, quantile, ratio, RunResult};
use crate::trace::Tracer;
use crate::{sub_seed, Args, SETUP_REPS};
use rhb_dram::online::{AppliedFlip, TargetBit, PAGE_SIZE};
use rhb_dram::{
    AdaptiveOutcome, ChaosConfig, ChipModel, FlipProfile, HammerConfig, OnlineAttack,
    RecoveryPolicy, RunClass,
};
use rhb_nn::init::Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Pages of each synthetic weight image, one target per page.
pub const FILE_PAGES: usize = 100;
/// The paper's 128 MB templated buffer.
pub const PROFILE_PAGES: usize = 32_768;
/// Extra pages matched lazily, as `AttackPipeline::run_online` does.
const EXTENDED_PAGES: usize = 4_000_000;
/// Phases every run completes; their verified shares give the outcome.
const OUTCOME_PHASES: usize = 8;
/// Repetitions of each probed call per traced phase; medians are used.
const PROBE_REPS: usize = 3;

/// Everything one online phase is given.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseInput {
    pub seed: u64,
    pub image: Vec<u8>,
    pub targets: Vec<TargetBit>,
    /// One substitute bit per target page, for recovery's fallback stage.
    pub alternates: HashMap<usize, Vec<TargetBit>>,
}

/// A high-order bit (4..=7) of a random byte of `page`, wanted in the
/// direction its stored value permits.
fn pick(rng: &mut Rng, image: &[u8], page: usize) -> TargetBit {
    let byte = rng.below(PAGE_SIZE);
    let bit = 4 + rng.below(4);
    let stored_zero = image[page * PAGE_SIZE + byte] & (1 << bit) == 0;
    TargetBit {
        file_page: page,
        bit_offset: byte * 8 + bit,
        zero_to_one: stored_zero,
    }
}

pub fn phase_input(seed: u64) -> PhaseInput {
    let mut rng = Rng::seed_from(seed);
    let image: Vec<u8> = (0..FILE_PAGES * PAGE_SIZE)
        .map(|_| rng.below(256) as u8)
        .collect();
    let targets: Vec<TargetBit> = (0..FILE_PAGES)
        .map(|page| pick(&mut rng, &image, page))
        .collect();
    let alternates = (0..FILE_PAGES)
        .map(|page| (page, vec![pick(&mut rng, &image, page)]))
        .collect();
    PhaseInput {
        seed,
        image,
        targets,
        alternates,
    }
}

/// The executor one phase runs, and its templating time (s): a fresh
/// template, extended templating and a 20% flaky-flip chaos mix.
fn build(
    input: &PhaseInput,
    tracer: &Tracer,
    id: u64,
    parent: Option<usize>,
) -> (OnlineAttack, f64) {
    let (profile, template_s) = tracer.timed("dram.template", id, parent, |_| {
        FlipProfile::template(ChipModel::online_ddr4(), PROFILE_PAGES, input.seed)
    });
    let attack = OnlineAttack::new(profile, HammerConfig::default())
        .expect("the default pattern flips the online chip")
        .with_extended_templating(EXTENDED_PAGES, input.seed ^ 0xd1a5)
        .with_chaos(ChaosConfig {
            flip_flakiness: 0.2,
            ..ChaosConfig::seeded(input.seed)
        });
    (attack, template_s)
}

/// Whether `output` is `input` with exactly the `applied` flips toggled.
pub fn bytes_match(input: &[u8], output: &[u8], applied: &[AppliedFlip]) -> bool {
    let mut expected = input.to_vec();
    for f in applied {
        let byte = f.file_page * PAGE_SIZE + f.bit_offset / 8;
        match expected.get_mut(byte) {
            Some(b) => *b ^= 1 << (f.bit_offset % 8),
            None => return false,
        }
    }
    expected == output
}

fn check(input: &PhaseInput, output: &[u8], adaptive: &AdaptiveOutcome) -> Result<(), String> {
    if !bytes_match(&input.image, output, &adaptive.outcome.applied) {
        return Err("weight bytes differ from the input beyond the applied flips".into());
    }
    if adaptive.classification == RunClass::Failed {
        return Err(format!(
            "classified failed: {} of {} targets verified",
            adaptive.verified_targets,
            input.targets.len()
        ));
    }
    Ok(())
}

/// What one phase produced and how long it and its templating took (s).
struct Phase {
    adaptive: AdaptiveOutcome,
    bytes: Vec<u8>,
    wall_s: f64,
    template_s: f64,
}

/// Runs `execute_adaptive` under `policy` on a copy of the input image.
fn execute(
    attack: &mut OnlineAttack,
    input: &PhaseInput,
    policy: &RecoveryPolicy,
) -> (AdaptiveOutcome, Vec<u8>) {
    let mut bytes = input.image.clone();
    let adaptive = attack.execute_adaptive(&mut bytes, &input.targets, &input.alternates, policy);
    (adaptive, bytes)
}

/// One phase: template, build, `execute_adaptive`.
fn phase(input: &PhaseInput, tracer: &Tracer, id: u64) -> Phase {
    let ((adaptive, bytes, template_s), wall_s) = tracer.timed("online.phase", id, None, |slot| {
        let (mut attack, template_s) = build(input, tracer, id, slot);
        let ((adaptive, bytes), _) = tracer.timed("dram.execute_adaptive", id, slot, |_| {
            execute(&mut attack, input, &RecoveryPolicy::default())
        });
        (adaptive, bytes, template_s)
    });
    Phase {
        adaptive,
        bytes,
        wall_s,
        template_s,
    }
}

/// Per-stage times (ms) and counts of the traced phases.
#[derive(Default)]
struct Split {
    template_ms: Vec<f64>,
    match_ms: Vec<f64>,
    place_ms: Vec<f64>,
    hammer_ms: Vec<f64>,
    /// `execute_adaptive` with minus without recovery, one per probe pair;
    /// below 0 when recovery is cheaper than the noise between calls.
    recovery_raw_ms: Vec<f64>,
    cells: Vec<f64>,
    match_frac: Vec<f64>,
    retries: Vec<f64>,
    fallbacks: Vec<f64>,
    rounds: Vec<f64>,
}

impl Split {
    /// Outside the phase's span, rebuilds the phase's executor from the
    /// same seed and, on a fresh copy of it each time, `PROBE_REPS` times
    /// drives match, place and hammer one at a time and runs
    /// `execute_adaptive` without and then with recovery. Each such pair,
    /// run back to back, gives one sample of recovery's cost.
    fn probe(&mut self, input: &PhaseInput, done: &Phase, tracer: &Tracer, id: u64) {
        let (executor, _) = build(input, &Tracer::new(), id, None);
        let (mut matches, mut places, mut hammers) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let mut probe = executor.clone();
            let mut scratch = input.image.clone();
            let (matching, s) = tracer.timed("dram.match", id, None, |_| {
                probe.match_targets(FILE_PAGES, &input.targets)
            });
            matches.push(s * 1e3);
            let (_, s) = tracer.timed("dram.place", id, None, |_| {
                probe.place(FILE_PAGES, &matching)
            });
            places.push(s * 1e3);
            let (_, s) = tracer.timed("dram.hammer", id, None, |_| {
                probe.hammer(&mut scratch, &matching)
            });
            hammers.push(s * 1e3);
            // Every copy matches the same way; record the first.
            if hammers.len() == 1 {
                self.cells.push(probe.profile().total_flips() as f64);
                self.match_frac.push(ratio(
                    matching.matched.len() as f64,
                    input.targets.len() as f64,
                ));
            }
            let pair = [
                (RecoveryPolicy::disabled(), "dram.execute_plain"),
                (RecoveryPolicy::default(), "dram.execute_adaptive"),
            ]
            .map(|(policy, name)| {
                let mut probe = executor.clone();
                tracer
                    .timed(name, id, None, |_| execute(&mut probe, input, &policy))
                    .1
            });
            self.recovery_raw_ms.push((pair[1] - pair[0]) * 1e3);
        }
        self.template_ms.push(done.template_s * 1e3);
        self.match_ms.push(median(&matches));
        self.place_ms.push(median(&places));
        self.hammer_ms.push(median(&hammers));
        self.retries.push(done.adaptive.retries.len() as f64);
        self.fallbacks.push(done.adaptive.fallbacks.len() as f64);
        self.rounds.push(f64::from(done.adaptive.retemplate_rounds));
    }

    fn report(&self, result: &mut RunResult) {
        let n = self.match_ms.len();
        result.set("dram.template_ms", median(&self.template_ms), n);
        result.set("dram.match_ms", median(&self.match_ms), n);
        result.set("dram.place_ms", median(&self.place_ms), n);
        result.set("dram.hammer_ms", median(&self.hammer_ms), n);
        // A negative difference is noise, not a recovery that saves time.
        // The spread of the pairs is the noise floor the estimate sits on.
        let pairs = &self.recovery_raw_ms;
        let recovery = median(pairs);
        result.set("dram.recovery_ms", recovery.max(0.0), pairs.len());
        result.note("dram.recovery_raw_ms", recovery, "ms", pairs.len());
        let iqr = quantile(pairs, 0.75) - quantile(pairs, 0.25);
        result.note("dram.recovery_pair_iqr_ms", iqr, "ms", pairs.len());
        result.set("dram.cells", median(&self.cells), n);
        result.set("dram.match_frac", mean(&self.match_frac), n);
        result.set("dram.retries", mean(&self.retries), n);
        result.set("dram.fallbacks", mean(&self.fallbacks), n);
        result.set("dram.retemplate_rounds", mean(&self.rounds), n);
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> RunResult {
    let mut result = RunResult::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        // Warm-up: pool threads, allocator growth and page faults are paid
        // here, not by the first measured phase.
        phase(
            &phase_input(sub_seed(args.seed, u64::MAX)),
            tracer,
            u64::MAX,
        );
        setups.push(start.elapsed().as_secs_f64());
    }
    result.set("setup_s", median(&setups), setups.len());
    result.note("setup_s", median(&setups), "s", setups.len());

    let mut verified = Vec::new();
    let mut index = 0u64;
    let mut untraced_p50 = 0.0;
    for (traced, secs) in args.passes() {
        tracer.set_enabled(traced);
        let mut walls = Vec::new();
        let mut split = Split::default();
        let mut busy = 0.0;
        let start = Instant::now();
        while verified.len() < OUTCOME_PHASES || start.elapsed().as_secs_f64() < secs {
            let input = phase_input(sub_seed(args.seed, index));
            let done = phase(&input, tracer, index);
            busy += done.wall_s;
            result.attempted += 1;
            if let Err(why) = check(&input, &done.bytes, &done.adaptive) {
                result.fail(format!("phase {index}: {why}"));
            }
            if verified.len() < OUTCOME_PHASES {
                verified.push(ratio(
                    done.adaptive.verified_targets as f64,
                    input.targets.len() as f64,
                ));
            }
            walls.push(done.wall_s * 1e3);
            if traced {
                split.probe(&input, &done, tracer, index);
            }
            index += 1;
        }
        let p50 = median(&walls);
        if traced {
            split.report(&mut result);
            let overhead = (ratio(p50, untraced_p50) - 1.0) * 100.0;
            result.set("bench.trace_overhead_pct", overhead, walls.len());
        } else {
            untraced_p50 = p50;
            result.set("p50_ms", p50, walls.len());
            result.set("p90_ms", quantile(&walls, 0.9), walls.len());
            result.set("ops_per_s", ratio(walls.len() as f64, busy), walls.len());
            result.note("online_ms", p50, "ms", walls.len());
        }
    }
    result.note("verified_frac", mean(&verified), "ratio", verified.len());
    result.set("dram.verified_frac", mean(&verified), verified.len());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_targets_one_per_page_in_a_permitted_direction() {
        let a = phase_input(5);
        assert_eq!(a, phase_input(5));
        assert_ne!(a.targets, phase_input(6).targets);
        assert_eq!(a.image.len(), FILE_PAGES * PAGE_SIZE);
        assert_eq!(a.targets.len(), FILE_PAGES);
        for (page, t) in a.targets.iter().enumerate() {
            assert_eq!(t.file_page, page);
            assert!(t.bit_offset % 8 >= 4, "high-order bits only");
            let stored = a.image[page * PAGE_SIZE + t.bit_offset / 8] >> (t.bit_offset % 8) & 1;
            assert_eq!(stored == 0, t.zero_to_one);
        }
    }

    #[test]
    fn byte_check_catches_a_corrupted_image() {
        let input = vec![0u8; 2 * PAGE_SIZE];
        let flip = AppliedFlip {
            file_page: 1,
            bit_offset: 8 * 10 + 3,
            intended: true,
        };
        let mut output = input.clone();
        output[PAGE_SIZE + 10] ^= 1 << 3;
        assert!(bytes_match(&input, &output, &[flip]));
        // A flip applied twice cancels.
        assert!(bytes_match(&input, &input, &[flip, flip]));
        // An unreported flip, a missing one, or one outside the image fails.
        let mut corrupted = output.clone();
        corrupted[7] ^= 1;
        assert!(!bytes_match(&input, &corrupted, &[flip]));
        assert!(!bytes_match(&input, &output, &[]));
        let outside = AppliedFlip {
            file_page: 2,
            ..flip
        };
        assert!(!bytes_match(&input, &output, &[flip, outside]));
    }
}
