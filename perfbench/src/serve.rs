//! `serve` and `serve_flip`: open-loop traffic against the live victim
//! server.
//!
//! Set-up trains the victim, computes the offline reference prediction of
//! every (sample, trigger) payload under every weight state the run can
//! reach, and starts a `VictimServer` on the int8 engine. One generator
//! thread (the main thread) then drives two phases:
//!
//! 1. fixed rate: Poisson arrivals at `FIXED_RATE_RPS`, 35% carrying the
//!    trigger as in `exp_serve_attack`. Each request is timed from its
//!    *scheduled* arrival to its completion, so a stalled generator counts
//!    against latency instead of hiding it;
//! 2. saturating: bursts of `SATURATION_BURST` requests, each submitted
//!    back to back (below the queue bound, so nothing is shed) and drained
//!    before the next; each burst gives completions per second.
//!
//! Latency quantiles are taken over every fixed-rate request of a pass,
//! and throughput over every burst of it, so a stall anywhere in the pass
//! counts.
//!
//! `serve_flip` adds an attacker thread that, for the whole run, toggles
//! one seeded high-order bit per weight-file page every `FLIP_PERIOD`
//! through `VictimServer::with_model`. Each flip reloads the weights,
//! which bumps the parameter generations and forces a packed-panel
//! repack: writes beside reads.

use crate::report::{median, quantile, ratio, Budget, RunResult};
use crate::trace::Tracer;
use crate::{sub_seed, train_victim, Args, Workload, SETUP_REPS, TRIGGER_PATCH};
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_models::data::Dataset;
use rhb_nn::init::Rng;
use rhb_nn::network::{classify_batch, eval_mode, Network};
use rhb_nn::tensor::Tensor;
use rhb_nn::weightfile::{ByteLocation, WeightFile, PAGE_SIZE};
use rhb_serve::{Schedule, ServeConfig, TrafficConfig, VictimServer};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fixed arrival rate, chosen from measured runs to batch some requests
/// while leaving the single worker headroom to absorb stalls of a shared
/// host. Measured with one worker on a 2-vCPU x86-64 guest (AVX2 kernels),
/// where a batch-1 forward takes about 0.2 ms and saturating bursts
/// drain at 10k to 24k rps. The mean batch was 1.15 to 1.3 at 2,000 rps,
/// 1.3 to 1.5 at 4,000, 1.5 at 6,000, 1.8 to 2.1 at 8,000 and 7.5 at
/// 12,000. At 8,000 rps host stalls built backlogs that drained slowly:
/// in 7 of 15 runs the p90 latency rose from 0.6 ms to between 2.6 and
/// 204 ms. So requests here mostly run alone and partly in small
/// batches; the saturating bursts run full batches of 16.
/// `fixed_batch_mean` reports the fixed-rate batch size on every run.
pub const FIXED_RATE_RPS: f64 = 4000.0;
/// Share of each pass spent at the fixed rate; the rest saturates.
const FIXED_SHARE: f64 = 0.5;
/// Requests per saturating burst, submitted back to back, then drained.
const SATURATION_BURST: usize = 1024;
/// Admission bound. Deep enough that a stall of the shared machine delays
/// fixed-rate requests, which latency counts, instead of shedding them.
const QUEUE_CAPACITY: usize = 4096;
/// Share of requests stamped with the trigger.
const TRIGGER_FRACTION: f64 = 0.35;
/// Attacker cadence on `serve_flip`.
const FLIP_PERIOD: Duration = Duration::from_millis(20);
/// Requests that warm the server's packed panels during set-up.
const WARMUP_REQUESTS: usize = 64;
/// Repetitions of each `nn` probe call; medians are reported.
const PROBE_REPS: usize = 50;

/// One seeded bit flip: a high-order bit of one weight byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    pub location: ByteLocation,
    pub bit: u8,
}

/// The attacker's list, shaped like a CFT+BR ledger: one bit (4..=6) of a
/// random weight in each page of a file of `weights` bytes.
pub fn flip_list(seed: u64, weights: usize) -> Vec<Flip> {
    let mut rng = Rng::seed_from(seed);
    (0..weights.div_ceil(PAGE_SIZE))
        .map(|page| Flip {
            location: ByteLocation {
                page,
                offset: rng.below((weights - page * PAGE_SIZE).min(PAGE_SIZE)),
            },
            bit: 4 + rng.below(3) as u8,
        })
        .collect()
}

/// The fixed-rate schedule of one pass.
pub fn schedule(seed: u64, secs: f64, samples: usize) -> Schedule {
    Schedule::generate(
        &TrafficConfig {
            seed,
            requests: (FIXED_RATE_RPS * secs).ceil().max(1.0) as usize,
            rate_rps: FIXED_RATE_RPS,
            trigger_fraction: TRIGGER_FRACTION,
        },
        samples,
    )
}

/// Payload index of test sample `sample`, clean or triggered.
fn payload_of(sample: usize, triggered: bool) -> usize {
    2 * sample + usize::from(triggered)
}

/// Every distinct request payload, in `payload_of` order, with its label.
fn payloads(data: &Dataset, trigger: &Trigger) -> (Vec<Vec<f32>>, Vec<usize>) {
    let (clean, labels) = data.head(data.len());
    let stamped = trigger.apply(&clean);
    let len = data.image_len();
    let mut out = Vec::with_capacity(2 * data.len());
    for i in 0..data.len() {
        out.push(clean.data()[i * len..(i + 1) * len].to_vec());
        out.push(stamped.data()[i * len..(i + 1) * len].to_vec());
    }
    let labels = labels.iter().flat_map(|&l| [l, l]).collect();
    (out, labels)
}

fn stack(payloads: &[Vec<f32>], data: &Dataset) -> Tensor {
    Tensor::from_vec(
        payloads.concat(),
        &[payloads.len(), data.channels(), data.side(), data.side()],
    )
}

/// Reference predictions of every payload under each weight state the
/// attacker cycles through: state `n % states.len()` is live after `n`
/// flips. The int8 engine is batch-invariant, so one big batch predicts
/// what any served batch must. Leaves `net` at the base weights.
fn reference(
    net: &mut dyn Network,
    base: &WeightFile,
    flips: &[Flip],
    all: &Tensor,
) -> Vec<Vec<usize>> {
    let mut states = vec![classify_batch(net, all)];
    let mut file = base.clone();
    for n in 0..2 * flips.len() - 1 {
        let f = flips[n % flips.len()];
        file.flip_bit(f.location, f.bit)
            .expect("flip lies inside the weight file");
        file.load_into(net).expect("weight file matches the victim");
        states.push(classify_batch(net, all));
    }
    base.load_into(net).expect("base weights match the victim");
    states
}

/// Whether `predicted` equals the prediction under some weight state live
/// between the request's submission and its completion: flips that ended
/// before submission had surely landed, flips that began after completion
/// surely had not.
pub fn prediction_allowed(
    flips: &[FlipEvent],
    states: &[Vec<usize>],
    payload: usize,
    submitted: Instant,
    done: Instant,
    predicted: usize,
) -> bool {
    let lo = flips.partition_point(|f| f.end <= submitted);
    let hi = flips.partition_point(|f| f.begin < done);
    (lo..=hi).any(|n| states[n % states.len()][payload] == predicted)
}

/// Mean requests per forward pass among `done_us`, the completion offsets
/// of some answered requests. A worker stamps every request of one batch
/// with the same offset, so each distinct offset is one batch.
pub fn batch_mean(done_us: &[u64]) -> f64 {
    let batches: HashSet<u64> = done_us.iter().copied().collect();
    ratio(done_us.len() as f64, batches.len() as f64)
}

/// One attacker flip as the attacker thread saw it.
#[derive(Debug, Clone, Copy)]
pub struct FlipEvent {
    /// Before `with_model` was called.
    pub begin: Instant,
    /// Lock taken, reload starting.
    pub locked: Instant,
    /// Reload finished, lock about to be released.
    pub loaded: Instant,
    /// `with_model` returned.
    pub end: Instant,
}

fn attacker(
    server: &VictimServer,
    base: &WeightFile,
    flips: &[Flip],
    stop: &AtomicBool,
) -> Vec<FlipEvent> {
    let mut file = base.clone();
    let mut events = Vec::new();
    let start = Instant::now();
    loop {
        let due = start + FLIP_PERIOD * (events.len() as u32 + 1);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            return events;
        }
        let f = flips[events.len() % flips.len()];
        let begin = Instant::now();
        let (locked, loaded) = server.with_model(|net| {
            let locked = Instant::now();
            file.flip_bit(f.location, f.bit)
                .expect("flip lies inside the weight file");
            file.load_into(net)
                .expect("weight file matches the served victim");
            (locked, Instant::now())
        });
        events.push(FlipEvent {
            begin,
            locked,
            loaded,
            end: Instant::now(),
        });
    }
}

/// One request as the generator sent it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    payload: usize,
    /// Scheduled arrival (fixed-rate phase only).
    scheduled: Option<Instant>,
    /// Just before `submit`.
    submitted: Instant,
    admitted: bool,
}

/// Sequence ranges and phase bounds of one measured pass.
#[derive(Debug, Clone)]
struct Pass {
    traced: bool,
    fixed: std::ops::Range<usize>,
    /// The saturating phase's bursts.
    bursts: Vec<std::ops::Range<usize>>,
    start: Instant,
    end: Instant,
}

struct Generator<'a> {
    server: &'a VictimServer,
    payloads: &'a [Vec<f32>],
    labels: &'a [usize],
    tracer: &'a Tracer,
    sent: Vec<Sent>,
    admitted: usize,
}

impl Generator<'_> {
    fn send(&mut self, payload: usize, scheduled: Option<Instant>) {
        let seq = self.sent.len();
        let submitted = Instant::now();
        let (admitted, _) = self.tracer.timed("serve.submit", seq as u64, None, |_| {
            self.server.submit(
                seq,
                self.payloads[payload].clone(),
                self.labels[payload],
                payload % 2 == 1,
            )
        });
        self.admitted += usize::from(admitted);
        self.sent.push(Sent {
            payload,
            scheduled,
            submitted,
            admitted,
        });
    }

    /// Sleeps until the server has answered `completed` requests; the
    /// completion times come from the server, so polling adds no error.
    fn wait_for(&self, completed: usize) {
        while self.server.completed() < completed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pass(&mut self, seed: u64, secs: f64, samples: usize, traced: bool) -> Pass {
        self.tracer.set_enabled(traced);
        let start = Instant::now();
        let first = self.sent.len();
        for spec in schedule(seed, secs * FIXED_SHARE, samples).specs() {
            let due = start + spec.arrival();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.send(payload_of(spec.sample_idx, spec.triggered), Some(due));
        }
        let fixed = first..self.sent.len();
        self.wait_for(self.admitted);
        let mut rng = Rng::seed_from(seed ^ 0x5a7);
        let sat_start = Instant::now();
        let sat_secs = Duration::from_secs_f64(secs * (1.0 - FIXED_SHARE));
        let mut bursts = Vec::new();
        while bursts.is_empty() || sat_start.elapsed() < sat_secs {
            let burst = self.sent.len();
            for _ in 0..SATURATION_BURST {
                let payload = payload_of(rng.below(samples), rng.chance(TRIGGER_FRACTION));
                self.send(payload, None);
            }
            self.wait_for(self.admitted);
            bursts.push(burst..self.sent.len());
        }
        Pass {
            traced,
            fixed,
            bursts,
            start,
            end: Instant::now(),
        }
    }
}

/// Set-up: victim, reference predictions, a started and warmed server.
struct Setup {
    server: VictimServer,
    data: Dataset,
    payloads: Vec<Vec<f32>>,
    labels: Vec<usize>,
    states: Vec<Vec<usize>>,
    base: WeightFile,
    flips: Vec<Flip>,
    /// The warm-up requests, already answered.
    warmup: Vec<Sent>,
    pretrain_s: f64,
}

fn setup(seed: u64, flipping: bool, workers: usize, tracer: &Tracer) -> Setup {
    let (mut model, pretrain_s) = train_victim();
    let data = model.test_data.clone();
    let trigger = Trigger::black_square(TriggerMask::bottom_right_square(
        data.channels(),
        data.side(),
        TRIGGER_PATCH,
    ));
    let (payloads, labels) = payloads(&data, &trigger);
    let base = WeightFile::from_network(model.net.as_ref());
    let flips = if flipping {
        flip_list(seed, base.num_weights())
    } else {
        Vec::new()
    };
    let all = stack(&payloads, &data);
    let states = if flipping {
        reference(model.net.as_mut(), &base, &flips, &all)
    } else {
        vec![classify_batch(model.net.as_mut(), &all)]
    };
    let config = ServeConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY,
        ..ServeConfig::for_input(data.channels(), data.side())
    };
    let server = VictimServer::start(model.net, config);
    let mut warm = Generator {
        server: &server,
        payloads: &payloads,
        labels: &labels,
        tracer,
        sent: Vec::new(),
        admitted: 0,
    };
    for i in 0..WARMUP_REQUESTS {
        warm.send(i % payloads.len(), None);
    }
    warm.wait_for(warm.admitted);
    let warmup = warm.sent;
    Setup {
        server,
        data,
        payloads,
        labels,
        states,
        base,
        flips,
        warmup,
        pretrain_s,
    }
}

pub fn run(args: &Args, budget: &Budget, tracer: &Tracer) -> RunResult {
    let flipping = args.workload == Workload::ServeFlip;
    let mut result = RunResult::default();
    let (mut setups, mut pretrains) = (Vec::new(), Vec::new());
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(rehearsal) = ready.take() {
            rehearsal.server.shutdown();
        }
        let start = Instant::now();
        let s = setup(args.seed, flipping, budget.serve_workers, tracer);
        setups.push(start.elapsed().as_secs_f64());
        pretrains.push(s.pretrain_s);
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    result.set("setup_s", median(&setups), setups.len());
    result.note("setup_s", median(&setups), "s", setups.len());
    result.set("models.pretrain_s", median(&pretrains), pretrains.len());

    let samples = s.data.len();
    let stop = AtomicBool::new(false);
    let (sent, passes, events) = std::thread::scope(|scope| {
        let attack =
            flipping.then(|| scope.spawn(|| attacker(&s.server, &s.base, &s.flips, &stop)));
        let mut gen = Generator {
            server: &s.server,
            payloads: &s.payloads,
            labels: &s.labels,
            tracer,
            sent: s.warmup.clone(),
            admitted: s.warmup.iter().filter(|r| r.admitted).count(),
        };
        let passes: Vec<Pass> = args
            .passes()
            .into_iter()
            .enumerate()
            .map(|(i, (traced, secs))| {
                gen.pass(sub_seed(args.seed, i as u64), secs, samples, traced)
            })
            .collect();
        stop.store(true, Ordering::Release);
        let events = attack.map_or_else(Vec::new, |h| h.join().expect("attacker thread panicked"));
        (gen.sent, passes, events)
    });

    // Server-side spans are rebuilt from the completion log below.
    tracer.set_enabled(args.trace);
    if args.trace {
        probe(&s.server, &s.payloads, &s.data, tracer, &mut result);
    }
    let epoch = s.server.started();
    let log = s.server.shutdown();

    // Every admitted request must be answered with an allowed prediction.
    let mut answered = vec![None; sent.len()];
    for c in &log.completions {
        let Some(req) = sent.get(c.seq) else {
            result.fail(format!("completion for unknown request {}", c.seq));
            continue;
        };
        let done = epoch + Duration::from_micros(c.done_us + 1);
        if !prediction_allowed(
            &events,
            &s.states,
            req.payload,
            req.submitted,
            done,
            c.predicted,
        ) {
            result.fail(format!(
                "request {} (payload {}) predicted {}, no live weight state predicts that",
                c.seq, req.payload, c.predicted
            ));
        }
        answered[c.seq] = Some(c);
    }
    result.attempted = sent.len() as u64;
    let mut shed = 0usize;
    for (seq, req) in sent.iter().enumerate() {
        if !req.admitted {
            shed += 1;
            result.fail(format!("request {seq} shed"));
        } else if answered[seq].is_none() {
            result.fail(format!("request {seq} admitted but never answered"));
        }
    }

    let mut untraced_p50 = 0.0;
    for pass in &passes {
        let (mut latency, mut wait, mut service, mut lag, mut fixed_done) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for seq in pass.fixed.clone() {
            let (req, Some(c)) = (&sent[seq], answered[seq]) else {
                continue;
            };
            let scheduled = req.scheduled.expect("fixed-rate requests have a schedule");
            let done = epoch + Duration::from_micros(c.done_us);
            latency.push(done.saturating_duration_since(scheduled).as_secs_f64() * 1e3);
            fixed_done.push(c.done_us);
            wait.push(c.queue_wait_s * 1e3);
            service.push((c.latency_s - c.queue_wait_s) * 1e3);
            lag.push(
                req.submitted
                    .saturating_duration_since(scheduled)
                    .as_secs_f64()
                    * 1e3,
            );
            if pass.traced {
                let submitted = done - Duration::from_secs_f64(c.latency_s);
                let picked = submitted + Duration::from_secs_f64(c.queue_wait_s);
                let id = seq as u64;
                let span = tracer.record("serve.request", id, None, scheduled, done);
                tracer.record("serve.queue_wait", id, span, submitted, picked);
                tracer.record("serve.service", id, span, picked, done);
            }
        }
        // Completions per second over every burst of the pass, counting
        // each burst from its last submission to its last completion, so
        // the generator's submit loop is not charged to the server.
        let (mut drain_s, mut saturated_done) = (0.0, Vec::new());
        for burst in &pass.bursts {
            let first = sent[burst.start].submitted;
            let submitted = sent[burst.end - 1].submitted;
            let mut last = submitted;
            for c in burst.clone().filter_map(|seq| answered[seq]) {
                let done = epoch + Duration::from_micros(c.done_us);
                if done > submitted {
                    last = last.max(done);
                    saturated_done.push(c.done_us);
                }
            }
            if pass.traced {
                tracer.record("serve.burst", burst.start as u64, None, first, last);
            }
            drain_s += last.duration_since(submitted).as_secs_f64();
        }
        let saturated = saturated_done.len();
        let max_rps = ratio(saturated as f64, drain_s);
        let fixed_batch = batch_mean(&fixed_done);
        let n_latency = latency.len();
        let pass_flips: Vec<&FlipEvent> = events
            .iter()
            .filter(|f| f.begin >= pass.start && f.end <= pass.end)
            .collect();
        let flip_ms: Vec<f64> = pass_flips
            .iter()
            .map(|f| f.end.duration_since(f.begin).as_secs_f64() * 1e3)
            .collect();
        let p50 = median(&latency);
        if !pass.traced {
            untraced_p50 = p50;
            let p90 = quantile(&latency, 0.9);
            result.set("p50_ms", p50, n_latency);
            result.set("p90_ms", p90, n_latency);
            result.set("ops_per_s", max_rps, saturated);
            result.note("p50_ms", p50, "ms", n_latency);
            result.note("p90_ms", p90, "ms", n_latency);
            // The tail the issue names, printed but not gated: on a
            // 2-vCPU guest it tracks host scheduling more than the server.
            result.note("p99_ms", quantile(&latency, 0.99), "ms", n_latency);
            result.note("max_rps", max_rps, "1/s", saturated);
            result.note("fixed_batch_mean", fixed_batch, "count", fixed_done.len());
            if flipping {
                result.note("flip_ms", median(&flip_ms), "ms", flip_ms.len());
            }
            continue;
        }
        for (i, f) in pass_flips.iter().enumerate() {
            let span = tracer.record("serve.flip", i as u64, None, f.begin, f.end);
            tracer.record("nn.load_into", i as u64, span, f.locked, f.loaded);
        }
        result.set("serve.queue_wait_p50_ms", median(&wait), wait.len());
        result.set("serve.queue_wait_p99_ms", quantile(&wait, 0.99), wait.len());
        result.set("serve.service_p50_ms", median(&service), service.len());
        result.set("serve.batch_mean", batch_mean(&saturated_done), saturated);
        result.set("serve.fixed_batch_mean", fixed_batch, fixed_done.len());
        result.set("serve.gen_lag_p99_ms", quantile(&lag, 0.99), lag.len());
        result.set("serve.flip_ms", median(&flip_ms), flip_ms.len());
        let overhead = (ratio(p50, untraced_p50) - 1.0) * 100.0;
        result.set("bench.trace_overhead_pct", overhead, n_latency);
    }
    if args.trace {
        result.set("serve.shed", shed as f64, sent.len());
    }
    result
}

/// Times the int8 forward at batch 1 and 16, a weight reload, and the
/// first forward after a reload (which repacks every panel), on the
/// served model while no traffic runs.
fn probe(
    server: &VictimServer,
    payloads: &[Vec<f32>],
    data: &Dataset,
    tracer: &Tracer,
    result: &mut RunResult,
) {
    let one = stack(&payloads[..1], data);
    let sixteen = stack(&payloads[..16.min(payloads.len())], data);
    let (mut b1, mut b16, mut load, mut after) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    server.with_model(|net| {
        let mode = eval_mode(net);
        let file = WeightFile::from_network(net);
        for rep in 0..PROBE_REPS as u64 {
            let (_, s) = tracer.timed("nn.fwd_i8_b1", rep, None, |_| net.forward(&one, mode));
            b1.push(s * 1e3);
            let (_, s) = tracer.timed("nn.fwd_i8_b16", rep, None, |_| net.forward(&sixteen, mode));
            b16.push(s * 1e3);
            let (_, s) = tracer.timed("nn.load_into", rep, None, |_| {
                file.load_into(net)
                    .expect("weight file matches the served victim")
            });
            load.push(s * 1e3);
            let (_, s) = tracer.timed("nn.fwd_i8_after_flip", rep, None, |_| {
                net.forward(&one, mode)
            });
            after.push(s * 1e3);
        }
    });
    result.set("nn.fwd_i8_b1_ms", median(&b1), b1.len());
    result.set("nn.fwd_i8_b16_ms", median(&b16), b16.len());
    result.set("nn.load_into_ms", median(&load), load.len());
    result.set("nn.fwd_i8_after_flip_ms", median(&after), after.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_flips() {
        assert_eq!(schedule(9, 0.5, 64), schedule(9, 0.5, 64));
        assert_ne!(schedule(9, 0.5, 64), schedule(10, 0.5, 64));
        assert_eq!(flip_list(9, 20_000), flip_list(9, 20_000));
        assert_ne!(flip_list(9, 20_000), flip_list(10, 20_000));
        let flips = flip_list(3, 2 * PAGE_SIZE + 100);
        assert_eq!(flips.len(), 3, "one flip per page");
        for (page, f) in flips.iter().enumerate() {
            assert_eq!(f.location.page, page);
            assert!(f.location.flat() < 2 * PAGE_SIZE + 100);
            assert!((4..=6).contains(&f.bit));
        }
    }

    #[test]
    fn predictions_are_checked_against_the_live_weight_states() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let flip = |b: u64, e: u64| FlipEvent {
            begin: at(b),
            locked: at(b),
            loaded: at(e),
            end: at(e),
        };
        // Two states: payload 0 predicts 3 at the base, 5 after one flip.
        let states = vec![vec![3], vec![5]];
        let flips = [flip(10, 12), flip(30, 32)];
        // Served entirely before the first flip: only the base is live.
        assert!(prediction_allowed(&flips, &states, 0, at(0), at(5), 3));
        assert!(!prediction_allowed(&flips, &states, 0, at(0), at(5), 5));
        // Spanning the first flip: either state may have served it.
        assert!(prediction_allowed(&flips, &states, 0, at(8), at(20), 5));
        assert!(prediction_allowed(&flips, &states, 0, at(8), at(20), 3));
        // Between the flips only the flipped state is live; a corrupted
        // prediction is refused.
        assert!(!prediction_allowed(&flips, &states, 0, at(15), at(20), 3));
        assert!(!prediction_allowed(&flips, &states, 0, at(15), at(20), 7));
        // After the second flip the cycle is back at the base.
        assert!(prediction_allowed(&flips, &states, 0, at(40), at(45), 3));
    }

    #[test]
    fn batches_are_counted_by_completion_instant() {
        assert_eq!(batch_mean(&[]), 0.0);
        assert_eq!(batch_mean(&[5, 9, 12]), 1.0);
        // Two batches of three and one alone, completions in any order.
        assert_eq!(batch_mean(&[7, 3, 7, 3, 3, 7, 11]), 7.0 / 3.0);
    }
}
