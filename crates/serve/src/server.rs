//! The victim inference service.
//!
//! A [`VictimServer`] owns a deployed [`Network`] behind a mutex and a
//! pool of worker threads that drain the bounded [`RequestQueue`] in
//! batches: each worker pops up to `max_batch` requests, assembles one
//! `[batch, C, H, W]` tensor, runs the deployed engine (int8 by
//! default — the same bytes Rowhammer flips), and records a completion
//! per request. Data-level parallelism inside the forward pass still
//! goes through the `rhb-par` pool (the int8 GEMM row-split), so worker
//! count trades batching latency against queueing, not GEMM throughput.
//!
//! **Flip-visibility contract:** the served weights live in the same
//! [`Parameter`](rhb_nn::param::Parameter) storage an attacker mutates
//! through [`VictimServer::with_model`]. Every weight mutation bumps the
//! parameter's generation counter, which invalidates the persistent
//! packed int8 panels (PR 9), so the first batch scheduled after the
//! mutex is released computes with the flipped bytes — no restart, no
//! cache flush, no stale panel masking the flip.
//!
//! Telemetry: `serve/latency_s` (end-to-end SLO histogram),
//! `serve/queue_wait_s`, `serve/batch_size`, `serve/completed` and
//! `serve/batches` counters, plus the queue's submitted/shed/depth
//! family — all visible live on the rhb-obs plane.

use crate::queue::{Request, RequestQueue};
use rhb_nn::network::{argmax_classes, eval_mode, Network};
use rhb_nn::tensor::Tensor;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// SLO histogram boundaries for `serve/latency_s`, in seconds.
const LATENCY_BOUNDS: [f64; 12] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Server shape: worker pool, batching, and admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Most requests folded into one forward pass.
    pub max_batch: usize,
    /// Admission bound of the request queue.
    pub queue_capacity: usize,
    /// Input channels (batch tensors are `[n, channels, side, side]`).
    pub channels: usize,
    /// Input image side length.
    pub side: usize,
}

impl ServeConfig {
    /// A sane default for the tiny zoo victims: two workers, batches of
    /// up to 16, and a queue bounding ~4 batches of backlog.
    pub fn for_input(channels: usize, side: usize) -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            queue_capacity: 64,
            channels,
            side,
        }
    }
}

/// One served request, as the completion log records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// Request id (schedule position).
    pub seq: usize,
    /// Completion offset from server start, microseconds.
    pub done_us: u64,
    /// End-to-end latency (submission to response), seconds.
    pub latency_s: f64,
    /// Time spent queued before a worker picked the request up, seconds.
    pub queue_wait_s: f64,
    /// Predicted class (argmax of the served logits).
    pub predicted: usize,
    /// Ground-truth label of the underlying sample.
    pub true_label: usize,
    /// Whether the request carried the backdoor trigger.
    pub triggered: bool,
}

/// Everything a session leaves behind: the completion log (in
/// completion order) and the instant the serving clock started.
#[derive(Debug)]
pub struct ServeLog {
    /// Completions, ordered by `done_us`.
    pub completions: Vec<CompletionRecord>,
    /// The server's epoch: all `done_us` offsets are relative to this.
    pub started: Instant,
}

/// The victim inference service: bounded queue, worker pool, shared
/// mutable model.
pub struct VictimServer {
    queue: Arc<RequestQueue>,
    model: Arc<Mutex<Box<dyn Network>>>,
    completions: Arc<Mutex<Vec<CompletionRecord>>>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl VictimServer {
    /// Starts the worker pool over a deployed model.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers == 0`.
    pub fn start(model: Box<dyn Network>, config: ServeConfig) -> VictimServer {
        assert!(config.workers > 0, "server needs at least one worker");
        rhb_telemetry::register_histogram("serve/latency_s", &LATENCY_BOUNDS);
        let queue = Arc::new(RequestQueue::new(config.queue_capacity));
        let model = Arc::new(Mutex::new(model));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let started = Instant::now();
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let model = Arc::clone(&model);
                let completions = Arc::clone(&completions);
                std::thread::Builder::new()
                    .name(format!("rhb-serve-{i}"))
                    .spawn(move || worker_loop(&queue, &model, &completions, config, started))
                    .expect("spawn serve worker")
            })
            .collect();
        VictimServer {
            queue,
            model,
            completions,
            workers,
            started,
        }
    }

    /// The admission queue (producers submit here).
    pub fn queue(&self) -> Arc<RequestQueue> {
        Arc::clone(&self.queue)
    }

    /// The serving clock's epoch.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Builds and submits one request; sheds (returning `false`) when
    /// the queue is at capacity.
    pub fn submit(&self, seq: usize, input: Vec<f32>, true_label: usize, triggered: bool) -> bool {
        self.queue
            .submit(Request {
                seq,
                input,
                true_label,
                triggered,
                submitted: Instant::now(),
            })
            .is_ok()
    }

    /// Runs `f` with exclusive access to the served model — the hook the
    /// attack uses to flip weight bits mid-flight. The first batch
    /// scheduled after `f` returns sees the mutation (generation-counter
    /// packed-panel invalidation; see the module docs).
    pub fn with_model<R>(&self, f: impl FnOnce(&mut dyn Network) -> R) -> R {
        let mut guard = self.model.lock().unwrap_or_else(|e| e.into_inner());
        f(guard.as_mut())
    }

    /// Requests completed so far (the log keeps growing until shutdown).
    pub fn completed(&self) -> usize {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Closes the queue, drains the backlog, joins every worker, and
    /// returns the completion log (sorted by completion time).
    pub fn shutdown(mut self) -> ServeLog {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let mut completions =
            std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()));
        completions.sort_by_key(|c| (c.done_us, c.seq));
        ServeLog {
            completions,
            started: self.started,
        }
    }
}

fn worker_loop(
    queue: &RequestQueue,
    model: &Mutex<Box<dyn Network>>,
    completions: &Mutex<Vec<CompletionRecord>>,
    config: ServeConfig,
    started: Instant,
) {
    let image_len = config.channels * config.side * config.side;
    loop {
        let batch = queue.pop_batch(config.max_batch);
        if batch.is_empty() {
            return; // closed and drained
        }
        let picked = Instant::now();
        let mut data = Vec::with_capacity(batch.len() * image_len);
        for req in &batch {
            debug_assert_eq!(req.input.len(), image_len, "payload shape mismatch");
            data.extend_from_slice(&req.input);
        }
        let input = Tensor::from_vec(
            data,
            &[batch.len(), config.channels, config.side, config.side],
        );
        let predictions = {
            let mut net = model.lock().unwrap_or_else(|e| e.into_inner());
            let mode = eval_mode(net.as_ref());
            let _span = rhb_telemetry::span!("serve/batch", size = batch.len());
            let logits = net.forward(&input, mode);
            argmax_classes(&logits)
        };
        let done = Instant::now();
        let done_us = done.duration_since(started).as_micros() as u64;
        rhb_telemetry::counter!("serve/batches", 1);
        rhb_telemetry::counter!("serve/completed", batch.len());
        rhb_telemetry::observe!("serve/batch_size", batch.len() as f64);
        let mut log = completions.lock().unwrap_or_else(|e| e.into_inner());
        for (req, &predicted) in batch.iter().zip(&predictions) {
            let latency_s = done.duration_since(req.submitted).as_secs_f64();
            let queue_wait_s = picked.duration_since(req.submitted).as_secs_f64();
            rhb_telemetry::observe!("serve/latency_s", latency_s);
            rhb_telemetry::observe!("serve/queue_wait_s", queue_wait_s);
            log.push(CompletionRecord {
                seq: req.seq,
                done_us,
                latency_s,
                queue_wait_s,
                predicted,
                true_label: req.true_label,
                triggered: req.triggered,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_nn::init::Rng;
    use rhb_nn::layer::{Layer, Mode, Sequential};
    use rhb_nn::linear::Linear;
    use rhb_nn::param::Parameter;

    /// A 1x2x2 image in, 3 classes out — small enough that every test
    /// is instant, deployed so the int8 engine serves it.
    struct TinyNet(Sequential);

    impl TinyNet {
        fn deployed(seed: u64) -> Box<dyn Network> {
            let mut rng = Rng::seed_from(seed);
            let mut seq = Sequential::new();
            seq.push(Box::new(Linear::new(4, 8, true, &mut rng)));
            seq.push(Box::new(rhb_nn::activation::Relu::new()));
            seq.push(Box::new(Linear::new(8, 3, true, &mut rng)));
            let mut net: Box<dyn Network> = Box::new(TinyNet(seq));
            net.deploy().expect("deploy tiny net");
            net
        }
    }

    impl Network for TinyNet {
        fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
            // Serving flattens [n, 1, 2, 2] into the MLP's [n, 4].
            let n = input.shape().dim(0);
            let flat = Tensor::from_vec(input.data().to_vec(), &[n, 4]);
            self.0.forward_mode(&flat, mode)
        }
        fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
            self.0.backward(grad_logits)
        }
        fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor {
            self.0.backward_input(grad_logits)
        }
        fn backward_masked(&mut self, grad_logits: &Tensor, mask: &[usize]) {
            let params = rhb_nn::layer::ParamGrads::Only(mask.to_vec());
            self.0.backward_pass(grad_logits, &params, false);
        }
        fn params(&self) -> Vec<&Parameter> {
            self.0.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Parameter> {
            self.0.params_mut()
        }
        fn describe(&self) -> String {
            "tiny-serve-mlp".into()
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_capacity: 32,
            channels: 1,
            side: 2,
        }
    }

    #[test]
    fn serves_submitted_requests_and_logs_completions() {
        let server = VictimServer::start(TinyNet::deployed(3), config());
        for seq in 0..10 {
            assert!(server.submit(seq, vec![0.25; 4], seq % 3, seq % 2 == 0));
        }
        let log = loop {
            if server.completed() == 10 {
                break server.shutdown();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(log.completions.len(), 10);
        let mut seqs: Vec<usize> = log.completions.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        for c in &log.completions {
            assert!(c.predicted < 3);
            assert!(c.latency_s >= c.queue_wait_s);
            assert!(c.latency_s >= 0.0 && c.latency_s < 60.0);
        }
        // Identical payloads get identical predictions regardless of
        // which worker served them.
        let first = log.completions[0].predicted;
        assert!(log.completions.iter().all(|c| c.predicted == first));
    }

    #[test]
    fn shutdown_drains_the_backlog_before_joining() {
        let server = VictimServer::start(TinyNet::deployed(4), config());
        let mut admitted = 0;
        for seq in 0..20 {
            if server.submit(seq, vec![0.1; 4], 0, false) {
                admitted += 1;
            }
        }
        let log = server.shutdown();
        assert_eq!(
            log.completions.len(),
            admitted,
            "every admitted request is answered before shutdown"
        );
    }

    #[test]
    fn weight_mutation_mid_serving_changes_predictions_without_restart() {
        // The PR 9 contract end to end at the serving layer: flip enough
        // of the deployed weight bytes through with_model and the *same
        // server* must start predicting differently — a stale packed
        // panel would keep the old logits.
        let server = VictimServer::start(TinyNet::deployed(5), config());
        let probe = vec![0.9, -0.6, 0.7, 0.2];
        server.submit(0, probe.clone(), 0, false);
        while server.completed() < 1 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Sabotage the head: zero the final linear weights and point the
        // bias at a class the clean model does not predict, so the new
        // argmax is fully determined by the injected bytes.
        let sabotage_target = server.with_model(|net| {
            let input = Tensor::from_vec(probe.clone(), &[1, 1, 2, 2]);
            let before = rhb_nn::network::classify_batch(net, &input)[0];
            let target = (before + 1) % 3;
            let mut images = net.quantized_params();
            let n = images.len();
            for s in images[n - 2].values_mut() {
                *s = 0; // head weights
            }
            for (i, s) in images[n - 1].values_mut().iter_mut().enumerate() {
                *s = if i == target { 127 } else { -127 }; // head bias
            }
            net.load_quantized(&images);
            target
        });
        server.submit(1, probe.clone(), 0, false);
        let log = server.shutdown();
        assert_eq!(log.completions.len(), 2);
        let by_seq = |seq: usize| log.completions.iter().find(|c| c.seq == seq).unwrap();
        assert_ne!(
            by_seq(0).predicted,
            sabotage_target,
            "sabotage target is fresh"
        );
        assert_eq!(
            by_seq(1).predicted,
            sabotage_target,
            "injected head bytes must steer the served argmax in-flight"
        );
    }
}
