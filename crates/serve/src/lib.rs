//! # rhb-serve — the victim as a service
//!
//! The paper's victim is a *deployed* model serving live traffic while
//! Rowhammer flips its weight pages. This crate makes that concrete and
//! dependency-free:
//!
//! - [`queue`]: a bounded request queue with admission control — under
//!   attack-induced slowdown the victim sheds load instead of growing an
//!   unbounded backlog.
//! - [`server`]: [`VictimServer`] — a worker pool draining the queue in
//!   batches through the deployed int8 engine, with per-request
//!   `serve/latency_s` SLO histograms and a completion log. Weight
//!   mutations applied through [`VictimServer::with_model`] are visible
//!   to the very next batch (PR 9's generation-counter packed-panel
//!   invalidation), which is what "flips propagate into in-flight
//!   serving" means operationally.
//! - [`traffic`]: a seeded, strictly serial open-loop traffic generator
//!   (Poisson arrivals, configurable clean/triggered mix) whose schedule
//!   is bit-identical at any `RHB_THREADS`.
//! - [`trajectory`]: post-hoc windowing of the completion log into
//!   clean-accuracy/ASR trajectories, time-to-first-activation, and
//!   tail-latency interference.
//!
//! The `exp serve_attack` driver in `rhb-bench` wires these against the
//! real attack pipeline; see `DESIGN.md`, "Victim serving".

pub mod queue;
pub mod server;
pub mod traffic;
pub mod trajectory;

pub use queue::{Request, RequestQueue};
pub use server::{CompletionRecord, ServeConfig, ServeLog, VictimServer};
pub use traffic::{RequestSpec, Schedule, TrafficConfig};

use std::time::{Duration, Instant};

/// Outcome of replaying a schedule against a live server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveStats {
    /// Requests admitted into the queue.
    pub admitted: usize,
    /// Requests shed by admission control.
    pub shed: usize,
}

/// Replays a [`Schedule`] against a running [`VictimServer`] on the wall
/// clock (open loop: each request is submitted at its scheduled arrival,
/// never waiting for responses). `time_scale` stretches (>1) or
/// compresses (<1) the schedule; `payload` materializes each request's
/// image and true label — the client stamps the trigger there, keeping
/// the server trigger-agnostic like a real deployment.
pub fn drive_schedule(
    server: &VictimServer,
    schedule: &Schedule,
    time_scale: f64,
    mut payload: impl FnMut(&RequestSpec) -> (Vec<f32>, usize),
) -> DriveStats {
    let start = Instant::now();
    let mut stats = DriveStats {
        admitted: 0,
        shed: 0,
    };
    for spec in schedule.specs() {
        let due =
            start + Duration::from_secs_f64(spec.arrival().as_secs_f64() * time_scale.max(0.0));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (input, true_label) = payload(spec);
        if server.submit(spec.seq, input, true_label, spec.triggered) {
            stats.admitted += 1;
        } else {
            stats.shed += 1;
        }
    }
    stats
}
