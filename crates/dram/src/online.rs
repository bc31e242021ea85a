//! The online attack phase: template → match → place → hammer
//! (paper §IV-B, evaluated in §V-C).
//!
//! Given the bit flips the offline optimizer wants (page, bit offset,
//! direction), the executor:
//!
//! 1. **matches** each target against the flip profile — is there a flippy
//!    page whose vulnerable cell sits at exactly that page offset and flips
//!    the right way under the online hammer pattern?
//! 2. **places** the weight file so each matched file page is resident in
//!    its flippy frame (via the page-frame-cache exploit), with bait frames
//!    (pages with no reachable flips) backing everything else;
//! 3. **hammers** each flippy frame, applying the intended flip *and* every
//!    accidental flip the pattern reaches in that page, honoring each
//!    cell's pinned direction (a 0→1 cell does nothing to a stored 1),
//!    then **reads back** every targeted byte to verify the flip actually
//!    landed — flips are reported as *verified* or merely *assumed*.
//!
//! On a cooperative DRAM ([`OnlineAttack::execute`]) every assumed flip
//! verifies. Under chaos mode ([`crate::chaos`]) the simulator injects
//! templating phantoms, flaky flips, evictions, and ECC masking; the
//! adaptive driver ([`OnlineAttack::execute_adaptive`]) then recovers by
//! retrying refuted rows with exponential backoff, falling back to
//! optimizer-supplied alternate bits, and re-templating fresh pages for
//! starved matches — all accounted against the paper's attack-time model
//! and classified as a full, degraded, or failed run.

use crate::chaos::{ChaosConfig, ChaosEngine, InjectedFault, ECC_WORD_BITS};
use crate::error::{DramError, Result};
use crate::hammer::{validate_pattern, HammerConfig};
use crate::placement::{steer_weight_file, PlacementPlan};
use crate::profile::{
    draw_cell, first_cell_per_bit, sample_poisson, FlipCell, FlipDirection, FlipProfile, PAGE_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Bytes per weight-file page (must agree with `rhb_nn::weightfile`).
pub const PAGE_SIZE: usize = 4096;

/// One bit flip the offline phase requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetBit {
    /// Page index within the weight file.
    pub file_page: usize,
    /// Bit offset within the page (0..32768).
    pub bit_offset: usize,
    /// Required direction: `true` for 0→1.
    pub zero_to_one: bool,
}

impl TargetBit {
    /// The flip direction as a profile type.
    pub fn direction(&self) -> FlipDirection {
        if self.zero_to_one {
            FlipDirection::ZeroToOne
        } else {
            FlipDirection::OneToZero
        }
    }
}

/// A flip that was actually applied to the weight file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedFlip {
    /// Weight-file page.
    pub file_page: usize,
    /// Bit offset within the page.
    pub bit_offset: usize,
    /// Whether this was an optimizer-intended flip (vs accidental).
    pub intended: bool,
}

/// Full provenance of one attacker-chosen bit through the online phase:
/// which flippy frame the templating match found for it, which frame the
/// placement exploit actually steered its page into, how many hammer
/// passes its row took, and whether the bit ended up flipped — and, since
/// the read-back pass, whether that flip was *verified* rather than
/// assumed. One record per requested target, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetRecord {
    /// The requested flip.
    pub target: TargetBit,
    /// The flippy frame the matching phase assigned (the templating match);
    /// `None` if no profiled or extended page covered the offset.
    pub matched_frame: Option<usize>,
    /// The frame the target's file page was resident in during hammering
    /// (the placement address). Equals `matched_frame` for matched targets;
    /// a bait frame otherwise.
    pub placed_frame: Option<usize>,
    /// Hammer passes delivered to the frame's row (0 if never hammered).
    pub hammer_attempts: u32,
    /// Whether the intended bit actually flipped.
    pub flipped: bool,
    /// Whether read-back confirmed the targeted byte holds its required
    /// value. Without chaos this always equals `flipped`; under chaos a
    /// flip can be assumed (cell reachable, direction armed) yet refuted.
    pub verified: bool,
    /// Recovery retry passes spent on this target beyond the first.
    pub retries: u32,
    /// Whether an optimizer-supplied *alternate* bit landed on behalf of
    /// this target after its primary was refuted.
    pub fallback: bool,
}

/// Result of one online attack execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// Targets requested by the offline phase.
    pub n_targets: usize,
    /// Targets for which a flippy page was found (the paper's `n_match`).
    pub n_matched: usize,
    /// Every flip applied to the file, intended and accidental.
    pub applied: Vec<AppliedFlip>,
    /// Accidental flips per *target* page (the `δ` of the r_match formula).
    pub accidental_in_target_pages: usize,
    /// Targets that could not be matched, with the failing offset.
    pub unmatched: Vec<TargetBit>,
    /// Wall-clock attack time under the paper's hammer-time model (the
    /// initial pass only; recovery time is accounted separately in
    /// [`AdaptiveOutcome::recovery_time`]).
    pub attack_time: Duration,
    /// The realized placement, for diagnostics.
    pub placement: PlacementPlan,
    /// Per-target provenance, in request order (the flip ledger's
    /// placement/hammer half; `rhb_core` joins it with optimizer context).
    pub records: Vec<TargetRecord>,
}

impl OnlineOutcome {
    /// Intended flips actually applied.
    pub fn intended_applied(&self) -> usize {
        self.applied.iter().filter(|f| f.intended).count()
    }

    /// Accidental flips actually applied (anywhere).
    pub fn accidental_applied(&self) -> usize {
        self.applied.iter().filter(|f| !f.intended).count()
    }
}

/// Result of the matching phase ([`OnlineAttack::match_targets`]): which
/// flippy frames were consumed, which file page each one hosts, and which
/// targets found (or failed to find) a frame.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// Flippy frames consumed by matching, in match order.
    pub used_frames: Vec<usize>,
    /// Matched flippy frame per targeted file page.
    pub frame_of_file_page: HashMap<usize, usize>,
    /// Targets for which a frame was found.
    pub matched: Vec<TargetBit>,
    /// Targets no frame could realize.
    pub unmatched: Vec<TargetBit>,
}

/// Result of the hammering phase: what landed, plus the three-way
/// verification split per wanted target.
#[derive(Debug, Clone, Default)]
pub struct HammerOutcome {
    /// Every flip applied (and surviving ECC), intended and accidental.
    pub applied: Vec<AppliedFlip>,
    /// Accidental flips landing in target pages (post-ECC).
    pub accidental_in_target_pages: usize,
    /// Targets the attacker *expected* to land before read-back: the
    /// matched cell is reachable at this intensity and the stored bit
    /// permits the flip direction.
    pub assumed: Vec<TargetBit>,
    /// Assumed targets whose read-back confirmed the required value.
    pub verified: Vec<TargetBit>,
    /// Assumed targets the read-back refuted (chaos ate the flip).
    pub refuted: Vec<TargetBit>,
}

impl HammerOutcome {
    /// Folds one frame pass into the running outcome.
    fn absorb(&mut self, pass: HammerOutcome) {
        self.applied.extend(pass.applied);
        self.accidental_in_target_pages += pass.accidental_in_target_pages;
        self.assumed.extend(pass.assumed);
        self.verified.extend(pass.verified);
        self.refuted.extend(pass.refuted);
    }
}

/// Recovery budget and strategy knobs for [`OnlineAttack::execute_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Extra hammer passes allowed per refuted target (beyond the first).
    pub max_retries: u32,
    /// Re-templating rounds allowed while matches starve.
    pub max_retemplate_rounds: u32,
    /// Fresh pages templated per re-templating round.
    pub retemplate_pages: usize,
    /// Hammer-side recovery time budget as a multiple of the nominal
    /// attack time for the requested target count (the paper's
    /// `time_per_row × N_flip` model). Re-templating time is reported in
    /// [`AdaptiveOutcome::recovery_time`] but charged against
    /// `max_retemplate_rounds`, not this budget — one 2048-page round
    /// already costs minutes and would instantly starve the hammer budget.
    pub time_budget_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            max_retemplate_rounds: 2,
            retemplate_pages: 2048,
            time_budget_factor: 4.0,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: [`OnlineAttack::execute_adaptive`] degenerates to
    /// the plain match → place → hammer pipeline of
    /// [`OnlineAttack::execute`].
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            max_retemplate_rounds: 0,
            retemplate_pages: 0,
            time_budget_factor: 0.0,
        }
    }

    /// Whether any recovery stage can run.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0 || self.max_retemplate_rounds > 0
    }

    /// Whether the driver should keep re-templating after `err` with
    /// `rounds_done` rounds already spent. Dispatches on the error's
    /// recovery class ([`DramError::is_recoverable`]): fatal errors abort
    /// re-templating outright, recoverable ones continue until the round
    /// budget runs out.
    pub fn should_retemplate(&self, err: &DramError, rounds_done: u32) -> bool {
        err.is_recoverable()
            && rounds_done < self.max_retemplate_rounds
            && self.retemplate_pages > 0
    }
}

/// How intact an adaptive run ended up (ISSUE: graceful degradation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunClass {
    /// No fault was injected and no recovery stage was needed.
    Full,
    /// Faults fired or recovery ran, but at least half the requested
    /// targets were verifiably realized (directly or via an alternate).
    Degraded,
    /// Fewer than half the requested targets were realized.
    Failed,
}

impl RunClass {
    /// Stable reporting name.
    pub fn name(&self) -> &'static str {
        match self {
            RunClass::Full => "full",
            RunClass::Degraded => "degraded",
            RunClass::Failed => "failed",
        }
    }

    /// Ordering for regression verdicts: higher is better.
    pub fn rank(&self) -> u8 {
        match self {
            RunClass::Full => 2,
            RunClass::Degraded => 1,
            RunClass::Failed => 0,
        }
    }

    /// Inverse of [`RunClass::name`], for lenient artifact parsing.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(RunClass::Full),
            "degraded" => Some(RunClass::Degraded),
            "failed" => Some(RunClass::Failed),
            _ => None,
        }
    }
}

/// One recovery retry pass on a refuted target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryRecord {
    /// The refuted target being retried.
    pub target: TargetBit,
    /// The frame whose row was re-hammered.
    pub frame: usize,
    /// 1-based hammer pass number (the initial pass is attempt 1).
    pub attempt: u32,
    /// Whether read-back verified the flip after this pass.
    pub landed: bool,
}

/// One fallback attempt: an optimizer-supplied alternate bit tried after
/// a primary target's flip was refuted beyond retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FallbackRecord {
    /// The refuted primary target.
    pub primary: TargetBit,
    /// The alternate bit attempted in its place.
    pub alternate: TargetBit,
    /// The flippy frame matched for the alternate (`None` if matching
    /// failed and nothing was hammered).
    pub frame: Option<usize>,
    /// Whether read-back verified the alternate's flip.
    pub landed: bool,
}

/// Result of [`OnlineAttack::execute_adaptive`]: the plain outcome plus
/// the full recovery/fault accounting.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The match/place/hammer outcome (records carry per-target
    /// verification, retry, and fallback flags).
    pub outcome: OnlineOutcome,
    /// Graceful-degradation classification of the run.
    pub classification: RunClass,
    /// Every retry pass, in execution order.
    pub retries: Vec<RetryRecord>,
    /// Every fallback attempt, in execution order.
    pub fallbacks: Vec<FallbackRecord>,
    /// Every chaos fault injected during the run, sorted for stable
    /// reporting (empty without chaos).
    pub injected_faults: Vec<InjectedFault>,
    /// Requested targets verifiably realized — directly or via an
    /// alternate bit.
    pub verified_targets: usize,
    /// Targets realized only thanks to a recovery stage (retry, fallback,
    /// or re-templating) rather than the initial pass.
    pub recovered_targets: usize,
    /// Re-templating rounds actually run.
    pub retemplate_rounds: u32,
    /// Modeled time spent in recovery (retry/fallback hammer passes plus
    /// re-templating), on top of [`OnlineOutcome::attack_time`].
    pub recovery_time: Duration,
    /// Whether the hammer-side time budget ran out with work remaining.
    pub budget_exhausted: bool,
}

impl AdaptiveOutcome {
    /// Initial attack time plus recovery time.
    pub fn total_attack_time(&self) -> Duration {
        self.outcome.attack_time + self.recovery_time
    }
}

/// Per-target bookkeeping inside `execute_adaptive`.
struct TargetState {
    matched_frame: Option<usize>,
    placed_frame: Option<usize>,
    attempts: u32,
    flipped: bool,
    verified: bool,
    /// An alternate landed on this target's behalf.
    rescued: bool,
    retries: u32,
    fallback: bool,
    /// Realized only by a recovery stage (not the initial pass).
    recovered: bool,
}

impl TargetState {
    fn realized(&self) -> bool {
        self.verified || self.rescued
    }
}

/// The online attack executor.
#[derive(Debug, Clone)]
pub struct OnlineAttack {
    profile: FlipProfile,
    config: HammerConfig,
    /// Additional templated pages beyond the explicit profile, matched
    /// lazily (see [`OnlineAttack::with_extended_templating`]).
    extended_pages: usize,
    extended_seed: u64,
    /// Synthesized cell lists for lazily-matched frames, keyed by frame id
    /// (ids start at `profile.num_pages()` at issue time).
    synthesized: HashMap<usize, Vec<crate::profile::FlipCell>>,
    /// Fault injector; `None` runs the cooperative (exact legacy) DRAM.
    chaos: Option<ChaosEngine>,
}

impl OnlineAttack {
    /// Creates an executor over a templated profile.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DramError::PatternIneffective`] if the configured
    /// hammer pattern cannot flip bits on the profiled chip (e.g.
    /// double-sided on TRR-protected DDR4).
    pub fn new(profile: FlipProfile, config: HammerConfig) -> Result<Self> {
        validate_pattern(config.pattern, profile.chip())?;
        Ok(OnlineAttack {
            profile,
            config,
            extended_pages: 0,
            extended_seed: 0,
            synthesized: HashMap::new(),
            chaos: None,
        })
    }

    /// Extends matching over `pages` *additional* templated pages without
    /// materializing their cells.
    ///
    /// The paper's attacker templates "most of the available memory" of a
    /// 16 GB DIMM (millions of pages); holding every vulnerable cell of
    /// such a region in memory is wasteful when only the handful of matched
    /// pages matter. Matching against the extended region is statistically
    /// exact: a required (offset, direction) finds a page with probability
    /// `1 − (1 − p₁)^pages` where `p₁` is the per-page hit probability at
    /// the current hammer intensity, and a successful match synthesizes
    /// that page's remaining (accidental) cells from the same distribution
    /// the explicit profile uses.
    pub fn with_extended_templating(mut self, pages: usize, seed: u64) -> Self {
        self.extended_pages = pages;
        self.extended_seed = seed;
        self
    }

    /// Arms chaos-mode fault injection. An inactive configuration (every
    /// rate zero) leaves the DRAM cooperative.
    pub fn with_chaos(mut self, config: ChaosConfig) -> Self {
        self.chaos = config.is_active().then(|| ChaosEngine::new(config));
        self
    }

    /// The profile in use.
    pub fn profile(&self) -> &FlipProfile {
        &self.profile
    }

    /// The armed fault injector, if any.
    pub fn chaos(&self) -> Option<&ChaosEngine> {
        self.chaos.as_ref()
    }

    /// Vulnerable cells of a frame, whether explicit or synthesized.
    ///
    /// Synthesized frames take priority: a re-templating round can grow the
    /// profile past a previously-issued synthesized id, so the synthesized
    /// map — never the colliding fresh page — owns the id (the fresh page
    /// with the same id sits in `used_frames` and is skipped by matching).
    fn cells_of_frame(&self, frame: usize) -> Vec<FlipCell> {
        if let Some(cells) = self.synthesized.get(&frame) {
            return cells.clone();
        }
        if frame < self.profile.num_pages() {
            self.profile
                .flips_in_page(frame)
                .into_iter()
                .copied()
                .collect()
        } else {
            Vec::new()
        }
    }

    /// Attempts to match a target against the extended templated region.
    ///
    /// Statistically exact: the probability that at least one of the
    /// extended pages carries a reachable cell at exactly this offset and
    /// direction is `1 − (1 − p₁)^pages`; on success the matched page's
    /// accidental cells are synthesized from the chip's flip distribution
    /// thinned to the current hammer intensity.
    fn match_extended(
        &mut self,
        target: &TargetBit,
        intensity: f64,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if self.extended_pages == 0 || intensity <= 0.0 {
            return None;
        }
        let visible_avg = self.profile.chip().avg_flips_per_page * intensity;
        let p1 = (visible_avg / PAGE_BITS as f64 / 2.0).min(1.0);
        let p_any = 1.0 - (1.0 - p1).powf(self.extended_pages as f64);
        if !rng.gen_bool(p_any.clamp(0.0, 1.0)) {
            return None;
        }
        let frame = self.profile.num_pages() + self.synthesized.len();
        let mut cells = vec![FlipCell {
            page: frame,
            bit_offset: target.bit_offset,
            direction: target.direction(),
            threshold: intensity / 2.0,
        }];
        // Accidental company: the rest of the page's visible cells, none
        // at the target's bit (the matched cell, drawn first, owns it).
        let extras = sample_poisson(visible_avg, rng);
        for _ in 0..extras {
            cells.push(draw_cell(frame, intensity, rng));
        }
        cells.retain(first_cell_per_bit());
        self.synthesized.insert(frame, cells);
        Some(frame)
    }

    /// Phase 1 of [`OnlineAttack::execute`]: matches each target against
    /// the flip profile (one flippy frame can host only one file page, so
    /// frames are consumed as they match). Under chaos, matching is where
    /// templating false negatives (denied matches) and false positives
    /// (phantom cells that will never fire) are injected.
    ///
    /// # Panics
    ///
    /// Panics if a target page lies outside a file of `file_pages` pages.
    pub fn match_targets(&mut self, file_pages: usize, targets: &[TargetBit]) -> MatchOutcome {
        let _span = rhb_telemetry::span!("matching", targets = targets.len());
        let intensity = self.config.pattern.intensity(self.profile.chip().kind);
        let mut ext_rng = StdRng::seed_from_u64(self.extended_seed.wrapping_add(0x5eed));

        let mut used_frames: Vec<usize> = Vec::new();
        let mut frame_of_file_page: HashMap<usize, usize> = HashMap::new();
        let mut matched: Vec<TargetBit> = Vec::new();
        let mut unmatched: Vec<TargetBit> = Vec::new();
        for &t in targets {
            assert!(t.file_page < file_pages, "target page outside weight file");
            if let Some(chaos) = self.chaos.as_mut() {
                if chaos.template_false_negative(t.bit_offset, 0) {
                    unmatched.push(t);
                    continue;
                }
            }
            // If this file page is already pinned to a frame (a second flip
            // in the same page), the existing frame must also cover the new
            // offset — almost never true, matching the paper's observation.
            if let Some(&frame) = frame_of_file_page.get(&t.file_page) {
                let covered = self.cells_of_frame(frame).iter().any(|c| {
                    c.bit_offset == t.bit_offset
                        && c.direction == t.direction()
                        && c.threshold <= intensity
                });
                if covered {
                    matched.push(t);
                } else {
                    unmatched.push(t);
                }
                continue;
            }
            let found = self
                .profile
                .find_matching_page(t.bit_offset, t.direction(), intensity, &used_frames)
                .ok()
                .or_else(|| self.match_extended(&t, intensity, &mut ext_rng));
            match found {
                Some(frame) => {
                    if let Some(chaos) = self.chaos.as_mut() {
                        let _ = chaos.template_false_positive(frame, t.bit_offset);
                    }
                    used_frames.push(frame);
                    frame_of_file_page.insert(t.file_page, frame);
                    matched.push(t);
                }
                None => unmatched.push(t),
            }
        }
        rhb_telemetry::counter!("dram/targets_matched", matched.len());
        rhb_telemetry::counter!("dram/targets_unmatched", unmatched.len());
        MatchOutcome {
            used_frames,
            frame_of_file_page,
            matched,
            unmatched,
        }
    }

    /// Matches one target during recovery (fallback alternates and
    /// re-templated rounds), excluding already-consumed frames. Dispatches
    /// the same chaos interpositions as the initial matching round.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoMatchingPage`] (a *recoverable* error the
    /// driver dispatches on) when neither the profile nor the extended
    /// region covers the target, or when a templating false negative
    /// denies the match this round.
    fn match_recovery(
        &mut self,
        target: &TargetBit,
        used_frames: &[usize],
        round: u32,
    ) -> Result<usize> {
        let intensity = self.config.pattern.intensity(self.profile.chip().kind);
        if let Some(chaos) = self.chaos.as_mut() {
            if chaos.template_false_negative(target.bit_offset, round) {
                return Err(DramError::NoMatchingPage {
                    page_bit_offset: target.bit_offset,
                });
            }
        }
        let found = self
            .profile
            .find_matching_page(
                target.bit_offset,
                target.direction(),
                intensity,
                used_frames,
            )
            .ok()
            .or_else(|| {
                // Each (target, round) gets its own deterministic stream so
                // recovery matching is reproducible regardless of how many
                // targets needed it before this one.
                let mut rng = StdRng::seed_from_u64(
                    self.extended_seed
                        ^ (target.bit_offset as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ u64::from(round).wrapping_mul(0xd1b5_4a32_d192_ed03),
                );
                self.match_extended(target, intensity, &mut rng)
            });
        match found {
            Some(frame) => {
                if let Some(chaos) = self.chaos.as_mut() {
                    let _ = chaos.template_false_positive(frame, target.bit_offset);
                }
                Ok(frame)
            }
            None => Err(DramError::NoMatchingPage {
                page_bit_offset: target.bit_offset,
            }),
        }
    }

    /// Phase 2 of [`OnlineAttack::execute`]: places the weight file so each
    /// matched file page is resident in its flippy frame. Bait frames
    /// preferentially come from profile pages with no flips reachable at
    /// this intensity so untargeted weights stay intact; if the buffer is
    /// too flippy to supply enough clean frames, any unused frame works —
    /// rows that are never hammered never flip.
    ///
    /// # Panics
    ///
    /// Panics if the matched frames plus available bait cannot cover the
    /// file (the templated buffer is smaller than the weight file).
    pub fn place(&self, file_pages: usize, matching: &MatchOutcome) -> PlacementPlan {
        let _span = rhb_telemetry::span!("placement", file_pages = file_pages);
        let intensity = self.config.pattern.intensity(self.profile.chip().kind);
        let used_frames = &matching.used_frames;
        let clean = (0..self.profile.num_pages()).filter(|&p| {
            !used_frames.contains(&p)
                && !self
                    .profile
                    .flips_in_page(p)
                    .iter()
                    .any(|c| c.threshold <= intensity)
        });
        let dirty = (0..self.profile.num_pages()).filter(|&p| {
            !used_frames.contains(&p)
                && self
                    .profile
                    .flips_in_page(p)
                    .iter()
                    .any(|c| c.threshold <= intensity)
        });
        let bait: Vec<usize> = clean.chain(dirty).take(file_pages).collect();
        rhb_telemetry::counter!("dram/bait_frames_used", bait.len().min(file_pages));
        steer_weight_file(file_pages, &matching.frame_of_file_page, &bait)
            .expect("matched frames plus clean bait cover the file")
    }

    /// Hammers one frame's row once and reads back every wanted target.
    ///
    /// This is where every hammer-side chaos fault interposes: a page
    /// eviction skips the whole pass, phantom cells and flaky cells fail
    /// to fire, and the ECC model reverts single-bit flips per 64-bit word
    /// (multi-bit words evade SEC-DED). The returned outcome carries the
    /// assumed/verified/refuted split for exactly this pass.
    fn hammer_frame_once(
        &mut self,
        data: &mut [u8],
        file_page: usize,
        frame: usize,
        wanted: &[TargetBit],
        attempt: u32,
    ) -> HammerOutcome {
        let intensity = self.config.pattern.intensity(self.profile.chip().kind);
        let reachable: Vec<FlipCell> = self
            .cells_of_frame(frame)
            .into_iter()
            .filter(|c| c.threshold <= intensity)
            .collect();

        // What the attacker *expects* to land before verification: the
        // matched cell is reachable and the stored bit permits the flip.
        let mut assumed: Vec<TargetBit> = Vec::new();
        for t in wanted {
            let byte = file_page * PAGE_SIZE + t.bit_offset / 8;
            let mask = 1u8 << (t.bit_offset % 8);
            let stored_zero = data[byte] & mask == 0;
            let covered = reachable
                .iter()
                .any(|c| c.bit_offset == t.bit_offset && c.direction == t.direction());
            if covered && stored_zero == t.zero_to_one {
                assumed.push(*t);
            }
        }

        let evicted = match self.chaos.as_mut() {
            Some(chaos) => chaos.evicted(file_page, attempt),
            None => false,
        };
        let mut applied: Vec<AppliedFlip> = Vec::new();
        if !evicted {
            for cell in &reachable {
                let byte = file_page * PAGE_SIZE + cell.bit_offset / 8;
                let bit = (cell.bit_offset % 8) as u8;
                let mask = 1u8 << bit;
                let stored_zero = data[byte] & mask == 0;
                // A cell flips only in its pinned direction.
                let flips = match cell.direction {
                    FlipDirection::ZeroToOne => stored_zero,
                    FlipDirection::OneToZero => !stored_zero,
                };
                if !flips {
                    continue;
                }
                if let Some(chaos) = self.chaos.as_mut() {
                    if chaos.is_phantom(frame, cell.bit_offset)
                        || chaos.flaky_flip(frame, cell.bit_offset, attempt)
                    {
                        continue;
                    }
                }
                data[byte] ^= mask;
                let intended = wanted.iter().any(|t| t.bit_offset == cell.bit_offset);
                applied.push(AppliedFlip {
                    file_page,
                    bit_offset: cell.bit_offset,
                    intended,
                });
            }
            // ECC-style correction over the flips this pass introduced:
            // words with exactly one fresh flip may be silently reverted.
            if self
                .chaos
                .as_ref()
                .is_some_and(|c| c.config().ecc_correction > 0.0)
            {
                let mut flips_per_word: HashMap<usize, usize> = HashMap::new();
                for f in &applied {
                    *flips_per_word
                        .entry(f.bit_offset / ECC_WORD_BITS)
                        .or_default() += 1;
                }
                let mut masked: Vec<usize> = Vec::new();
                for (i, f) in applied.iter().enumerate() {
                    let word = f.bit_offset / ECC_WORD_BITS;
                    if flips_per_word[&word] != 1 {
                        continue;
                    }
                    let chaos = self.chaos.as_mut().expect("ecc rate checked above");
                    if chaos.ecc_masks(file_page, word, attempt) {
                        let byte = file_page * PAGE_SIZE + f.bit_offset / 8;
                        data[byte] ^= 1u8 << (f.bit_offset % 8);
                        masked.push(i);
                    }
                }
                for &i in masked.iter().rev() {
                    applied.remove(i);
                }
            }
        }

        // Read-back verification of each wanted target.
        let mut verified: Vec<TargetBit> = Vec::new();
        let mut refuted: Vec<TargetBit> = Vec::new();
        for t in wanted {
            let byte = file_page * PAGE_SIZE + t.bit_offset / 8;
            let mask = 1u8 << (t.bit_offset % 8);
            let now_one = data[byte] & mask != 0;
            let landed = applied
                .iter()
                .any(|f| f.intended && f.bit_offset == t.bit_offset)
                && now_one == t.zero_to_one;
            if landed {
                verified.push(*t);
            } else if assumed.contains(t) {
                refuted.push(*t);
            }
        }
        let accidental_in_target_pages = applied.iter().filter(|f| !f.intended).count();
        HammerOutcome {
            applied,
            accidental_in_target_pages,
            assumed,
            verified,
            refuted,
        }
    }

    /// Phase 3 of [`OnlineAttack::execute`]: hammers each flippy frame
    /// hosting a target page, applying the intended flip and every
    /// accidental flip the pattern reaches, honoring pinned directions —
    /// then reads back every targeted byte. The outcome separates flips
    /// the attacker merely *assumed* (reachable cell, armed direction)
    /// from those the read-back *verified*; without chaos the two sets
    /// are identical.
    pub fn hammer(&mut self, data: &mut [u8], matching: &MatchOutcome) -> HammerOutcome {
        let _span = rhb_telemetry::span!("hammering", frames = matching.frame_of_file_page.len(),);
        let mut out = HammerOutcome::default();
        let pairs: Vec<(usize, usize)> = matching
            .frame_of_file_page
            .iter()
            .map(|(&p, &f)| (p, f))
            .collect();
        for (file_page, frame) in pairs {
            let wanted: Vec<TargetBit> = matching
                .matched
                .iter()
                .filter(|t| t.file_page == file_page)
                .copied()
                .collect();
            let pass = self.hammer_frame_once(data, file_page, frame, &wanted, 1);
            out.absorb(pass);
            rhb_telemetry::counter!("dram/frames_hammered", 1);
        }
        crate::hammer::record_bank_accesses(
            &self.profile.chip().geometry(),
            matching.frame_of_file_page.values().copied(),
            self.config.pattern,
        );
        rhb_telemetry::counter!("dram/bits_flipped", out.applied.len());
        rhb_telemetry::counter!(
            "dram/accidental_flips",
            out.applied.iter().filter(|f| !f.intended).count()
        );
        out
    }

    /// Executes the attack on a weight file image (`data` must be a whole
    /// number of 4 KB pages): [`OnlineAttack::match_targets`] →
    /// [`OnlineAttack::place`] → [`OnlineAttack::hammer`]. Unmatched
    /// targets are skipped, mirroring the paper's online-phase evaluation
    /// where only realizable flips land.
    ///
    /// Equivalent to [`OnlineAttack::execute_adaptive`] with
    /// [`RecoveryPolicy::disabled`] and no alternates — without chaos the
    /// two produce byte-identical weight files and ledgers.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not page-aligned or a target page is
    /// outside the file.
    pub fn execute(&mut self, data: &mut [u8], targets: &[TargetBit]) -> OnlineOutcome {
        self.execute_adaptive(data, targets, &HashMap::new(), &RecoveryPolicy::disabled())
            .outcome
    }

    /// Executes the attack with adaptive recovery (the chaos-mode driver):
    ///
    /// 1. the plain match → place → hammer pass with read-back;
    /// 2. **bounded retry with exponential backoff** on refuted targets,
    ///    each pass charged [`crate::hammer::HammerPattern::retry_time`]
    ///    against a budget of `time_budget_factor ×` the nominal attack
    ///    time for the requested target count;
    /// 3. **fallback** to optimizer-supplied `alternates` (keyed by the
    ///    primary's file page) for targets still refuted, matching a fresh
    ///    frame and re-steering the placement;
    /// 4. **re-templating** fresh pages while matches starve, dispatching
    ///    on [`DramError::is_recoverable`] to decide whether another round
    ///    is worth it.
    ///
    /// Every retry, fallback, injected fault, and re-templating round is
    /// recorded, and the run is classified full / degraded / failed.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not page-aligned or a target page is
    /// outside the file.
    pub fn execute_adaptive(
        &mut self,
        data: &mut [u8],
        targets: &[TargetBit],
        alternates: &HashMap<usize, Vec<TargetBit>>,
        policy: &RecoveryPolicy,
    ) -> AdaptiveOutcome {
        assert_eq!(
            data.len() % PAGE_SIZE,
            0,
            "weight file must be page-aligned"
        );
        let file_pages = data.len() / PAGE_SIZE;

        let matching = self.match_targets(file_pages, targets);
        let mut placement = self.place(file_pages, &matching);
        let mut hammered = self.hammer(data, &matching);

        let mut states: Vec<TargetState> = targets
            .iter()
            .map(|&t| {
                let matched_frame = if matching.matched.contains(&t) {
                    matching.frame_of_file_page.get(&t.file_page).copied()
                } else {
                    None
                };
                TargetState {
                    matched_frame,
                    placed_frame: placement.frame_of(t.file_page),
                    attempts: u32::from(matched_frame.is_some()),
                    flipped: hammered.applied.iter().any(|f| {
                        f.intended && f.file_page == t.file_page && f.bit_offset == t.bit_offset
                    }),
                    verified: hammered.verified.contains(&t),
                    rescued: false,
                    retries: 0,
                    fallback: false,
                    recovered: false,
                }
            })
            .collect();

        let base_attack_time = self
            .config
            .pattern
            .attack_time(matching.frame_of_file_page.len());
        // Hammer-side recovery spend (retry/fallback passes) is capped by
        // the time budget; modeled re-templating time is reported in
        // `recovery_time` but gated only by `max_retemplate_rounds` — one
        // 2048-page round already costs minutes and would otherwise starve
        // the hammer budget instantly.
        let mut hammer_spent = Duration::ZERO;
        let mut templating_spent = Duration::ZERO;
        let mut retries_log: Vec<RetryRecord> = Vec::new();
        let mut fallbacks_log: Vec<FallbackRecord> = Vec::new();
        let mut used_frames = matching.used_frames.clone();
        let mut pinned_pages: HashSet<usize> =
            matching.frame_of_file_page.keys().copied().collect();
        let mut retemplate_rounds = 0u32;
        let mut budget_exhausted = false;

        if policy.enabled() {
            let _span = rhb_telemetry::span!("recovery", targets = targets.len());
            // Budget keyed to the *requested* target count so a run whose
            // matches all starved can still afford recovery hammering.
            let hammer_budget = self
                .config
                .pattern
                .attack_time(targets.len())
                .mul_f64(policy.time_budget_factor.max(0.0));
            let initially_refuted = hammered.refuted.clone();

            // Stage 1: bounded retry with exponential backoff on targets
            // whose read-back refuted the initial pass.
            for i in 0..targets.len() {
                let t = targets[i];
                let Some(frame) = states[i].matched_frame else {
                    continue;
                };
                if states[i].verified || !initially_refuted.contains(&t) {
                    continue;
                }
                for attempt in 2..=policy.max_retries.saturating_add(1) {
                    let cost = self.config.pattern.retry_time(attempt);
                    if hammer_spent + cost > hammer_budget {
                        budget_exhausted = true;
                        break;
                    }
                    hammer_spent += cost;
                    let pass = self.hammer_frame_once(data, t.file_page, frame, &[t], attempt);
                    let landed = pass.verified.contains(&t);
                    hammered.absorb(pass);
                    states[i].attempts += 1;
                    states[i].retries += 1;
                    retries_log.push(RetryRecord {
                        target: t,
                        frame,
                        attempt,
                        landed,
                    });
                    rhb_telemetry::counter!("dram/recovery/retries", 1);
                    if landed {
                        states[i].flipped = true;
                        states[i].verified = true;
                        states[i].recovered = true;
                        break;
                    }
                }
            }

            // Stage 2: fall back to optimizer-supplied alternate bits for
            // matched targets the retries could not land.
            for i in 0..targets.len() {
                let t = targets[i];
                if states[i].realized() || states[i].matched_frame.is_none() {
                    continue;
                }
                let Some(alts) = alternates.get(&t.file_page) else {
                    continue;
                };
                for &alt in alts {
                    if alt == t {
                        continue;
                    }
                    // Never displace a page another target's flip depends on.
                    if alt.file_page != t.file_page && pinned_pages.contains(&alt.file_page) {
                        continue;
                    }
                    let cost = self.config.pattern.retry_time(1);
                    if hammer_spent + cost > hammer_budget {
                        budget_exhausted = true;
                        break;
                    }
                    match self.match_recovery(&alt, &used_frames, retemplate_rounds) {
                        Ok(frame) => {
                            hammer_spent += cost;
                            used_frames.push(frame);
                            let _ = placement.resteer(alt.file_page, frame);
                            pinned_pages.insert(alt.file_page);
                            let pass =
                                self.hammer_frame_once(data, alt.file_page, frame, &[alt], 1);
                            let landed = pass.verified.contains(&alt);
                            hammered.absorb(pass);
                            fallbacks_log.push(FallbackRecord {
                                primary: t,
                                alternate: alt,
                                frame: Some(frame),
                                landed,
                            });
                            rhb_telemetry::counter!("dram/recovery/fallbacks", 1);
                            if landed {
                                states[i].fallback = true;
                                states[i].rescued = true;
                                states[i].recovered = true;
                                break;
                            }
                        }
                        Err(err) if err.is_recoverable() => {
                            // A starved or denied match: log the attempt and
                            // move to the next alternate.
                            fallbacks_log.push(FallbackRecord {
                                primary: t,
                                alternate: alt,
                                frame: None,
                                landed: false,
                            });
                            rhb_telemetry::counter!("dram/recovery/fallbacks", 1);
                        }
                        Err(_) => break,
                    }
                }
            }

            // Stage 3: re-template fresh pages while matches starve. The
            // modeled templating time counts as recovery time but is gated
            // by `max_retemplate_rounds`, not the hammer budget.
            'rounds: while states
                .iter()
                .any(|s| s.matched_frame.is_none() && !s.rescued)
                && retemplate_rounds < policy.max_retemplate_rounds
                && policy.retemplate_pages > 0
            {
                retemplate_rounds += 1;
                let seed = self
                    .extended_seed
                    .wrapping_add(u64::from(retemplate_rounds).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let _fresh = self.profile.extend_template(policy.retemplate_pages, seed);
                templating_spent += FlipProfile::templating_time(policy.retemplate_pages);
                rhb_telemetry::counter!("dram/recovery/retemplate_rounds", 1);
                for i in 0..targets.len() {
                    let t = targets[i];
                    if states[i].matched_frame.is_some() || states[i].rescued {
                        continue;
                    }
                    match self.match_recovery(&t, &used_frames, retemplate_rounds) {
                        Ok(frame) => {
                            let cost = self.config.pattern.retry_time(1);
                            if hammer_spent + cost > hammer_budget {
                                budget_exhausted = true;
                                break 'rounds;
                            }
                            hammer_spent += cost;
                            used_frames.push(frame);
                            let _ = placement.resteer(t.file_page, frame);
                            pinned_pages.insert(t.file_page);
                            states[i].matched_frame = Some(frame);
                            states[i].placed_frame = Some(frame);
                            states[i].attempts += 1;
                            let pass = self.hammer_frame_once(data, t.file_page, frame, &[t], 1);
                            let landed = pass.verified.contains(&t);
                            hammered.absorb(pass);
                            if landed {
                                states[i].flipped = true;
                                states[i].verified = true;
                                states[i].recovered = true;
                            }
                        }
                        Err(err) => {
                            if !policy.should_retemplate(&err, retemplate_rounds) {
                                break 'rounds;
                            }
                        }
                    }
                }
            }

            rhb_telemetry::counter!(
                "dram/recovery/recovered_targets",
                states.iter().filter(|s| s.recovered).count()
            );
        }

        let recovery_time = hammer_spent + templating_spent;
        let injected_faults = match self.chaos.as_ref() {
            Some(chaos) => {
                let mut faults = chaos.faults().to_vec();
                faults.sort_by_key(|f| (f.kind, f.location, f.bit_offset, f.attempt));
                faults
            }
            None => Vec::new(),
        };
        let verified_targets = states.iter().filter(|s| s.realized()).count();
        let recovered_targets = states.iter().filter(|s| s.recovered).count();
        let recovery_actions = retries_log.len() + fallbacks_log.len() + retemplate_rounds as usize;
        let classification = if injected_faults.is_empty() && recovery_actions == 0 {
            RunClass::Full
        } else if verified_targets * 2 >= targets.len() {
            RunClass::Degraded
        } else {
            RunClass::Failed
        };

        let records: Vec<TargetRecord> = targets
            .iter()
            .zip(&states)
            .map(|(&t, s)| TargetRecord {
                target: t,
                matched_frame: s.matched_frame,
                placed_frame: s.placed_frame,
                hammer_attempts: s.attempts,
                flipped: s.flipped,
                verified: s.verified,
                retries: s.retries,
                fallback: s.fallback,
            })
            .collect();
        let unmatched: Vec<TargetBit> = targets
            .iter()
            .zip(&states)
            .filter(|(_, s)| s.matched_frame.is_none())
            .map(|(&t, _)| t)
            .collect();
        let n_matched = targets.len() - unmatched.len();

        let outcome = OnlineOutcome {
            n_targets: targets.len(),
            n_matched,
            applied: hammered.applied,
            accidental_in_target_pages: hammered.accidental_in_target_pages,
            unmatched,
            attack_time: base_attack_time,
            placement,
            records,
        };
        AdaptiveOutcome {
            outcome,
            classification,
            retries: retries_log,
            fallbacks: fallbacks_log,
            injected_faults,
            verified_targets,
            recovered_targets,
            retemplate_rounds,
            recovery_time,
            budget_exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultKind;
    use crate::chips::ChipModel;
    use crate::hammer::HammerPattern;

    fn ddr3_attack(pages: usize, seed: u64) -> OnlineAttack {
        let profile = FlipProfile::template(ChipModel::reference_ddr3(), pages, seed);
        OnlineAttack::new(
            profile,
            HammerConfig {
                pattern: HammerPattern::double_sided(),
                reliability: 1.0,
            },
        )
        .unwrap()
    }

    /// Builds targets straight from profile cells so matching must succeed.
    fn easy_targets(attack: &OnlineAttack, n: usize, data: &[u8]) -> Vec<TargetBit> {
        let intensity = attack.config.pattern.intensity(attack.profile.chip().kind);
        let mut seen_pages = Vec::new();
        let mut targets = Vec::new();
        for (i, cell) in attack.profile.cells().iter().enumerate() {
            if targets.len() == n {
                break;
            }
            if cell.threshold > intensity || seen_pages.contains(&cell.page) {
                continue;
            }
            // Pick a distinct file page per target; direction must match
            // what is stored there.
            let file_page = targets.len() % (data.len() / PAGE_SIZE);
            let byte = file_page * PAGE_SIZE + cell.bit_offset / 8;
            let stored_zero = data[byte] & (1 << (cell.bit_offset % 8)) == 0;
            let needed = FlipDirection::for_flip_of(stored_zero);
            if needed != cell.direction {
                continue;
            }
            seen_pages.push(cell.page);
            targets.push(TargetBit {
                file_page,
                bit_offset: cell.bit_offset,
                zero_to_one: stored_zero,
            });
            let _ = i;
        }
        targets
    }

    /// Frames synthesized by extended templating hold one cell per bit,
    /// so no hammer pass flips a bit twice and every matched target
    /// verifies. A target's own 0→1 cell plus an accidental 1→0 cell at
    /// the same bit used to flip it and flip it back. The 15-sided
    /// pattern reaches every cell of the K1-like chip (~100 per frame),
    /// so about one frame in seven draws a colliding pair.
    #[test]
    fn synthesized_frames_hold_one_cell_per_bit_and_every_target_verifies() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..4 * PAGE_SIZE).map(|_| rng.gen()).collect();
        let patterns = [HammerPattern::seven_sided(), HammerPattern::fifteen_sided()];
        for (seed, pattern) in (0..400).zip(patterns.iter().cycle()) {
            let profile = FlipProfile::template(ChipModel::online_ddr4(), 8, seed);
            let config = HammerConfig {
                pattern: *pattern,
                reliability: 1.0,
            };
            let mut attack = OnlineAttack::new(profile, config)
                .unwrap()
                .with_extended_templating(4_000_000, seed ^ 0xd1a5);
            let targets: Vec<TargetBit> = (0..4)
                .map(|file_page| {
                    let bit_offset = rng.gen_range(0..PAGE_BITS);
                    let byte = data[file_page * PAGE_SIZE + bit_offset / 8];
                    TargetBit {
                        file_page,
                        bit_offset,
                        zero_to_one: byte & (1 << (bit_offset % 8)) == 0,
                    }
                })
                .collect();
            let mut bytes = data.clone();
            let outcome = attack.execute(&mut bytes, &targets);
            assert!(
                !attack.synthesized.is_empty(),
                "seed {seed}: no frame synthesized"
            );
            for (frame, cells) in &attack.synthesized {
                let mut bits: Vec<usize> = cells.iter().map(|c| c.bit_offset).collect();
                bits.sort_unstable();
                bits.dedup();
                assert_eq!(bits.len(), cells.len(), "seed {seed}, frame {frame}");
            }
            let mut flipped: Vec<(usize, usize)> = outcome
                .applied
                .iter()
                .map(|f| (f.file_page, f.bit_offset))
                .collect();
            flipped.sort_unstable();
            flipped.dedup();
            assert_eq!(flipped.len(), outcome.applied.len(), "seed {seed}");
            for rec in outcome.records.iter().filter(|r| r.matched_frame.is_some()) {
                assert!(rec.verified, "seed {seed}: {:?} refuted", rec.target);
            }
        }
    }

    #[test]
    fn single_bit_targets_all_match_and_apply() {
        let mut attack = ddr3_attack(4096, 1);
        let mut data = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let targets = easy_targets(&attack, 4, &data);
        assert_eq!(targets.len(), 4, "profile too sparse for test setup");
        let before = data.clone();
        let outcome = attack.execute(&mut data, &targets);
        assert_eq!(outcome.n_matched, 4);
        assert_eq!(outcome.intended_applied(), 4);
        // Every intended target bit actually changed.
        for t in &targets {
            let byte = t.file_page * PAGE_SIZE + t.bit_offset / 8;
            let mask = 1u8 << (t.bit_offset % 8);
            assert_ne!(before[byte] & mask, data[byte] & mask);
        }
    }

    #[test]
    fn two_targets_in_same_page_rarely_both_match() {
        let mut attack = ddr3_attack(2048, 2);
        let data = vec![0u8; 2 * PAGE_SIZE];
        // Two flips wanted in file page 0 at arbitrary distinct offsets.
        let targets = vec![
            TargetBit {
                file_page: 0,
                bit_offset: 123,
                zero_to_one: true,
            },
            TargetBit {
                file_page: 0,
                bit_offset: 20_456,
                zero_to_one: true,
            },
        ];
        let mut buf = data;
        let outcome = attack.execute(&mut buf, &targets);
        // The first may match; requiring the *same* flippy frame to also
        // cover the second offset practically never succeeds.
        assert!(outcome.n_matched <= 1, "both offsets matched one page");
    }

    #[test]
    fn direction_pinning_blocks_wrong_way_flips() {
        let mut attack = ddr3_attack(4096, 3);
        // All-ones data: 0→1 cells can never fire.
        let mut data = vec![0xFFu8; PAGE_SIZE];
        let cell = attack
            .profile
            .cells()
            .iter()
            .find(|c| c.direction == FlipDirection::ZeroToOne)
            .copied()
            .unwrap();
        let targets = vec![TargetBit {
            file_page: 0,
            bit_offset: cell.bit_offset,
            zero_to_one: true,
        }];
        let outcome = attack.execute(&mut data, &targets);
        // Matching succeeds (profile has the cell) but the stored bit is 1,
        // so the 0→1 cell cannot flip it.
        let flipped_intended = outcome.applied.iter().any(|f| f.intended);
        assert!(!flipped_intended, "0→1 cell flipped a stored 1");
        // Read-back agrees: nothing to verify, nothing assumed → not refuted.
        assert!(!outcome.records[0].flipped);
        assert!(!outcome.records[0].verified);
    }

    #[test]
    fn records_carry_match_placement_and_hammer_outcome() {
        let mut attack = ddr3_attack(4096, 7);
        let mut data = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let mut targets = easy_targets(&attack, 3, &data);
        // One hopeless target: a tiny-profile offset that cannot match.
        targets.push(TargetBit {
            file_page: 3,
            bit_offset: 31_999,
            zero_to_one: true,
        });
        let outcome = attack.execute(&mut data, &targets);
        assert_eq!(outcome.records.len(), targets.len());
        for (rec, &t) in outcome.records.iter().zip(&targets) {
            assert_eq!(rec.target, t, "records keep request order");
            // Placement always resolves: matched pages sit in their flippy
            // frame, the rest in bait.
            assert!(rec.placed_frame.is_some());
            if let Some(frame) = rec.matched_frame {
                assert_eq!(rec.placed_frame, Some(frame));
                assert_eq!(rec.hammer_attempts, 1);
            } else {
                assert_eq!(rec.hammer_attempts, 0);
                assert!(!rec.flipped);
            }
            // Cooperative DRAM: read-back confirms exactly what landed,
            // and no recovery stage ever ran.
            assert_eq!(rec.verified, rec.flipped);
            assert_eq!(rec.retries, 0);
            assert!(!rec.fallback);
        }
        let flipped = outcome.records.iter().filter(|r| r.flipped).count();
        assert_eq!(flipped, outcome.intended_applied());
    }

    #[test]
    fn unmatched_targets_are_reported() {
        // A tiny profile cannot match most offsets.
        let mut attack = ddr3_attack(4, 4);
        let mut data = vec![0u8; PAGE_SIZE];
        let targets = vec![TargetBit {
            file_page: 0,
            bit_offset: 31_999,
            zero_to_one: true,
        }];
        let outcome = attack.execute(&mut data, &targets);
        assert_eq!(outcome.n_matched + outcome.unmatched.len(), 1);
    }

    #[test]
    fn attack_time_uses_pattern_model() {
        let mut attack = ddr3_attack(4096, 5);
        let mut data = vec![0b0101_0101u8; 2 * PAGE_SIZE];
        let targets = easy_targets(&attack, 2, &data);
        let outcome = attack.execute(&mut data, &targets);
        let per_row = HammerPattern::double_sided().time_per_row();
        assert_eq!(outcome.attack_time, per_row * outcome.n_matched as u32);
    }

    #[test]
    fn ddr4_online_attack_uses_seven_sided() {
        let profile = FlipProfile::template(ChipModel::online_ddr4(), 4096, 6);
        let mut attack = OnlineAttack::new(profile, HammerConfig::default()).unwrap();
        let mut data = vec![0b1100_0011u8; 2 * PAGE_SIZE];
        let targets = easy_targets(&attack, 2, &data);
        assert!(!targets.is_empty(), "K1 profile should offer matches");
        let outcome = attack.execute(&mut data, &targets);
        assert_eq!(outcome.n_matched, targets.len());
        // Accidental flips stay small per page under the 7-sided pattern.
        let per_page = outcome.accidental_in_target_pages as f64 / targets.len() as f64;
        assert!(per_page < 12.0, "accidental flips per page {per_page}");
    }

    #[test]
    fn execute_matches_adaptive_with_disabled_policy() {
        let attack = ddr3_attack(4096, 11);
        let mut plain = attack.clone();
        let mut adaptive = attack;
        let mut data_plain = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let mut data_adaptive = data_plain.clone();
        let targets = easy_targets(&plain, 4, &data_plain);
        assert_eq!(targets.len(), 4);

        let out_plain = plain.execute(&mut data_plain, &targets);
        let out_adaptive = adaptive.execute_adaptive(
            &mut data_adaptive,
            &targets,
            &HashMap::new(),
            &RecoveryPolicy::disabled(),
        );
        assert_eq!(data_plain, data_adaptive, "weight bytes must be identical");
        assert_eq!(out_plain.records, out_adaptive.outcome.records);
        // Applied order follows hash-map frame iteration (not meaningful);
        // the flip *set* must be identical.
        let key = |f: &AppliedFlip| (f.file_page, f.bit_offset, f.intended);
        let mut applied_plain = out_plain.applied.clone();
        let mut applied_adaptive = out_adaptive.outcome.applied.clone();
        applied_plain.sort_by_key(key);
        applied_adaptive.sort_by_key(key);
        assert_eq!(applied_plain, applied_adaptive);
        assert_eq!(out_adaptive.classification, RunClass::Full);
        assert!(out_adaptive.injected_faults.is_empty());
        assert!(out_adaptive.retries.is_empty());
        assert!(out_adaptive.fallbacks.is_empty());
        assert_eq!(out_adaptive.recovery_time, Duration::ZERO);
        assert_eq!(out_adaptive.verified_targets, 4);
        assert_eq!(out_adaptive.recovered_targets, 0);
    }

    #[test]
    fn flaky_flips_are_recovered_by_retries() {
        let mut attack = ddr3_attack(4096, 21).with_chaos(ChaosConfig {
            flip_flakiness: 0.3,
            eviction: 0.1,
            ..ChaosConfig::seeded(9)
        });
        let mut data = vec![0b1010_1010u8; 6 * PAGE_SIZE];
        let targets = easy_targets(&attack, 6, &data);
        assert_eq!(targets.len(), 6);
        let out = attack.execute_adaptive(
            &mut data,
            &targets,
            &HashMap::new(),
            &RecoveryPolicy::default(),
        );
        assert!(
            !out.injected_faults.is_empty(),
            "30% flakiness must inject faults"
        );
        assert!(!out.retries.is_empty(), "refuted flips must be retried");
        assert_eq!(
            out.verified_targets,
            targets.len(),
            "retries must land every flaky target"
        );
        assert!(out.recovered_targets > 0);
        assert_eq!(out.classification, RunClass::Degraded);
        assert!(out.recovery_time > Duration::ZERO);
        assert!(out.total_attack_time() > out.outcome.attack_time);
        // The ledger accounts for the recovery: retried targets carry
        // their extra passes.
        for rec in &out.outcome.records {
            if rec.retries > 0 {
                assert_eq!(rec.hammer_attempts, 1 + rec.retries);
            }
        }
    }

    #[test]
    fn phantom_cells_exhaust_retries_and_fail_without_alternates() {
        // Every matched cell is a templating phantom: no retry can land it
        // and no alternates were supplied, so the run fails outright.
        let mut attack = ddr3_attack(4096, 22).with_chaos(ChaosConfig {
            template_false_positive: 1.0,
            ..ChaosConfig::seeded(5)
        });
        let mut data = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let targets = easy_targets(&attack, 4, &data);
        assert_eq!(targets.len(), 4);
        let out = attack.execute_adaptive(
            &mut data,
            &targets,
            &HashMap::new(),
            &RecoveryPolicy::default(),
        );
        assert_eq!(out.verified_targets, 0, "phantoms never fire");
        assert_eq!(out.classification, RunClass::Failed);
        assert!(out
            .injected_faults
            .iter()
            .any(|f| f.kind == FaultKind::TemplateFalsePositive));
        assert!(!out.retries.is_empty(), "driver must have tried retries");
        assert!(out.retries.iter().all(|r| !r.landed));
    }

    #[test]
    fn refuted_primaries_fall_back_to_alternate_bits() {
        // Half the matched cells are phantoms; each primary gets two
        // alternate bits (different offsets in the same page, drawn from
        // other profile cells so the fallback match can succeed). Chaos
        // seed 2 deterministically yields both a failed fallback attempt
        // and a landed rescue.
        let mut attack = ddr3_attack(4096, 23).with_chaos(ChaosConfig {
            template_false_positive: 0.5,
            ..ChaosConfig::seeded(2)
        });
        let mut data = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let primaries = easy_targets(&attack, 4, &data);
        assert_eq!(primaries.len(), 4);
        let pool = easy_targets(&attack, 12, &data);
        assert_eq!(pool.len(), 12, "profile too sparse for alternates");
        let mut alternates: HashMap<usize, Vec<TargetBit>> = HashMap::new();
        for (k, primary) in primaries.iter().enumerate() {
            let alts = pool[4 + 2 * k..4 + 2 * k + 2]
                .iter()
                .map(|alt| TargetBit {
                    file_page: primary.file_page,
                    bit_offset: alt.bit_offset,
                    zero_to_one: alt.zero_to_one,
                })
                .collect();
            alternates.insert(primary.file_page, alts);
        }
        let out = attack.execute_adaptive(
            &mut data,
            &primaries,
            &alternates,
            &RecoveryPolicy::default(),
        );
        assert!(
            out.fallbacks.iter().any(|f| f.landed),
            "at least one alternate must land (fallbacks: {:?})",
            out.fallbacks
        );
        let rescued: Vec<&TargetRecord> =
            out.outcome.records.iter().filter(|r| r.fallback).collect();
        assert!(!rescued.is_empty());
        for rec in rescued {
            assert!(!rec.verified, "primary bit itself stays refuted");
        }
        assert!(out.verified_targets > 0);
        assert_ne!(out.classification, RunClass::Full);
    }

    #[test]
    fn ecc_masking_refutes_single_bit_flips() {
        let mut attack = ddr3_attack(4096, 24).with_chaos(ChaosConfig {
            ecc_correction: 1.0,
            ..ChaosConfig::seeded(7)
        });
        let mut data = vec![0b1010_1010u8; 4 * PAGE_SIZE];
        let targets = easy_targets(&attack, 4, &data);
        assert_eq!(targets.len(), 4);
        let out = attack.execute_adaptive(
            &mut data,
            &targets,
            &HashMap::new(),
            &RecoveryPolicy::default(),
        );
        assert!(out
            .injected_faults
            .iter()
            .any(|f| f.kind == FaultKind::EccMasked));
        assert!(
            out.verified_targets < targets.len(),
            "a perfect corrector must refute lone intended flips"
        );
    }

    #[test]
    fn retemplating_recovers_unmatched_targets() {
        // A 4-page profile cannot match an arbitrary offset; re-templating
        // thousands of fresh pages finds one. No chaos needed: recovery
        // engages whenever the policy allows it.
        let mut attack = ddr3_attack(4, 31);
        let mut data = vec![0u8; PAGE_SIZE];
        let targets = vec![TargetBit {
            file_page: 0,
            bit_offset: 31_999,
            zero_to_one: true,
        }];
        let policy = RecoveryPolicy {
            retemplate_pages: 16_384,
            ..RecoveryPolicy::default()
        };
        let out = attack.execute_adaptive(&mut data, &targets, &HashMap::new(), &policy);
        assert!(out.retemplate_rounds >= 1);
        assert_eq!(
            out.verified_targets, 1,
            "fresh pages must cover the target (rounds: {})",
            out.retemplate_rounds
        );
        assert!(out.outcome.records[0].matched_frame.is_some());
        assert!(out.outcome.records[0].verified);
        assert_eq!(out.outcome.n_matched, 1);
        // Needing recovery — even fault-free — is not a Full run, and the
        // modeled templating time is charged.
        assert_eq!(out.classification, RunClass::Degraded);
        assert!(out.recovery_time >= FlipProfile::templating_time(16_384));
    }

    #[test]
    fn recovery_dispatches_on_error_class() {
        let policy = RecoveryPolicy::default();
        let starved = DramError::NoMatchingPage {
            page_bit_offset: 99,
        };
        let fatal = DramError::PatternIneffective("TRR".into());
        // Recoverable error + rounds remaining → keep re-templating.
        assert!(policy.should_retemplate(&starved, 0));
        // Fatal error class aborts regardless of remaining rounds.
        assert!(!policy.should_retemplate(&fatal, 0));
        // Round budget exhausted aborts even recoverable errors.
        assert!(!policy.should_retemplate(&starved, policy.max_retemplate_rounds));
        // A disabled policy never re-templates.
        assert!(!RecoveryPolicy::disabled().should_retemplate(&starved, 0));
    }

    #[test]
    fn run_class_names_round_trip_and_rank() {
        for class in [RunClass::Full, RunClass::Degraded, RunClass::Failed] {
            assert_eq!(RunClass::from_name(class.name()), Some(class));
        }
        assert_eq!(RunClass::from_name("bogus"), None);
        assert!(RunClass::Full.rank() > RunClass::Degraded.rank());
        assert!(RunClass::Degraded.rank() > RunClass::Failed.rank());
    }
}
