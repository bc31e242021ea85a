//! End-to-end attack pipeline: offline optimization → DRAM matching →
//! page placement → hammering → post-attack evaluation (the structure of
//! Table II, with its Offline Phase and Online Phase column groups).
//!
//! For the unconstrained baselines the pipeline also implements the
//! paper's online-phase concession (§V-D): when a method demands several
//! flips in one page, keep only the flip with the largest gradient per
//! page and restore the rest — only pages with a single targeted bit can
//! realistically be found in DRAM.

use crate::baselines::{badnet, ft_last_layer, tbt, BaselineConfig};
use crate::cft::{run as run_cft, AlternateTarget, CftConfig, CftResult, LossPoint};
use crate::groupsel::{GroupPlan, WEIGHTS_PER_PAGE};
use crate::metrics::{attack_success_rate, n_flip, r_match, test_accuracy};
use crate::provenance::FlipRecord;
use crate::trigger::{Trigger, TriggerMask};
use rhb_dram::hammer::HammerConfig;
use rhb_dram::online::{OnlineAttack, RecoveryPolicy, RunClass, TargetBit};
use rhb_dram::profile::FlipProfile;
use rhb_dram::{ChaosConfig, ChipModel};
use rhb_models::zoo::PretrainedModel;
use rhb_nn::weightfile::{BitTarget, WeightFile, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;

/// The five methods compared in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackMethod {
    /// BadNet: unconstrained fine-tuning of all weights, fixed trigger.
    BadNet,
    /// FT: last-layer fine-tuning, fixed trigger.
    Ft,
    /// TBT: trigger optimization + limited last-layer weight edits.
    Tbt,
    /// CFT: constrained fine-tuning without bit reduction.
    Cft,
    /// CFT+BR: the paper's full method.
    CftBr,
}

impl AttackMethod {
    /// All methods in Table II row order.
    pub const ALL: [AttackMethod; 5] = [
        AttackMethod::BadNet,
        AttackMethod::Ft,
        AttackMethod::Tbt,
        AttackMethod::Cft,
        AttackMethod::CftBr,
    ];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            AttackMethod::BadNet => "BadNet",
            AttackMethod::Ft => "FT",
            AttackMethod::Tbt => "TBT",
            AttackMethod::Cft => "CFT",
            AttackMethod::CftBr => "CFT+BR",
        }
    }

    /// Parses a paper-style display name (case-insensitive; `+` and `-`
    /// are interchangeable, so campaign run-ids like `CFT_BR` resolve
    /// too). `None` for unknown methods.
    pub fn from_name(name: &str) -> Option<AttackMethod> {
        let canon: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        AttackMethod::ALL.iter().copied().find(|m| {
            let mine: String = m
                .name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .map(|c| c.to_ascii_lowercase())
                .collect();
            mine == canon
        })
    }
}

/// The typed verdict a campaign records for one run: the pipeline's
/// graceful-degradation classes for completed runs, plus the two
/// supervisor-assigned retirement classes for runs that never produced
/// an [`OnlineReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunVerdict {
    /// Completed; every requested flip landed ([`RunClass::Full`]).
    Full,
    /// Completed with partial efficacy ([`RunClass::Degraded`]).
    Degraded,
    /// Completed but the trigger did not take ([`RunClass::Failed`]).
    Failed,
    /// Retired by the supervisor after repeated deadline overruns.
    TimedOut,
    /// Retired by the supervisor after repeated panics or errors.
    Quarantined,
}

impl RunVerdict {
    /// Stable lower-case name (journal and report vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            RunVerdict::Full => "full",
            RunVerdict::Degraded => "degraded",
            RunVerdict::Failed => "failed",
            RunVerdict::TimedOut => "timed_out",
            RunVerdict::Quarantined => "quarantined",
        }
    }

    /// Parses the stable name. `None` for unknown classes.
    pub fn from_name(name: &str) -> Option<RunVerdict> {
        match name {
            "full" => Some(RunVerdict::Full),
            "degraded" => Some(RunVerdict::Degraded),
            "failed" => Some(RunVerdict::Failed),
            "timed_out" => Some(RunVerdict::TimedOut),
            "quarantined" => Some(RunVerdict::Quarantined),
            _ => None,
        }
    }

    /// Lifts a pipeline classification into the campaign vocabulary.
    pub fn from_run_class(class: RunClass) -> RunVerdict {
        match class {
            RunClass::Full => RunVerdict::Full,
            RunClass::Degraded => RunVerdict::Degraded,
            RunClass::Failed => RunVerdict::Failed,
        }
    }

    /// Whether the run actually executed to completion (produced a
    /// report), as opposed to being retired by the supervisor.
    pub fn is_completed(&self) -> bool {
        matches!(
            self,
            RunVerdict::Full | RunVerdict::Degraded | RunVerdict::Failed
        )
    }
}

/// Results of the offline phase (left half of Table II).
#[derive(Debug, Clone)]
pub struct OfflineReport {
    /// The method that produced this report.
    pub method: AttackMethod,
    /// Bits flipped by the offline optimizer.
    pub n_flip: u64,
    /// Test accuracy of the offline-backdoored model.
    pub test_accuracy: f64,
    /// Attack success rate of the offline-backdoored model.
    pub attack_success_rate: f64,
    /// The learned (or fixed) trigger.
    pub trigger: Trigger,
    /// Original deployed weight file.
    pub base_weights: WeightFile,
    /// Offline-modified weight file.
    pub attacked_weights: WeightFile,
    /// Loss trace (CFT/CFT+BR only), for Fig. 7.
    pub loss_history: Vec<LossPoint>,
    /// Per-group alternate bit targets (CFT/CFT+BR only): the runner-up
    /// weight of each page group, offered to the online recovery driver as
    /// a fallback when a primary flip is refuted. Empty for baselines.
    pub alternates: Vec<AlternateTarget>,
}

/// Results of the online phase (right half of Table II).
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// The method that produced this report.
    pub method: AttackMethod,
    /// Bits actually flipped in DRAM.
    pub n_flip: u64,
    /// Test accuracy of the hardware-backdoored model.
    pub test_accuracy: f64,
    /// Attack success rate of the hardware-backdoored model.
    pub attack_success_rate: f64,
    /// The paper's DRAM match rate metric, in percent.
    pub r_match: f64,
    /// Matched targets vs requested.
    pub n_matched: usize,
    /// Targets requested after per-page reduction.
    pub n_targets: usize,
    /// Accidental flips inside target pages (δ).
    pub accidental: usize,
    /// Modeled wall-clock hammering time.
    pub attack_time: Duration,
    /// Flip provenance ledger: one record per post-reduction target, in
    /// request order, joining optimizer context (weight index, page group)
    /// with the DRAM-side match/placement/hammer outcome.
    pub ledger: Vec<FlipRecord>,
    /// Graceful-degradation classification of the run (always
    /// [`RunClass::Full`] when chaos is off).
    pub classification: RunClass,
    /// Targets whose own bit read back verified.
    pub verified_flips: usize,
    /// Targets realized only through a recovery stage (retry, fallback, or
    /// re-templating).
    pub recovered_flips: usize,
    /// Recovery retry passes across all targets.
    pub retries: usize,
    /// Alternate-bit fallback attempts across all targets.
    pub fallbacks: usize,
    /// Chaos faults injected during the run (0 when chaos is off).
    pub injected_faults: usize,
    /// Modeled wall-clock time spent in recovery (re-hammering and
    /// re-templating), on top of `attack_time`.
    pub recovery_time: Duration,
    /// Re-templating rounds the recovery driver ran.
    pub retemplate_rounds: u32,
}

/// Drives one victim model through offline and online phases.
pub struct AttackPipeline {
    /// The victim (trained, deployed, with data splits).
    pub model: PretrainedModel,
    /// The target label every trigger drives inputs toward.
    pub target_label: usize,
    /// DRAM device for the online phase.
    pub chip: ChipModel,
    /// Templated pages available to the attacker.
    pub profile_pages: usize,
    /// Seed for templating and any stochastic choices.
    pub seed: u64,
    /// Online hammer configuration.
    pub hammer: HammerConfig,
    /// Optional override of the trigger patch side length. `None` keeps
    /// the paper's proportions ([`TriggerMask::paper_default`]); the
    /// serving experiment sets a larger patch so the backdoor saturates
    /// on the width-scaled victims.
    pub trigger_patch: Option<usize>,
    /// Chaos-mode fault injection for the online phase (`None` or an
    /// inactive config leaves the DRAM fully cooperative and the online
    /// outcome byte-identical to a pipeline without chaos support).
    pub chaos: Option<ChaosConfig>,
    /// Recovery policy the online phase uses *when chaos is active*; with
    /// chaos off the pipeline runs the plain single-pass attack.
    pub recovery: RecoveryPolicy,
    /// Shared template cache: when set, `run_online` fetches the flip
    /// profile through it instead of templating inline, so campaign
    /// retries and resumes re-hammer instead of re-templating. `None`
    /// preserves the original template-every-run behavior.
    pub template_cache: Option<std::sync::Arc<rhb_dram::TemplateCache>>,
}

impl std::fmt::Debug for AttackPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AttackPipeline({:?} on {} / {} pages)",
            self.model, self.chip.tag, self.profile_pages
        )
    }
}

impl AttackPipeline {
    /// Creates a pipeline with the paper's online setup: a DDR4 device
    /// hammered 7-sided over a 128 MB-equivalent templated buffer (scaled
    /// to 8192 pages to keep simulation fast — still orders of magnitude
    /// more pages than any scaled victim occupies).
    pub fn new(model: PretrainedModel, target_label: usize, seed: u64) -> Self {
        AttackPipeline {
            model,
            target_label,
            chip: ChipModel::online_ddr4(),
            profile_pages: 8192,
            seed,
            hammer: HammerConfig::default(),
            trigger_patch: None,
            chaos: None,
            recovery: RecoveryPolicy::default(),
            template_cache: None,
        }
    }

    /// Routes templating through a shared cache (builder-style).
    pub fn with_template_cache(mut self, cache: std::sync::Arc<rhb_dram::TemplateCache>) -> Self {
        self.template_cache = Some(cache);
        self
    }

    /// The victim's trigger mask: paper proportions for its image size,
    /// or the explicit `trigger_patch` override (clamped to the side).
    pub fn trigger_mask(&self) -> TriggerMask {
        let channels = self.model.test_data.channels();
        let side = self.model.test_data.side();
        match self.trigger_patch {
            Some(patch) => TriggerMask::bottom_right_square(channels, side, patch.min(side)),
            None => TriggerMask::paper_default(channels, side),
        }
    }

    /// Flip budget for the constrained methods. The paper's only hard
    /// constraint is `N_flip ≤ #pages` (one flip per page group); it uses
    /// 10–100 flips depending on the model. Our width-scaled victims have
    /// far fewer pages, so the budget defaults to the page count itself,
    /// capped at the paper's maximum of 100.
    pub fn default_flip_budget(&self) -> usize {
        let pages = WeightFile::from_network(self.model.net.as_ref()).num_pages();
        pages.clamp(1, 100)
    }

    /// Runs the offline phase of a method, mutating the victim in place.
    pub fn run_offline(&mut self, method: AttackMethod) -> OfflineReport {
        let _pipeline_span = rhb_telemetry::span!("pipeline", seed = self.seed);
        let base_weights = WeightFile::from_network(self.model.net.as_ref());
        let trigger0 = Trigger::black_square(self.trigger_mask());
        let net = self.model.net.as_mut();
        let data = &self.model.test_data;
        let bl = BaselineConfig::new(self.target_label);
        let budget = {
            let pages = base_weights.num_pages();
            pages.clamp(1, 100)
        };
        let _offline_span = rhb_telemetry::span!("offline", method = method.name());
        let (trigger, loss_history, alternates) = match method {
            AttackMethod::BadNet => (badnet(net, data, &bl, trigger0), Vec::new(), Vec::new()),
            AttackMethod::Ft => (
                ft_last_layer(net, data, &bl, trigger0),
                Vec::new(),
                Vec::new(),
            ),
            AttackMethod::Tbt => (tbt(net, data, &bl, trigger0, 24), Vec::new(), Vec::new()),
            AttackMethod::Cft => {
                let cfg = CftConfig {
                    iterations: 150,
                    bit_reduction_period: 25,
                    eta: 0.5,
                    epsilon: 0.005,
                    ..CftConfig::cft(budget, self.target_label)
                };
                let CftResult {
                    trigger,
                    loss_history,
                    alternates,
                    ..
                } = run_cft(net, data, &cfg, trigger0);
                (trigger, loss_history, alternates)
            }
            AttackMethod::CftBr => {
                let cfg = CftConfig {
                    iterations: 150,
                    bit_reduction_period: 25,
                    eta: 0.5,
                    epsilon: 0.005,
                    ..CftConfig::cft_br(budget, self.target_label)
                };
                let CftResult {
                    trigger,
                    loss_history,
                    alternates,
                    ..
                } = run_cft(net, data, &cfg, trigger0);
                (trigger, loss_history, alternates)
            }
        };
        drop(_offline_span);
        let attacked_weights = WeightFile::from_network(self.model.net.as_ref());
        let flips = n_flip(&base_weights, &attacked_weights)
            .expect("attacked weights describe the same architecture");
        rhb_telemetry::counter!("core/offline/bits_requested", flips);
        let (ta, asr) = {
            let _eval_span = rhb_telemetry::span!("evaluation");
            (
                test_accuracy(self.model.net.as_mut(), &self.model.test_data),
                attack_success_rate(
                    self.model.net.as_mut(),
                    &self.model.test_data,
                    &trigger,
                    self.target_label,
                ),
            )
        };
        rhb_telemetry::event!(
            "offline_report",
            method = method.name(),
            n_flip = flips,
            test_accuracy = ta,
            attack_success_rate = asr,
        );
        OfflineReport {
            method,
            n_flip: flips,
            test_accuracy: ta,
            attack_success_rate: asr,
            trigger,
            base_weights,
            attacked_weights,
            loss_history,
            alternates,
        }
    }

    /// Runs the online phase: reduce per-page demands, match against the
    /// templated profile, place, hammer, and evaluate the corrupted model.
    ///
    /// The victim network ends up loaded with the *hardware*-corrupted
    /// weights (not the offline ideal).
    pub fn run_online(&mut self, offline: &OfflineReport) -> OnlineReport {
        // Per the paper's evaluation: when a method demands several bits in
        // one page, keep the most significant demand per page (largest
        // weight-gradient proxy: we use the most significant differing bit,
        // matching the spirit of "largest gradient") and restore the rest.
        let _pipeline_span = rhb_telemetry::span!("pipeline", seed = self.seed);
        let wanted = offline.base_weights.diff(&offline.attacked_weights);
        let targets = reduce_to_one_per_page(&wanted);
        rhb_telemetry::counter!("core/online/targets_requested", targets.len());

        let profile = {
            let _templating_span = rhb_telemetry::span!("templating", pages = self.profile_pages);
            match &self.template_cache {
                Some(cache) => (*cache.profile(self.chip, self.profile_pages, self.seed)).clone(),
                None => FlipProfile::template(self.chip, self.profile_pages, self.seed),
            }
        };
        // Beyond the explicit buffer, the attacker templates most of the
        // 16 GB DIMM (§IV-A2: "multiple buffers of 128MB can be taken at a
        // time to profile most of the available memory") — ~4M pages.
        let mut attack = OnlineAttack::new(profile, self.hammer)
            .expect("online pattern is valid for the chip")
            .with_extended_templating(4_000_000, self.seed ^ 0xd1a5);
        let chaos_on = self.chaos.as_ref().is_some_and(|c| c.is_active());
        if let Some(cfg) = self.chaos {
            attack = attack.with_chaos(cfg);
        }
        let mut bytes = offline.base_weights.bytes().to_vec();
        let dram_targets: Vec<TargetBit> = targets
            .iter()
            .map(|t| TargetBit {
                file_page: t.location.page,
                bit_offset: t.location.offset * 8 + t.bit as usize,
                zero_to_one: t.zero_to_one,
            })
            .collect();

        // Group-constrained methods know which CFT+BR page group sourced
        // each bit; that context keys both the ledger and the alternate
        // (fallback) bit targets the recovery driver may substitute.
        let group_plan = match offline.method {
            AttackMethod::Cft | AttackMethod::CftBr => {
                let total_weights = offline.base_weights.bytes().len();
                let budget = offline.base_weights.num_pages().clamp(1, 100);
                Some(GroupPlan::new(total_weights, budget))
            }
            _ => None,
        };
        let alternates = alternate_map(&dram_targets, &offline.alternates, group_plan.as_ref());

        // Arm the live health model: the §VII a-priori ETA publishes
        // before hammering starts, so a mid-run scrape already sees it.
        let mut health = crate::health::HealthMonitor::new(
            crate::health::HealthConfig::default(),
            self.hammer.pattern,
            dram_targets.len(),
        );

        // Recovery only arms alongside chaos: on a cooperative DRAM the
        // single-pass attack and the adaptive driver are byte-identical,
        // and a disabled policy keeps them on the same code path.
        let policy = if chaos_on {
            self.recovery
        } else {
            RecoveryPolicy::disabled()
        };
        let adaptive = attack.execute_adaptive(&mut bytes, &dram_targets, &alternates, &policy);
        let outcome = &adaptive.outcome;

        // Feed the health model from the per-target records so the
        // rolling rates, progress, and refined ETA reflect this run; the
        // end-of-run classification gauge keys /status.
        for rec in &outcome.records {
            health.observe_match(rec.matched_frame.is_some());
            if rec.hammer_attempts > 0 {
                health.observe_hammer(rec.verified);
            }
        }
        health.finish();
        rhb_telemetry::gauge!("core/run_class", adaptive.classification.rank());

        let ledger: Vec<FlipRecord> = outcome
            .records
            .iter()
            .map(|rec| {
                let weight_idx = rec.target.file_page * crate::groupsel::WEIGHTS_PER_PAGE
                    + rec.target.bit_offset / 8;
                let flip = FlipRecord::from_target(
                    rec,
                    group_plan.as_ref().map(|g| g.group_of(weight_idx)),
                );
                flip.emit();
                flip
            })
            .collect();
        rhb_telemetry::counter!("core/online/ledger_records", ledger.len());

        // Rebuild the weight file from hammered bytes and load the victim.
        let mut corrupted = offline.base_weights.clone();
        for flip in &outcome.applied {
            let byte = flip.bit_offset / 8;
            let bit = (flip.bit_offset % 8) as u8;
            corrupted
                .flip_bit(
                    rhb_nn::weightfile::ByteLocation {
                        page: flip.file_page,
                        offset: byte,
                    },
                    bit,
                )
                .expect("applied flips are in range");
        }
        debug_assert_eq!(corrupted.bytes(), &bytes[..]);
        corrupted
            .load_into(self.model.net.as_mut())
            .expect("weight file matches the network");

        let realized_flips = n_flip(&offline.base_weights, &corrupted)
            .expect("corrupted weights describe the same architecture");
        rhb_telemetry::counter!("core/online/realized_flips", realized_flips);
        let (ta, asr) = {
            let _eval_span = rhb_telemetry::span!("evaluation");
            (
                test_accuracy(self.model.net.as_mut(), &self.model.test_data),
                attack_success_rate(
                    self.model.net.as_mut(),
                    &self.model.test_data,
                    &offline.trigger,
                    self.target_label,
                ),
            )
        };
        rhb_telemetry::event!(
            "online_report",
            method = offline.method.name(),
            n_flip = realized_flips,
            n_matched = outcome.n_matched,
            test_accuracy = ta,
            attack_success_rate = asr,
            classification = adaptive.classification.name(),
            verified_flips = adaptive.verified_targets as u64,
            recovered_flips = adaptive.recovered_targets as u64,
            injected_faults = adaptive.injected_faults.len() as u64,
        );
        OnlineReport {
            method: offline.method,
            n_flip: realized_flips,
            test_accuracy: ta,
            attack_success_rate: asr,
            // The paper's denominator is the method's *offline* N_flip:
            // a baseline that demanded 44 flips but realized 1 scores
            // 1/44 ≈ 2.3 %, even though its single post-reduction target
            // matched (§V-B, Table II).
            r_match: r_match(
                outcome.n_matched,
                (offline.n_flip as usize).max(1),
                outcome.accidental_in_target_pages,
            ),
            n_matched: outcome.n_matched,
            n_targets: outcome.n_targets,
            accidental: outcome.accidental_in_target_pages,
            attack_time: outcome.attack_time,
            classification: adaptive.classification,
            verified_flips: adaptive.verified_targets,
            recovered_flips: adaptive.recovered_targets,
            retries: adaptive.retries.len(),
            fallbacks: adaptive.fallbacks.len(),
            injected_faults: adaptive.injected_faults.len(),
            recovery_time: adaptive.recovery_time,
            retemplate_rounds: adaptive.retemplate_rounds,
            ledger,
        }
    }

    /// Convenience: number of pages and bits the victim's weight file
    /// occupies (Table II's "#Bits" / "#Pages" row labels).
    pub fn model_footprint(&self) -> (u64, usize) {
        let wf = WeightFile::from_network(self.model.net.as_ref());
        (wf.num_bits(), wf.num_pages())
    }
}

/// Keeps at most one required flip per weight-file page: the highest-order
/// differing bit wins (the paper keeps the largest-gradient flip).
pub fn reduce_to_one_per_page(targets: &[BitTarget]) -> Vec<BitTarget> {
    let mut best: std::collections::HashMap<usize, BitTarget> = std::collections::HashMap::new();
    for &t in targets {
        let page = t.location.page;
        match best.get(&page) {
            Some(cur) => {
                let cur_rank = (cur.bit, usize::MAX - cur.location.offset);
                let new_rank = (t.bit, usize::MAX - t.location.offset);
                if new_rank > cur_rank {
                    best.insert(page, t);
                }
            }
            None => {
                best.insert(page, t);
            }
        }
    }
    let mut out: Vec<BitTarget> = best.into_values().collect();
    out.sort_by_key(|t| (t.location.page, t.location.offset, t.bit));
    out
}

/// Builds the per-primary alternate-target map the adaptive online driver
/// consumes: each post-reduction primary target is keyed by its file page
/// and offered every offline alternate drawn from the *same* CFT+BR page
/// group (excluding an alternate that is the primary bit itself). Methods
/// without a group plan get an empty map — they have no principled
/// substitute bits.
pub fn alternate_map(
    primaries: &[TargetBit],
    alternates: &[AlternateTarget],
    plan: Option<&GroupPlan>,
) -> HashMap<usize, Vec<TargetBit>> {
    let Some(plan) = plan else {
        return HashMap::new();
    };
    let mut map: HashMap<usize, Vec<TargetBit>> = HashMap::new();
    for t in primaries {
        let weight_idx = t.file_page * WEIGHTS_PER_PAGE + t.bit_offset / 8;
        let group = plan.group_of(weight_idx);
        let alts: Vec<TargetBit> = alternates
            .iter()
            .filter(|a| a.group == group)
            .map(|a| TargetBit {
                file_page: a.weight_idx / WEIGHTS_PER_PAGE,
                bit_offset: (a.weight_idx % WEIGHTS_PER_PAGE) * 8 + a.bit as usize,
                zero_to_one: a.zero_to_one,
            })
            .filter(|alt| alt != t)
            .collect();
        if !alts.is_empty() {
            map.insert(t.file_page, alts);
        }
    }
    map
}

/// Helper for bench binaries: the weight-file page size re-exported so
/// downstream code does not need to depend on `rhb-nn` directly.
pub const WEIGHT_PAGE_SIZE: usize = PAGE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
    use rhb_nn::weightfile::ByteLocation;

    fn pipeline(seed: u64) -> AttackPipeline {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), seed);
        AttackPipeline::new(model, 2, seed)
    }

    #[test]
    fn reduce_keeps_highest_bit_per_page() {
        let t = |page, offset, bit| BitTarget {
            location: ByteLocation { page, offset },
            bit,
            zero_to_one: true,
        };
        let reduced = reduce_to_one_per_page(&[t(0, 5, 2), t(0, 9, 6), t(1, 0, 0)]);
        assert_eq!(reduced.len(), 2);
        assert_eq!(reduced[0].bit, 6);
        assert_eq!(reduced[1].location.page, 1);
    }

    #[test]
    fn cft_br_end_to_end_keeps_high_rmatch_and_survives_hardware() {
        let mut pipe = pipeline(41);
        let offline = pipe.run_offline(AttackMethod::CftBr);
        assert!(offline.n_flip > 0);
        let online = pipe.run_online(&offline);
        assert!(
            online.r_match > 95.0,
            "CFT+BR r_match {} should be ~100%",
            online.r_match
        );
        // The online-phase claim: the hardware attack realizes the offline
        // backdoor — every target matched, and the ASR carries over instead
        // of collapsing as it does for the baselines.
        assert_eq!(online.n_matched, online.n_targets);
        assert!(
            online.attack_success_rate > offline.attack_success_rate - 0.15,
            "online ASR {} fell away from offline {}",
            online.attack_success_rate,
            offline.attack_success_rate
        );
        // The ledger audits every post-reduction target with full
        // provenance: optimizer group, placement address, hammer outcome.
        assert_eq!(online.ledger.len(), online.n_targets);
        for rec in &online.ledger {
            assert!(rec.page_group.is_some(), "CFT+BR records carry a group");
            assert!(rec.matched_frame.is_some(), "all CFT+BR targets match");
            assert_eq!(rec.placed_frame, rec.matched_frame);
            assert_eq!(rec.hammer_attempts, 1);
            assert!(rec.flipped, "matched CFT+BR bit did not flip");
            assert!(rec.verified, "cooperative DRAM verifies every flip");
            assert_eq!(rec.retries, 0);
            assert!(!rec.fallback);
        }
        // With chaos off the run is pristine: no faults, no recovery.
        assert_eq!(online.classification, RunClass::Full);
        assert_eq!(online.verified_flips, online.n_targets);
        assert_eq!(online.recovered_flips, 0);
        assert_eq!(online.retries, 0);
        assert_eq!(online.fallbacks, 0);
        assert_eq!(online.injected_faults, 0);
        assert_eq!(online.recovery_time, Duration::ZERO);
        // CFT+BR supplies alternates for the recovery driver even though a
        // cooperative run never needs them.
        assert!(!offline.alternates.is_empty());
    }

    /// Back-to-back attacks as the attack benchmark runs them (victim 41,
    /// target 2, 6-pixel patch), at the two DRAM seeds where an
    /// extended-templating match once drew an accidental cell at the
    /// target's own bit and the hammer pass flipped the target back:
    /// every target matches and verifies, and an attack after restoring
    /// the base weights reproduces the first offline phase exactly.
    #[test]
    fn back_to_back_attacks_verify_every_target_at_formerly_colliding_dram_seeds() {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 41);
        let mut pipe = AttackPipeline::new(model, 2, 726_002_179);
        pipe.trigger_patch = Some(6);
        let every_target_verified = |online: &OnlineReport, seed: u64| {
            assert!(online.n_targets > 0, "seed {seed}: no target");
            assert_eq!(online.n_matched, online.n_targets, "seed {seed} matched");
            assert_eq!(
                online.verified_flips, online.n_targets,
                "seed {seed} verified"
            );
        };
        let first = pipe.run_offline(AttackMethod::CftBr);
        every_target_verified(&pipe.run_online(&first), pipe.seed);

        first
            .base_weights
            .load_into(pipe.model.net.as_mut())
            .expect("base weights match the victim");
        pipe.seed = 411_001_236;
        let second = pipe.run_offline(AttackMethod::CftBr);
        assert_eq!(
            (
                second.n_flip,
                second.attack_success_rate,
                second.test_accuracy
            ),
            (first.n_flip, first.attack_success_rate, first.test_accuracy)
        );
        assert_eq!(
            second.attacked_weights.bytes(),
            first.attacked_weights.bytes()
        );
        every_target_verified(&pipe.run_online(&second), pipe.seed);
    }

    #[test]
    fn chaos_run_degrades_gracefully_and_recovers_most_targets() {
        let mut pipe = pipeline(41);
        pipe.chaos = Some(rhb_dram::ChaosConfig {
            flip_flakiness: 0.2,
            ..rhb_dram::ChaosConfig::seeded(12)
        });
        let offline = pipe.run_offline(AttackMethod::CftBr);
        let online = pipe.run_online(&offline);
        assert!(online.injected_faults > 0, "20% flakiness injected nothing");
        assert_eq!(
            online.classification,
            RunClass::Degraded,
            "faults fired but recovery held: {} verified of {}",
            online.verified_flips,
            online.n_targets
        );
        // Acceptance bar: recovery lands at least 80% of targets.
        assert!(
            online.verified_flips * 5 >= online.n_targets * 4,
            "recovery landed {} of {} targets",
            online.verified_flips,
            online.n_targets
        );
        assert!(online.retries > 0, "flaky flips should cost retry passes");
        assert!(
            online.recovery_time > Duration::ZERO,
            "retries must be charged against the time model"
        );
        // The ledger accounts for the recovery work per record.
        let ledger_retries: usize = online.ledger.iter().map(|r| r.retries as usize).sum();
        assert_eq!(ledger_retries, online.retries);
        assert!(online
            .ledger
            .iter()
            .all(|r| r.hammer_attempts as usize > r.retries as usize));
    }

    #[test]
    fn inactive_chaos_matches_the_plain_run_exactly() {
        let mut a = pipeline(43);
        let mut b = pipeline(43);
        b.chaos = Some(rhb_dram::ChaosConfig::disabled());
        let off_a = a.run_offline(AttackMethod::CftBr);
        let off_b = b.run_offline(AttackMethod::CftBr);
        let on_a = a.run_online(&off_a);
        let on_b = b.run_online(&off_b);
        assert_eq!(on_a.ledger, on_b.ledger);
        assert_eq!(on_a.n_flip, on_b.n_flip);
        assert_eq!(on_a.classification, RunClass::Full);
        assert_eq!(on_b.classification, RunClass::Full);
        assert_eq!(on_a.attack_time, on_b.attack_time);
        assert_eq!(on_b.recovery_time, Duration::ZERO);
    }

    #[test]
    fn ft_online_phase_collapses() {
        let mut pipe = pipeline(43);
        let offline = pipe.run_offline(AttackMethod::Ft);
        let offline_asr = offline.attack_success_rate;
        let online = pipe.run_online(&offline);
        // FT's flips concentrate in the last-layer page(s); after per-page
        // reduction only one or two intended bits survive (total realized
        // flips also include accidental ones in the hammered pages), so
        // r_match (relative to the offline demand) and ASR drop hard.
        assert!(online.n_matched <= 2, "online matched {}", online.n_matched);
        assert!(
            online.attack_success_rate < offline_asr,
            "online ASR {} did not drop from {}",
            online.attack_success_rate,
            offline_asr
        );
        // FT does not select by page group, so the ledger records none.
        assert_eq!(online.ledger.len(), online.n_targets);
        assert!(online.ledger.iter().all(|r| r.page_group.is_none()));
    }

    #[test]
    fn online_restores_test_accuracy_for_weak_attacks() {
        let mut pipe = pipeline(44);
        let base_acc = pipe.model.base_accuracy;
        let offline = pipe.run_offline(AttackMethod::Ft);
        let online = pipe.run_online(&offline);
        // With almost no surviving flips the model returns to (near) its
        // clean accuracy, as Table II's online TA columns show.
        assert!(
            (online.test_accuracy - base_acc).abs() < 0.25,
            "online TA {} vs base {}",
            online.test_accuracy,
            base_acc
        );
    }

    #[test]
    fn footprint_reports_pages_and_bits() {
        let pipe = pipeline(45);
        let (bits, pages) = pipe.model_footprint();
        assert_eq!(bits % 8, 0);
        assert!(pages >= 1);
        assert!(bits / 8 <= (pages * WEIGHT_PAGE_SIZE) as u64);
    }

    #[test]
    fn alternate_map_keys_primaries_to_same_group_alternates() {
        let plan = GroupPlan::new(WEIGHTS_PER_PAGE * 4, 2);
        let primary = TargetBit {
            file_page: 0,
            bit_offset: 12,
            zero_to_one: true,
        };
        let alts = [
            AlternateTarget {
                group: 0,
                weight_idx: WEIGHTS_PER_PAGE + 3,
                bit: 5,
                zero_to_one: false,
            },
            AlternateTarget {
                group: 1,
                weight_idx: WEIGHTS_PER_PAGE * 3 + 9,
                bit: 2,
                zero_to_one: true,
            },
            // Identical to the primary bit itself: must be excluded.
            AlternateTarget {
                group: 0,
                weight_idx: 1,
                bit: 4,
                zero_to_one: true,
            },
        ];
        let map = alternate_map(&[primary], &alts, Some(&plan));
        let offered = &map[&0];
        assert_eq!(offered.len(), 1, "same-group alternates minus the primary");
        assert_eq!(offered[0].file_page, 1);
        assert_eq!(offered[0].bit_offset, 3 * 8 + 5);
        assert!(!offered[0].zero_to_one);
        // No plan → no substitutes.
        assert!(alternate_map(&[primary], &alts, None).is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rhb_nn::weightfile::ByteLocation;

    /// Bit targets as a weight-file diff produces them: each
    /// (page, offset, bit) site appears at most once.
    fn arb_targets() -> impl Strategy<Value = Vec<BitTarget>> {
        prop::collection::vec(
            (0usize..12, 0usize..64, 0u8..8, any::<bool>()).prop_map(
                |(page, offset, bit, zero_to_one)| BitTarget {
                    location: ByteLocation { page, offset },
                    bit,
                    zero_to_one,
                },
            ),
            0..80,
        )
        .prop_map(|targets| {
            let mut seen = std::collections::HashSet::new();
            targets
                .into_iter()
                .filter(|t| seen.insert((t.location.page, t.location.offset, t.bit)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reduction leaves at most one target per page and never invents
        /// targets.
        #[test]
        fn reduce_is_one_per_page_and_a_subset(targets in arb_targets()) {
            let reduced = reduce_to_one_per_page(&targets);
            let mut pages: Vec<usize> = reduced.iter().map(|t| t.location.page).collect();
            pages.sort_unstable();
            let mut deduped = pages.clone();
            deduped.dedup();
            prop_assert_eq!(&pages, &deduped, "a page appears twice");
            for t in &reduced {
                prop_assert!(targets.contains(t), "invented target");
            }
            let distinct_pages = {
                let mut p: Vec<usize> = targets.iter().map(|t| t.location.page).collect();
                p.sort_unstable();
                p.dedup();
                p.len()
            };
            prop_assert_eq!(reduced.len(), distinct_pages);
        }

        /// Reducing twice changes nothing.
        #[test]
        fn reduce_is_idempotent(targets in arb_targets()) {
            let once = reduce_to_one_per_page(&targets);
            let twice = reduce_to_one_per_page(&once);
            prop_assert_eq!(once, twice);
        }

        /// The winner per page does not depend on input order.
        #[test]
        fn reduce_is_stable_under_permutation(
            targets in arb_targets(),
            rotation in 0usize..79,
            reverse in any::<bool>(),
        ) {
            let baseline = reduce_to_one_per_page(&targets);
            let mut shuffled = targets.clone();
            if !shuffled.is_empty() {
                let mid = rotation % shuffled.len();
                shuffled.rotate_left(mid);
            }
            if reverse {
                shuffled.reverse();
            }
            prop_assert_eq!(baseline, reduce_to_one_per_page(&shuffled));
        }
    }
}
