//! Wires the attack pipeline into the `rhb-campaign` supervisor: the
//! run closure every campaign driver shares, plus grid parsing and the
//! campaign directory layout.
//!
//! Design constraints the closure lives under:
//!
//! * **No global telemetry resets.** `smoke_run_with_chaos` resets the
//!   registry per run, which is correct for a single-run binary but
//!   would race under concurrent campaign lanes. Campaign runs only
//!   *add* to the registry; per-run numbers come from the pipeline's
//!   own reports.
//! * **Seed split.** The pipeline (model training + templating) seeds
//!   from `spec.seed`, so retries hit the template cache and train the
//!   same victim; only the chaos engine seeds from `attempt.seed`, so a
//!   retry perturbs the fault pattern that sank the previous attempt —
//!   retrying under literally identical faults would fail forever.
//! * **Cooperative cancellation.** The closure checkpoints the
//!   [`rhb_par::CancelToken`] at phase boundaries; the supervisor's
//!   watchdog reclaims the lane regardless, but a cooperative exit
//!   frees the CPU the abandoned thread would otherwise keep burning.

use rhb_campaign::{Attempt, CampaignSpec, RunFn, RunResult, RunSpec};
use rhb_core::pipeline::{AttackMethod, AttackPipeline, RunVerdict};
use rhb_dram::{ChaosConfig, ChipModel, TemplateCache};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_par::CancelToken;
use std::path::PathBuf;
use std::sync::Arc;

/// Root directory for campaign journals and aggregates.
pub const CAMPAIGN_ROOT: &str = "results/campaigns";

/// `results/campaigns/<name>` — journal segments, template cache, and
/// `aggregate.json` for one campaign.
pub fn campaign_dir(name: &str) -> PathBuf {
    PathBuf::from(CAMPAIGN_ROOT).join(rhb_campaign::spec::sanitize(name))
}

/// Chaos configuration at a sweep rate, shared by `exp chaos_sweep` and
/// campaigns: flip flakiness at the rate itself, row eviction at a
/// quarter, ECC masking at half, and templating false positives and
/// negatives at a twentieth each. `None` at a zero rate.
pub fn chaos_at(rate: f64, seed: u64) -> Option<ChaosConfig> {
    if rate <= 0.0 {
        return None;
    }
    Some(ChaosConfig {
        flip_flakiness: rate,
        eviction: rate / 4.0,
        ecc_correction: rate / 2.0,
        template_false_positive: rate / 20.0,
        template_false_negative: rate / 20.0,
        ..ChaosConfig::seeded(seed)
    })
}

/// Builds the campaign run closure over a shared template cache.
///
/// `sabotage_every`: when `Some(m)`, the *first* attempt of every
/// `m`-th grid index panics deliberately — the fault-injection knob the
/// kill-resume CI gate uses to prove panic isolation, retry, and
/// backoff end to end. `None` for production campaigns.
pub fn pipeline_run_fn(cache: Arc<TemplateCache>, sabotage_every: Option<usize>) -> RunFn {
    Arc::new(
        move |spec: &RunSpec, attempt: &Attempt, token: &CancelToken| {
            if let Some(every) = sabotage_every {
                if attempt.number == 1 && every > 0 && spec.index.is_multiple_of(every) {
                    panic!(
                        "sabotage: injected first-attempt panic for run {} (index {})",
                        spec.run_id, spec.index
                    );
                }
            }
            execute(spec, attempt, token, &cache)
        },
    )
}

fn execute(
    spec: &RunSpec,
    attempt: &Attempt,
    token: &CancelToken,
    cache: &Arc<TemplateCache>,
) -> Result<RunResult, String> {
    let arch = Architecture::from_name(&spec.model)
        .ok_or_else(|| format!("unknown model '{}'", spec.model))?;
    let method = AttackMethod::from_name(&spec.method)
        .ok_or_else(|| format!("unknown method '{}'", spec.method))?;
    let chip =
        ChipModel::by_tag(&spec.chip).ok_or_else(|| format!("unknown chip tag '{}'", spec.chip))?;
    token.checkpoint().map_err(|e| e.to_string())?;

    // Victim and templating are functions of the *spec* seed: a retry
    // re-trains the identical model and hits the template cache.
    let model = pretrained(arch, &ZooConfig::tiny(), spec.seed);
    let mut pipe = AttackPipeline::new(model, 2, spec.seed).with_template_cache(Arc::clone(cache));
    pipe.chip = chip;
    // Chaos is a function of the *attempt* seed: each retry faces a
    // fresh fault pattern at the same rate.
    pipe.chaos = chaos_at(spec.chaos_rate, attempt.seed);
    token.checkpoint().map_err(|e| e.to_string())?;

    let offline = pipe.run_offline(method);
    token.checkpoint().map_err(|e| e.to_string())?;
    let online = pipe.run_online(&offline);

    let verdict = RunVerdict::from_run_class(online.classification);
    Ok(RunResult {
        class: verdict.name().to_string(),
        asr: online.attack_success_rate,
        attack_time_ms: (online.attack_time + online.recovery_time).as_millis() as u64,
    })
}

/// Parses the comma-separated list given to `flag`, trimming blanks.
fn split_list(flag: &str, raw: &str) -> Result<Vec<String>, String> {
    let items: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        return Err(format!("{flag}: needs at least one entry"));
    }
    Ok(items)
}

/// Builds a campaign grid from the `exp campaign` flag values,
/// validating every axis value upfront so a typo fails the launch, not
/// run 37.
///
/// # Errors
///
/// A human-readable message naming the flag and the bad axis value.
pub fn parse_grid(
    name: &str,
    models: &str,
    methods: &str,
    chips: &str,
    rates: &str,
    seeds: &str,
) -> Result<CampaignSpec, String> {
    let models = split_list("--models", models)?;
    for m in &models {
        Architecture::from_name(m).ok_or_else(|| format!("--models: unknown model '{m}'"))?;
    }
    let methods = split_list("--methods", methods)?;
    for m in &methods {
        AttackMethod::from_name(m).ok_or_else(|| format!("--methods: unknown method '{m}'"))?;
    }
    let chips = split_list("--chips", chips)?;
    for c in &chips {
        ChipModel::by_tag(c).ok_or_else(|| format!("--chips: unknown chip tag '{c}'"))?;
    }
    let chaos_rates = split_list("--rates", rates)?
        .iter()
        .map(|r| {
            r.parse::<f64>()
                .ok()
                .filter(|v| (0.0..=1.0).contains(v))
                .ok_or_else(|| format!("--rates: bad chaos rate '{r}' (want 0..=1)"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let seeds = split_list("--seeds", seeds)?
        .iter()
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--seeds: bad seed '{s}'"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(CampaignSpec {
        name: name.to_string(),
        models,
        methods,
        chips,
        chaos_rates,
        seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_campaign::SupervisorConfig;
    use std::time::Duration;

    #[test]
    fn parse_grid_validates_every_axis() {
        let ok = parse_grid("g", "ResNet20", "CFT+BR,FT", "K1", "0,0.2", "1,2").unwrap();
        assert_eq!(ok.len(), 8);
        assert!(parse_grid("g", "ResNet99", "FT", "K1", "0", "1").is_err());
        assert!(parse_grid("g", "ResNet20", "XX", "K1", "0", "1").is_err());
        assert!(parse_grid("g", "ResNet20", "FT", "NOPE", "0", "1").is_err());
        assert!(parse_grid("g", "ResNet20", "FT", "K1", "1.5", "1").is_err());
        assert!(parse_grid("g", "ResNet20", "FT", "K1", "0", "x").is_err());
        assert!(parse_grid("g", "ResNet20", "FT", "K1", "0", "").is_err());
    }

    #[test]
    fn campaign_dir_sanitizes_names() {
        assert_eq!(
            campaign_dir("ci kill/resume"),
            PathBuf::from(CAMPAIGN_ROOT).join("ci_kill_resume")
        );
    }

    /// End-to-end through the real pipeline at the tiniest scale: one
    /// sabotaged run retried to completion, with the template cache
    /// taking the second attempt's templating cost to zero.
    #[test]
    fn sabotaged_pipeline_run_completes_on_retry() {
        let dir = std::env::temp_dir().join(format!("rhb-campaign-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CampaignSpec::single("e2e", "ResNet20", "CFT+BR", "K1", 41);
        let cache = Arc::new(TemplateCache::new());
        let run = pipeline_run_fn(Arc::clone(&cache), Some(1));
        let config = SupervisorConfig {
            workers: 1,
            run_timeout: Duration::from_secs(300),
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
        };
        let outcome = rhb_campaign::run_campaign(&spec, &dir, &config, run).expect("campaign");
        assert_eq!(outcome.state.completed.len(), 1);
        let record = outcome.state.completed.values().next().unwrap();
        assert_eq!(record.attempt, 2, "sabotage forces one retry");
        // Chaos is off, so every requested flip lands: class `full`.
        // (Tiny-scale ASR itself is low — the smoke baseline sits at
        // ~0.15 — so the classification is the meaningful signal.)
        assert_eq!(record.class, "full");
        assert!((0.0..=1.0).contains(&record.asr));
        assert_eq!(cache.len(), 1, "both attempts share one template");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
