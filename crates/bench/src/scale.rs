//! Experiment scale selection.

use rhb_models::zoo::ZooConfig;

/// How big the victims in an experiment run are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale: 8×8 images, width-4 victims (seconds per attack).
    Tiny,
    /// Default reproduction scale: 16×16 images, width-8 victims
    /// (minutes per attack).
    Standard,
}

impl Scale {
    /// Reads `RHB_SCALE` from the environment (`tiny` / `standard`),
    /// defaulting to [`Scale::Tiny`] so every experiment finishes on a CPU
    /// budget; set `RHB_SCALE=standard` for the full-fidelity run.
    pub fn from_env() -> Self {
        match std::env::var("RHB_SCALE").as_deref() {
            Ok("standard") | Ok("STANDARD") => Scale::Standard,
            _ => Scale::Tiny,
        }
    }

    /// The zoo configuration for this scale.
    pub fn zoo(&self) -> ZooConfig {
        match self {
            Scale::Tiny => ZooConfig::tiny(),
            Scale::Standard => ZooConfig::standard(),
        }
    }

    /// Pages of simulated DRAM to template explicitly.
    pub fn profile_pages(&self) -> usize {
        match self {
            Scale::Tiny => 4096,
            Scale::Standard => 16_384,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Standard => "standard",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_tiny() {
        // The test environment does not set RHB_SCALE.
        if std::env::var("RHB_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Tiny);
        }
    }

    #[test]
    fn zoo_configs_differ_by_scale() {
        assert!(Scale::Standard.zoo().width > Scale::Tiny.zoo().width);
        assert!(Scale::Standard.profile_pages() > Scale::Tiny.profile_pages());
    }
}
