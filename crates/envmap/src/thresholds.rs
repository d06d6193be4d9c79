//! The experimental thresholds of paper §4.2.2.
//!
//! "The value of this thresholds may have a great impact on the mapping
//! results, and where determined experimentally and empirically by the ENV
//! authors." They are configuration here so experiment E6 can sweep them.

/// Threshold set controlling cluster splitting and classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvThresholds {
    /// Host-to-host bandwidth split (§4.2.2.1): two hosts whose master
    /// bandwidths differ by more than this ratio land in different
    /// clusters. Paper value: 3.
    pub h2h_split_ratio: f64,
    /// Pairwise dependence (§4.2.2.2): A depends on B when
    /// `bw(MA) / bw_paired(MA)` is at least this. Below it, A is declared
    /// independent and the cluster is split. Paper value: 1.25.
    pub pairwise_dependent_ratio: f64,
    /// Jammed classification (§4.2.2.4): average `jammed/base` below this
    /// means a shared link. Paper value: 0.7.
    pub jam_shared_below: f64,
    /// Average `jammed/base` above this means a switched link. Paper
    /// value: 0.9. Between the two, refinement stops (undetermined).
    pub jam_switched_above: f64,
}

impl Default for EnvThresholds {
    fn default() -> Self {
        EnvThresholds {
            h2h_split_ratio: 3.0,
            pairwise_dependent_ratio: 1.25,
            jam_shared_below: 0.7,
            jam_switched_above: 0.9,
        }
    }
}

impl EnvThresholds {
    /// Paper defaults (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EnvThresholds {
        /// Validate ordering invariants (shared < switched, ratios > 1).
        fn validate(&self) -> Result<(), String> {
            if self.h2h_split_ratio <= 1.0 {
                return Err(format!("h2h_split_ratio must be > 1, got {}", self.h2h_split_ratio));
            }
            if self.pairwise_dependent_ratio <= 1.0 {
                return Err(format!(
                    "pairwise_dependent_ratio must be > 1, got {}",
                    self.pairwise_dependent_ratio
                ));
            }
            if !(0.0 < self.jam_shared_below && self.jam_shared_below < self.jam_switched_above) {
                return Err(format!(
                    "need 0 < jam_shared_below ({}) < jam_switched_above ({})",
                    self.jam_shared_below, self.jam_switched_above
                ));
            }
            if self.jam_switched_above > 1.5 {
                return Err(format!(
                    "jam_switched_above of {} is not a plausible ratio",
                    self.jam_switched_above
                ));
            }
            Ok(())
        }
    }

    #[test]
    fn paper_values() {
        let t = EnvThresholds::paper();
        assert_eq!(t.h2h_split_ratio, 3.0);
        assert_eq!(t.pairwise_dependent_ratio, 1.25);
        assert_eq!(t.jam_shared_below, 0.7);
        assert_eq!(t.jam_switched_above, 0.9);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_orderings() {
        let mut t = EnvThresholds::paper();
        t.jam_shared_below = 0.95;
        assert!(t.validate().is_err());
        let mut t = EnvThresholds::paper();
        t.h2h_split_ratio = 0.5;
        assert!(t.validate().is_err());
        let mut t = EnvThresholds::paper();
        t.pairwise_dependent_ratio = 1.0;
        assert!(t.validate().is_err());
        let mut t = EnvThresholds::paper();
        t.jam_switched_above = 5.0;
        assert!(t.validate().is_err());
    }
}
