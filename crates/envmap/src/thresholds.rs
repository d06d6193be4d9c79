//! The experimental thresholds of paper §4.2.2.
//!
//! "The value of this thresholds may have a great impact on the mapping
//! results, and where determined experimentally and empirically by the ENV
//! authors." They are configuration here so experiment E6 can sweep them.

use netsim::{NetError, NetResult};

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

    /// Check the ordering invariants (ratios > 1, 0 < shared < switched ≤
    /// 1.5) on finite values. [`crate::EnvMapper`] refuses a set that fails:
    /// a NaN passes no comparison, so it would silently skip a split or a
    /// classification.
    pub(crate) fn validate(&self) -> NetResult<()> {
        let bad = |why: String| Err(NetError::InvalidTopology(format!("ENV thresholds: {why}")));
        let fields = [
            ("h2h_split_ratio", self.h2h_split_ratio),
            ("pairwise_dependent_ratio", self.pairwise_dependent_ratio),
            ("jam_shared_below", self.jam_shared_below),
            ("jam_switched_above", self.jam_switched_above),
        ];
        if let Some((name, v)) = fields.iter().find(|(_, v)| !v.is_finite()) {
            return bad(format!("{name} must be finite, got {v}"));
        }
        if self.h2h_split_ratio <= 1.0 {
            return bad(format!("h2h_split_ratio must be > 1, got {}", self.h2h_split_ratio));
        }
        if self.pairwise_dependent_ratio <= 1.0 {
            return bad(format!(
                "pairwise_dependent_ratio must be > 1, got {}",
                self.pairwise_dependent_ratio
            ));
        }
        if !(0.0 < self.jam_shared_below && self.jam_shared_below < self.jam_switched_above) {
            return bad(format!(
                "need 0 < jam_shared_below ({}) < jam_switched_above ({})",
                self.jam_shared_below, self.jam_switched_above
            ));
        }
        if self.jam_switched_above > 1.5 {
            return bad(format!(
                "jam_switched_above of {} is not a plausible ratio",
                self.jam_switched_above
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let t = EnvThresholds::paper();
        assert_eq!(t.h2h_split_ratio, 3.0);
        assert_eq!(t.pairwise_dependent_ratio, 1.25);
        assert_eq!(t.jam_shared_below, 0.7);
        assert_eq!(t.jam_switched_above, 0.9);
        assert!(t.validate().is_ok());
    }

    /// Every value in `bad`, set into one field of the paper's set, is
    /// refused; so are the non-finite values.
    fn refuses(set: fn(&mut EnvThresholds, f64), bad: &[f64]) {
        for &v in bad.iter().chain(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]) {
            let mut t = EnvThresholds::paper();
            set(&mut t, v);
            assert!(
                matches!(t.validate(), Err(NetError::InvalidTopology(_))),
                "{v} accepted: {t:?}"
            );
        }
    }

    #[test]
    fn validation_catches_bad_orderings() {
        for (shared, switched) in [(0.95, 0.9), (0.9, 0.9), (0.7, 0.5)] {
            let t = EnvThresholds {
                jam_shared_below: shared,
                jam_switched_above: switched,
                ..EnvThresholds::paper()
            };
            assert!(t.validate().is_err(), "{t:?}");
        }
    }

    #[test]
    fn h2h_split_ratio_must_exceed_one() {
        refuses(|t, v| t.h2h_split_ratio = v, &[0.5, 1.0, -3.0]);
    }

    #[test]
    fn pairwise_dependent_ratio_must_exceed_one() {
        refuses(|t, v| t.pairwise_dependent_ratio = v, &[1.0, 0.0]);
    }

    #[test]
    fn jam_shared_below_must_be_positive() {
        refuses(|t, v| t.jam_shared_below = v, &[0.0, -0.1]);
    }

    #[test]
    fn jam_switched_above_must_be_a_plausible_ratio() {
        refuses(|t, v| t.jam_switched_above = v, &[1.6, 5.0]);
    }
}
