//! Synthetic host-load model feeding the CPU / memory sensors.
//!
//! NWS monitors "the CPU load, the available free memory or the free disk
//! space on any host" (paper §2). The simulator has no real CPUs, so the
//! substitution (per DESIGN.md) is a seeded stochastic model producing
//! series with the statistical character of real load traces: an AR(1)
//! baseline plus occasional job arrivals that step the load up for a
//! while. The forecaster pipeline consumes these exactly like network
//! series.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-host synthetic load generator. Values are "available CPU fraction"
/// in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct HostLoadModel {
    rng: SmallRng,
    /// AR(1) state around the idle baseline.
    state: f64,
    /// Remaining samples of an active job burst (0 = idle).
    burst_left: u32,
    burst_depth: f64,
    /// Probability a new job burst starts at each sample.
    burst_prob: f64,
}

impl HostLoadModel {
    pub(crate) fn new(seed: u64) -> Self {
        HostLoadModel {
            rng: SmallRng::seed_from_u64(seed),
            state: 0.9,
            burst_left: 0,
            burst_depth: 0.0,
            burst_prob: 0.02,
        }
    }

    /// Next available-CPU sample.
    pub(crate) fn sample(&mut self) -> f64 {
        // AR(1) around 0.9 idle availability.
        let noise = self.rng.gen_range(-0.05..0.05);
        self.state = 0.9 + 0.8 * (self.state - 0.9) + noise;

        if self.burst_left == 0 && self.rng.gen_range(0.0..1.0) < self.burst_prob {
            self.burst_left = self.rng.gen_range(10..60);
            self.burst_depth = self.rng.gen_range(0.3..0.8);
        }
        let mut v = self.state;
        if self.burst_left > 0 {
            self.burst_left -= 1;
            v -= self.burst_depth;
        }
        v.clamp(0.0, 1.0)
    }

    /// Free-memory fraction: slower-moving, derived from the same state.
    pub(crate) fn sample_memory(&mut self) -> f64 {
        let noise = self.rng.gen_range(-0.01..0.01);
        (0.6 + 0.3 * (self.state - 0.9) + noise).clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HostLoadModel {
        /// With a custom burst probability (0 disables bursts).
        fn with_burst_prob(seed: u64, burst_prob: f64) -> Self {
            HostLoadModel { burst_prob, ..Self::new(seed) }
        }
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        let mut m = HostLoadModel::new(1);
        for _ in 0..5_000 {
            let v = m.sample();
            assert!((0.0..=1.0).contains(&v), "sample {v} out of range");
            let mem = m.sample_memory();
            assert!((0.0..=1.0).contains(&mem));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut m = HostLoadModel::new(9);
            (0..100).map(|_| m.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut m = HostLoadModel::new(9);
            (0..100).map(|_| m.sample()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut m = HostLoadModel::new(10);
            (0..100).map(|_| m.sample()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn bursts_depress_availability() {
        // With bursts disabled the mean sits near 0.9; with frequent
        // bursts it must drop noticeably.
        let mean =
            |mut m: HostLoadModel| -> f64 { (0..3000).map(|_| m.sample()).sum::<f64>() / 3000.0 };
        let idle = mean(HostLoadModel::with_burst_prob(5, 0.0));
        let busy = mean(HostLoadModel::with_burst_prob(5, 0.2));
        assert!(idle > 0.85, "idle mean {idle}");
        assert!(busy < idle - 0.1, "busy mean {busy} vs idle {idle}");
    }

    #[test]
    fn series_has_temporal_correlation() {
        // AR(1) must correlate adjacent samples more than distant ones.
        let mut m = HostLoadModel::with_burst_prob(3, 0.0);
        let xs: Vec<f64> = (0..2000).map(|_| m.sample()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let autocov = |lag: usize| -> f64 {
            xs.windows(lag + 1).map(|w| (w[0] - mean) * (w[lag] - mean)).sum::<f64>()
                / (xs.len() - lag) as f64
        };
        assert!(autocov(1) > autocov(20) * 2.0);
    }
}
