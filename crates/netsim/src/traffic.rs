//! Background cross-traffic generators.
//!
//! The paper worries about "the possible platform evolution: ... The results
//! given by ENV may be corrupted if the network load evolves greatly between
//! tests" (§4.3). These generators create that load so the reproduction can
//! quantify the mapper's robustness (experiment E6, threshold sensitivity
//! under noise).
//!
//! Generators are ordinary [`Process`]es and work with any engine message
//! type.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Ctx, Engine, Process};
use crate::time::TimeDelta;
use crate::topology::NodeId;
use crate::units::Bytes;

/// Constant-bit-rate generator: a transfer of `bytes` to `dst` every
/// `period`, with optional uniform jitter.
pub struct CbrTraffic {
    dst: NodeId,
    bytes: Bytes,
    period: TimeDelta,
    /// Jitter as a fraction of the period in `[0, 1)`; each interval is
    /// `period * (1 ± jitter)`.
    jitter: f64,
    rng: SmallRng,
}

impl CbrTraffic {
    pub fn new(dst: NodeId, bytes: Bytes, period: TimeDelta, jitter: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        CbrTraffic { dst, bytes, period, jitter, rng: SmallRng::seed_from_u64(seed) }
    }

    fn next_interval(&mut self) -> TimeDelta {
        if self.jitter == 0.0 {
            self.period
        } else {
            let f = 1.0 + self.rng.gen_range(-self.jitter..self.jitter);
            TimeDelta::from_secs(self.period.as_secs() * f)
        }
    }
}

impl<M> Process<M> for CbrTraffic {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let d = self.next_interval();
        ctx.set_timer(d, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _tag: u64) {
        // Transfers that cannot start (firewalled during an experiment) are
        // simply skipped; background load is best-effort.
        let _ = ctx.start_flow(self.dst, self.bytes, 0);
        let d = self.next_interval();
        ctx.set_timer(d, 0);
    }
}

/// Poisson generator: exponentially distributed inter-arrival times with
/// the given mean.
pub struct PoissonTraffic {
    dst: NodeId,
    bytes: Bytes,
    mean_interval: TimeDelta,
    rng: SmallRng,
}

impl PoissonTraffic {
    pub(crate) fn new(dst: NodeId, bytes: Bytes, mean_interval: TimeDelta, seed: u64) -> Self {
        PoissonTraffic { dst, bytes, mean_interval, rng: SmallRng::seed_from_u64(seed) }
    }

    fn next_interval(&mut self) -> TimeDelta {
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        TimeDelta::from_secs(-u.ln() * self.mean_interval.as_secs())
    }
}

impl<M> Process<M> for PoissonTraffic {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let d = self.next_interval();
        ctx.set_timer(d, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _tag: u64) {
        let _ = ctx.start_flow(self.dst, self.bytes, 0);
        let d = self.next_interval();
        ctx.set_timer(d, 0);
    }
}

/// Attach Poisson cross-traffic on each `(src, dst)` pair. `load` scales
/// intensity: the mean inter-arrival is `transfer_duration / load`, so
/// `load ≈ 0.3` keeps each pair busy ~30 % of the time.
pub fn attach_noise<M: 'static>(
    engine: &mut Engine<M>,
    pairs: &[(NodeId, NodeId)],
    bytes: Bytes,
    mean_interval: TimeDelta,
    seed: u64,
) {
    for (i, (src, dst)) in pairs.iter().enumerate() {
        engine.add_process(
            *src,
            Box::new(PoissonTraffic::new(*dst, bytes, mean_interval, seed.wrapping_add(i as u64))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, NoMsg};
    use crate::time::SimTime;
    use crate::topology::TopologyBuilder;
    use crate::units::{Bandwidth, Latency};

    fn hub_net() -> (crate::engine::Sim, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(10.0));
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        (Engine::<NoMsg>::new(b.build().unwrap()), hosts)
    }

    #[test]
    fn cbr_generates_flows_at_the_configured_rate() {
        let (mut sim, h) = hub_net();
        sim.add_process(
            h[0],
            Box::new(CbrTraffic::new(h[1], Bytes::kib(64), TimeDelta::from_secs(1.0), 0.0, 1)),
        );
        sim.run_until(SimTime::from_secs(10.5));
        // One flow per second starting at t=1.
        assert_eq!(sim.stats().flows_started, 10);
    }

    #[test]
    fn cbr_jitter_changes_schedule_but_not_rate_much() {
        let (mut sim, h) = hub_net();
        sim.add_process(
            h[0],
            Box::new(CbrTraffic::new(h[1], Bytes::kib(16), TimeDelta::from_secs(1.0), 0.5, 7)),
        );
        sim.run_until(SimTime::from_secs(100.0));
        let n = sim.stats().flows_started;
        assert!((80..=125).contains(&n), "got {n} flows in 100 s");
    }

    #[test]
    fn poisson_mean_rate_is_respected() {
        let (mut sim, h) = hub_net();
        sim.add_process(
            h[0],
            Box::new(PoissonTraffic::new(h[1], Bytes::kib(16), TimeDelta::from_secs(0.5), 42)),
        );
        sim.run_until(SimTime::from_secs(200.0));
        let n = sim.stats().flows_started as f64;
        // Expect ~400; Poisson std is ±20, allow 5 sigma.
        assert!((300.0..500.0).contains(&n), "got {n} flows");
    }

    #[test]
    fn noise_slows_a_probe_on_shared_medium() {
        let (mut sim, h) = hub_net();
        // Saturating background traffic h1→h2.
        sim.add_process(
            h[1],
            Box::new(CbrTraffic::new(h[2], Bytes::mib(8), TimeDelta::from_secs(0.1), 0.0, 3)),
        );
        sim.run_until(SimTime::from_secs(2.0));
        let bw = sim.measure_bandwidth(h[0], h[1], Bytes::mib(1)).unwrap();
        assert!(bw.as_mbps() < 80.0, "probe should see contention, got {bw}");
    }

    #[test]
    fn attach_noise_spawns_one_process_per_pair() {
        let (mut sim, h) = hub_net();
        attach_noise(
            &mut sim,
            &[(h[0], h[1]), (h[1], h[2])],
            Bytes::kib(64),
            TimeDelta::from_secs(1.0),
            9,
        );
        sim.run_until(SimTime::from_secs(30.0));
        assert!(sim.stats().flows_started > 10);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = || {
            let (mut sim, h) = hub_net();
            sim.add_process(
                h[0],
                Box::new(PoissonTraffic::new(h[1], Bytes::kib(16), TimeDelta::from_secs(0.5), 42)),
            );
            sim.run_until(SimTime::from_secs(50.0));
            sim.stats().flows_started
        };
        assert_eq!(run(), run());
    }
}
