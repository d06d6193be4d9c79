//! Lossy-network fault injection: an engine-wide loss model on the control
//! message path, plus replayable fault schedules.
//!
//! The paper's §2.3 claims the NWS ships "mechanisms to handle network
//! errors"; exercising those mechanisms needs a network that actually
//! errs. This module supplies the two halves:
//!
//! * [`LossModel`] — an engine-wide probability model for
//!   control-message faults: independent drop, duplication, and a uniform
//!   extra-latency jitter. The engine applies it on [`crate::Ctx::send`]
//!   once a fault seed is armed ([`crate::Engine::set_fault_seed`]); bulk
//!   flows are unaffected (TCP retransmits below our abstraction — a
//!   lossy path shows up as reduced measured bandwidth, which the fluid
//!   model already captures via capacity edits).
//! * [`FaultPlan`] — a seeded, replayable schedule of process crashes and
//!   restarts, link flaps, and lossy-episode windows, in the style of
//!   [`crate::churn::ChurnEvent`]: events are name-based and
//!   self-contained, so the same plan drives the engine fault plane and
//!   the NWS-layer crash/restart harness, and the same seed reproduces a
//!   bit-identical trace.
//!
//! ## Determinism
//!
//! The fault plane draws a *fixed* number of uniforms per cross-node send
//! (drop, duplicate, jitter, duplicate-delay — whether or not each fires),
//! so the random stream consumed is a function of the message sequence
//! alone. Two runs with the same engine seed, fault seed and plan are
//! bit-identical in every observable, including the drop/duplicate
//! counters in [`crate::engine::EngineStats`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::time::TimeDelta;
use crate::topology::NodeId;

/// Probabilistic fault model for every cross-node message. All faults are
/// independent per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Probability the message silently vanishes.
    pub drop_p: f64,
    /// Probability a second copy is delivered (possibly reordered — the
    /// duplicate bypasses the per-pair FIFO clamp).
    pub dup_p: f64,
    /// Extra one-way delay, uniform in `[0, jitter]`.
    pub jitter: TimeDelta,
}

impl LossModel {
    /// The identity model: nothing dropped, duplicated or delayed.
    pub const NONE: LossModel = LossModel { drop_p: 0.0, dup_p: 0.0, jitter: TimeDelta::ZERO };

    /// A plain lossy link: drop probability only.
    pub fn lossy(drop_p: f64) -> Self {
        LossModel { drop_p, dup_p: 0.0, jitter: TimeDelta::ZERO }
    }

    /// A degraded link: loss plus duplication plus jitter.
    pub fn degraded(drop_p: f64, dup_p: f64, jitter: TimeDelta) -> Self {
        LossModel { drop_p, dup_p, jitter }
    }

    /// Whether this model can ever perturb a message.
    pub fn is_none(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.jitter <= TimeDelta::ZERO
    }
}

/// One scheduled fault. Name-based and self-contained, like
/// [`crate::churn::ChurnEvent`], so a plan can be replayed against any
/// engine simulating the same platform. Crash/restart events target
/// *processes by host name* — the engine does not know which pids live
/// where, so the NWS-layer harness maps names to pids and applies them;
/// link and loss events apply directly via [`apply_link_fault`] and the
/// engine's loss-model setter.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The named host's resident process crashes (kill at the NWS layer).
    Crash { host: String },
    /// The crashed process is restarted (supervised recovery exercises
    /// detection instead; unsupervised harnesses apply this directly).
    Restart { host: String },
    /// The named host's access links go down (transport-level outage: the
    /// process is alive but unreachable).
    LinkDown { host: String },
    /// The access links come back.
    LinkUp { host: String },
    /// A lossy episode begins: the engine-wide default loss model becomes
    /// `model` until the matching [`FaultEvent::LossEnd`].
    LossStart { model: LossModel },
    /// The lossy episode ends (default loss model cleared).
    LossEnd,
}

/// A fault with its scheduled instant (seconds of simulated time).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    pub t: f64,
    pub event: FaultEvent,
}

/// A replayable fault schedule: events sorted by time (ties broken by
/// generation order). Same seed and config → identical plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub events: Vec<ScheduledFault>,
}

/// Knobs for [`FaultPlan::storm`].
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Length of the window faults are scheduled into, in seconds.
    pub duration: f64,
    /// Loss model active during lossy episodes.
    pub loss: LossModel,
    /// Number of lossy episodes.
    pub episodes: usize,
    /// Number of crash → restart pairs (victims drawn from the host list).
    pub crashes: usize,
    /// Number of link-down → link-up flaps.
    pub flaps: usize,
    /// Crash/flap outage length, uniform in this range (seconds).
    pub outage: (f64, f64),
}

impl StormConfig {
    /// A storm sized for a `duration`-second run: two lossy episodes,
    /// `crashes` crash/restart pairs, one link flap.
    pub fn new(duration: f64, loss: LossModel, crashes: usize) -> Self {
        StormConfig {
            duration,
            loss,
            episodes: if loss.is_none() { 0 } else { 2 },
            crashes,
            flaps: 1,
            outage: (duration * 0.05, duration * 0.15),
        }
    }
}

impl FaultPlan {
    /// Generate a fault storm over `hosts`. Deterministic per seed; the
    /// event list is sorted by time with generation order breaking ties.
    pub fn storm(seed: u64, hosts: &[String], cfg: &StormConfig) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17_57a6);
        let mut events: Vec<ScheduledFault> = Vec::new();
        for _ in 0..cfg.episodes {
            let start = rng.gen_range(0.0..cfg.duration * 0.7);
            let len = rng.gen_range(cfg.duration * 0.05..cfg.duration * 0.25);
            events.push(ScheduledFault {
                t: start,
                event: FaultEvent::LossStart { model: cfg.loss },
            });
            events.push(ScheduledFault {
                t: (start + len).min(cfg.duration),
                event: FaultEvent::LossEnd,
            });
        }
        let victims = |rng: &mut SmallRng| hosts[rng.gen_range(0..hosts.len())].clone();
        for _ in 0..cfg.crashes {
            if hosts.is_empty() {
                break;
            }
            let host = victims(&mut rng);
            let start = rng.gen_range(cfg.duration * 0.1..cfg.duration * 0.7);
            let outage = rng.gen_range(cfg.outage.0..cfg.outage.1.max(cfg.outage.0 + 1e-9));
            events
                .push(ScheduledFault { t: start, event: FaultEvent::Crash { host: host.clone() } });
            events.push(ScheduledFault {
                t: (start + outage).min(cfg.duration),
                event: FaultEvent::Restart { host },
            });
        }
        for _ in 0..cfg.flaps {
            if hosts.is_empty() {
                break;
            }
            let host = victims(&mut rng);
            let start = rng.gen_range(cfg.duration * 0.1..cfg.duration * 0.7);
            let outage = rng.gen_range(cfg.outage.0..cfg.outage.1.max(cfg.outage.0 + 1e-9));
            events.push(ScheduledFault {
                t: start,
                event: FaultEvent::LinkDown { host: host.clone() },
            });
            events.push(ScheduledFault {
                t: (start + outage).min(cfg.duration),
                event: FaultEvent::LinkUp { host },
            });
        }
        // Stable sort: equal times keep generation order, so the plan is a
        // pure function of (seed, hosts, cfg).
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        FaultPlan { events }
    }
}

/// Apply a link-level fault event to an engine: down (or restore) every
/// access link of the named host and recompute routes. Returns the host's
/// node, or `None` if the name does not resolve (e.g. a plan replayed on a
/// scenario without that host — the event is skipped, matching churn's
/// tolerant replay semantics).
pub fn apply_link_fault<M>(eng: &mut Engine<M>, host: &str, up: bool) -> Option<NodeId> {
    let node = eng.topo().node_by_name(host)?;
    let links: Vec<_> = eng.topo().neighbours(node).iter().map(|(l, _)| *l).collect();
    for l in links {
        eng.topo_mut().set_link_up(l, up);
    }
    eng.recompute_routes();
    Some(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("h{i}.x")).collect()
    }

    #[test]
    fn storm_plans_are_deterministic_per_seed() {
        let cfg = StormConfig::new(600.0, LossModel::lossy(0.05), 3);
        let a = FaultPlan::storm(9, &hosts(8), &cfg);
        let b = FaultPlan::storm(9, &hosts(8), &cfg);
        assert_eq!(a, b);
        let c = FaultPlan::storm(10, &hosts(8), &cfg);
        assert_ne!(a, c, "plan must vary with the seed");
    }

    #[test]
    fn storm_events_are_sorted_and_paired() {
        let cfg = StormConfig::new(600.0, LossModel::lossy(0.05), 4);
        let plan = FaultPlan::storm(3, &hosts(6), &cfg);
        assert!(plan.events.windows(2).all(|w| w[0].t <= w[1].t));
        let crashes =
            plan.events.iter().filter(|e| matches!(e.event, FaultEvent::Crash { .. })).count();
        let restarts =
            plan.events.iter().filter(|e| matches!(e.event, FaultEvent::Restart { .. })).count();
        assert_eq!(crashes, 4);
        assert_eq!(crashes, restarts);
        // Every crash precedes its restart for the same host.
        for (i, e) in plan.events.iter().enumerate() {
            if let FaultEvent::Crash { host } = &e.event {
                assert!(
                    plan.events[i..]
                        .iter()
                        .any(|f| matches!(&f.event, FaultEvent::Restart { host: h } if h == host)),
                    "crash of {host} has no later restart"
                );
            }
        }
        assert!(plan.events.iter().all(|e| e.t <= cfg.duration));
    }

    #[test]
    fn loss_model_composition() {
        assert!(LossModel::NONE.is_none());
        assert!(!LossModel::lossy(0.5).is_none());
    }

    #[test]
    fn zero_loss_storm_has_no_episodes() {
        let cfg = StormConfig::new(600.0, LossModel::NONE, 2);
        let plan = FaultPlan::storm(1, &hosts(4), &cfg);
        assert!(!plan.events.iter().any(|e| matches!(e.event, FaultEvent::LossStart { .. })));
    }
}
