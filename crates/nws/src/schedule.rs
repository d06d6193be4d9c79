//! One stream of perturbations for a deployed NWS: the [`Schedule`] that
//! [`NwsSystem::run_schedule`](crate::NwsSystem::run_schedule) applies.
//!
//! The paper's §2.3 claims the NWS ships "mechanisms to handle network
//! errors"; exercising them needs perturbations that compose. A schedule
//! is a time-sorted list of name-based events — sensor crashes, link
//! flaps, lossy episodes, memory kills and memory-host crashes — so one
//! schedule replays against any deployment of the same platform, and
//! [`Schedule::storm`] with the same seed draws the same storm.

use netsim::faults::LossModel;
use netsim::time::{SimTime, TimeDelta};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One perturbation. Hosts are named, not pids: `run_schedule` resolves
/// a name when its event comes due, so the event survives the restarts
/// that hand the host's processes fresh pids.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The named host's sensor process dies.
    Crash { host: String },
    /// The crashed sensor is due back. Applying it changes nothing —
    /// detection and restart are the supervisor's job, and without one
    /// the sensor stays dead — but, like every event, its instant is a
    /// sweep boundary.
    Restart { host: String },
    /// The named host's access links go down: its processes live on,
    /// unreachable.
    LinkDown { host: String },
    /// The access links come back.
    LinkUp { host: String },
    /// A lossy episode begins: the engine-wide loss model becomes `model`.
    LossStart { model: LossModel },
    /// The lossy episode ends (no engine-wide loss model).
    LossEnd,
    /// The memory server on the named host dies; the host's page cache
    /// survives, so recovery loses nothing.
    MemoryKill { host: String },
    /// The memory host crashes at the power level: the process dies and
    /// the disk tears each file's unsynced tail
    /// ([`NwsSystem::crash_memory`](crate::NwsSystem::crash_memory)).
    MemoryCrash { host: String },
}

/// An event at its instant.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Timed {
    pub(crate) at: SimTime,
    pub(crate) event: Event,
}

/// Events sorted by instant; events at one instant keep the order they
/// were added in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    events: Vec<Timed>,
}

impl Schedule {
    /// Add `event` at `at`, after every event already due at or before
    /// `at` — where a stable sort of the events by instant would put it.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let i = self.events.partition_point(|e| e.at <= at);
        self.events.insert(i, Timed { at, event });
    }

    pub(crate) fn events(&self) -> &[Timed] {
        &self.events
    }

    /// A seeded storm over `hosts` in the `duration` after `start`: two
    /// lossy episodes under `loss` (none when `loss` is
    /// [`LossModel::NONE`]), then `crashes` crash/restart pairs, each
    /// victim drawn from `hosts` and each outage 5–15 % of `duration`.
    /// Every instant is clamped into the window. Deterministic per seed.
    pub fn storm(
        seed: u64,
        hosts: &[String],
        start: SimTime,
        duration: TimeDelta,
        loss: LossModel,
        crashes: usize,
    ) -> Schedule {
        let d = duration.as_secs();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17_57a6);
        let mut events: Vec<(f64, Event)> = Vec::new();
        let episodes = if loss.is_none() { 0 } else { 2 };
        for _ in 0..episodes {
            let t = rng.gen_range(0.0..d * 0.7);
            let len = rng.gen_range(d * 0.05..d * 0.25);
            events.push((t, Event::LossStart { model: loss }));
            events.push(((t + len).min(d), Event::LossEnd));
        }
        if !hosts.is_empty() {
            for _ in 0..crashes {
                let host = hosts[rng.gen_range(0..hosts.len())].clone();
                let t = rng.gen_range(d * 0.1..d * 0.7);
                let outage = rng.gen_range(d * 0.05..d * 0.15);
                events.push((t, Event::Crash { host: host.clone() }));
                events.push(((t + outage).min(d), Event::Restart { host }));
            }
        }
        // Sorted on the offsets, before `start` is added, so two draws
        // that round to one instant keep the order of their offsets.
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let events = events
            .into_iter()
            .map(|(t, event)| Timed { at: start + TimeDelta::from_secs(t), event });
        Schedule { events: events.collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("h{i}.x")).collect()
    }

    fn storm(seed: u64, n: usize, loss: LossModel, crashes: usize) -> Schedule {
        Schedule::storm(seed, &hosts(n), SimTime::ZERO, TimeDelta::from_secs(600.0), loss, crashes)
    }

    #[test]
    fn storm_plans_are_deterministic_per_seed() {
        let a = storm(9, 8, LossModel::lossy(0.05), 3);
        assert_eq!(a, storm(9, 8, LossModel::lossy(0.05), 3));
        assert_ne!(a, storm(10, 8, LossModel::lossy(0.05), 3), "plan must vary with the seed");
    }

    #[test]
    fn storm_events_are_sorted_and_paired() {
        let start = SimTime::from_secs(60.0);
        let plan = Schedule::storm(
            3,
            &hosts(6),
            start,
            TimeDelta::from_secs(600.0),
            LossModel::lossy(0.05),
            4,
        );
        let events = plan.events();
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        let crashes = events.iter().filter(|e| matches!(e.event, Event::Crash { .. })).count();
        let restarts = events.iter().filter(|e| matches!(e.event, Event::Restart { .. })).count();
        assert_eq!(crashes, 4);
        assert_eq!(crashes, restarts);
        // Every crash precedes its restart for the same host.
        for (i, e) in events.iter().enumerate() {
            if let Event::Crash { host } = &e.event {
                assert!(
                    events[i..]
                        .iter()
                        .any(|f| matches!(&f.event, Event::Restart { host: h } if h == host)),
                    "crash of {host} has no later restart"
                );
            }
        }
        let end = start + TimeDelta::from_secs(600.0);
        assert!(events.iter().all(|e| start <= e.at && e.at <= end));
    }

    #[test]
    fn zero_loss_storm_has_no_episodes() {
        let plan = storm(1, 4, LossModel::NONE, 2);
        assert!(!plan.events().iter().any(|e| matches!(e.event, Event::LossStart { .. })));
    }

    #[test]
    fn a_pushed_event_goes_after_every_event_at_its_instant() {
        let at = |s| SimTime::from_secs(s);
        let mut plan = Schedule::default();
        plan.push(at(5.0), Event::LossEnd);
        plan.push(at(1.0), Event::MemoryKill { host: "a".into() });
        plan.push(at(5.0), Event::MemoryKill { host: "b".into() });
        plan.push(at(3.0), Event::LossStart { model: LossModel::NONE });
        let order: Vec<(f64, &Event)> =
            plan.events().iter().map(|e| (e.at.as_secs(), &e.event)).collect();
        assert_eq!(
            order,
            [
                (1.0, &Event::MemoryKill { host: "a".into() }),
                (3.0, &Event::LossStart { model: LossModel::NONE }),
                (5.0, &Event::LossEnd),
                (5.0, &Event::MemoryKill { host: "b".into() }),
            ]
        );
    }
}
