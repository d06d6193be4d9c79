//! Heartbeat-driven supervision of a deployed NWS system.
//!
//! Deployment is not done when the plan is applied: a long-running NWS
//! must detect and repair its own component failures (the autonomic-
//! management argument of Dearle/Kirby/McCarthy). The supervisor is a
//! plain actor on the simulated network — it learns about deaths the same
//! way a real one would, by missed heartbeats, not by peeking at engine
//! state:
//!
//! * every [`SupervisorConfig::period`] it sends [`crate::NwsMsg::Ping`]
//!   to every monitored pid (sensors and memory servers);
//! * a pid that misses [`SupervisorConfig::miss_threshold`] consecutive
//!   replies is moved to [`SupervisorState::suspected`];
//! * a late Pong clears the suspicion — a lossy episode that delays
//!   heartbeats must not get a live process restarted;
//! * the harness ([`crate::NwsSystem::heal`]) drains `suspected` and
//!   restarts the components via the existing reconfigure/Retarget
//!   machinery, swapping the monitored pid for the replacement's.
//!
//! Detection latency is therefore bounded by `miss_threshold × period`
//! plus one heal sweep; the recovery bound on top is the Retarget
//! delivery (sensors) or the `RetargetMemory` burst + buffer drain
//! (memories).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use netsim::engine::{Ctx, Process, ProcessId};
use netsim::time::TimeDelta;

use crate::msg::NwsMsg;

/// Heartbeat tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Heartbeat period.
    pub period: TimeDelta,
    /// Consecutive missed heartbeats before a pid is suspected dead.
    pub miss_threshold: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { period: TimeDelta::from_secs(5.0), miss_threshold: 3 }
    }
}

/// The liveness ledger, shared between the supervisor process and the
/// harness that performs the restarts.
#[derive(Debug, Default)]
pub struct SupervisorState {
    /// The monitored pids. The harness edits this as restarts swap pids.
    pub targets: BTreeSet<ProcessId>,
    /// Pids declared dead, awaiting [`crate::NwsSystem::heal`].
    pub suspected: BTreeSet<ProcessId>,
    /// Consecutive missed heartbeats as of the last scoring, by pid index
    /// (none beyond the end). Read only for a pid still awaited, so a pong
    /// or a restart, which end the wait, need not reset it: the next
    /// scoring does.
    misses: Vec<u32>,
    /// By pid index: pinged this period and not answered yet.
    awaiting: Vec<bool>,
    pub pings_sent: u64,
    pub pongs_seen: u64,
}

impl SupervisorState {
    /// Swap a restarted component's pid: the dead pid stops being
    /// monitored (and suspected), the replacement starts fresh.
    pub(crate) fn replace_target(&mut self, dead: ProcessId, replacement: ProcessId) {
        self.targets.remove(&dead);
        self.suspected.remove(&dead);
        if let Some(a) = self.awaiting.get_mut(dead.index()) {
            *a = false;
        }
        self.targets.insert(replacement);
    }

    /// Open a heartbeat period: score the one that ends (a target still
    /// awaited missed it) and return the targets to ping, ascending.
    fn score(&mut self, miss_threshold: u32) -> Vec<ProcessId> {
        let targets: Vec<ProcessId> = self.targets.iter().copied().collect();
        if let Some(last) = targets.last() {
            let len = last.index() + 1;
            if self.misses.len() < len {
                self.misses.resize(len, 0);
                self.awaiting.resize(len, false);
            }
        }
        for pid in &targets {
            let m = &mut self.misses[pid.index()];
            if self.awaiting[pid.index()] {
                *m += 1;
                if *m >= miss_threshold {
                    self.suspected.insert(*pid);
                }
            } else {
                *m = 0;
            }
        }
        // Awaited from now on: exactly this period's targets.
        self.awaiting.fill(false);
        for pid in &targets {
            self.awaiting[pid.index()] = true;
        }
        self.pings_sent += targets.len() as u64;
        targets
    }

    /// A heartbeat answered, by any pid. It is no longer awaited, so the
    /// next scoring zeroes its misses.
    fn pong(&mut self, from: ProcessId) {
        self.pongs_seen += 1;
        if let Some(a) = self.awaiting.get_mut(from.index()) {
            *a = false;
        }
        // A late pong exonerates a target: better to tolerate a slow pid
        // than to restart a live one over a lossy episode. Suspects are
        // few (usually none), so they are asked first.
        if self.suspected.contains(&from) && self.targets.contains(&from) {
            self.suspected.remove(&from);
        }
    }
}

/// Shared handle onto the supervisor's ledger.
pub type SupervisorHandle = Rc<RefCell<SupervisorState>>;

const TAG_BEAT: u64 = 0;

/// The supervisor actor. Spawned by [`crate::NwsSystem::attach_supervisor`].
pub struct SupervisorProc {
    cfg: SupervisorConfig,
    state: SupervisorHandle,
}

impl SupervisorProc {
    pub(crate) fn new(cfg: SupervisorConfig, state: SupervisorHandle) -> Self {
        SupervisorProc { cfg, state }
    }

    fn beat(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let targets = self.state.borrow_mut().score(self.cfg.miss_threshold);
        for pid in targets {
            // A synchronous failure (already-dead pid) is fine: the pong
            // simply never comes and the miss counter does its job.
            NwsMsg::Ping.send(ctx, pid);
        }
        ctx.set_timer(self.cfg.period, TAG_BEAT);
    }
}

impl Process<NwsMsg> for SupervisorProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        self.beat(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::Pong = msg {
            self.state.borrow_mut().pong(from);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NwsMsg>, tag: u64) {
        if tag == TAG_BEAT {
            self.beat(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::Engine;
    use netsim::topology::{NodeId, TopologyBuilder};
    use netsim::units::{Bandwidth, Latency};
    use proptest::prelude::*;

    fn hub3() -> (Engine<NwsMsg>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        (Engine::new(b.build().unwrap()), hosts)
    }

    /// A process that answers pings until `deaf` flips.
    struct Echo {
        deaf: Rc<RefCell<bool>>,
    }
    impl Process<NwsMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
            if let NwsMsg::Ping = msg {
                if !*self.deaf.borrow() {
                    NwsMsg::Pong.send(ctx, from);
                }
            }
        }
    }

    #[test]
    fn responsive_targets_are_never_suspected() {
        let (mut eng, hosts) = hub3();
        let deaf = Rc::new(RefCell::new(false));
        let echo = eng.add_process(hosts[1], Box::new(Echo { deaf }));
        let state: SupervisorHandle = Rc::new(RefCell::new(SupervisorState::default()));
        state.borrow_mut().targets.insert(echo);
        let cfg = SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 };
        eng.add_process(hosts[0], Box::new(SupervisorProc::new(cfg, state.clone())));
        let deadline = eng.now() + TimeDelta::from_secs(30.0);
        eng.run_until(deadline);
        let st = state.borrow();
        assert!(st.suspected.is_empty());
        assert!(st.pongs_seen >= 25, "pongs: {}", st.pongs_seen);
    }

    #[test]
    fn dead_target_is_suspected_within_threshold_periods() {
        let (mut eng, hosts) = hub3();
        let deaf = Rc::new(RefCell::new(false));
        let echo = eng.add_process(hosts[1], Box::new(Echo { deaf }));
        let state: SupervisorHandle = Rc::new(RefCell::new(SupervisorState::default()));
        state.borrow_mut().targets.insert(echo);
        let cfg = SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 3 };
        eng.add_process(hosts[0], Box::new(SupervisorProc::new(cfg, state.clone())));
        let warm = eng.now() + TimeDelta::from_secs(5.0);
        eng.run_until(warm);
        assert!(state.borrow().suspected.is_empty());

        eng.kill_process(echo);
        // Detection bound: miss_threshold (3) + 1 scoring period + slack.
        let deadline = eng.now() + TimeDelta::from_secs(5.5);
        eng.run_until(deadline);
        assert!(state.borrow().suspected.contains(&echo), "dead pid must be suspected");
    }

    #[test]
    fn late_pong_exonerates_a_suspect() {
        let (mut eng, hosts) = hub3();
        let deaf = Rc::new(RefCell::new(false));
        let echo = eng.add_process(hosts[1], Box::new(Echo { deaf: deaf.clone() }));
        let state: SupervisorHandle = Rc::new(RefCell::new(SupervisorState::default()));
        state.borrow_mut().targets.insert(echo);
        let cfg = SupervisorConfig { period: TimeDelta::from_secs(1.0), miss_threshold: 2 };
        eng.add_process(hosts[0], Box::new(SupervisorProc::new(cfg, state.clone())));

        // Go deaf long enough to be suspected, then recover.
        *deaf.borrow_mut() = true;
        let deadline = eng.now() + TimeDelta::from_secs(6.0);
        eng.run_until(deadline);
        assert!(state.borrow().suspected.contains(&echo));
        *deaf.borrow_mut() = false;
        let deadline = eng.now() + TimeDelta::from_secs(3.0);
        eng.run_until(deadline);
        assert!(state.borrow().suspected.is_empty(), "a pid that answers again must be exonerated");
    }

    /// The B-tree ledger the dense one replaced, kept as the reference:
    /// misses by pid (absent = 0), and the set of pids still awaited.
    #[derive(Default)]
    struct TreeLedger {
        targets: BTreeSet<ProcessId>,
        suspected: BTreeSet<ProcessId>,
        misses: std::collections::BTreeMap<ProcessId, u32>,
        awaiting: BTreeSet<ProcessId>,
    }

    impl TreeLedger {
        fn score(&mut self, miss_threshold: u32) -> Vec<ProcessId> {
            let targets: Vec<ProcessId> = self.targets.iter().copied().collect();
            for pid in &targets {
                if self.awaiting.contains(pid) {
                    let m = self.misses.entry(*pid).or_insert(0);
                    *m += 1;
                    if *m >= miss_threshold {
                        self.suspected.insert(*pid);
                    }
                } else {
                    self.misses.insert(*pid, 0);
                }
            }
            self.awaiting = targets.iter().copied().collect();
            targets
        }

        fn pong(&mut self, from: ProcessId) {
            self.awaiting.remove(&from);
            if self.targets.contains(&from) {
                self.misses.insert(from, 0);
                self.suspected.remove(&from);
            }
        }

        fn replace_target(&mut self, dead: ProcessId, replacement: ProcessId) {
            self.targets.remove(&dead);
            self.suspected.remove(&dead);
            self.misses.remove(&dead);
            self.awaiting.remove(&dead);
            self.targets.insert(replacement);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense ledger suspects exactly what the B-tree ledger does,
        /// after every beat, under any interleaving of beats, pongs (from
        /// non-targets and from pids past the vectors' end too), target
        /// inserts and removals, restarts and the harness dropping a
        /// suspect; and it pings the same pids in the same order.
        #[test]
        fn dense_ledger_equals_the_btree_ledger(
            threshold in 1u32..4,
            initial in 0u32..12,
            ops in collection::vec((0u8..8, 0u32..48, 0u32..48), 0..200),
        ) {
            let mut dense = SupervisorState::default();
            let mut tree = TreeLedger::default();
            for raw in 0..initial {
                dense.targets.insert(ProcessId::from_raw(raw));
                tree.targets.insert(ProcessId::from_raw(raw));
            }
            let mut beats = 0;
            for (op, x, y) in ops {
                let (x, y) = (ProcessId::from_raw(x), ProcessId::from_raw(y));
                match op {
                    0 | 1 => {
                        beats += 1;
                        prop_assert_eq!(dense.score(threshold), tree.score(threshold));
                        prop_assert_eq!(&dense.suspected, &tree.suspected, "after beat {}", beats);
                    }
                    2 | 3 => {
                        // Half the pongs come from the low pids, mostly
                        // targets; the rest from anywhere.
                        let from = if op == 2 { x } else { ProcessId::from_raw(x.index() as u32 % 16) };
                        dense.pong(from);
                        tree.pong(from);
                    }
                    4 => {
                        dense.targets.insert(x);
                        tree.targets.insert(x);
                    }
                    5 => {
                        dense.replace_target(x, y);
                        tree.replace_target(x, y);
                    }
                    6 => {
                        dense.suspected.remove(&x);
                        tree.suspected.remove(&x);
                    }
                    _ => {
                        dense.targets.remove(&x);
                        tree.targets.remove(&x);
                    }
                }
                prop_assert_eq!(&dense.targets, &tree.targets);
            }
            prop_assert_eq!(&dense.suspected, &tree.suspected);
        }
    }
}
