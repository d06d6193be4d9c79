//! The NWS measurement clique: a token ring guaranteeing mutually
//! exclusive network experiments (paper §2.3, Wolski/Gaidioz/Tourancheau,
//! the paper's reference 23).
//!
//! "Only the host having the token at a given time is granted to launch
//! network measurements on the links involved in that clique. Mechanisms
//! to handle network errors and leader elections are also introduced."
//!
//! Implementation notes:
//!
//! * The token's sequence number increments at **every hop**; a member
//!   accepts a token only when its sequence exceeds everything it has
//!   seen, which kills duplicates after a regeneration race.
//! * Every member arms a watchdog sized to a full round (scaled by its
//!   ring index so the earliest member usually wins the regeneration
//!   race). When it fires, the member fabricates a fresh token with a
//!   sequence jump large enough that the stale token can never catch up.

use std::rc::Rc;

use netsim::engine::ProcessId;
use netsim::time::TimeDelta;
use netsim::topology::NodeId;

use crate::ids::HostId;

/// A clique's ring: (sensor pid, interned host name, host node) per
/// member, in ring order. Built once per clique and shared by every member's
/// [`CliqueMembership`] and every [`CliqueRetarget`] that carries it — a
/// ring is never mutated after construction (a changed clique gets a new
/// ring) and the engine is single-threaded, so an `Rc` is all the sharing
/// needs. Per-member copies would cost Σ|c|² entries per deployment.
pub type Ring = Rc<[(ProcessId, HostId, NodeId)]>;

/// One sensor's view of one clique it belongs to.
#[derive(Debug, Clone)]
pub struct CliqueMembership {
    /// Clique name (unique per deployment plan).
    pub clique: String,
    /// The clique's ring, shared with its other members.
    pub members: Ring,
    /// This sensor's position in the ring.
    pub me_idx: usize,
    /// Pause between finishing experiments and passing the token on —
    /// controls measurement frequency (paper §2.3 scalability).
    pub gap: TimeDelta,
    /// Expected full-round duration; the watchdog base.
    pub watchdog_base: TimeDelta,
    /// Highest token sequence seen.
    pub last_seq: u64,
    /// Rounds completed (token passages through member 0).
    pub rounds_seen: u64,
}

impl CliqueMembership {
    /// The membership of sensor `me`; `None` when the ring does not name it.
    pub(crate) fn new(
        clique: &str,
        members: Ring,
        me: ProcessId,
        gap: TimeDelta,
        watchdog_base: TimeDelta,
    ) -> Option<Self> {
        let me_idx = members.iter().position(|(p, _, _)| *p == me)?;
        Some(Self::at(clique, members, me_idx, gap, watchdog_base))
    }

    /// The membership of the ring's `me_idx`-th member, for a caller that
    /// placed the member itself and need not search for it.
    pub(crate) fn at(
        clique: &str,
        members: Ring,
        me_idx: usize,
        gap: TimeDelta,
        watchdog_base: TimeDelta,
    ) -> Self {
        debug_assert!(me_idx < members.len());
        CliqueMembership {
            clique: clique.to_string(),
            members,
            me_idx,
            gap,
            watchdog_base,
            last_seq: 0,
            rounds_seen: 0,
        }
    }

    /// The next member in ring order.
    pub(crate) fn next_member(&self) -> ProcessId {
        self.members[(self.me_idx + 1) % self.members.len()].0
    }

    /// Whether passing to the next member completes a round (the token
    /// re-enters member 0).
    pub(crate) fn pass_completes_round(&self) -> bool {
        (self.me_idx + 1).is_multiple_of(self.members.len())
    }

    /// Token acceptance rule: strictly newer sequences only.
    pub(crate) fn accepts(&self, seq: u64) -> bool {
        seq > self.last_seq
    }

    /// Watchdog delay for this member: a full round plus an index-scaled
    /// stagger so regeneration races have a deterministic likely winner.
    pub(crate) fn watchdog_delay(&self) -> TimeDelta {
        self.watchdog_base * (1.0 + 0.25 * self.me_idx as f64)
    }

    /// Sequence for a regenerated token: far enough ahead that the lost
    /// token (at most `len` hops stale) can never be accepted again.
    pub(crate) fn regen_seq(&self) -> u64 {
        self.last_seq + self.members.len() as u64 + self.me_idx as u64 + 1
    }
}

/// A clique (re)configuration shipped to a member sensor over the wire
/// (`NwsMsg::Retarget`): everything the sensor needs to build its
/// [`CliqueMembership`] in place, without being torn down and redeployed.
#[derive(Debug, Clone)]
pub struct CliqueRetarget {
    pub clique: String,
    /// The clique's new ring, shared by the retargets of all its members.
    pub ring: Ring,
    pub gap: TimeDelta,
    pub watchdog: TimeDelta,
    /// Whether ring member 0 should inject an initial token (true for a
    /// brand-new clique; restarts of an existing clique rely on token
    /// continuity — a live token is accepted into the new membership by
    /// name — with the watchdog regenerating it if it died with a removed
    /// member).
    pub start_token: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeriesTable;

    fn membership(k: usize, me: usize) -> CliqueMembership {
        let table = SeriesTable::new();
        let members: Ring = (0..k)
            .map(|i| {
                let host = table.borrow_mut().host(&format!("h{i}.x"));
                (ProcessId::from_raw(i as u32), host, NodeId::from_raw(i as u32))
            })
            .collect();
        CliqueMembership::new(
            "c0",
            members,
            ProcessId::from_raw(me as u32),
            TimeDelta::from_secs(1.0),
            TimeDelta::from_secs(10.0),
        )
        .expect("me < k")
    }

    #[test]
    fn ring_order_and_round_completion() {
        let m = membership(4, 1);
        assert_eq!(m.me_idx, 1);
        assert_eq!(m.next_member(), ProcessId::from_raw(2));
        assert!(!m.pass_completes_round());
        let last = membership(4, 3);
        assert_eq!(last.next_member(), ProcessId::from_raw(0));
        assert!(last.pass_completes_round());
    }

    #[test]
    fn acceptance_is_strictly_monotonic() {
        let mut m = membership(3, 0);
        assert!(m.accepts(1));
        m.last_seq = 5;
        assert!(!m.accepts(5));
        assert!(!m.accepts(4));
        assert!(m.accepts(6));
    }

    #[test]
    fn watchdogs_stagger_by_index() {
        let m0 = membership(3, 0);
        let m1 = membership(3, 1);
        let m2 = membership(3, 2);
        assert!(m0.watchdog_delay() < m1.watchdog_delay());
        assert!(m1.watchdog_delay() < m2.watchdog_delay());
    }

    #[test]
    fn regen_outruns_stale_token() {
        let mut m = membership(5, 2);
        m.last_seq = 40;
        // A stale token is at most len-1 hops ahead of what we saw.
        assert!(m.regen_seq() > 40 + 4);
    }

    #[test]
    fn non_member_rejected() {
        let host = SeriesTable::new().borrow_mut().host("a");
        let members: Ring =
            [(ProcessId::from_raw(0), host, NodeId::from_raw(0))].into_iter().collect();
        let m = CliqueMembership::new(
            "c",
            members,
            ProcessId::from_raw(9),
            TimeDelta::from_secs(1.0),
            TimeDelta::from_secs(1.0),
        );
        assert!(m.is_none());
    }
}
