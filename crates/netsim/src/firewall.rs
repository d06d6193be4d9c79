//! Firewall rules: which host pairs may communicate.
//!
//! The paper's ENS-Lyon platform contains the firewalled `popc.private`
//! domain: its inner hosts "cannot communicate with the outside world, but
//! they are connected to sci0, popc0 and myri0, which can act as gateways"
//! (§4.3). We model that with deny pairs of host sets: traffic between the
//! two sets of a pair is blocked in both directions, everything else is
//! allowed.

use std::collections::BTreeSet;

use crate::topology::NodeId;

/// A list of deny pairs; default allow.
#[derive(Debug, Clone, Default)]
pub struct Firewall {
    denied: Vec<(BTreeSet<NodeId>, BTreeSet<NodeId>)>,
}

impl Firewall {
    /// Block all traffic between the two sets, in both directions.
    pub(crate) fn deny_between(&mut self, a: &[NodeId], b: &[NodeId]) {
        self.denied.push((a.iter().copied().collect(), b.iter().copied().collect()));
    }

    /// Whether `src` may send traffic to `dst`: true unless some deny pair
    /// separates them.
    pub(crate) fn allows(&self, src: NodeId, dst: NodeId) -> bool {
        !self.denied.iter().any(|(a, b)| {
            (a.contains(&src) && b.contains(&dst)) || (b.contains(&src) && a.contains(&dst))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn default_allows_everything() {
        let fw = Firewall::default();
        assert!(fw.allows(n(0), n(1)));
    }

    #[test]
    fn deny_between_is_bidirectional() {
        let mut fw = Firewall::default();
        fw.deny_between(&[n(1), n(2)], &[n(5)]);
        assert!(!fw.allows(n(1), n(5)));
        assert!(!fw.allows(n(5), n(2)));
        assert!(fw.allows(n(1), n(2)));
        assert!(fw.allows(n(5), n(6)));
    }

    #[test]
    fn paper_gateway_pattern() {
        // Inner private hosts 10..13, gateways 20..22, public hosts 30..32.
        let inner: Vec<NodeId> = (10..14).map(n).collect();
        let public: Vec<NodeId> = (30..33).map(n).collect();
        let mut fw = Firewall::default();
        fw.deny_between(&inner, &public);
        // Inner can talk to gateways (not listed in any rule).
        assert!(fw.allows(n(10), n(20)));
        assert!(fw.allows(n(20), n(10)));
        // Inner cannot cross to public.
        assert!(!fw.allows(n(10), n(30)));
        assert!(!fw.allows(n(31), n(12)));
        // Gateways reach the public side.
        assert!(fw.allows(n(21), n(31)));
    }
}
