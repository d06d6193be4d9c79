//! Topology churn: seeded mutation schedules for the synthetic scenario
//! families, with maintained ground-truth effective clusters.
//!
//! The paper treats deployment as a single act; its real target (and the
//! autonomic framing of Dearle et al.) is a platform that *changes* under
//! a running NWS: hosts join a LAN, leave it, a LAN is re-provisioned or
//! partitioned off. This module produces such change as replayable
//! [`ChurnEvent`]s over a [`crate::synth`] scenario, in two halves:
//!
//! * [`apply_churn`] mutates an engine's topology (any engine — the
//!   mapping simulator and a live NWS engine can replay the same events)
//!   through the post-build mutators (`Topology::add_host_like`,
//!   `Topology::isolate_node`, capacity edits) and recomputes routes;
//! * [`ChurnState`] owns the bookkeeping: the current mapped host set and
//!   the current ground-truth effective clusters, plus a seeded generator
//!   ([`ChurnState::plan_epoch`]) that only proposes events which keep the
//!   truth well-defined (see below). [`ChurnState::commit`] folds events
//!   into the bookkeeping and reports the **dirty hosts** — the
//!   neighborhood whose measurements may have changed, which is exactly
//!   the contract `envmap`'s incremental re-mapper needs.
//!
//! ## Why the generated events keep the truth exact
//!
//! Events only ever touch *leaf-LAN* clusters that do not contain the
//! master (for the grid family, only site-0 inner LANs — never the
//! gateways). Within such a cluster:
//!
//! * adding/removing a member changes membership but not the sharing
//!   structure (the newcomer sits on the same hub medium or switch, behind
//!   the same LAN-router port, so pairwise dependence through that port is
//!   preserved);
//! * re-provisioning the LAN's rate changes measured bandwidths but not
//!   membership (members still share the LAN-router port / medium);
//! * partitioning downs every member's access link and drops the members
//!   from the managed set — the paper's operational answer to an
//!   unreachable subnet.
//!
//! Rate events are never generated for the fat-tree family: a pod's
//! effective cluster relies on the master's port being the shared
//! bottleneck, which a slower pod rate would break (the cluster would
//! legitimately dissolve into per-edge-switch clusters — a real effect,
//! but not one a maintained label set can track cheaply).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::error::{NetError, NetResult};
use crate::synth::{SynthFamily, SynthScenario};
use crate::topology::{LinkMode, MediumId, NodeId, Topology};
use crate::units::Bandwidth;

/// One platform mutation. Events are name-based and self-contained so the
/// same schedule can be replayed onto several engines simulating the same
/// platform (e.g. the mapping simulator and the NWS engine).
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A new host joins truth cluster `cluster`, attached like `sibling`
    /// (same hub medium or an identical switch port).
    AddHost { cluster: usize, name: String, ip: String, sibling: String },
    /// A member leaves the platform: its access link goes down and it
    /// drops out of the mapped set.
    RemoveHost { cluster: usize, name: String },
    /// The LAN carrying cluster `cluster` is re-provisioned: its medium
    /// (hub) or every port on its infrastructure node (switch) changes to
    /// `mbps`.
    SetLanRate { cluster: usize, members: Vec<String>, mbps: f64 },
    /// The LAN is partitioned off: every member's access link goes down
    /// and the members leave the managed set.
    Partition { cluster: usize, members: Vec<String> },
}

/// One maintained ground-truth cluster.
#[derive(Debug, Clone)]
pub struct ChurnCluster {
    pub members: Vec<String>,
    pub is_hub: bool,
    pub rate_mbps: f64,
    /// False once partitioned away.
    pub active: bool,
    /// Whether the churn generator may touch this cluster (leaf LAN, no
    /// master, and — for the grid family — not a gateway cluster).
    mutable: bool,
}

/// Churn bookkeeping over one synthetic scenario: the evolving mapped host
/// set and truth partition, plus the seeded event generator.
#[derive(Debug, Clone)]
pub struct ChurnState {
    pub family: SynthFamily,
    pub master: String,
    pub external: Option<String>,
    hosts: Vec<String>,
    pub clusters: Vec<ChurnCluster>,
    joined: usize,
    rng: SmallRng,
}

impl ChurnState {
    /// Ingest a freshly generated scenario. `seed` drives the event
    /// generator (independent of the scenario's own seed).
    pub fn new(sc: &SynthScenario, seed: u64) -> Self {
        let master = sc.master_name();
        let hosts = sc.input_names();
        let clusters = sc
            .truth
            .clusters
            .iter()
            .map(|c| {
                let members: Vec<String> = c.members.iter().map(|m| sc.host_name(*m)).collect();
                let mutable = members.len() >= 2
                    && !members.contains(&master)
                    && (sc.family != SynthFamily::Grid
                        || members.iter().all(|m| m.contains(".lan")));
                ChurnCluster {
                    members,
                    is_hub: c.is_hub,
                    rate_mbps: c.rate.as_mbps(),
                    active: true,
                    mutable,
                }
            })
            .collect();
        ChurnState {
            family: sc.family,
            master,
            external: sc.external_name(),
            hosts,
            clusters,
            joined: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0xc4a2_11fe),
        }
    }

    /// The current mapped host set (master first, joiners appended).
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// Current ground-truth effective clusters, for scoring.
    pub fn truth_labels(&self) -> Vec<Vec<String>> {
        self.clusters
            .iter()
            .filter(|c| c.active && !c.members.is_empty())
            .map(|c| c.members.clone())
            .collect()
    }

    fn eligible(&self, extra: impl Fn(&ChurnCluster) -> bool) -> Vec<usize> {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.active && c.mutable && extra(c))
            .map(|(i, _)| i)
            .collect()
    }

    /// Generate one epoch of `events` churn events against the current
    /// state. Deterministic per seed and call sequence. The events are not
    /// yet applied — replay them with [`apply_churn`] on every engine, then
    /// fold them in with [`ChurnState::commit`].
    pub fn plan_epoch(&mut self, events: usize) -> Vec<ChurnEvent> {
        let mut out = Vec::with_capacity(events);
        // Track pending membership changes so one epoch's events stay
        // consistent with each other (e.g. no removing the host an earlier
        // event of the same epoch already removed).
        let mut pending = self.clone_membership();
        for _ in 0..events {
            let kind = self.rng.gen_range(0u32..10);
            let ev = match kind {
                // 40% joins, 30% leaves, 20% rate changes, 10% partitions.
                0..=3 => self.plan_add(&mut pending),
                4..=6 => self.plan_remove(&mut pending),
                7..=8 => self.plan_rate(&pending),
                _ => self.plan_partition(&mut pending),
            };
            if let Some(ev) = ev {
                out.push(ev);
            }
        }
        out
    }

    fn clone_membership(&self) -> Vec<(Vec<String>, bool)> {
        self.clusters.iter().map(|c| (c.members.clone(), c.active)).collect()
    }

    fn pick(&mut self, pool: &[usize]) -> Option<usize> {
        if pool.is_empty() {
            return None;
        }
        Some(pool[self.rng.gen_range(0..pool.len())])
    }

    fn plan_add(&mut self, pending: &mut [(Vec<String>, bool)]) -> Option<ChurnEvent> {
        let pool: Vec<usize> =
            self.eligible(|_| true).into_iter().filter(|&i| pending[i].1).collect();
        let cluster = self.pick(&pool)?;
        let sibling = pending[cluster].0.last()?.clone();
        let n = self.joined;
        self.joined += 1;
        // Joiners live in 198.18/15 (benchmarking range), far from every
        // synth family's plan.
        let name = format!("joiner{n}.churn.synth");
        let ip = format!("198.18.{}.{}", n / 200, n % 200 + 1);
        pending[cluster].0.push(name.clone());
        Some(ChurnEvent::AddHost { cluster, name, ip, sibling })
    }

    fn plan_remove(&mut self, pending: &mut [(Vec<String>, bool)]) -> Option<ChurnEvent> {
        let pool: Vec<usize> = self
            .eligible(|_| true)
            .into_iter()
            .filter(|&i| pending[i].1 && pending[i].0.len() >= 3)
            .collect();
        let cluster = self.pick(&pool)?;
        let name = pending[cluster].0.pop()?;
        Some(ChurnEvent::RemoveHost { cluster, name })
    }

    fn plan_rate(&mut self, pending: &[(Vec<String>, bool)]) -> Option<ChurnEvent> {
        if self.family == SynthFamily::FatTree {
            return None; // see module docs: pod truth is rate-sensitive
        }
        let pool: Vec<usize> =
            self.eligible(|_| true).into_iter().filter(|&i| pending[i].1).collect();
        let cluster = self.pick(&pool)?;
        let mbps = if self.clusters[cluster].rate_mbps < 50.0 { 100.0 } else { 10.0 };
        Some(ChurnEvent::SetLanRate { cluster, members: pending[cluster].0.clone(), mbps })
    }

    fn plan_partition(&mut self, pending: &mut [(Vec<String>, bool)]) -> Option<ChurnEvent> {
        // Keep at least three live clusters so the platform stays worth
        // planning for (inter-clique and all).
        let live = pending.iter().filter(|(m, a)| *a && !m.is_empty()).count();
        if live <= 3 {
            return None;
        }
        let pool: Vec<usize> =
            self.eligible(|_| true).into_iter().filter(|&i| pending[i].1).collect();
        let cluster = self.pick(&pool)?;
        pending[cluster].1 = false;
        Some(ChurnEvent::Partition { cluster, members: pending[cluster].0.clone() })
    }

    /// Fold applied events into the bookkeeping. Returns the **dirty
    /// hosts**: every current host whose site/structural neighborhood was
    /// touched — the set the incremental re-mapper must re-probe. Removed
    /// and partitioned hosts leave the mapped set (and are not reported
    /// dirty: they are simply gone).
    pub fn commit(&mut self, events: &[ChurnEvent]) -> Vec<String> {
        let mut dirty: Vec<String> = Vec::new();
        for ev in events {
            match ev {
                ChurnEvent::AddHost { cluster, name, .. } => {
                    self.clusters[*cluster].members.push(name.clone());
                    self.hosts.push(name.clone());
                    dirty.extend(self.clusters[*cluster].members.iter().cloned());
                }
                ChurnEvent::RemoveHost { cluster, name } => {
                    self.clusters[*cluster].members.retain(|m| m != name);
                    self.hosts.retain(|h| h != name);
                    dirty.extend(self.clusters[*cluster].members.iter().cloned());
                }
                ChurnEvent::SetLanRate { cluster, mbps, .. } => {
                    self.clusters[*cluster].rate_mbps = *mbps;
                    dirty.extend(self.clusters[*cluster].members.iter().cloned());
                }
                ChurnEvent::Partition { cluster, members } => {
                    self.clusters[*cluster].active = false;
                    self.hosts.retain(|h| !members.contains(h));
                }
            }
        }
        // Only hosts still mapped can be dirty; dedup preserves first-seen
        // order for determinism.
        dirty.retain(|d| self.hosts.iter().any(|h| h == d));
        let mut seen = std::collections::BTreeSet::new();
        dirty.retain(|d| seen.insert(d.clone()));
        dirty
    }
}

/// The infrastructure node (hub/switch) a host hangs off: the peer of its
/// first live link.
fn infra_of(topo: &Topology, host: NodeId) -> NetResult<NodeId> {
    topo.neighbours(host)
        .iter()
        .find(|(l, _)| topo.link(*l).up)
        .map(|(_, n)| *n)
        .ok_or_else(|| NetError::InvalidTopology(format!("host {host} has no live link")))
}

/// Replay churn events onto an engine's topology and recompute routes.
/// Safe with traffic in flight: structural growth appends interned
/// resources (ids are stable), downs are administrative, and capacity
/// changes take effect on the next reallocation — exactly the semantics of
/// the pre-existing failure-injection path.
pub fn apply_churn<M>(eng: &mut Engine<M>, events: &[ChurnEvent]) -> NetResult<()> {
    for ev in events {
        match ev {
            ChurnEvent::AddHost { name, ip, sibling, .. } => {
                let sib = eng
                    .topo()
                    .node_by_name(sibling)
                    .ok_or_else(|| NetError::NameNotFound(sibling.clone()))?;
                let ip = ip.parse().map_err(|_| NetError::NameNotFound(ip.clone()))?;
                eng.topo_mut().add_host_like(name, ip, sib)?;
            }
            ChurnEvent::RemoveHost { name, .. } => {
                let n = eng
                    .topo()
                    .node_by_name(name)
                    .ok_or_else(|| NetError::NameNotFound(name.clone()))?;
                eng.topo_mut().isolate_node(n);
            }
            ChurnEvent::SetLanRate { members, mbps, .. } => {
                let Some(first) = members.first() else { continue };
                let host = eng
                    .topo()
                    .node_by_name(first)
                    .ok_or_else(|| NetError::NameNotFound(first.clone()))?;
                let infra = infra_of(eng.topo(), host)?;
                set_infra_rate(eng.topo_mut(), infra, Bandwidth::mbps(*mbps));
            }
            ChurnEvent::Partition { members, .. } => {
                for m in members {
                    let n = eng
                        .topo()
                        .node_by_name(m)
                        .ok_or_else(|| NetError::NameNotFound(m.clone()))?;
                    eng.topo_mut().isolate_node(n);
                }
            }
        }
    }
    eng.recompute_routes();
    Ok(())
}

/// Re-provision every port of an infrastructure node (and its medium, for
/// a hub) to `rate`.
fn set_infra_rate(topo: &mut Topology, infra: NodeId, rate: Bandwidth) {
    let links: Vec<_> = topo.neighbours(infra).iter().map(|(l, _)| *l).collect();
    let mut mediums: Vec<MediumId> = Vec::new();
    for l in links {
        match &mut topo.link_mut(l).mode {
            LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                *capacity_ab = rate;
                *capacity_ba = rate;
            }
            LinkMode::Shared { medium } => {
                if !mediums.contains(medium) {
                    mediums.push(*medium);
                }
            }
        }
    }
    for m in mediums {
        topo.medium_mut(m).capacity = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth;
    use crate::units::Bytes;
    use crate::Sim;

    fn state_for(family: SynthFamily) -> (SynthScenario, ChurnState) {
        let sc = synth(family, 7, 80);
        let st = ChurnState::new(&sc, 99);
        (sc, st)
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for family in SynthFamily::ALL {
            let sc = synth(family, 7, 80);
            let mut a = ChurnState::new(&sc, 5);
            let mut b = ChurnState::new(&sc, 5);
            for _ in 0..3 {
                assert_eq!(a.plan_epoch(4), b.plan_epoch(4), "{}", family.name());
            }
            let mut c = ChurnState::new(&sc, 6);
            let differs = (0..3).any(|_| a.plan_epoch(4) != c.plan_epoch(4));
            assert!(differs, "{}: schedule must vary with the seed", family.name());
        }
    }

    #[test]
    fn truth_stays_a_partition_of_the_mapped_set() {
        for family in SynthFamily::ALL {
            let (sc, mut st) = state_for(family);
            let mut eng = Sim::new(sc.net.topo.clone());
            for _ in 0..5 {
                let evs = st.plan_epoch(3);
                apply_churn(&mut eng, &evs).unwrap();
                st.commit(&evs);
                let mut covered: Vec<String> = st.truth_labels().into_iter().flatten().collect();
                covered.sort();
                covered.dedup();
                let mut mapped: Vec<String> = st.hosts().to_vec();
                mapped.sort();
                assert_eq!(covered, mapped, "{}", family.name());
            }
        }
    }

    #[test]
    fn master_cluster_is_never_churned() {
        for family in SynthFamily::ALL {
            let (_, mut st) = state_for(family);
            let master = st.master.clone();
            let master_cluster = st
                .clusters
                .iter()
                .position(|c| c.members.contains(&master))
                .expect("master is in a cluster");
            for _ in 0..6 {
                for ev in st.plan_epoch(4) {
                    let c = match &ev {
                        ChurnEvent::AddHost { cluster, .. }
                        | ChurnEvent::RemoveHost { cluster, .. }
                        | ChurnEvent::SetLanRate { cluster, .. }
                        | ChurnEvent::Partition { cluster, .. } => *cluster,
                    };
                    assert_ne!(c, master_cluster, "{}: {ev:?}", family.name());
                    st.commit(&[ev]);
                }
            }
            assert!(st.hosts().contains(&master));
        }
    }

    #[test]
    fn grid_gateway_clusters_are_immutable() {
        let (_, st) = state_for(SynthFamily::Grid);
        for c in &st.clusters {
            if c.members.iter().any(|m| m.starts_with("gw")) {
                assert!(!c.mutable, "gateway cluster {:?} must not churn", c.members);
            }
        }
    }

    #[test]
    fn add_host_joins_the_lan_and_probes_work() {
        let (sc, mut st) = state_for(SynthFamily::Campus);
        let mut eng = Sim::new(sc.net.topo.clone());
        // Force an add by planning until one appears.
        let ev = loop {
            if let Some(ev) =
                st.plan_epoch(1).into_iter().find(|e| matches!(e, ChurnEvent::AddHost { .. }))
            {
                break ev;
            }
        };
        apply_churn(&mut eng, std::slice::from_ref(&ev)).unwrap();
        let dirty = st.commit(std::slice::from_ref(&ev));
        let (name, sibling) = match &ev {
            ChurnEvent::AddHost { name, sibling, .. } => (name.clone(), sibling.clone()),
            _ => unreachable!(),
        };
        assert!(dirty.contains(&name), "joiner must be dirty");
        assert!(dirty.contains(&sibling), "its LAN neighborhood must be dirty");
        let new = eng.topo().node_by_name(&name).expect("joiner resolves");
        let sib = eng.topo().node_by_name(&sibling).unwrap();
        // Same access infrastructure as the sibling, and probes complete.
        assert_eq!(infra_of(eng.topo(), new).unwrap(), infra_of(eng.topo(), sib).unwrap());
        let master = eng.topo().node_by_name(&st.master).unwrap();
        assert!(eng.measure_bandwidth(master, new, Bytes::kib(64)).is_ok());
    }

    #[test]
    fn remove_host_disconnects_it() {
        let (sc, mut st) = state_for(SynthFamily::Campus);
        let mut eng = Sim::new(sc.net.topo.clone());
        let ev = loop {
            if let Some(ev) =
                st.plan_epoch(1).into_iter().find(|e| matches!(e, ChurnEvent::RemoveHost { .. }))
            {
                break ev;
            }
        };
        let name = match &ev {
            ChurnEvent::RemoveHost { name, .. } => name.clone(),
            _ => unreachable!(),
        };
        apply_churn(&mut eng, std::slice::from_ref(&ev)).unwrap();
        st.commit(std::slice::from_ref(&ev));
        assert!(!st.hosts().contains(&name));
        let node = eng.topo().node_by_name(&name).unwrap();
        let master = eng.topo().node_by_name(&st.master).unwrap();
        assert!(eng.measure_bandwidth(master, node, Bytes::kib(64)).is_err());
    }

    #[test]
    fn set_lan_rate_reaches_the_medium_and_ports() {
        let (sc, mut st) = state_for(SynthFamily::Campus);
        let mut eng = Sim::new(sc.net.topo.clone());
        let ev = loop {
            if let Some(ev) =
                st.plan_epoch(1).into_iter().find(|e| matches!(e, ChurnEvent::SetLanRate { .. }))
            {
                break ev;
            }
        };
        let (members, mbps) = match &ev {
            ChurnEvent::SetLanRate { members, mbps, .. } => (members.clone(), *mbps),
            _ => unreachable!(),
        };
        apply_churn(&mut eng, std::slice::from_ref(&ev)).unwrap();
        st.commit(std::slice::from_ref(&ev));
        let a = eng.topo().node_by_name(&members[0]).unwrap();
        let master = eng.topo().node_by_name(&st.master).unwrap();
        let bw = eng.measure_bandwidth(master, a, Bytes::mib(1)).unwrap().as_mbps();
        // The master's own LAN may be slower than the new rate; the probe
        // must never exceed the re-provisioned rate and must reach it when
        // nothing slower sits on the path.
        assert!(bw <= mbps + 1.0, "probe {bw} exceeds re-provisioned rate {mbps}");
    }

    #[test]
    fn fat_tree_never_gets_rate_events() {
        let (_, mut st) = state_for(SynthFamily::FatTree);
        for _ in 0..20 {
            for ev in st.plan_epoch(4) {
                assert!(!matches!(ev, ChurnEvent::SetLanRate { .. }));
                st.commit(&[ev]);
            }
        }
    }
}
