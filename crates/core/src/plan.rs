//! The deployment plan data model (what Figure 3 depicts).

use std::collections::BTreeMap;

use netsim::time::TimeDelta;

/// Why a clique exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliqueRole {
    /// Measures a shared network through one representative pair (§5.1:
    /// "the latency and bandwidth of one couple of hosts is representative
    /// for any possible couple").
    SharedLocal,
    /// Measures a switched network: every pair matters, every host joins
    /// ("we deploy a NWS clique containing all the hosts").
    SwitchedLocal,
    /// Measures a network ENV could not classify — treated like a switched
    /// clique (safe: mutual exclusion over all members).
    UndeterminedLocal,
    /// Ties networks together (the paper's canaria–popc0 clique "used to
    /// test the connexion between these hubs").
    Inter,
}

impl CliqueRole {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CliqueRole::SharedLocal => "shared-local",
            CliqueRole::SwitchedLocal => "switched-local",
            CliqueRole::UndeterminedLocal => "undetermined-local",
            CliqueRole::Inter => "inter",
        }
    }

    pub(crate) fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "shared-local" => Some(CliqueRole::SharedLocal),
            "switched-local" => Some(CliqueRole::SwitchedLocal),
            "undetermined-local" => Some(CliqueRole::UndeterminedLocal),
            "inter" => Some(CliqueRole::Inter),
            _ => None,
        }
    }
}

/// One planned measurement clique.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedClique {
    /// Unique name, derived from the network it measures.
    pub name: String,
    /// Member host names, in ring order.
    pub members: Vec<String>,
    pub role: CliqueRole,
    /// The effective network this clique measures (`None` for inter).
    pub network: Option<String>,
}

impl PlannedClique {
    /// Directed pairs this clique measures (token holder → each other
    /// member).
    pub fn measured_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(self.measured_pair_count());
        for a in &self.members {
            for b in &self.members {
                if a != b {
                    out.push((a.clone(), b.clone()));
                }
            }
        }
        out
    }

    /// `measured_pairs().len()` without materialising the pairs.
    pub(crate) fn measured_pair_count(&self) -> usize {
        let mut count = 0;
        for (i, a) in self.members.iter().enumerate() {
            for (j, b) in self.members.iter().enumerate() {
                if i != j && a != b {
                    count += 1;
                }
            }
        }
        count
    }
}

// What a plan carries unless its configuration file says otherwise: the
// token-hold gap (seconds) and the WAL compaction threshold (KiB). Both
// are NWS's own defaults, named here, not declared again.
pub use nws::persist::DEFAULT_WAL_COMPACT_KIB;
pub use nws::system::DEFAULT_GAP_S;

/// A complete NWS deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// The ENV master the plan was derived from.
    pub master: String,
    pub cliques: Vec<PlannedClique>,
    /// Host running the name server.
    pub nameserver: String,
    /// Hosts running memory servers.
    pub memories: Vec<String>,
    /// Host running the forecaster.
    pub forecaster: String,
    /// For each shared network: the representative pair whose measurements
    /// stand in for every pair on that network. The paper notes NWS cannot
    /// substitute these automatically — our estimator does it (§6).
    pub representatives: BTreeMap<String, (String, String)>,
    /// Token-hold gap controlling measurement frequency.
    pub gap: TimeDelta,
    /// All hosts the plan covers (sensors).
    pub hosts: Vec<String>,
    /// Which memory server each sensor stores to. Hosts behind a gateway
    /// use the memory on their gateway: a firewall that lets ENV map the
    /// domain from inside also blocks stores to an outside memory, so the
    /// hierarchy gains a level exactly where the paper says it may
    /// ("If needed, this hierarchy can contain more than two levels", §5).
    pub memory_of: BTreeMap<String, String>,
    /// WAL compaction threshold (KiB) for the deployed durable state
    /// plane (memory servers and the forecaster log to their host's
    /// simulated disk; see `nws::persist`).
    pub wal_compact_kib: u64,
}

impl DeploymentPlan {
    /// Total directed pairs measured by all cliques (the intrusiveness
    /// numerator of constraint 4).
    pub(crate) fn measured_pair_count(&self) -> usize {
        self.cliques.iter().map(|c| c.measured_pair_count()).sum()
    }

    /// Full-mesh pair count over the covered hosts (the denominator:
    /// "given a set of n computers, there is n × (n − 1) links to test").
    pub(crate) fn full_mesh_pair_count(&self) -> usize {
        let n = self.hosts.len();
        n * n.saturating_sub(1)
    }

    /// The memory server a sensor reports to (the master's by default).
    pub(crate) fn memory_for(&self, host: &str) -> &str {
        self.memory_of
            .get(host)
            .map(|s| s.as_str())
            .unwrap_or_else(|| self.memories.first().map(|s| s.as_str()).unwrap_or(&self.master))
    }

    /// The clique a host pair is measured by, if any measures it directly.
    pub fn clique_measuring(&self, a: &str, b: &str) -> Option<&PlannedClique> {
        self.cliques
            .iter()
            .find(|c| c.members.iter().any(|m| m == a) && c.members.iter().any(|m| m == b))
    }

    /// ASCII rendering in the spirit of Figure 3.
    pub fn render(&self) -> String {
        let mut s = format!(
            "NWS deployment plan (master {})\n  name server: {}\n  forecaster:  {}\n  memories:    {}\n",
            self.master,
            self.nameserver,
            self.forecaster,
            self.memories.join(", ")
        );
        for c in &self.cliques {
            s.push_str(&format!(
                "  clique {:<24} [{}] {{{}}}\n",
                c.name,
                c.role.as_str(),
                c.members.join(", ")
            ));
        }
        for (net, (a, b)) in &self.representatives {
            s.push_str(&format!("  representative for {net}: ({a}, {b})\n"));
        }
        s.push_str(&format!(
            "  intrusiveness: {} measured pairs of {} full-mesh\n",
            self.measured_pair_count(),
            self.full_mesh_pair_count()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeploymentPlan {
        /// Cliques a given host belongs to.
        fn cliques_of(&self, host: &str) -> Vec<&PlannedClique> {
            self.cliques.iter().filter(|c| c.members.iter().any(|m| m == host)).collect()
        }
    }

    fn sample() -> DeploymentPlan {
        DeploymentPlan {
            master: "m".into(),
            cliques: vec![
                PlannedClique {
                    name: "local-hub1".into(),
                    members: vec!["a".into(), "b".into()],
                    role: CliqueRole::SharedLocal,
                    network: Some("hub1".into()),
                },
                PlannedClique {
                    name: "local-sw".into(),
                    members: vec!["c".into(), "d".into(), "e".into()],
                    role: CliqueRole::SwitchedLocal,
                    network: Some("sw".into()),
                },
                PlannedClique {
                    name: "inter-root".into(),
                    members: vec!["a".into(), "c".into()],
                    role: CliqueRole::Inter,
                    network: None,
                },
            ],
            nameserver: "m".into(),
            memories: vec!["m".into()],
            forecaster: "m".into(),
            representatives: BTreeMap::from([(
                "hub1".to_string(),
                ("a".to_string(), "b".to_string()),
            )]),
            gap: TimeDelta::from_millis(500.0),
            hosts: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
            memory_of: BTreeMap::new(),
            wal_compact_kib: DEFAULT_WAL_COMPACT_KIB,
        }
    }

    #[test]
    fn measured_pairs_are_directed() {
        let p = sample();
        assert_eq!(p.cliques[0].measured_pairs().len(), 2);
        assert_eq!(p.cliques[1].measured_pairs().len(), 6);
        assert_eq!(p.measured_pair_count(), 2 + 6 + 2);
        assert_eq!(p.full_mesh_pair_count(), 20);
    }

    #[test]
    fn clique_lookup() {
        let p = sample();
        assert_eq!(p.clique_measuring("c", "e").unwrap().name, "local-sw");
        assert_eq!(p.clique_measuring("a", "c").unwrap().name, "inter-root");
        assert!(p.clique_measuring("b", "d").is_none());
        assert_eq!(p.cliques_of("a").len(), 2);
        assert_eq!(p.cliques_of("d").len(), 1);
    }

    #[test]
    fn render_mentions_everything() {
        let p = sample();
        let s = p.render();
        assert!(s.contains("local-hub1"));
        assert!(s.contains("inter-root"));
        assert!(s.contains("representative for hub1"));
        assert!(s.contains("10 measured pairs of 20"));
    }

    #[test]
    fn role_round_trip() {
        for r in [
            CliqueRole::SharedLocal,
            CliqueRole::SwitchedLocal,
            CliqueRole::UndeterminedLocal,
            CliqueRole::Inter,
        ] {
            assert_eq!(CliqueRole::from_str_opt(r.as_str()), Some(r));
        }
        assert_eq!(CliqueRole::from_str_opt("nope"), None);
    }
}

/// The difference between two deployment plans — what an operator must
/// change when a remapping (or a published-map update) produces a new
/// plan. Drives incremental redeployment instead of a full restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanDelta {
    /// Cliques present only in the old plan.
    pub cliques_to_stop: Vec<String>,
    /// Cliques present only in the new plan.
    pub cliques_to_start: Vec<PlannedClique>,
    /// Cliques with the same name but different membership or role.
    pub cliques_to_restart: Vec<PlannedClique>,
    /// Hosts gaining / losing a sensor.
    pub sensors_to_add: Vec<String>,
    pub sensors_to_remove: Vec<String>,
    /// Hosts gaining / losing a memory server.
    pub memories_to_add: Vec<String>,
    pub memories_to_remove: Vec<String>,
}

impl PlanDelta {
    pub fn is_empty(&self) -> bool {
        self.cliques_to_stop.is_empty()
            && self.cliques_to_start.is_empty()
            && self.cliques_to_restart.is_empty()
            && self.sensors_to_add.is_empty()
            && self.sensors_to_remove.is_empty()
            && self.memories_to_add.is_empty()
            && self.memories_to_remove.is_empty()
    }

    /// Number of individual actions the delta implies.
    pub fn action_count(&self) -> usize {
        self.cliques_to_stop.len()
            + self.cliques_to_start.len()
            + self.cliques_to_restart.len()
            + self.sensors_to_add.len()
            + self.sensors_to_remove.len()
            + self.memories_to_add.len()
            + self.memories_to_remove.len()
    }
}

/// Compute the incremental delta from `old` to `new`.
pub fn diff_plans(old: &DeploymentPlan, new: &DeploymentPlan) -> PlanDelta {
    let mut delta = PlanDelta::default();

    for oc in &old.cliques {
        match new.cliques.iter().find(|nc| nc.name == oc.name) {
            None => delta.cliques_to_stop.push(oc.name.clone()),
            Some(nc) if nc != oc => delta.cliques_to_restart.push(nc.clone()),
            Some(_) => {}
        }
    }
    for nc in &new.cliques {
        if !old.cliques.iter().any(|oc| oc.name == nc.name) {
            delta.cliques_to_start.push(nc.clone());
        }
    }

    for h in &new.hosts {
        if !old.hosts.contains(h) {
            delta.sensors_to_add.push(h.clone());
        }
    }
    for h in &old.hosts {
        if !new.hosts.contains(h) {
            delta.sensors_to_remove.push(h.clone());
        }
    }

    for m in &new.memories {
        if !old.memories.contains(m) {
            delta.memories_to_add.push(m.clone());
        }
    }
    for m in &old.memories {
        if !new.memories.contains(m) {
            delta.memories_to_remove.push(m.clone());
        }
    }

    delta
}

#[cfg(test)]
mod diff_tests {
    use super::*;

    fn base() -> DeploymentPlan {
        DeploymentPlan {
            master: "m".into(),
            cliques: vec![
                PlannedClique {
                    name: "local-a".into(),
                    members: vec!["a1".into(), "a2".into()],
                    role: CliqueRole::SharedLocal,
                    network: Some("a".into()),
                },
                PlannedClique {
                    name: "local-b".into(),
                    members: vec!["b1".into(), "b2".into(), "b3".into()],
                    role: CliqueRole::SwitchedLocal,
                    network: Some("b".into()),
                },
            ],
            nameserver: "m".into(),
            memories: vec!["m".into()],
            forecaster: "m".into(),
            representatives: BTreeMap::new(),
            gap: TimeDelta::from_millis(500.0),
            hosts: vec!["a1".into(), "a2".into(), "b1".into(), "b2".into(), "b3".into()],
            memory_of: BTreeMap::new(),
            wal_compact_kib: DEFAULT_WAL_COMPACT_KIB,
        }
    }

    #[test]
    fn identical_plans_have_empty_delta() {
        let p = base();
        let d = diff_plans(&p, &p);
        assert!(d.is_empty());
        assert_eq!(d.action_count(), 0);
    }

    #[test]
    fn grown_switched_network_restarts_its_clique() {
        let old = base();
        let mut new = base();
        new.cliques[1].members.push("b4".into());
        new.hosts.push("b4".into());
        let d = diff_plans(&old, &new);
        assert_eq!(d.cliques_to_restart.len(), 1);
        assert_eq!(d.cliques_to_restart[0].members.len(), 4);
        assert_eq!(d.sensors_to_add, vec!["b4".to_string()]);
        assert!(d.cliques_to_stop.is_empty());
        assert!(d.sensors_to_remove.is_empty());
    }

    #[test]
    fn removed_network_stops_its_clique_and_sensors() {
        let old = base();
        let mut new = base();
        new.cliques.remove(0);
        new.hosts.retain(|h| !h.starts_with('a'));
        let d = diff_plans(&old, &new);
        assert_eq!(d.cliques_to_stop, vec!["local-a".to_string()]);
        assert_eq!(d.sensors_to_remove, vec!["a1".to_string(), "a2".to_string()]);
    }

    #[test]
    fn new_memory_host_is_reported() {
        let old = base();
        let mut new = base();
        new.memories.push("gw".into());
        let d = diff_plans(&old, &new);
        assert_eq!(d.memories_to_add, vec!["gw".to_string()]);
        assert_eq!(d.action_count(), 1);
    }
}
