//! The deployment-planning algorithm of paper §5.1.
//!
//! "For each network or subnetwork discovered by ENV, our deployment plan
//! contains at least two cliques:
//!
//! * If the network is **shared**, its hosts are supposed to be on the same
//!   physical link, so the latency and bandwidth of one couple of hosts is
//!   representative for any possible couple. The intra-network connectivity
//!   is then measured by a clique containing two arbitrary chosen hosts.
//! * If the network is **switched**, the network characteristics between
//!   each host pair are independents ... we deploy a NWS clique containing
//!   all the hosts to make sure that only one measurement will occur at the
//!   same time on the given group of hosts."
//!
//! Networks reached through a gateway need no extra inter-clique: the
//! gateway sits on both mediums, so representative substitution covers the
//! crossing (Hub 3's characteristics from `myri0` are those measured
//! between `myri1` and `myri2`). Top-level networks are tied together by
//! one **inter-network clique** holding one representative per network —
//! the hierarchical organization §5 argues for ("intra-site connectivity
//! is tested separately from the inter-site one").

use std::collections::BTreeMap;

use envmap::{EnvNet, EnvView, NetKind};

use netsim::time::TimeDelta;

use crate::plan::{CliqueRole, DeploymentPlan, PlannedClique, DEFAULT_GAP_S};

/// Planner knobs. Defaults follow the paper.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {
    /// Place one memory server per top-level network (hierarchical
    /// storage) instead of a single one on the master.
    pub memory_per_top_network: bool,
}

/// Derive a deployment plan from an effective view (paper §5.1).
pub fn plan_deployment(view: &EnvView, config: &PlannerConfig) -> DeploymentPlan {
    let mut cliques = Vec::new();
    let mut representatives = BTreeMap::new();
    let mut hosts: Vec<String> = Vec::new();

    // Walk every network in the tree, emitting local cliques.
    fn walk(
        net: &EnvNet,
        cliques: &mut Vec<PlannedClique>,
        representatives: &mut BTreeMap<String, (String, String)>,
        hosts: &mut Vec<String>,
    ) {
        let mut members: Vec<String> = net.hosts.clone();
        members.sort();
        hosts.extend(members.iter().cloned());

        match net.kind {
            NetKind::Shared if members.len() >= 2 => {
                // Two "arbitrary chosen" hosts; equal-cost on a shared
                // medium, so the tie-break is explicit: the two smallest in
                // name order (`members` was sorted above) — the paper
                // itself picked canaria/moby and myri0/popc0 by hand.
                let reps = vec![members[0].clone(), members[1].clone()];
                representatives.insert(net.label.clone(), (reps[0].clone(), reps[1].clone()));
                cliques.push(PlannedClique {
                    name: format!("local-{}", net.label),
                    members: reps,
                    role: CliqueRole::SharedLocal,
                    network: Some(net.label.clone()),
                });
            }
            NetKind::Switched if members.len() >= 2 => {
                // All hosts, plus the gateway that heads the network (the
                // paper's sci clique contains sci0 along with sci1..sci6).
                let mut all = members.clone();
                if let Some(via) = &net.via {
                    if !all.contains(via) {
                        all.insert(0, via.clone());
                    }
                }
                cliques.push(PlannedClique {
                    name: format!("local-{}", net.label),
                    members: all,
                    role: CliqueRole::SwitchedLocal,
                    network: Some(net.label.clone()),
                });
            }
            NetKind::Undetermined if members.len() >= 2 => {
                // Unknown sharing: the safe clique covers all hosts (full
                // mutual exclusion, every pair measured).
                cliques.push(PlannedClique {
                    name: format!("local-{}", net.label),
                    members,
                    role: CliqueRole::UndeterminedLocal,
                    network: Some(net.label.clone()),
                });
            }
            _ => {} // singletons need no local clique
        }

        for child in &net.children {
            walk(child, cliques, representatives, hosts);
        }
    }

    for net in &view.networks {
        walk(net, &mut cliques, &mut representatives, &mut hosts);
    }
    hosts.sort();
    hosts.dedup();

    // One inter-network clique across the top-level networks: the paper's
    // "connection between canaria and popc0 is used to test the connexion
    // between these hubs". Any member is an equal-cost choice on a shared
    // medium; the tie is broken by name (lexicographic minimum), never by
    // container iteration order, so repeated runs emit identical plans.
    // The master stays out, as in Figure 3: its connectivity is estimated
    // from the representatives on its own network.
    let inter: Vec<String> =
        view.networks.iter().filter_map(|n| n.hosts.iter().min().cloned()).collect();
    if inter.len() >= 2 {
        cliques.push(PlannedClique {
            name: "inter-top".to_string(),
            members: inter,
            role: CliqueRole::Inter,
            network: None,
        });
    }

    // Process placement: directory and forecasting live with the master.
    // Memory servers: one with the master, one on each gateway heading a
    // nested network (hosts behind a firewall gateway could not reach an
    // outside memory), and optionally one per top-level network.
    let mut memories = vec![view.master.clone()];
    let mut memory_of = BTreeMap::new();

    fn assign_memories(
        net: &EnvNet,
        inherited: &str,
        memories: &mut Vec<String>,
        memory_of: &mut BTreeMap<String, String>,
    ) {
        // A network reached through a gateway stores on that gateway.
        let memory_host = match &net.via {
            Some(gw) => {
                if !memories.contains(gw) {
                    memories.push(gw.clone());
                }
                gw.clone()
            }
            None => inherited.to_string(),
        };
        for h in &net.hosts {
            memory_of.insert(h.clone(), memory_host.clone());
        }
        for c in &net.children {
            assign_memories(c, &memory_host, memories, memory_of);
        }
    }

    for net in &view.networks {
        let top_memory = if config.memory_per_top_network {
            // Equal-cost choice; tie broken by name like the inter clique.
            let m = net.hosts.iter().min().cloned().unwrap_or_else(|| view.master.clone());
            if !memories.contains(&m) {
                memories.push(m.clone());
            }
            m
        } else {
            view.master.clone()
        };
        assign_memories(net, &top_memory, &mut memories, &mut memory_of);
    }

    DeploymentPlan {
        master: view.master.clone(),
        cliques,
        nameserver: view.master.clone(),
        memories,
        forecaster: view.master.clone(),
        representatives,
        gap: TimeDelta::from_secs(DEFAULT_GAP_S),
        hosts,
        memory_of,
        wal_compact_kib: crate::plan::DEFAULT_WAL_COMPACT_KIB,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envmap::{merge_runs, EnvConfig, EnvMapper, HostInput};
    use gridml::merge::GatewayAlias;
    use netsim::scenarios::{
        ens_lyon, Calibration, ENS_LYON_GATEWAYS, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
    };
    use netsim::Sim;

    /// Build the merged ENS-Lyon view (outside + inside runs).
    fn ens_lyon_view() -> EnvView {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let outside_hosts = ENS_LYON_OUTSIDE.map(HostInput::new);
        let outside = mapper
            .map(&mut eng, &outside_hosts, "the-doors.ens-lyon.fr", Some("well-known.example.org"))
            .unwrap();
        let inside_hosts = ENS_LYON_INSIDE.map(HostInput::new);
        let inside = mapper.map(&mut eng, &inside_hosts, "sci0.popc.private", None).unwrap();
        merge_runs(
            &outside,
            &inside,
            &ENS_LYON_GATEWAYS.map(|(public, private)| GatewayAlias::new(public, private)),
        )
    }

    /// The paper's Figure 3: five cliques on ENS-Lyon.
    #[test]
    fn ens_lyon_plan_matches_figure_3() {
        let view = ens_lyon_view();
        let plan = plan_deployment(&view, &PlannerConfig::default());

        // Hub 1: two representatives (paper: moby and canaria).
        let hub1 = plan
            .cliques
            .iter()
            .find(|c| {
                c.members.contains(&"canaria.ens-lyon.fr".to_string())
                    && c.role == CliqueRole::SharedLocal
            })
            .expect("hub1 clique");
        assert_eq!(hub1.members.len(), 2);
        assert!(hub1.members.contains(&"moby.cri2000.ens-lyon.fr".to_string()));

        // Hub 2: two of the three gateways (paper: myri0 and popc0).
        let hub2 = plan
            .cliques
            .iter()
            .find(|c| {
                c.members.contains(&"myri0.popc.private".to_string())
                    && c.role == CliqueRole::SharedLocal
            })
            .expect("hub2 clique");
        assert_eq!(
            hub2.members,
            vec!["myri0.popc.private".to_string(), "popc0.popc.private".to_string()]
        );

        // Hub 3: myri1 and myri2 (the paper: "we pick only two hosts for
        // the local clique (myri1 and myri2)").
        let hub3 = plan
            .cliques
            .iter()
            .find(|c| c.members.contains(&"myri1.popc.private".to_string()))
            .expect("hub3 clique");
        assert_eq!(
            hub3.members,
            vec!["myri1.popc.private".to_string(), "myri2.popc.private".to_string()]
        );

        // The sci cluster is switched: all machines form the clique
        // (paper: "we pick all its machines"), gateway included.
        let sci =
            plan.cliques.iter().find(|c| c.role == CliqueRole::SwitchedLocal).expect("sci clique");
        assert_eq!(sci.members.len(), 7);
        assert!(sci.members.contains(&"sci0.popc.private".to_string()));
        for i in 1..=6 {
            assert!(sci.members.contains(&format!("sci{i}.popc.private")));
        }

        // One inter-network clique connecting the two top-level hubs
        // (paper: canaria and popc0; any one representative per hub is
        // equivalent on shared media — we pick the first by name order).
        let inter = plan.cliques.iter().find(|c| c.role == CliqueRole::Inter).expect("inter");
        assert_eq!(inter.members.len(), 2);
        assert!(inter.members.contains(&"canaria.ens-lyon.fr".to_string()));

        // Five cliques in total, as in Figure 3.
        assert_eq!(plan.cliques.len(), 5, "{}", plan.render());

        // Process placement: directory/forecaster on the master; memories
        // on the master plus the two firewall gateways heading nested
        // networks (myri0 for Hub 3, sci0 for the switch).
        assert_eq!(plan.nameserver, "the-doors.ens-lyon.fr");
        assert_eq!(plan.forecaster, "the-doors.ens-lyon.fr");
        assert_eq!(
            plan.memories,
            vec![
                "the-doors.ens-lyon.fr".to_string(),
                "myri0.popc.private".to_string(),
                "sci0.popc.private".to_string()
            ]
        );
        // Hosts behind the gateways store locally.
        assert_eq!(plan.memory_for("myri1.popc.private"), "myri0.popc.private");
        assert_eq!(plan.memory_for("sci3.popc.private"), "sci0.popc.private");
        assert_eq!(plan.memory_for("canaria.ens-lyon.fr"), "the-doors.ens-lyon.fr");

        // Representatives recorded for every shared network.
        assert_eq!(plan.representatives.len(), 3);
    }

    #[test]
    fn intrusiveness_is_far_below_full_mesh() {
        // Constraint 4: the plan must measure far fewer pairs than n(n−1).
        let view = ens_lyon_view();
        let plan = plan_deployment(&view, &PlannerConfig::default());
        let measured = plan.measured_pair_count();
        let full = plan.full_mesh_pair_count();
        // 13 hosts → 156 directed pairs; the plan needs ~50 (the sci
        // switch dominates with 42).
        assert_eq!(full, 156);
        assert!(measured < full / 3, "measured {measured} of {full}");
    }

    #[test]
    fn memory_per_top_network_strategy() {
        let view = ens_lyon_view();
        let cfg = PlannerConfig { memory_per_top_network: true };
        let plan = plan_deployment(&view, &cfg);
        // Master + one per top-level network (hub1 rep, hub2 rep) + the
        // two nested-network gateways; dedup keeps myri0 single.
        assert!(plan.memories.contains(&"the-doors.ens-lyon.fr".to_string()));
        assert!(plan.memories.len() >= 4, "{:?}", plan.memories);
        // Top-level hosts store on their network's memory, not the master.
        assert_ne!(plan.memory_for("canaria.ens-lyon.fr"), "the-doors.ens-lyon.fr");
    }

    #[test]
    fn single_network_yields_local_clique_only() {
        use envmap::NetKind;
        let view = EnvView {
            master: "m.x".to_string(),
            networks: vec![EnvNet {
                label: "lan".to_string(),
                kind: NetKind::Switched,
                hosts: vec!["a.x".to_string(), "b.x".to_string(), "c.x".to_string()],
                via: None,
                router_path: vec![],
                base_bw_mbps: 100.0,
                local_bw_mbps: None,
                jam_ratio: None,
                children: vec![],
            }],
        };
        let plan = plan_deployment(&view, &PlannerConfig::default());
        // A single top-level network: no inter clique possible.
        assert_eq!(plan.cliques.len(), 1);
        assert_eq!(plan.cliques[0].role, CliqueRole::SwitchedLocal);
    }

    #[test]
    fn undetermined_network_gets_safe_clique() {
        use envmap::NetKind;
        let view = EnvView {
            master: "m.x".to_string(),
            networks: vec![
                EnvNet {
                    label: "mystery".to_string(),
                    kind: NetKind::Undetermined,
                    hosts: vec!["a.x".to_string(), "b.x".to_string(), "c.x".to_string()],
                    via: None,
                    router_path: vec![],
                    base_bw_mbps: 10.0,
                    local_bw_mbps: None,
                    jam_ratio: Some(0.8),
                    children: vec![],
                },
                EnvNet {
                    label: "lan".to_string(),
                    kind: NetKind::Shared,
                    hosts: vec!["d.x".to_string(), "e.x".to_string()],
                    via: None,
                    router_path: vec![],
                    base_bw_mbps: 100.0,
                    local_bw_mbps: None,
                    jam_ratio: None,
                    children: vec![],
                },
            ],
        };
        let plan = plan_deployment(&view, &PlannerConfig::default());
        let mystery =
            plan.cliques.iter().find(|c| c.network.as_deref() == Some("mystery")).unwrap();
        assert_eq!(mystery.role, CliqueRole::UndeterminedLocal);
        assert_eq!(mystery.members.len(), 3);
        // And no representative pair was registered for it.
        assert!(!plan.representatives.contains_key("mystery"));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::aggregate::{Estimator, StaticSource};
    use envmap::{EnvNet, EnvView, NetKind};
    use nws::{Resource, SeriesKey};
    use proptest::prelude::*;

    /// Strategy: a random effective view with unique labels/hosts, each
    /// top-level network optionally carrying one nested network behind a
    /// gateway member.
    fn arb_view() -> impl Strategy<Value = EnvView> {
        let kind = prop_oneof![
            Just(NetKind::Shared),
            Just(NetKind::Switched),
            Just(NetKind::Undetermined),
        ];
        let net = (kind, 1usize..6, proptest::bool::ANY);
        proptest::collection::vec(net, 1..5).prop_map(|specs| {
            let mut networks = Vec::new();
            for (i, (kind, hosts, with_child)) in specs.into_iter().enumerate() {
                let host_names: Vec<String> =
                    (0..hosts).map(|h| format!("h{h}.net{i}.example")).collect();
                let kind = if host_names.len() == 1 { NetKind::Single } else { kind };
                let children = if with_child && !host_names.is_empty() {
                    vec![EnvNet {
                        label: format!("sub{i}"),
                        kind: NetKind::Shared,
                        hosts: (0..2).map(|h| format!("s{h}.sub{i}.example")).collect(),
                        via: Some(host_names[0].clone()),
                        router_path: vec![],
                        base_bw_mbps: 10.0,
                        local_bw_mbps: Some(100.0),
                        jam_ratio: Some(0.5),
                        children: vec![],
                    }]
                } else {
                    vec![]
                };
                networks.push(EnvNet {
                    label: format!("net{i}"),
                    kind,
                    hosts: host_names,
                    via: None,
                    router_path: vec![format!("gw{i}")],
                    base_bw_mbps: 100.0,
                    local_bw_mbps: Some(100.0),
                    jam_ratio: None,
                    children,
                });
            }
            EnvView { master: "master.example".to_string(), networks }
        })
    }

    /// Collect all networks (any depth) of a view.
    fn all_nets(view: &EnvView) -> Vec<&EnvNet> {
        fn rec<'a>(n: &'a EnvNet, out: &mut Vec<&'a EnvNet>) {
            out.push(n);
            for c in &n.children {
                rec(c, out);
            }
        }
        let mut out = Vec::new();
        for n in &view.networks {
            rec(n, &mut out);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// §5.1 structural invariants on arbitrary views.
        #[test]
        fn planner_invariants(view in arb_view()) {
            let plan = plan_deployment(&view, &PlannerConfig::default());

            for net in all_nets(&view) {
                let clique = plan
                    .cliques
                    .iter()
                    .find(|c| c.network.as_deref() == Some(net.label.as_str()));
                match net.kind {
                    NetKind::Shared if net.hosts.len() >= 2 => {
                        let c = clique.expect("shared net has a clique");
                        prop_assert_eq!(c.members.len(), 2, "shared → 2 representatives");
                        prop_assert!(c.members.iter().all(|m| net.hosts.contains(m)));
                        prop_assert!(plan.representatives.contains_key(&net.label));
                    }
                    NetKind::Switched if net.hosts.len() >= 2 => {
                        let c = clique.expect("switched net has a clique");
                        for h in &net.hosts {
                            prop_assert!(c.members.contains(h), "switched → all hosts");
                        }
                        prop_assert!(!plan.representatives.contains_key(&net.label));
                    }
                    NetKind::Undetermined if net.hosts.len() >= 2 => {
                        let c = clique.expect("undetermined net has a safe clique");
                        prop_assert_eq!(c.members.len(), net.hosts.len());
                    }
                    _ => prop_assert!(clique.is_none(), "singletons get no local clique"),
                }
            }

            // At most one inter clique; present iff ≥2 top-level networks.
            let inters: Vec<_> =
                plan.cliques.iter().filter(|c| c.role == CliqueRole::Inter).collect();
            if view.networks.len() >= 2 {
                prop_assert_eq!(inters.len(), 1);
                prop_assert_eq!(inters[0].members.len(), view.networks.len());
            } else {
                prop_assert!(inters.is_empty());
            }

            // Every planned host exists in the view; memory assignment is
            // total over hosts and points at a planned memory.
            let view_hosts: Vec<&str> = view.all_hosts();
            for h in &plan.hosts {
                prop_assert!(view_hosts.contains(&h.as_str()));
                let m = plan.memory_for(h);
                prop_assert!(plan.memories.iter().any(|x| x == m));
            }
        }

        /// Equal-cost tie-breaking is explicit (name order), so planning is
        /// a pure function of the view: repeated runs — under every config
        /// combination — must produce identical plans, member order and
        /// process placement included.
        #[test]
        fn planner_is_deterministic_across_runs(view in arb_view()) {
            for memory_per_top_network in [false, true] {
                let cfg = PlannerConfig { memory_per_top_network };
                let first = plan_deployment(&view, &cfg);
                for _ in 0..3 {
                    prop_assert_eq!(&first, &plan_deployment(&view, &cfg));
                }
                // A deep-cloned view plans identically too (no hidden
                // address- or allocation-order dependence).
                prop_assert_eq!(&first, &plan_deployment(&view.clone(), &cfg));
            }
        }

        /// Completeness (§2.3 constraint 3) holds on arbitrary views: once
        /// all planned pairs are measured, every host pair is estimable.
        #[test]
        fn planner_completeness(view in arb_view()) {
            let plan = plan_deployment(&view, &PlannerConfig::default());
            let mut source = StaticSource::default();
            for c in &plan.cliques {
                for (a, b) in c.measured_pairs() {
                    source.set(SeriesKey::link(Resource::Bandwidth, &a, &b), 1.0);
                    source.set(SeriesKey::link(Resource::Latency, &a, &b), 1.0);
                }
            }
            let estimator = Estimator::new(&view, &plan);
            let mut hosts: Vec<String> = plan.hosts.clone();
            hosts.push(view.master.clone());
            for a in &hosts {
                for b in &hosts {
                    if a == b {
                        continue;
                    }
                    prop_assert!(
                        estimator.estimate(a, b, &source).is_some(),
                        "no estimate for {} -> {}",
                        a,
                        b
                    );
                }
            }
        }
    }
}
