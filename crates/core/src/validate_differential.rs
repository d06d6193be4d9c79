//! Differential suite: the compiled-view `validate_plan` against the
//! per-host-pair `validate_plan_naive` oracle, over random platforms from
//! all four `netsim::synth` families and randomly perturbed plans (dropped
//! cliques, removed representative entries, unresolvable host names,
//! members that are routers, repeated or aliased) validated against a
//! platform damaged after mapping (downed access and backbone links), so
//! the route table's leaf/core structure is exercised too.
//!
//! Reports must agree field-for-field: completeness verdict,
//! incomplete-pair list (content *and* order), colliding-clique-pair list,
//! disjoint count, unresolved hosts and the intrusiveness numbers. The
//! interned estimator is additionally checked against the naive estimator
//! on every ordered host pair of the unperturbed plan.

use crate::aggregate::naive::NaiveEstimator;
use crate::validate::validate_plan_naive;
use crate::{
    plan_deployment, validate_plan, DeploymentPlan, Estimator, MeasurementSource, PlannerConfig,
};
use envmap::{EnvConfig, EnvMapper, EnvView, HostInput};
use netsim::synth::{synth, SynthFamily, SynthScenario};
use netsim::topology::LinkId;
use netsim::{Sim, Topology};
use nws::{Resource, SeriesKey};
use proptest::prelude::*;

/// A measurement source that "has" every pair some clique measures —
/// models the state after the system has run a full round. Answers
/// straight off the plan's clique membership instead of materialising one
/// `SeriesKey` string pair per measured pair per resource.
struct PostRoundSource<'a>(&'a DeploymentPlan);

impl MeasurementSource for PostRoundSource<'_> {
    fn latest(&self, key: &SeriesKey) -> Option<f64> {
        if matches!(key.resource, Resource::Bandwidth | Resource::Latency)
            && key.src != key.dst
            && self.0.clique_measuring(&key.src, &key.dst).is_some()
        {
            Some(1.0)
        } else {
            None
        }
    }
}

fn map_scenario(sc: &SynthScenario) -> EnvView {
    let mut eng = Sim::new(sc.net.topo.clone());
    let inputs: Vec<HostInput> = sc.input_names().iter().map(|n| HostInput::new(n)).collect();
    EnvMapper::new(EnvConfig::fast_batched())
        .map(&mut eng, &inputs, &sc.master_name(), sc.external_name().as_deref())
        .expect("synth platforms map")
        .view
}

/// Names the plan-side ops draw awkward clique members from.
struct Names {
    /// One name per forwarding node: a member that other members' routes
    /// pass through, not only end at.
    routers: Vec<String>,
    /// Two different names of one node (a dual-homed gateway).
    aliases: Vec<(String, String)>,
}

impl Names {
    fn of(topo: &Topology) -> Names {
        let mut names = Names { routers: Vec::new(), aliases: Vec::new() };
        for node in topo.nodes() {
            let mut own = node.ifaces.iter().filter_map(|i| i.name.clone());
            let (first, second) = (own.next(), own.next());
            if let (Some(a), Some(b)) = (&first, second) {
                names.aliases.push((a.clone(), b));
            }
            if let Some(a) = first.filter(|_| node.forwards) {
                names.routers.push(a);
            }
        }
        names
    }
}

/// Topology-side ops, applied after mapping and before either validator
/// computes its routes: `(kind, x)` downs the `x`-th access link (a leaf
/// left without a row) or the `x`-th link between two forwarders (a LAN cut
/// off from the rest).
fn damage(topo: &mut Topology, ops: &[(u8, usize)]) {
    for &(kind, x) in ops {
        let between_forwarders = kind % 2 == 1;
        let links: Vec<LinkId> = topo
            .links()
            .filter(|l| (topo.node(l.a).forwards && topo.node(l.b).forwards) == between_forwarders)
            .map(|l| l.id)
            .collect();
        if !links.is_empty() {
            topo.set_link_up(links[x % links.len()], false);
        }
    }
}

/// One perturbation op, decoded from raw proptest integers so the strategy
/// stays shrink-friendly: `(kind, x, y)` with modular indexing.
fn perturb(plan: &mut DeploymentPlan, names: &Names, ops: &[(u8, usize, usize)]) {
    for &(kind, x, y) in ops {
        match kind % 8 {
            // Drop a clique entirely (e.g. the inter clique: top-level
            // representatives then fall back to first members).
            0 => {
                if !plan.cliques.is_empty() {
                    let i = x % plan.cliques.len();
                    plan.cliques.remove(i);
                }
            }
            // Remove a representative entry: shared-net segments lose
            // substitution and fall back to static ENV values.
            1 => {
                let keys: Vec<String> = plan.representatives.keys().cloned().collect();
                if !keys.is_empty() {
                    plan.representatives.remove(&keys[x % keys.len()]);
                }
            }
            // Rename a clique member to a name the platform cannot
            // resolve: exercises the unresolved-host reporting.
            2 => {
                if !plan.cliques.is_empty() {
                    let i = x % plan.cliques.len();
                    let c = &mut plan.cliques[i];
                    if !c.members.is_empty() {
                        let j = y % c.members.len();
                        c.members[j] = format!("ghost-{x}-{y}.invalid");
                    }
                }
            }
            // Add a planned host the view cannot locate: exercises the
            // incomplete-pair expansion.
            3 => {
                plan.hosts.push(format!("lost-{x}.invalid"));
            }
            // Replace a planned host with an unlocatable name.
            4 => {
                if !plan.hosts.is_empty() {
                    let i = x % plan.hosts.len();
                    plan.hosts[i] = format!("lost-{x}.invalid");
                }
            }
            // A clique member that is a router.
            5 => {
                if !plan.cliques.is_empty() && !names.routers.is_empty() {
                    let i = x % plan.cliques.len();
                    plan.cliques[i].members.push(names.routers[y % names.routers.len()].clone());
                }
            }
            // The same name twice in one clique.
            6 => {
                if !plan.cliques.is_empty() {
                    let i = x % plan.cliques.len();
                    let c = &mut plan.cliques[i];
                    if !c.members.is_empty() {
                        c.members.push(c.members[y % c.members.len()].clone());
                    }
                }
            }
            // Two different names of one node in one clique.
            7 => {
                if !plan.cliques.is_empty() && !names.aliases.is_empty() {
                    let (a, b) = names.aliases[y % names.aliases.len()].clone();
                    let i = x % plan.cliques.len();
                    plan.cliques[i].members.extend([a, b]);
                }
            }
            _ => unreachable!(),
        }
    }
}

/// Both validators on one (plan, damaged platform): reports must be equal
/// field for field.
fn assert_reports_agree(plan: &DeploymentPlan, view: &EnvView, topo: &Topology, what: &str) {
    let fast = validate_plan(plan, view, topo);
    let slow = validate_plan_naive(plan, view, topo);
    assert_eq!(fast, slow, "{what}");
    assert_eq!(fast.intrusiveness().to_bits(), slow.intrusiveness().to_bits(), "{what}");
}

/// Every awkward case at once, on the family that has dual-homed gateways.
#[test]
fn awkward_members_on_a_damaged_platform() {
    let sc = synth(SynthFamily::Grid, 11, 40);
    let view = map_scenario(&sc);
    let names = Names::of(&sc.net.topo);
    assert!(!names.routers.is_empty() && !names.aliases.is_empty());
    let mut plan = plan_deployment(&view, &PlannerConfig::default());
    let n = plan.cliques.len();
    let ops: Vec<(u8, usize, usize)> =
        (0..n).flat_map(|i| [(5, i, i), (6, i, 0), (7, i, i), (5, i, i + 1)]).collect();
    perturb(&mut plan, &names, &ops);
    let mut topo = sc.net.topo.clone();
    assert_reports_agree(&plan, &view, &topo, "intact platform");
    damage(&mut topo, &[(0, 3), (0, 17), (1, 2)]);
    assert_reports_agree(&plan, &view, &topo, "two access links and a backbone link down");
    damage(&mut topo, &[(1, 0), (1, 1), (1, 5)]);
    assert_reports_agree(&plan, &view, &topo, "three more backbone links down");
}

/// A 1 000-host campus: the clique of representatives has over a hundred
/// members, one per LAN. Too slow for the debug profile's oracle; CI runs
/// this file under `--release` as well.
#[cfg(not(debug_assertions))]
#[test]
fn campus_1000_reports_agree() {
    let sc = synth(SynthFamily::Campus, 2004, 1000);
    let view = map_scenario(&sc);
    let names = Names::of(&sc.net.topo);
    let mut plan = plan_deployment(&view, &PlannerConfig::default());
    let mut topo = sc.net.topo.clone();
    assert_reports_agree(&plan, &view, &topo, "pristine");
    perturb(&mut plan, &names, &[(5, 0, 3), (5, 7, 90), (6, 0, 5), (2, 0, 9)]);
    damage(&mut topo, &[(0, 123), (0, 4567), (1, 40), (1, 41)]);
    assert_reports_agree(&plan, &view, &topo, "perturbed plan, damaged platform");
}

fn families() -> [SynthFamily; 4] {
    SynthFamily::ALL
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast validator ≡ naive oracle on pristine and perturbed plans.
    #[test]
    fn validate_reports_agree(
        (fam, hosts, seed, ops, cuts) in (
            0usize..4,
            24usize..=56,
            0u64..1024,
            proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 0..6),
            proptest::collection::vec((0u8..2, 0usize..256), 0..4),
        )
    ) {
        let sc = synth(families()[fam], seed, hosts);
        let view = map_scenario(&sc);
        let mut plan = plan_deployment(&view, &PlannerConfig::default());
        perturb(&mut plan, &Names::of(&sc.net.topo), &ops);
        let mut topo = sc.net.topo.clone();
        damage(&mut topo, &cuts);

        let fast = validate_plan(&plan, &view, &topo);
        let slow = validate_plan_naive(&plan, &view, &topo);
        prop_assert_eq!(
            &fast, &slow,
            "family {} seed {} ops {:?} cuts {:?}", families()[fam].name(), seed, ops, cuts
        );
        prop_assert_eq!(fast.intrusiveness().to_bits(), slow.intrusiveness().to_bits());
        // Unperturbed plans over synth families are complete and resolved.
        if ops.is_empty() && cuts.is_empty() {
            prop_assert!(fast.complete, "{}", fast.render());
            prop_assert!(fast.unresolved_hosts.is_empty());
        }
    }

    /// Interned estimator ≡ naive estimator on every ordered host pair, and
    /// every pair of distinct plan hosts and the master is estimable: the
    /// fact `validate_plan` decides completeness by.
    #[test]
    fn estimates_agree(
        (fam, hosts, seed) in (0usize..4, 24usize..=40, 0u64..1024)
    ) {
        let sc = synth(families()[fam], seed, hosts);
        let view = map_scenario(&sc);
        let plan = plan_deployment(&view, &PlannerConfig::default());
        let source = PostRoundSource(&plan);

        let fast = Estimator::new(&view, &plan);
        let slow = NaiveEstimator::new(&view, &plan);
        let mut all = plan.hosts.clone();
        all.push(view.master.clone());
        all.push("unknown.invalid".to_string());
        for a in &all {
            for b in &all {
                let est = fast.estimate(a, b, &source);
                let known = *a != "unknown.invalid" && *b != "unknown.invalid";
                prop_assert!(est.is_some() || a == b || !known, "{} → {} not estimable", a, b);
                prop_assert_eq!(est, slow.estimate(a, b, &source), "{} → {}", a, b);
            }
        }
    }
}
