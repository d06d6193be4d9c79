//! Incremental plan repair: from an updated effective view to the minimal
//! set of deployment migrations.
//!
//! After topology churn, the re-mapped view yields a fresh plan via
//! [`plan_deployment`]; naively shipping it would restart cliques whose
//! *measured network* never changed, merely because an equal-cost
//! tie-break landed elsewhere (a joiner whose name sorts first would steal
//! a shared network's representative slot, restarting a healthy clique and
//! truncating its measurement series). [`repair_plan`] derives the fresh
//! plan and then — when [`RepairConfig::preserve_representatives`] is on —
//! pins every still-valid equal-cost choice of the *old* plan:
//!
//! * a shared network keeps its old representative pair while both hosts
//!   remain members (the paper picked canaria/moby by hand; any pair is
//!   equally informative on a shared medium, so keeping the measured one
//!   is free);
//! * the inter-network clique keeps each top-level network's old delegate
//!   while it remains a member.
//!
//! Everything that genuinely changed (membership, kinds, appearing or
//! vanishing networks) migrates exactly as the fresh plan dictates. The
//! result is validated like any plan (the PR-4 `CompiledView` machinery);
//! with preservation off, `repair_plan` is *identical* to
//! `plan_deployment` — the equivalence the differential tests pin.

use std::collections::BTreeMap;

use envmap::{EnvNet, EnvView};

use crate::plan::{diff_plans, CliqueRole, DeploymentPlan, PlanDelta};
use crate::planner::{plan_deployment, PlannerConfig};

/// Repair knobs.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    pub planner: PlannerConfig,
    /// Keep the old plan's equal-cost choices (shared representatives,
    /// inter delegates) while they remain valid, minimising restarts.
    pub preserve_representatives: bool,
}

impl RepairConfig {
    /// The minimal-migration configuration.
    pub fn preserving() -> Self {
        RepairConfig { planner: PlannerConfig::default(), preserve_representatives: true }
    }
}

/// The outcome of a repair: the plan to run next, and what changes to
/// apply to get there from the old one.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    pub plan: DeploymentPlan,
    pub delta: PlanDelta,
}

/// Derive the repaired plan for `new_view` relative to `old`, plus the
/// migration delta. See the module docs for the preservation rules.
pub fn repair_plan(old: &DeploymentPlan, new_view: &EnvView, cfg: &RepairConfig) -> RepairOutcome {
    let mut plan = plan_deployment(new_view, &cfg.planner);

    if cfg.preserve_representatives {
        // Label → network lookup over the new view (labels are unique per
        // view: they name the gateway or lexicographically-first member).
        let by_label: BTreeMap<&str, &EnvNet> =
            new_view.flatten().iter().map(|f| (f.net.label.as_str(), f.net)).collect();

        for c in &mut plan.cliques {
            match c.role {
                CliqueRole::SharedLocal => {
                    let Some(label) = c.network.as_deref() else { continue };
                    let Some((a, b)) = old.representatives.get(label) else { continue };
                    let Some(net) = by_label.get(label) else { continue };
                    let still_members =
                        net.hosts.iter().any(|h| h == a) && net.hosts.iter().any(|h| h == b);
                    if still_members {
                        c.members = vec![a.clone(), b.clone()];
                        plan.representatives.insert(label.to_string(), (a.clone(), b.clone()));
                    }
                }
                CliqueRole::Inter => {
                    // Keep each top-level network's old delegate while it
                    // is still a member; positions follow the fresh
                    // clique's order (one slot per top-level network).
                    let Some(old_inter) =
                        old.cliques.iter().find(|oc| oc.role == CliqueRole::Inter)
                    else {
                        continue;
                    };
                    // The planner contributes one slot per non-empty
                    // top-level network.
                    let tops = new_view.networks.iter().filter(|n| !n.hosts.is_empty());
                    for (slot, net) in c.members.iter_mut().zip(tops) {
                        if let Some(delegate) =
                            old_inter.members.iter().find(|m| net.hosts.contains(m))
                        {
                            *slot = delegate.clone();
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let delta = diff_plans(old, &plan);
    RepairOutcome { plan, delta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_plan;
    use envmap::NetKind;

    fn net(label: &str, kind: NetKind, hosts: &[&str]) -> EnvNet {
        EnvNet {
            label: label.to_string(),
            kind,
            hosts: hosts.iter().map(|s| s.to_string()).collect(),
            via: None,
            router_path: vec![],
            base_bw_mbps: 100.0,
            local_bw_mbps: None,
            jam_ratio: None,
            children: vec![],
        }
    }

    fn view(nets: Vec<EnvNet>) -> EnvView {
        EnvView { master: "m.x".to_string(), networks: nets }
    }

    #[test]
    fn without_preservation_repair_equals_fresh_planning() {
        let v1 = view(vec![
            net("a", NetKind::Shared, &["a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Switched, &["b1.x", "b2.x"]),
        ]);
        let old = plan_deployment(&v1, &PlannerConfig::default());
        let v2 = view(vec![
            net("a", NetKind::Shared, &["a0.x", "a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Switched, &["b1.x", "b2.x", "b3.x"]),
        ]);
        let out = repair_plan(&old, &v2, &RepairConfig::default());
        assert_eq!(out.plan, plan_deployment(&v2, &PlannerConfig::default()));
        assert_eq!(out.delta, diff_plans(&old, &out.plan));
    }

    #[test]
    fn preserved_representatives_avoid_gratuitous_restarts() {
        // Shared net a: reps a1/a2. A joiner a0 sorts first; the fresh
        // plan would swap reps to (a0, a1) and restart the clique — the
        // preserving repair keeps (a1, a2), so only genuinely-changed
        // cliques migrate.
        let v1 = view(vec![
            net("a", NetKind::Shared, &["a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Shared, &["b1.x", "b2.x"]),
        ]);
        let old = plan_deployment(&v1, &PlannerConfig::default());
        let v2 = view(vec![
            net("a", NetKind::Shared, &["a0.x", "a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Shared, &["b1.x", "b2.x"]),
        ]);

        let fresh = repair_plan(&old, &v2, &RepairConfig::default());
        let kept = repair_plan(&old, &v2, &RepairConfig::preserving());

        // Fresh planning migrates the shared clique and the inter clique
        // (a0 steals both slots); the preserving repair only adds the
        // joiner's sensor — no running clique restarts.
        assert!(!fresh.delta.cliques_to_restart.is_empty(), "{:?}", fresh.delta);
        assert!(kept.delta.cliques_to_restart.is_empty(), "{:?}", kept.delta);
        assert_eq!(kept.delta.sensors_to_add, vec!["a0.x".to_string()]);
        assert!(kept.delta.action_count() < fresh.delta.action_count());
        assert_eq!(kept.plan.representatives["a"], ("a1.x".to_string(), "a2.x".to_string()));
        let inter = kept.plan.cliques.iter().find(|c| c.role == CliqueRole::Inter).unwrap();
        assert!(inter.members.contains(&"a1.x".to_string()), "{:?}", inter.members);
    }

    #[test]
    fn vanished_representative_falls_back_to_fresh_choice() {
        let v1 = view(vec![
            net("a", NetKind::Shared, &["a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Shared, &["b1.x", "b2.x"]),
        ]);
        let old = plan_deployment(&v1, &PlannerConfig::default());
        // a1 (an old rep and the old inter delegate) left the platform.
        let v2 = view(vec![
            net("a", NetKind::Shared, &["a2.x", "a3.x"]),
            net("b", NetKind::Shared, &["b1.x", "b2.x"]),
        ]);
        let kept = repair_plan(&old, &v2, &RepairConfig::preserving());
        assert_eq!(kept.plan.representatives["a"], ("a2.x".to_string(), "a3.x".to_string()));
        let local_a = kept.plan.cliques.iter().find(|c| c.network.as_deref() == Some("a")).unwrap();
        assert_eq!(local_a.members, vec!["a2.x".to_string(), "a3.x".to_string()]);
        // The delta restarts exactly the cliques that lost a member.
        assert!(kept.delta.cliques_to_restart.iter().any(|c| c.network.as_deref() == Some("a")));
        assert_eq!(kept.delta.sensors_to_remove, vec!["a1.x".to_string()]);
    }

    #[test]
    fn repaired_plans_stay_complete_under_validation() {
        // The §2.3 completeness contract must survive preservation: the
        // kept representatives are still members, so the CompiledView
        // validator (PR 4) accepts the repaired plan like a fresh one.
        let v1 = view(vec![
            net("a", NetKind::Shared, &["a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Switched, &["b1.x", "b2.x", "b3.x"]),
            net("c", NetKind::Shared, &["c1.x", "c2.x"]),
        ]);
        let old = plan_deployment(&v1, &PlannerConfig::default());
        let v2 = view(vec![
            net("a", NetKind::Shared, &["a0.x", "a1.x", "a2.x", "a3.x"]),
            net("b", NetKind::Switched, &["b1.x", "b3.x", "b4.x"]),
            net("c", NetKind::Shared, &["c1.x", "c2.x"]),
        ]);
        // A flat switch platform carrying every host, so the validator can
        // resolve names and walk routes.
        let mut b = netsim::TopologyBuilder::new();
        let sw = b.switch("sw", netsim::Bandwidth::mbps(100.0), netsim::Latency::micros(20.0));
        for (i, h) in
            ["m.x", "a0.x", "a1.x", "a2.x", "a3.x", "b1.x", "b3.x", "b4.x", "c1.x", "c2.x"]
                .iter()
                .enumerate()
        {
            let n = b.host(h, &format!("10.0.0.{}", i + 1));
            b.attach(n, sw);
        }
        let topo = b.build().unwrap();
        for cfg in [RepairConfig::default(), RepairConfig::preserving()] {
            let out = repair_plan(&old, &v2, &cfg);
            let report = validate_plan(&out.plan, &v2, &topo);
            assert!(report.complete, "{}", report.render());
            assert!(report.unresolved_hosts.is_empty());
        }
    }

    #[test]
    fn identical_views_yield_empty_delta() {
        let v = view(vec![
            net("a", NetKind::Shared, &["a1.x", "a2.x"]),
            net("b", NetKind::Switched, &["b1.x", "b2.x", "b3.x"]),
        ]);
        let old = plan_deployment(&v, &PlannerConfig::default());
        for cfg in [RepairConfig::default(), RepairConfig::preserving()] {
            let out = repair_plan(&old, &v, &cfg);
            assert!(out.delta.is_empty(), "{:?}", out.delta);
            assert_eq!(out.plan, old);
        }
    }
}
