//! The "NWS manager" of paper §5.2: a configuration file shared across all
//! involved hosts, applied locally on each one.
//!
//! "We realized a NWS manager program using a configuration file shared
//! across all involved hosts and applying the local parts on each hosts.
//! The actual deployment of NWS is then as easy as dispatching the
//! configuration file to the hosts (using for example NFS), and running
//! the manager on each machines."
//!
//! The format is a small INI dialect (the original was Perl); it
//! round-trips through [`render_config`] / [`parse_config`]. On the
//! simulator, [`apply_plan`] performs what running the manager on every
//! host performs in reality: starting the right processes with the right
//! options.

use std::collections::BTreeMap;

use netsim::engine::Engine;
use netsim::error::{NetError, NetResult};
use netsim::time::TimeDelta;

use nws::persist::wal_compact_bytes;
use nws::{CliqueSpec, NwsMsg, NwsSystem, NwsSystemSpec, ReconfigSpec, SensorMode, SensorSpec};

use crate::plan::{
    CliqueRole, DeploymentPlan, PlanDelta, PlannedClique, DEFAULT_GAP_S, DEFAULT_WAL_COMPACT_KIB,
};

/// Serialize a plan to the shared manager configuration.
pub fn render_config(plan: &DeploymentPlan) -> String {
    let mut s = String::new();
    s.push_str("# NWS deployment configuration (generated from an ENV mapping)\n");
    s.push_str("[global]\n");
    s.push_str(&format!("master = {}\n", plan.master));
    s.push_str(&format!("nameserver = {}\n", plan.nameserver));
    s.push_str(&format!("forecaster = {}\n", plan.forecaster));
    s.push_str(&format!("memories = {}\n", plan.memories.join(", ")));
    // Seconds, the unit `TimeDelta` holds: `{}` prints the shortest decimal
    // that parses back to the same bits, and no unit conversion sits between.
    s.push_str(&format!("gap_s = {}\n", plan.gap.as_secs()));
    s.push_str(&format!("wal_compact_kib = {}\n", plan.wal_compact_kib));
    s.push_str(&format!("hosts = {}\n", plan.hosts.join(", ")));
    s.push('\n');
    for c in &plan.cliques {
        s.push_str(&format!("[clique {}]\n", c.name));
        s.push_str(&format!("role = {}\n", c.role.as_str()));
        if let Some(net) = &c.network {
            s.push_str(&format!("network = {net}\n"));
        }
        s.push_str(&format!("members = {}\n", c.members.join(", ")));
        s.push('\n');
    }
    for (net, (a, b)) in &plan.representatives {
        s.push_str(&format!("[representative {net}]\n"));
        s.push_str(&format!("pair = {a}, {b}\n\n"));
    }
    if !plan.memory_of.is_empty() {
        s.push_str("[memory-assignment]\n");
        for (host, memory) in &plan.memory_of {
            s.push_str(&format!("{host} = {memory}\n"));
        }
        s.push('\n');
    }
    s
}

/// Parse a manager configuration back into a plan.
pub fn parse_config(text: &str) -> Result<DeploymentPlan, String> {
    let mut master = None;
    let mut nameserver = None;
    let mut forecaster = None;
    let mut memories = Vec::new();
    let mut gap = TimeDelta::from_secs(DEFAULT_GAP_S);
    let mut wal_compact_kib = DEFAULT_WAL_COMPACT_KIB;
    let mut hosts = Vec::new();
    let mut cliques: Vec<PlannedClique> = Vec::new();
    let mut representatives = BTreeMap::new();
    let mut memory_of = BTreeMap::new();

    #[derive(PartialEq)]
    enum Section {
        None,
        Global,
        Clique(usize),
        Representative(String),
        MemoryAssignment,
    }
    let mut section = Section::None;

    let list = |v: &str| -> Vec<String> {
        v.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = match inner.split_once(' ') {
                None if inner == "global" => Section::Global,
                None if inner == "memory-assignment" => Section::MemoryAssignment,
                Some(("clique", name)) => {
                    cliques.push(PlannedClique {
                        name: name.trim().to_string(),
                        members: vec![],
                        role: CliqueRole::Inter,
                        network: None,
                    });
                    Section::Clique(cliques.len() - 1)
                }
                Some(("representative", net)) => Section::Representative(net.trim().to_string()),
                _ => return Err(format!("line {}: unknown section {inner:?}", lineno + 1)),
            };
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        match &section {
            Section::Global => match key {
                "master" => master = Some(value.to_string()),
                "nameserver" => nameserver = Some(value.to_string()),
                "forecaster" => forecaster = Some(value.to_string()),
                "memories" => memories = list(value),
                "gap_s" => {
                    gap = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .map(TimeDelta::from_secs)
                        .ok_or_else(|| format!("line {}: bad gap_s", lineno + 1))?
                }
                "wal_compact_kib" => {
                    // A threshold whose byte count overflows is refused
                    // here, not wrapped (or panicked on) at deployment.
                    wal_compact_kib = value
                        .parse()
                        .ok()
                        .filter(|kib| wal_compact_bytes(*kib).is_some())
                        .ok_or_else(|| format!("line {}: bad wal_compact_kib", lineno + 1))?
                }
                "hosts" => hosts = list(value),
                _ => return Err(format!("line {}: unknown global key {key:?}", lineno + 1)),
            },
            Section::Clique(i) => {
                let c = &mut cliques[*i];
                match key {
                    "role" => {
                        c.role = CliqueRole::from_str_opt(value)
                            .ok_or_else(|| format!("line {}: bad role {value:?}", lineno + 1))?
                    }
                    "network" => c.network = Some(value.to_string()),
                    "members" => c.members = list(value),
                    _ => return Err(format!("line {}: unknown clique key {key:?}", lineno + 1)),
                }
            }
            Section::Representative(net) => match key {
                "pair" => {
                    let pair = list(value);
                    if pair.len() != 2 {
                        return Err(format!("line {}: pair needs two hosts", lineno + 1));
                    }
                    representatives.insert(net.clone(), (pair[0].clone(), pair[1].clone()));
                }
                _ => return Err(format!("line {}: unknown key {key:?}", lineno + 1)),
            },
            Section::MemoryAssignment => {
                memory_of.insert(key.to_string(), value.to_string());
            }
            Section::None => return Err(format!("line {}: key outside any section", lineno + 1)),
        }
    }

    Ok(DeploymentPlan {
        master: master.ok_or("missing master")?,
        cliques,
        nameserver: nameserver.ok_or("missing nameserver")?,
        memories,
        forecaster: forecaster.ok_or("missing forecaster")?,
        representatives,
        gap,
        hosts,
        memory_of,
        wal_compact_kib,
    })
}

/// The sensor `plan` puts on `host`: a clique member that also senses its
/// host and stores to the memory the plan assigns it.
fn sensor_spec(plan: &DeploymentPlan, host: &str) -> SensorSpec {
    SensorSpec {
        host: host.to_string(),
        mode: SensorMode::Clique,
        host_sensing: true,
        memory: Some(plan.memory_for(host).to_string()),
    }
}

/// The clique at index `i` of `plan`. The token gaps are staggered by
/// index so independent cliques do not phase-lock: with identical periods,
/// a clique overlapping another's medium (the §6 caveat) would collide on
/// *every* round instead of occasionally.
fn clique_spec(plan: &DeploymentPlan, i: usize, c: &PlannedClique) -> CliqueSpec {
    CliqueSpec {
        name: c.name.clone(),
        members: c.members.clone(),
        gap: plan.gap * (1.0 + 0.137 * i as f64),
    }
}

/// As [`plan_to_spec`], optionally enabling the §6 host-locking extension
/// (the paper's proposed fix for inter-clique collisions at shared hosts).
pub(crate) fn plan_to_spec_with(plan: &DeploymentPlan, host_locking: bool) -> NwsSystemSpec {
    NwsSystemSpec {
        memory_hosts: plan.memories.clone(),
        forecaster_host: plan.forecaster.clone(),
        sensors: plan.hosts.iter().map(|h| sensor_spec(plan, h)).collect(),
        cliques: plan.cliques.iter().enumerate().map(|(i, c)| clique_spec(plan, i, c)).collect(),
        host_locking,
        wal_compact_kib: plan.wal_compact_kib,
        ..NwsSystemSpec::minimal(&plan.nameserver, &[])
    }
}

/// Convert a plan delta (from [`crate::plan::diff_plans`] or
/// [`crate::repair::repair_plan`]) to the incremental reconfiguration the
/// running NWS system applies in place. `new_plan` supplies memory
/// assignments for joining sensors and the clique gaps — staggered by the
/// clique's index in the new plan, exactly as [`plan_to_spec`] staggers a
/// fresh deployment, so a reconfigured system and a freshly deployed one
/// agree on measurement frequency. A delta that starts or restarts a
/// clique `new_plan` does not hold has no gap to give it and is an error.
pub(crate) fn plan_delta_to_reconfig(
    delta: &PlanDelta,
    new_plan: &DeploymentPlan,
) -> NetResult<ReconfigSpec> {
    // Reversed, so that of two cliques with one name the first gives the index.
    let index_of: BTreeMap<&str, usize> =
        new_plan.cliques.iter().enumerate().rev().map(|(i, c)| (c.name.as_str(), i)).collect();
    let to_spec = |c: &PlannedClique| {
        let i = *index_of
            .get(c.name.as_str())
            .ok_or_else(|| NetError::NameNotFound(format!("clique {} in the new plan", c.name)))?;
        Ok(clique_spec(new_plan, i, c))
    };
    Ok(ReconfigSpec {
        cliques_to_stop: delta.cliques_to_stop.clone(),
        cliques_to_upsert: delta
            .cliques_to_start
            .iter()
            .chain(&delta.cliques_to_restart)
            .map(to_spec)
            .collect::<NetResult<_>>()?,
        sensors_to_add: delta.sensors_to_add.iter().map(|h| sensor_spec(new_plan, h)).collect(),
        sensors_to_remove: delta.sensors_to_remove.clone(),
        memories_to_add: delta.memories_to_add.clone(),
        memories_to_remove: delta.memories_to_remove.clone(),
    })
}

/// Apply a plan delta to a running system — the incremental counterpart of
/// [`apply_plan`]: sensors, cliques and series are retargeted in place,
/// preserving memory contents and forecaster watermarks across the
/// transition.
pub fn apply_plan_delta(
    eng: &mut Engine<NwsMsg>,
    sys: &mut NwsSystem,
    delta: &PlanDelta,
    new_plan: &DeploymentPlan,
) -> NetResult<()> {
    sys.reconfigure(eng, &plan_delta_to_reconfig(delta, new_plan)?)
}

/// Deploy the plan onto a simulated platform — the manager run on every
/// host at once.
pub fn apply_plan(eng: &mut Engine<NwsMsg>, plan: &DeploymentPlan) -> NetResult<NwsSystem> {
    apply_plan_with(eng, plan, false)
}

/// As [`apply_plan`], optionally enabling host locking (§6 extension).
pub fn apply_plan_with(
    eng: &mut Engine<NwsMsg>,
    plan: &DeploymentPlan,
    host_locking: bool,
) -> NetResult<NwsSystem> {
    if plan.hosts.is_empty() {
        return Err(NetError::InvalidTopology("plan covers no hosts".to_string()));
    }
    NwsSystem::deploy(eng, &plan_to_spec_with(plan, host_locking))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn sample_plan() -> DeploymentPlan {
        DeploymentPlan {
            master: "m.x".into(),
            cliques: vec![
                PlannedClique {
                    name: "local-hub".into(),
                    members: vec!["a.x".into(), "b.x".into()],
                    role: CliqueRole::SharedLocal,
                    network: Some("hub".into()),
                },
                PlannedClique {
                    name: "inter-top".into(),
                    members: vec!["a.x".into(), "c.x".into()],
                    role: CliqueRole::Inter,
                    network: None,
                },
            ],
            nameserver: "m.x".into(),
            memories: vec!["m.x".into()],
            forecaster: "m.x".into(),
            representatives: BTreeMap::from([(
                "hub".to_string(),
                ("a.x".to_string(), "b.x".to_string()),
            )]),
            gap: TimeDelta::from_millis(250.0),
            hosts: vec!["a.x".into(), "b.x".into(), "c.x".into()],
            memory_of: BTreeMap::from([("c.x".to_string(), "m.x".to_string())]),
            wal_compact_kib: 128,
        }
    }

    #[test]
    fn config_round_trips() {
        let mut plan = sample_plan();
        let text = render_config(&plan);
        let parsed = parse_config(&text).unwrap();
        assert_eq!(plan, parsed);
        // A gap that `s * 1e3` then `ms / 1e3` brings back one ulp off.
        plan.gap = TimeDelta::from_secs(0.05808157514973589);
        assert_eq!(parse_config(&render_config(&plan)), Ok(plan));
        // Retired keys are rejected like any unknown one.
        for key in ["serve_shards", "gap_ms"] {
            let old = text.replace("hosts =", &format!("{key} = 4\nhosts ="));
            assert!(parse_config(&old)
                .unwrap_err()
                .contains(&format!("unknown global key {key:?}")));
        }
    }

    #[test]
    fn config_mentions_paper_concepts() {
        let text = render_config(&sample_plan());
        assert!(text.contains("[clique local-hub]"));
        assert!(text.contains("role = shared-local"));
        assert!(text.contains("[representative hub]"));
        assert!(text.contains("pair = a.x, b.x"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_config("key = value").is_err());
        assert!(parse_config("[weird section]").is_err());
        assert!(parse_config("[global]\nmaster = m\n[clique c]\nrole = nope\n").is_err());
        assert!(parse_config("[global]\nnameserver = n\nforecaster = f\n").is_err()); // no master
        assert!(parse_config("[global]\nbroken line\n").is_err());
        for gap in ["NaN", "inf", "-1"] {
            assert_eq!(
                parse_config(&format!("[global]\nmaster = m\ngap_s = {gap}\n")),
                Err("line 3: bad gap_s".to_string())
            );
        }
        // 2^54 KiB is the first threshold whose byte count overflows a u64.
        for kib in [(1u64 << 54).to_string(), u64::MAX.to_string(), "-1".to_string()] {
            assert_eq!(
                parse_config(&format!("[global]\nwal_compact_kib = {kib}\n")),
                Err("line 2: bad wal_compact_kib".to_string())
            );
        }
        assert!(parse_config(&format!("[global]\nwal_compact_kib = {}\n", (1u64 << 54) - 1))
            .is_err_and(|e| e == "missing master"));
        assert!(parse_config(
            "[representative x]\npair = only-one\n[global]\nmaster=m\nnameserver=n\nforecaster=f\n"
        )
        .is_err());
    }

    #[test]
    fn spec_carries_cliques_and_sensors() {
        let plan = sample_plan();
        let spec = plan_to_spec_with(&plan, false);
        assert_eq!(spec.sensors.len(), 3);
        assert_eq!(spec.cliques.len(), 2);
        assert_eq!(spec.nameserver_host, "m.x");
        assert_eq!(spec.cliques[0].members, vec!["a.x", "b.x"]);
    }

    /// A restarted clique gets the gap of its index in the new plan; one
    /// the new plan does not hold is an error, not clique 0's gap.
    #[test]
    fn reconfig_gaps_follow_the_new_plan() {
        let plan = sample_plan();
        let mut delta =
            PlanDelta { cliques_to_restart: vec![plan.cliques[1].clone()], ..PlanDelta::default() };
        let re = plan_delta_to_reconfig(&delta, &plan).unwrap();
        assert_eq!(re.cliques_to_upsert[0].gap, plan_to_spec_with(&plan, false).cliques[1].gap);

        delta.cliques_to_start.push(PlannedClique {
            name: "not-in-plan".into(),
            members: vec!["a.x".into(), "b.x".into()],
            role: CliqueRole::Inter,
            network: None,
        });
        assert!(matches!(plan_delta_to_reconfig(&delta, &plan), Err(NetError::NameNotFound(_))));
    }

    /// A shared configuration naming a sensor host or a memory host twice
    /// is answered with an error, never a panic inside the deployment.
    #[test]
    fn duplicate_hosts_in_the_config_fail_deployment() {
        let net = netsim::scenarios::star_hub(3, netsim::units::Bandwidth::mbps(100.0));
        let config = |memories: &str, hosts: &str| {
            format!(
                "[global]\nmaster = h0.hub.net\nnameserver = h0.hub.net\n\
                 forecaster = h0.hub.net\nmemories = {memories}\nhosts = {hosts}\n\
                 [clique c0]\nrole = shared-local\nmembers = h1.hub.net, h2.hub.net\n"
            )
        };
        let deploy = |text: String| {
            let plan = parse_config(&text).expect("well-formed INI");
            apply_plan_with(&mut Engine::new(net.topo.clone()), &plan, false).map(|_| ())
        };
        assert_eq!(deploy(config("h0.hub.net", "h1.hub.net, h2.hub.net")), Ok(()));
        let twice = deploy(config("h0.hub.net", "h1.hub.net, h1.hub.net, h2.hub.net"));
        assert!(matches!(twice, Err(NetError::InvalidTopology(_))), "{twice:?}");
        let twice = deploy(config("h0.hub.net, h0.hub.net", "h1.hub.net, h2.hub.net"));
        assert!(matches!(twice, Err(NetError::InvalidTopology(_))), "{twice:?}");
    }

    const NAME: &str = "[a-z][a-z0-9.\\-]{0,11}";

    fn names() -> impl Strategy<Value = Vec<String>> {
        collection::vec(NAME, 0..4)
    }

    prop_compose! {
        fn arb_clique()(
            name in NAME,
            members in names(),
            role in 0usize..4,
            network in proptest::option::of(NAME),
        ) -> PlannedClique {
            use CliqueRole::*;
            let role = [SharedLocal, SwitchedLocal, UndeterminedLocal, Inter][role];
            PlannedClique { name, members, role, network }
        }
    }

    prop_compose! {
        /// Any plan the INI can carry: names free of its separators, every
        /// finite non-negative gap (by bit pattern, subnormals included),
        /// every compaction threshold whose byte count fits.
        fn arb_plan()(
            (master, nameserver, forecaster) in (NAME, NAME, NAME),
            (memories, hosts) in (names(), names()),
            cliques in collection::vec(arb_clique(), 0..4),
            representatives in collection::vec((NAME, (NAME, NAME)), 0..3),
            memory_of in collection::vec((NAME, NAME), 0..4),
            gap_bits in 0..=f64::MAX.to_bits(),
            wal_compact_kib in 0u64..1 << 54,
        ) -> DeploymentPlan {
            DeploymentPlan {
                master,
                cliques,
                nameserver,
                memories,
                forecaster,
                representatives: representatives.into_iter().collect(),
                gap: TimeDelta::from_secs(f64::from_bits(gap_bits)),
                hosts,
                memory_of: memory_of.into_iter().collect(),
                wal_compact_kib,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// §5.2: the shared file *is* the deployment, so it must carry every
        /// plan back bit for bit.
        #[test]
        fn every_plan_round_trips_through_the_config(plan in arb_plan()) {
            prop_assert_eq!(parse_config(&render_config(&plan)), Ok(plan));
        }
    }
}
