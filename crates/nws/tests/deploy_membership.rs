//! What `NwsSystem::deploy` and `NwsSystem::reconfigure` hand each sensor.
//!
//! * Differential: deploy indexes the spec (host → sensor, one pass over
//!   the cliques); the reference below derives the same memberships the
//!   plain way — for every sensor, scan every clique for its host, and
//!   for every ring member scan the sensor list — and the two must agree
//!   on clique order, ring order, `me_idx` and gaps for random specs.
//! * Sharing: all members of a clique hold the *same* ring allocation,
//!   after a deployment and after an in-place reconfiguration.

use std::rc::Rc;

use netsim::engine::{Engine, ProcessId};
use netsim::prelude::*;
use netsim::scenarios::star_switch;
use nws::clique::Ring;
use nws::{CliqueSpec, NwsMsg, NwsSystem, NwsSystemSpec, ReconfigSpec, SensorSpec};
use proptest::prelude::*;

fn star_engine(n: usize) -> (Engine<NwsMsg>, Vec<String>) {
    let net = star_switch(n, Bandwidth::mbps(100.0));
    let names =
        net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
    (Engine::new(net.topo), names)
}

/// (clique name, ring, position in the ring, gap) per membership.
type Expected = (String, Vec<(ProcessId, String, NodeId)>, usize, TimeDelta);

/// The memberships of every sensor of `spec`, in spec order, by scanning.
/// Sensor `i` runs as pid `first_pid + i`.
fn memberships_by_scanning(
    spec: &NwsSystemSpec,
    topo: &Topology,
    first_pid: u32,
) -> Vec<Vec<Expected>> {
    let pid_of = |idx: usize| ProcessId::from_raw(first_pid + idx as u32);
    spec.sensors
        .iter()
        .enumerate()
        .map(|(idx, s)| {
            spec.cliques
                .iter()
                .filter(|c| c.members.contains(&s.host))
                .map(|c| {
                    let ring: Vec<_> = c
                        .members
                        .iter()
                        .map(|m| {
                            let midx = spec.sensors.iter().position(|ss| &ss.host == m).unwrap();
                            (pid_of(midx), m.clone(), topo.resolve_host(m).unwrap())
                        })
                        .collect();
                    let me_idx = ring.iter().position(|(p, _, _)| *p == pid_of(idx)).unwrap();
                    (c.name.clone(), ring, me_idx, c.gap)
                })
                .collect()
        })
        .collect()
}

/// The ring each member of `clique` holds for it, in member order.
fn rings_held(sys: &NwsSystem, eng: &Engine<NwsMsg>, clique: &CliqueSpec) -> Vec<Ring> {
    clique
        .members
        .iter()
        .map(|host| {
            let sensor = sys.sensor(eng, host).expect("member runs a sensor");
            let held = sensor.memberships().find(|m| m.clique == clique.name);
            held.unwrap_or_else(|| panic!("{host} holds no {} membership", clique.name))
                .members
                .clone()
        })
        .collect()
}

fn assert_one_allocation(rings: &[Ring], what: &str) {
    for r in rings {
        assert!(Rc::ptr_eq(r, &rings[0]), "{what}: a member holds its own copy of the ring");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deployed_memberships_equal_the_scanning_reference(
        n_hosts in 6usize..40,
        n_memories in 1usize..4,
        // Member picks per small clique; overlaps and repeats are welcome.
        picks in proptest::collection::vec(proptest::collection::vec(0usize..1000, 2..6), 0..7),
        // One clique far larger than the rest, holding every `stride`-th sensor.
        big_stride in proptest::option::of(1usize..3),
        big_at in 0usize..8,
    ) {
        let (mut eng, names) = star_engine(n_hosts);
        // Host 0 runs the servers; the last sensor sits in no clique.
        let sensors = &names[1..];
        let in_cliques = &sensors[..sensors.len() - 1];
        let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
        spec.memory_hosts = names[..n_memories].to_vec();
        spec.sensors = sensors.iter().map(|h| SensorSpec::clique_member(h)).collect();
        spec.cliques = picks
            .iter()
            .enumerate()
            .map(|(i, members)| CliqueSpec {
                name: format!("c{i}"),
                members: members.iter().map(|p| in_cliques[p % in_cliques.len()].clone()).collect(),
                gap: TimeDelta::from_millis(100.0 * (i + 1) as f64),
            })
            .collect();
        if let Some(stride) = big_stride {
            let big = CliqueSpec {
                name: "big".to_string(),
                members: in_cliques.iter().step_by(stride).cloned().collect(),
                gap: TimeDelta::from_millis(750.0),
            };
            spec.cliques.insert(big_at.min(spec.cliques.len()), big);
        }

        let sys = NwsSystem::deploy(&mut eng, &spec).expect("deploys");
        let first_pid = (sys.nameserver.index() + 1 + n_memories + 1) as u32;
        let expected = memberships_by_scanning(&spec, eng.topo(), first_pid);
        let ids = sys.series_ids.borrow();
        for (s, expected) in spec.sensors.iter().zip(&expected) {
            let sensor = sys.sensor(&eng, &s.host).expect("deployed");
            let got: Vec<Expected> = sensor
                .memberships()
                .map(|m| {
                    let ring = m
                        .members
                        .iter()
                        .map(|&(pid, host, node)| (pid, ids.host_name(host).to_string(), node))
                        .collect();
                    (m.clique.clone(), ring, m.me_idx, m.gap)
                })
                .collect();
            prop_assert_eq!(&got, expected, "sensor {}", s.host);
            prop_assert!(sensor.memberships().all(|m| m.watchdog_base == spec.watchdog));
        }
        for c in &spec.cliques {
            assert_one_allocation(&rings_held(&sys, &eng, c), &c.name);
        }
    }
}

/// A clique's ring is one allocation: after `deploy`, and again after a
/// `reconfigure` that restarts the clique around a joining sensor — the
/// retargets travel the simulated network and still deliver one ring.
#[test]
fn clique_members_share_one_ring_after_deploy_and_reconfigure() {
    let (mut eng, names) = star_engine(6);
    let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
    spec.sensors = names[..5].iter().map(|h| SensorSpec::clique_member(h)).collect();
    let gap = TimeDelta::from_millis(500.0);
    spec.cliques = vec![
        CliqueSpec { name: "left".to_string(), members: names[..3].to_vec(), gap },
        CliqueSpec { name: "right".to_string(), members: names[2..5].to_vec(), gap },
    ];
    let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
    let deployed: Vec<Vec<Ring>> = spec.cliques.iter().map(|c| rings_held(&sys, &eng, c)).collect();
    for (c, rings) in spec.cliques.iter().zip(&deployed) {
        assert_one_allocation(rings, &c.name);
    }
    assert!(!Rc::ptr_eq(&deployed[0][0], &deployed[1][0]), "two cliques, two rings");

    let grown = CliqueSpec { name: "right".to_string(), members: names[2..].to_vec(), gap };
    let re = ReconfigSpec {
        cliques_to_upsert: vec![grown.clone()],
        sensors_to_add: vec![SensorSpec::clique_member(&names[5])],
        ..ReconfigSpec::default()
    };
    sys.reconfigure(&mut eng, &re).unwrap();
    sys.run_for(&mut eng, TimeDelta::from_secs(5.0));

    let rings = rings_held(&sys, &eng, &grown);
    assert_eq!(rings[0].len(), 4);
    assert_one_allocation(&rings, "right, restarted");
    assert!(!Rc::ptr_eq(&rings[0], &deployed[1][0]), "a changed clique gets a new ring");
    // The untouched clique still holds the ring it was deployed with.
    let left = rings_held(&sys, &eng, &spec.cliques[0]);
    assert!(Rc::ptr_eq(&left[0], &deployed[0][0]));
}
