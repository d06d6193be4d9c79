//! Differential property suite for the incremental re-mapper: for random
//! churn schedules over all four synthetic families, `EnvMapper::remap`
//! must produce an `EnvView` identical to a from-scratch `EnvMapper::map`
//! of the mutated platform — the churn analogue of the fairness engine's
//! `max_min_allocate` differential tests (the repo's naive-vs-engine
//! pattern).
//!
//! On top of equality, the suite asserts the economics: untouched
//! clusters' probe budget is zero, so when only a small fraction of hosts
//! is dirtied the remap must be a small fraction of the full map's
//! experiment count.

use netsim::churn::{apply_churn, ChurnState};
use netsim::synth::{synth, SynthFamily};
use netsim::Sim;

use envmap::{EnvConfig, EnvMapper, HostInput};
use proptest::prelude::*;

fn inputs(names: &[String]) -> Vec<HostInput> {
    names.iter().map(|n| HostInput::new(n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// remap == map on the mutated platform, across random churn
    /// schedules, epochs and families; and remap's probe bill scales with
    /// the dirty set, not the platform.
    #[test]
    fn remap_matches_full_map_under_random_churn(
        fam_idx in 0usize..4,
        hosts in 40usize..90,
        scenario_seed in 0u64..1000,
        churn_seed in 0u64..1000,
        epochs in 1usize..4,
        events in 1usize..4,
        batched in proptest::bool::ANY,
    ) {
        let family = SynthFamily::ALL[fam_idx];
        let sc = synth(family, scenario_seed, hosts);
        let mut eng = Sim::new(sc.net.topo.clone());
        let config = if batched { EnvConfig::fast_batched() } else { EnvConfig::fast() };
        let mapper = EnvMapper::new(config);
        let mut st = ChurnState::new(&sc, churn_seed);
        let master = st.master.clone();
        let external = st.external.clone();

        let mut prev = mapper
            .map(&mut eng, &inputs(st.hosts()), &master, external.as_deref())
            .expect("initial map");

        for epoch in 0..epochs {
            let evs = st.plan_epoch(events);
            apply_churn(&mut eng, &evs).expect("churn applies");
            let dirty = st.commit(&evs);
            let current = inputs(st.hosts());

            let incremental = mapper
                .remap(&mut eng, &prev, &current, &dirty, &master, external.as_deref())
                .expect("remap");
            let full = mapper
                .map(&mut eng, &current, &master, external.as_deref())
                .expect("full map");

            // Exact structure; measurements within float-noise tolerance
            // (probe values carry epoch-dependent rounding — see
            // `EnvView::approx_eq`). Spliced clusters are bit-identical by
            // construction; only re-refined ones wiggle at ~1e-12.
            prop_assert!(
                incremental.view.approx_eq(&full.view, 1e-9),
                "{} epoch {epoch}: views diverged after {:?}\nremap:\n{}\nfull:\n{}",
                family.name(),
                evs,
                incremental.view.render(),
                full.view.render()
            );

            // Untouched clusters cost zero probes: the remap bill is
            // bounded by the dirty neighborhoods. With a small dirty
            // fraction the reduction must be substantial (the bench
            // enforces the full >=10x contract at scale, where the bound
            // is comfortably slack; at proptest sizes a single max-size
            // LAN is a visible fraction of the platform).
            let frac = dirty.len() as f64 / st.hosts().len() as f64;
            if frac <= 0.10 {
                prop_assert!(
                    incremental.stats.total_experiments() * 5
                        <= full.stats.total_experiments(),
                    "{} epoch {epoch}: dirty {:.0}% but remap ran {} of {} experiments",
                    family.name(),
                    frac * 100.0,
                    incremental.stats.total_experiments(),
                    full.stats.total_experiments()
                );
            }
            if dirty.is_empty() {
                prop_assert_eq!(
                    incremental.stats.total_experiments(),
                    0,
                    "{} epoch {epoch}: clean remap must probe nothing",
                    family.name()
                );
            }

            prev = incremental;
        }
    }
}

/// A remap with an empty dirty set over an unchanged platform is free and
/// identical — the degenerate base case, pinned deterministically.
#[test]
fn noop_remap_is_free_and_identical() {
    for family in SynthFamily::ALL {
        let sc = synth(family, 11, 60);
        let mut eng = Sim::new(sc.net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast_batched());
        let st = ChurnState::new(&sc, 1);
        let master = st.master.clone();
        let prev =
            mapper.map(&mut eng, &inputs(st.hosts()), &master, st.external.as_deref()).unwrap();
        let again = mapper
            .remap(&mut eng, &prev, &inputs(st.hosts()), &[], &master, st.external.as_deref())
            .unwrap();
        assert_eq!(prev.view, again.view, "{}", family.name());
        assert_eq!(again.stats.total_experiments(), 0, "{}", family.name());
    }
}

/// A full map is the incremental one with nothing to reuse: on two fresh
/// engines, both at t = 0, `remap` with every host declared dirty and
/// `map` issue the same probes at the same instants, so the views agree
/// to the last bit of every float and the probe bills are equal.
#[test]
fn all_dirty_remap_is_bit_identical_to_map() {
    for family in SynthFamily::ALL {
        let sc = synth(family, 11, 60);
        let mapper = EnvMapper::new(EnvConfig::fast_batched());
        let st = ChurnState::new(&sc, 1);
        let (hosts, master, external) =
            (inputs(st.hosts()), st.master.clone(), st.external.clone());
        let fresh = || Sim::new(sc.net.topo.clone());

        let prev = mapper.map(&mut fresh(), &hosts, &master, external.as_deref()).unwrap();
        let full = mapper.map(&mut fresh(), &hosts, &master, external.as_deref()).unwrap();
        let all_dirty = mapper
            .remap(&mut fresh(), &prev, &hosts, st.hosts(), &master, external.as_deref())
            .unwrap();

        assert_eq!(all_dirty.view, full.view, "{}", family.name());
        let bits = |run: &envmap::EnvRun| -> Vec<[Option<u64>; 3]> {
            let opt = |x: Option<f64>| x.map(f64::to_bits);
            run.view
                .flatten()
                .iter()
                .map(|f| {
                    [opt(Some(f.net.base_bw_mbps)), opt(f.net.local_bw_mbps), opt(f.net.jam_ratio)]
                })
                .collect()
        };
        assert_eq!(bits(&all_dirty), bits(&full), "{}", family.name());
        assert_eq!(all_dirty.stats, full.stats, "{}", family.name());
        assert_eq!(
            all_dirty.stats.mapping_seconds.to_bits(),
            full.stats.mapping_seconds.to_bits(),
            "{}",
            family.name()
        );
        assert!(full.stats.total_experiments() > 0);
    }
}
