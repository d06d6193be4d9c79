//! Batched multi-series queries: the differential contract (`QueryBatch`
//! ≡ N sequential single queries, bit for bit), the single-flight lookup
//! discipline under batching, stale/timeout answers to batch slots, and
//! shard-count invariance of the out-of-sim serving plane against the
//! in-sim forecaster. The rig is `query_serving`'s.

use std::cell::RefCell;
use std::rc::Rc;

use super::query_serving::{ms, rig, run_script, send, Action};
use crate::msg::{NwsMsg, SeriesKey};
use crate::serve::ServingPlane;
use crate::shard::ShardMap;
use crate::{Forecast, Resource, SeriesId};
use netsim::engine::{Ctx, Process, ProcessId};
use netsim::prelude::*;
use proptest::prelude::*;

fn link(src: &str, dst: &str) -> SeriesKey {
    SeriesKey::link(Resource::Bandwidth, src, dst)
}

/// Store steps for `values[s][..]` under `keys[s]`, 10 ms apart.
fn store_steps(keys: &[SeriesKey], values: &[Vec<f64>]) -> Vec<(TimeDelta, Action)> {
    let mut steps = Vec::new();
    let mut at = 0.0;
    for (s, vs) in values.iter().enumerate() {
        for (t, v) in vs.iter().enumerate() {
            steps.push((ms(at), Action::Store { key: keys[s].clone(), t: t as f64, value: *v }));
            at += 10.0;
        }
    }
    steps
}

/// The differential contract on a fixed script: one batch over
/// {known, duplicate, unknown} keys answers bit-identically to the same
/// keys queried one at a time on an identically prepared system.
#[test]
fn batch_reply_is_bit_identical_to_sequential_singles() {
    let k0 = link("h0.x", "h1.x");
    let k1 = link("h0.x", "h2.x");
    let ghost = link("h1.x", "h2.x");
    let keys = [k0.clone(), k1.clone()];
    let values = [vec![90.0, 92.0, 88.0, 95.0], vec![10.0, 11.0, 12.0]];
    let batch = vec![k0.clone(), k1.clone(), k0.clone(), ghost.clone()];

    let mut a_steps = store_steps(&keys, &values);
    a_steps.push((ms(2000.0), Action::Batch { keys: batch.clone() }));
    let a = run_script(rig(), a_steps);

    let mut b_steps = store_steps(&keys, &values);
    for (j, key) in batch.iter().enumerate() {
        b_steps.push((ms(2000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
    }
    let b = run_script(rig(), b_steps);

    assert_eq!(a.batches.len(), 1, "one batch reply");
    assert_eq!(a.batches[0].len(), batch.len(), "slot per key, duplicates included");
    assert_eq!(a.batches[0], b.singles, "batch ≡ sequential singles, bit for bit");
    assert!(a.batches[0][3].1.is_none(), "unknown key answers None");
}

/// Single-flight discipline: five batch slots for one unresolved series,
/// plus a concurrent single query, cost exactly one directory lookup and
/// one memory fetch between them — and all six answers agree.
#[test]
fn duplicate_unresolved_keys_share_one_lookup_and_fetch() {
    let k = link("h0.x", "h1.x");
    let mut steps = store_steps(std::slice::from_ref(&k), &[vec![90.0, 91.0, 92.0]]);
    steps.push((ms(1000.0), Action::Batch { keys: vec![k.clone(); 5] }));
    steps.push((ms(1000.0), Action::Query { key: k.clone() }));
    let r = run_script(rig(), steps);

    assert_eq!(r.batches.len(), 1);
    assert_eq!(r.singles.len(), 1);
    let f = r.singles[0].1.clone().expect("forecast");
    assert_eq!(f.samples, 3);
    for slot in &r.batches[0] {
        assert_eq!(slot.1.as_ref(), Some(&f), "every coalesced waiter gets the same answer");
    }
    assert_eq!(r.rig.ns_state.borrow().lookups, 1, "one WhereIs for six waiters");
    assert_eq!(r.rig.store.borrow().fetches, 1, "one fetch for six waiters");
}

/// An empty batch is a complete conversation: immediate empty reply.
#[test]
fn empty_batch_replies_immediately() {
    let r = run_script(rig(), vec![(ms(0.0), Action::Batch { keys: vec![] })]);
    assert_eq!(r.batches, vec![Vec::new()]);
    assert_eq!(r.rig.ns_state.borrow().lookups, 0);
}

/// A one-shot batch sender used after the scripted phase (so the test can
/// kill processes between phases).
struct BatchOnce {
    forecaster: ProcessId,
    series: Vec<SeriesId>,
    result: Rc<RefCell<Vec<Vec<Option<Forecast>>>>>,
}

impl Process<NwsMsg> for BatchOnce {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let series = self.series.clone();
        send(ctx, self.forecaster, NwsMsg::QueryBatch { id: 7, series });
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryBatchReply { forecasts, .. } = msg {
            self.result.borrow_mut().push(forecasts);
        }
    }
}

/// Timeout path under batching: with the series' memory dead, the slot
/// for a warmed series is answered from the persistent battery with the
/// stale flag up, and an unknown key still resolves to a clean None from
/// the (alive) directory — the batch completes despite the outage.
#[test]
fn timeout_under_batching_serves_stale_with_flag() {
    let k = link("h0.x", "h1.x");
    let ghost = link("h1.x", "h2.x");
    // Phase 1: store + warm the forecaster's battery through one query.
    let mut steps = store_steps(std::slice::from_ref(&k), &[vec![90.0, 91.0, 92.0]]);
    steps.push((ms(1000.0), Action::Query { key: k.clone() }));
    let mut r = run_script(rig(), steps);
    assert_eq!(r.singles.len(), 1);
    let warm = r.singles[0].1.clone().expect("warm forecast");
    assert!(!warm.stale);

    // Phase 2: kill the memory, then batch {warmed, unknown}.
    r.rig.eng.kill_process(r.rig.memory);
    let result = Rc::new(RefCell::new(Vec::new()));
    let series = [&k, &ghost].map(|key| r.rig.ids.borrow_mut().intern(key)).to_vec();
    r.rig.eng.add_process(
        r.rig.client_node,
        Box::new(BatchOnce { forecaster: r.rig.forecaster, series, result: result.clone() }),
    );
    let deadline = r.rig.eng.now() + TimeDelta::from_secs(10.0);
    r.rig.eng.run_until(deadline);

    let batches = result.borrow().clone();
    assert_eq!(batches.len(), 1, "batch completes despite the dead memory");
    let slots = &batches[0];
    let stale = slots[0].clone().expect("stale forecast beats an error");
    assert!(stale.stale, "timeout answers carry the stale flag");
    assert_eq!(stale.samples, warm.samples, "served from the warmed battery");
    assert!(slots[1].is_none(), "unknown key resolves through the live directory");
}

/// Shard-count invariance, end to end: planes over {1, 2, 4, 8} shards
/// fed from the sim's memory store answer bit-identically to each other
/// *and* to the in-sim forecaster serving the same series.
#[test]
fn plane_answers_are_shard_invariant_and_match_the_sim() {
    let keys =
        [link("h0.x", "h1.x"), link("h0.x", "h2.x"), link("h1.x", "h2.x"), link("h2.x", "h0.x")];
    let values: Vec<Vec<f64>> =
        (0..4).map(|s| (0..20).map(|t| 50.0 + (s * 7 + t * 3) as f64 % 13.0).collect()).collect();
    let mut steps = store_steps(&keys, &values);
    for (j, key) in keys.iter().enumerate() {
        steps.push((ms(3000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
    }
    let r = run_script(rig(), steps);
    assert_eq!(r.singles.len(), keys.len());

    let mut baseline: Option<Vec<(SeriesKey, Option<Forecast>)>> = None;
    for shards in [1usize, 2, 4, 8] {
        let mut plane = ServingPlane::new(ShardMap::hashed(shards));
        plane.ingest_store(&r.rig.store.borrow(), &r.rig.ids.borrow());
        plane.publish(shards);
        let got = plane.serve_batch(&keys);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(b, &got, "{shards} shards diverged"),
        }
    }
    let plane_answers = baseline.unwrap();
    for (sim, plane) in r.singles.iter().zip(&plane_answers) {
        assert_eq!(sim, plane, "in-sim forecaster and serving plane agree bit for bit");
    }
}

prop_compose! {
    /// Random per-series value histories: 2 series, 1..12 points each.
    fn arb_histories()(
        a in proptest::collection::vec(1.0f64..100.0, 1..12),
        b in proptest::collection::vec(1.0f64..100.0, 1..12),
    ) -> Vec<Vec<f64>> {
        vec![a, b]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential contract, randomized: any batch composition over
    /// {series 0, series 1, an unknown key} — duplicates included —
    /// answers bit-identically to the same keys queried sequentially on
    /// an identically prepared system.
    #[test]
    fn query_batch_equals_sequential_singles(
        histories in arb_histories(),
        picks in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let k0 = link("h0.x", "h1.x");
        let k1 = link("h0.x", "h2.x");
        let ghost = link("h1.x", "h2.x");
        let keys = [k0, k1];
        let batch: Vec<SeriesKey> =
            picks.iter().map(|&p| keys.get(p).unwrap_or(&ghost).clone()).collect();

        let mut a_steps = store_steps(&keys, &histories);
        a_steps.push((ms(3000.0), Action::Batch { keys: batch.clone() }));
        let a = run_script(rig(), a_steps);

        let mut b_steps = store_steps(&keys, &histories);
        for (j, key) in batch.iter().enumerate() {
            b_steps.push((ms(3000.0 + 200.0 * j as f64), Action::Query { key: key.clone() }));
        }
        let b = run_script(rig(), b_steps);

        prop_assert_eq!(a.batches.len(), 1);
        prop_assert_eq!(&a.batches[0], &b.singles, "batch ≡ singles for picks {:?}", picks);
    }
}
