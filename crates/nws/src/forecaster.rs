//! The forecaster process and its query clients: paper §2.1's query path
//! (client → forecaster → name server → memory → forecaster → client) as
//! actors on the simulator.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use netsim::disk::{DiskHandle, SimDisk};
use netsim::engine::{Ctx, Process, ProcessId, TimerId};
use netsim::prelude::*;

use crate::forecast::Forecast;
use crate::msg::{NwsMsg, SeriesKey, ServerKind};
use crate::persist::{ForecastLog, DEFAULT_COMPACT_THRESHOLD};
use crate::series_state::SeriesState;

/// How long an in-flight lookup/fetch may go unanswered before the waiting
/// clients are served from the persistent battery, flagged stale, instead
/// of hanging (outage tolerance).
const QUERY_TIMEOUT_S: f64 = 5.0;

/// What the forecaster keeps per series: the shared [`SeriesState`] core
/// plus the memory server that stores the series (cached from the first
/// directory lookup). The memory pid is `None` right after a recovery
/// from disk — pids do not survive restarts and are not durable state, so
/// a recovered series re-resolves its home through the name server on the
/// next query.
struct Tracked {
    core: SeriesState,
    memory: Option<ProcessId>,
}

impl Tracked {
    fn fresh() -> Self {
        Tracked { core: SeriesState::fresh(), memory: None }
    }
}

/// One party waiting for a key to resolve: a single-query client (owed a
/// `QueryReply`) or one slot of a pending [`NwsMsg::QueryBatch`].
enum Waiter {
    Client(ProcessId),
    BatchSlot { batch: u64, slot: usize },
}

/// The single-flight table entry for one key: every pending query —
/// single or batched — parks here while at most **one** lookup/fetch
/// round trip is in flight for the key. `asked` is the waiter prefix
/// covered by that round trip; only that prefix may be answered from a
/// negative directory reply — a waiter that queued *after* the `WhereIs`
/// left may be asking about a series registered in the meantime, so its
/// lookup is re-issued instead of reusing the stale negative.
#[derive(Default)]
struct Waiting {
    waiters: VecDeque<Waiter>,
    asked: usize,
}

/// A client's in-progress `QueryBatch`: answer slots fill in as each key
/// resolves (shared with any concurrent single queries through the
/// single-flight table); when `remaining` hits zero, one
/// `QueryBatchReply` carries every slot back.
struct PendingBatch {
    client: ProcessId,
    id: u64,
    answers: Vec<(SeriesKey, Option<Forecast>)>,
    remaining: usize,
}

/// The forecaster process: answers `Query` by locating the series' memory
/// through the name server (step 2), fetching the history (step 3),
/// running the battery and replying (step 4).
///
/// The query path is incremental end to end: each series keeps a
/// persistent [`SeriesState`], so a query fetches (`FetchSince`) and
/// observes only the points newer than the watermark — O(Δ) work and
/// wire bytes — instead of shipping the whole ring and replaying it
/// through a fresh 20-predictor battery. Replaying the stored ring into a
/// fresh battery produces the bit-identical forecast (the oracle the
/// scaling bench asserts against) as long as the ring has not evicted
/// points the persistent battery already saw.
pub struct ForecasterServer {
    name: String,
    ns: ProcessId,
    state: BTreeMap<SeriesKey, Tracked>,
    waiting: BTreeMap<SeriesKey, Waiting>,
    next_timeout_tag: u64,
    /// In-flight request timeouts, both directions: key → armed timer and
    /// timer tag → key (timer tags are plain u64s, so the reverse map
    /// routes `on_timer` back to the series).
    timeout_by_key: BTreeMap<SeriesKey, (TimerId, u64)>,
    key_by_tag: BTreeMap<u64, SeriesKey>,
    /// Stale forecasts served during outages (for tests/benches).
    pub stale_served: u64,
    /// Queries that joined an already in-flight lookup/fetch instead of
    /// issuing their own (the single-flight coalescing win, for
    /// tests/benches).
    pub coalesced: u64,
    /// Completed `QueryBatch` replies.
    pub batches_served: u64,
    /// In-progress batches by internal handle (client pids may collide on
    /// their `id`s; the handle is ours).
    batches: BTreeMap<u64, PendingBatch>,
    next_batch: u64,
    /// Watermark rewinds: times a fetch reply revealed a memory restored
    /// to an *older* state than this forecaster had already observed, and
    /// the battery was reset + the series re-fetched from scratch instead
    /// of silently forecasting across the gap.
    pub rewinds: u64,
    /// Durable observation log on the forecaster's disk.
    log: ForecastLog,
}

impl ForecasterServer {
    /// A forecaster on a fresh disk of its own that nothing else can
    /// reach; supervised deployments hand [`ForecasterServer::durable`]
    /// the host's disk.
    pub fn new(name: &str, ns: ProcessId) -> Self {
        Self::durable(name, ns, SimDisk::new(name), DEFAULT_COMPACT_THRESHOLD)
    }

    /// Battery state and delta-fetch watermarks are recovered from `disk`
    /// (snapshot + WAL replay, empty disk ⇒ cold start) and every
    /// observation is logged back to it, the log compacting once its WAL
    /// outgrows `compact_threshold` bytes. Memory pids are not part of the
    /// durable state — recovered series re-resolve their memory through
    /// the name server on the next query.
    pub fn durable(name: &str, ns: ProcessId, disk: DiskHandle, compact_threshold: u64) -> Self {
        let (recovered, mut log) = ForecastLog::recover(disk, "forecaster");
        log.set_compact_threshold(compact_threshold);
        ForecasterServer {
            name: name.to_string(),
            ns,
            state: recovered
                .into_iter()
                .map(|(k, core)| (k, Tracked { core, memory: None }))
                .collect(),
            waiting: BTreeMap::new(),
            next_timeout_tag: 0,
            timeout_by_key: BTreeMap::new(),
            key_by_tag: BTreeMap::new(),
            stale_served: 0,
            coalesced: 0,
            batches_served: 0,
            batches: BTreeMap::new(),
            next_batch: 0,
            rewinds: 0,
            log,
        }
    }

    fn arm_timeout(&mut self, ctx: &mut Ctx<'_, NwsMsg>, key: &SeriesKey) {
        if self.timeout_by_key.contains_key(key) {
            return; // one timeout covers the whole lookup+fetch round trip
        }
        let tag = self.next_timeout_tag;
        self.next_timeout_tag += 1;
        let id = ctx.set_timer(TimeDelta::from_secs(QUERY_TIMEOUT_S), tag);
        self.timeout_by_key.insert(key.clone(), (id, tag));
        self.key_by_tag.insert(tag, key.clone());
    }

    fn clear_timeout(&mut self, ctx: &mut Ctx<'_, NwsMsg>, key: &SeriesKey) {
        if let Some((id, tag)) = self.timeout_by_key.remove(key) {
            ctx.cancel_timer(id);
            self.key_by_tag.remove(&tag);
        }
    }

    fn send_fetch_since(&self, ctx: &mut Ctx<'_, NwsMsg>, key: &SeriesKey) {
        let st = &self.state[key];
        let Some(memory) = st.memory else { return };
        NwsMsg::FetchSince { key: key.clone(), after: st.core.last_t() }.send(ctx, memory);
    }

    fn send_where_is(&self, ctx: &mut Ctx<'_, NwsMsg>, key: &SeriesKey) {
        NwsMsg::WhereIs { key: key.clone() }.send(ctx, self.ns);
    }

    /// Park a waiter on `key`, starting a lookup/fetch round trip only if
    /// none is in flight (the single-flight discipline). A known series
    /// goes straight to its memory for the delta; a never-seen key — or
    /// one recovered from disk with no cached memory pid — pays the
    /// directory round trip.
    fn enqueue(&mut self, ctx: &mut Ctx<'_, NwsMsg>, key: SeriesKey, waiter: Waiter) {
        let w = self.waiting.entry(key.clone()).or_default();
        w.waiters.push_back(waiter);
        if w.asked == 0 {
            w.asked = w.waiters.len();
            if self.state.get(&key).is_some_and(|st| st.memory.is_some()) {
                self.send_fetch_since(ctx, &key);
            } else {
                self.send_where_is(ctx, &key);
            }
            self.arm_timeout(ctx, &key);
        } else {
            self.coalesced += 1;
        }
    }

    /// Deliver one key's answer to one waiter: a client gets its
    /// `QueryReply` immediately; a batch slot fills in, and the batch
    /// replies once its last slot resolves.
    fn answer(
        &mut self,
        ctx: &mut Ctx<'_, NwsMsg>,
        key: &SeriesKey,
        w: Waiter,
        f: &Option<Forecast>,
    ) {
        match w {
            Waiter::Client(c) => {
                NwsMsg::QueryReply { key: key.clone(), forecast: f.clone() }.send(ctx, c);
            }
            Waiter::BatchSlot { batch, slot } => {
                let Some(b) = self.batches.get_mut(&batch) else { return };
                b.answers[slot].1 = f.clone();
                b.remaining -= 1;
                if b.remaining == 0 {
                    let b = self.batches.remove(&batch).expect("pending batch");
                    NwsMsg::QueryBatchReply { id: b.id, forecasts: b.answers }.send(ctx, b.client);
                    self.batches_served += 1;
                }
            }
        }
    }
}

impl Process<NwsMsg> for ForecasterServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let reg = NwsMsg::Register { name: self.name.clone(), kind: ServerKind::Forecaster };
        reg.send(ctx, self.ns);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::Query { key } => {
                self.enqueue(ctx, key, Waiter::Client(from));
            }
            NwsMsg::QueryBatch { id, keys } => {
                if keys.is_empty() {
                    NwsMsg::QueryBatchReply { id, forecasts: Vec::new() }.send(ctx, from);
                    self.batches_served += 1;
                    return;
                }
                let batch = self.next_batch;
                self.next_batch += 1;
                let remaining = keys.len();
                let answers: Vec<(SeriesKey, Option<Forecast>)> =
                    keys.iter().map(|k| (k.clone(), None)).collect();
                self.batches.insert(batch, PendingBatch { client: from, id, answers, remaining });
                // Duplicate keys in one batch share a single-flight entry
                // (and any in-flight fetch from other queries) like every
                // other waiter.
                for (slot, key) in keys.into_iter().enumerate() {
                    self.enqueue(ctx, key, Waiter::BatchSlot { batch, slot });
                }
            }
            NwsMsg::WhereIsReply { key, memory } => match memory {
                Some(mem) => {
                    // No prefix accounting here: the eventual FetchReply
                    // forecast is fresh enough for every waiting client,
                    // including post-lookup joiners, and answers them all.
                    self.state.entry(key.clone()).or_insert_with(Tracked::fresh).memory = Some(mem);
                    self.send_fetch_since(ctx, &key);
                }
                None => {
                    // Unknown series: the negative only answers the waiters
                    // whose query preceded the lookup. Anyone who queued
                    // afterwards re-asks — the series may have been
                    // registered while the reply was in flight.
                    let mut covered = Vec::new();
                    if let Some(w) = self.waiting.get_mut(&key) {
                        for _ in 0..w.asked {
                            let Some(c) = w.waiters.pop_front() else { break };
                            covered.push(c);
                        }
                        if w.waiters.is_empty() {
                            self.waiting.remove(&key);
                            self.clear_timeout(ctx, &key);
                        } else {
                            w.asked = w.waiters.len();
                            self.send_where_is(ctx, &key);
                        }
                    }
                    for c in covered {
                        self.answer(ctx, &key, c, &None);
                    }
                }
            },
            NwsMsg::FetchReply { key, points, latest } => {
                let st = self.state.entry(key.clone()).or_insert_with(Tracked::fresh);
                st.memory = Some(from);
                if st.core.restored_older_than(latest) {
                    // The memory holds *less* than we have already
                    // observed: it was restored to an older state (a crash
                    // lost the unsynced tail). Our battery has consumed
                    // points the store no longer remembers, so the
                    // delta-fetch watermark is a lie — rewind the series
                    // and re-fetch from scratch rather than silently
                    // serving forecasts across the gap. Terminates: after
                    // the rewind, the watermark can never again exceed
                    // `latest`. The timeout stays armed; the full
                    // re-fetch's reply will answer the waiting clients.
                    st.core.rewind();
                    self.rewinds += 1;
                    self.log.log_rewind(&key);
                    self.log.sync();
                    self.send_fetch_since(ctx, &key);
                    return;
                }
                for (t, v) in points {
                    // `observe` takes each point exactly once even from a
                    // duplicate or reordered reply; only the points it
                    // takes are logged (replay fidelity).
                    if st.core.observe(t, v) {
                        self.log.log_observe(&key, t, v);
                    }
                }
                self.log.sync();
                if self.log.needs_compact() {
                    self.log.compact(
                        self.state.iter().map(|(k, s)| (k, s.core.battery(), s.core.last_t())),
                    );
                }
                let forecast = self.state[&key].core.forecast();
                self.clear_timeout(ctx, &key);
                if let Some(w) = self.waiting.remove(&key) {
                    for c in w.waiters {
                        self.answer(ctx, &key, c, &forecast);
                    }
                }
            }
            NwsMsg::Ping => {
                NwsMsg::Pong.send(ctx, from);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NwsMsg>, tag: u64) {
        let Some(key) = self.key_by_tag.remove(&tag) else { return };
        self.timeout_by_key.remove(&key);
        // The series' memory (or the name server) went quiet mid-request.
        // Answer the waiting clients from the persistent battery — a stale
        // prediction beats an error during an outage — then re-resolve the
        // series' home through the directory: a memory restarted by the
        // supervisor re-registers under its new pid, so the lookup heals
        // the cached `Tracked::memory` for the next query.
        let stale = self.state.get(&key).and_then(|st| st.core.forecast()).map(|mut f| {
            f.stale = true;
            f
        });
        if let Some(w) = self.waiting.remove(&key) {
            for c in w.waiters {
                if stale.is_some() {
                    self.stale_served += 1;
                }
                self.answer(ctx, &key, c, &stale);
            }
        }
        if self.state.contains_key(&key) {
            self.send_where_is(ctx, &key);
        }
    }
}

/// A one-shot client: queries one series and stashes the reply.
pub struct Client {
    pub(crate) forecaster: ProcessId,
    pub(crate) key: SeriesKey,
    pub(crate) result: Rc<RefCell<Option<Option<Forecast>>>>,
}

impl Process<NwsMsg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        NwsMsg::Query { key: self.key.clone() }.send(ctx, self.forecaster);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryReply { forecast, .. } = msg {
            *self.result.borrow_mut() = Some(forecast);
        }
    }
}

/// The answer list carried by a `QueryBatchReply`, slot-aligned with the
/// request's keys.
pub type BatchAnswers = Vec<(SeriesKey, Option<Forecast>)>;

/// A one-shot batch client: sends one `QueryBatch` and stashes the reply.
pub struct BatchClient {
    pub(crate) forecaster: ProcessId,
    pub(crate) keys: Vec<SeriesKey>,
    pub(crate) result: Rc<RefCell<Option<BatchAnswers>>>,
}

impl Process<NwsMsg> for BatchClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        NwsMsg::QueryBatch { id: 0, keys: self.keys.clone() }.send(ctx, self.forecaster);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryBatchReply { forecasts, .. } = msg {
            *self.result.borrow_mut() = Some(forecasts);
        }
    }
}
