//! The forecaster process and its query clients: paper §2.1's query path
//! (client → forecaster → name server → memory → forecaster → client) as
//! actors on the simulator.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use netsim::disk::DiskHandle;
use netsim::engine::{Ctx, Process, ProcessId, TimerId};
use netsim::prelude::*;

use crate::forecast::Forecast;
use crate::ids::{IdMap, SeriesId, SeriesTableHandle};
use crate::msg::{NwsMsg, ServerKind};
use crate::persist::ForecastLog;
use crate::series_state::SeriesState;

/// How long an in-flight lookup/fetch may go unanswered before the waiting
/// clients are served from the persistent battery, flagged stale, instead
/// of hanging (outage tolerance).
const QUERY_TIMEOUT_S: f64 = 5.0;

/// One party waiting for a series to resolve: a single-query client (owed a
/// `QueryReply`) or one slot of a pending [`NwsMsg::QueryBatch`].
enum Waiter {
    Client(ProcessId),
    BatchSlot { batch: u64, slot: usize },
}

/// The single-flight table entry for one series: every pending query —
/// single or batched — parks here while at most **one** lookup/fetch
/// round trip is in flight for the series. `asked` is the waiter prefix
/// covered by that round trip; only that prefix may be answered from a
/// negative directory reply — a waiter that queued *after* the `WhereIs`
/// left may be asking about a series registered in the meantime, so its
/// lookup is re-issued instead of reusing the stale negative.
#[derive(Default)]
struct Waiting {
    waiters: VecDeque<Waiter>,
    asked: usize,
}

/// A client's in-progress `QueryBatch`: answer slots fill in as each series
/// resolves (shared with any concurrent single queries through the
/// single-flight table); when `remaining` hits zero, one
/// `QueryBatchReply` carries every slot back.
struct PendingBatch {
    client: ProcessId,
    id: u64,
    answers: Vec<Option<Forecast>>,
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
    /// The shared [`SeriesState`] core of every series queried so far or
    /// recovered from disk.
    cores: IdMap<SeriesState>,
    /// The memory server that stores each series, cached from the first
    /// directory lookup. Absent right after a recovery from disk — pids do
    /// not survive restarts and are not durable state, so a recovered
    /// series re-resolves its home through the name server on the next
    /// query.
    memory: IdMap<ProcessId>,
    waiting: IdMap<Waiting>,
    /// The armed timeout of each series with a request in flight. A
    /// timer's tag is its series' index, which routes `on_timer` back.
    timeouts: IdMap<TimerId>,
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
    /// reach; supervised deployments hand `ForecasterServer::durable`
    /// the host's disk.
    #[cfg(test)]
    pub(crate) fn new(name: &str, ns: ProcessId, ids: &SeriesTableHandle) -> Self {
        Self::durable(
            name,
            ns,
            netsim::disk::SimDisk::new(name),
            crate::persist::DEFAULT_COMPACT_THRESHOLD,
            ids,
        )
    }

    /// Battery state and delta-fetch watermarks are recovered from `disk`
    /// (snapshot + WAL replay, empty disk ⇒ cold start) and every
    /// observation is logged back to it, the log compacting once its WAL
    /// outgrows `compact_threshold` bytes. Memory pids are not part of the
    /// durable state — recovered series re-resolve their memory through
    /// the name server on the next query.
    pub(crate) fn durable(
        name: &str,
        ns: ProcessId,
        disk: DiskHandle,
        compact_threshold: u64,
        ids: &SeriesTableHandle,
    ) -> Self {
        let (cores, mut log) = ForecastLog::recover(disk, "forecaster", ids);
        log.set_compact_threshold(compact_threshold);
        ForecasterServer {
            name: name.to_string(),
            ns,
            cores,
            memory: IdMap::new(),
            waiting: IdMap::new(),
            timeouts: IdMap::new(),
            stale_served: 0,
            coalesced: 0,
            batches_served: 0,
            batches: BTreeMap::new(),
            next_batch: 0,
            rewinds: 0,
            log,
        }
    }

    fn arm_timeout(&mut self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId) {
        if self.timeouts.contains(series) {
            return; // one timeout covers the whole lookup+fetch round trip
        }
        let timer = ctx.set_timer(TimeDelta::from_secs(QUERY_TIMEOUT_S), series.index() as u64);
        self.timeouts.insert(series, timer);
    }

    fn clear_timeout(&mut self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId) {
        if let Some(timer) = self.timeouts.remove(series) {
            ctx.cancel_timer(timer);
        }
    }

    fn send_fetch_since(&self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId) {
        let Some(&memory) = self.memory.get(series) else { return };
        NwsMsg::FetchSince { series, after: self.cores[series].last_t() }.send(ctx, memory);
    }

    fn send_where_is(&self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId) {
        NwsMsg::WhereIs { series }.send(ctx, self.ns);
    }

    /// Park a waiter on `series`, starting a lookup/fetch round trip only
    /// if none is in flight (the single-flight discipline). A known series
    /// goes straight to its memory for the delta; a never-seen series — or
    /// one recovered from disk with no cached memory pid — pays the
    /// directory round trip.
    fn enqueue(&mut self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId, waiter: Waiter) {
        let w = self.waiting.get_or_insert_with(series, Waiting::default);
        w.waiters.push_back(waiter);
        if w.asked == 0 {
            w.asked = w.waiters.len();
            if self.memory.contains(series) {
                self.send_fetch_since(ctx, series);
            } else {
                self.send_where_is(ctx, series);
            }
            self.arm_timeout(ctx, series);
        } else {
            self.coalesced += 1;
        }
    }

    /// Deliver one series' answer to one waiter: a client gets its
    /// `QueryReply` immediately; a batch slot fills in, and the batch
    /// replies once its last slot resolves.
    fn answer(
        &mut self,
        ctx: &mut Ctx<'_, NwsMsg>,
        series: SeriesId,
        w: Waiter,
        f: &Option<Forecast>,
    ) {
        match w {
            Waiter::Client(c) => {
                let forecast = f.clone().map(Box::new);
                NwsMsg::QueryReply { series, forecast }.send(ctx, c);
            }
            Waiter::BatchSlot { batch, slot } => {
                let Some(b) = self.batches.get_mut(&batch) else { return };
                b.answers[slot] = f.clone();
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
            NwsMsg::Query { series } => {
                self.enqueue(ctx, series, Waiter::Client(from));
            }
            NwsMsg::QueryBatch { id, series } => {
                if series.is_empty() {
                    NwsMsg::QueryBatchReply { id, forecasts: Vec::new() }.send(ctx, from);
                    self.batches_served += 1;
                    return;
                }
                let batch = self.next_batch;
                self.next_batch += 1;
                let remaining = series.len();
                let answers = vec![None; remaining];
                self.batches.insert(batch, PendingBatch { client: from, id, answers, remaining });
                // Duplicate series in one batch share a single-flight entry
                // (and any in-flight fetch from other queries) like every
                // other waiter.
                for (slot, s) in series.into_iter().enumerate() {
                    self.enqueue(ctx, s, Waiter::BatchSlot { batch, slot });
                }
            }
            NwsMsg::WhereIsReply { series, memory } => match memory {
                Some(mem) => {
                    // No prefix accounting here: the eventual FetchReply
                    // forecast is fresh enough for every waiting client,
                    // including post-lookup joiners, and answers them all.
                    self.cores.get_or_insert_with(series, SeriesState::fresh);
                    self.memory.insert(series, mem);
                    self.send_fetch_since(ctx, series);
                }
                None => {
                    // Unknown series: the negative only answers the waiters
                    // whose query preceded the lookup. Anyone who queued
                    // afterwards re-asks — the series may have been
                    // registered while the reply was in flight.
                    let mut covered = Vec::new();
                    if let Some(w) = self.waiting.get_mut(series) {
                        for _ in 0..w.asked {
                            let Some(c) = w.waiters.pop_front() else { break };
                            covered.push(c);
                        }
                        if w.waiters.is_empty() {
                            self.waiting.remove(series);
                            self.clear_timeout(ctx, series);
                        } else {
                            w.asked = w.waiters.len();
                            self.send_where_is(ctx, series);
                        }
                    }
                    for c in covered {
                        self.answer(ctx, series, c, &None);
                    }
                }
            },
            NwsMsg::FetchReply { series, points, latest } => {
                self.memory.insert(series, from);
                let core = self.cores.get_or_insert_with(series, SeriesState::fresh);
                if core.restored_older_than(latest) {
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
                    core.rewind();
                    self.rewinds += 1;
                    self.log.log_rewind(series);
                    self.log.sync();
                    self.send_fetch_since(ctx, series);
                    return;
                }
                for (t, v) in points {
                    // `observe` takes each point exactly once even from a
                    // duplicate or reordered reply; only the points it
                    // takes are logged (replay fidelity).
                    if core.observe(t, v) {
                        self.log.log_observe(series, t, v);
                    }
                }
                let forecast = core.forecast();
                self.log.sync();
                if self.log.needs_compact() {
                    let cores = &self.cores;
                    self.log.compact(|id| cores.get(id).map(|s| (s.battery(), s.last_t())));
                }
                self.clear_timeout(ctx, series);
                if let Some(w) = self.waiting.remove(series) {
                    for c in w.waiters {
                        self.answer(ctx, series, c, &forecast);
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
        let series = SeriesId::from_index(tag as usize);
        if self.timeouts.remove(series).is_none() {
            return;
        }
        // The series' memory (or the name server) went quiet mid-request.
        // Answer the waiting clients from the persistent battery — a stale
        // prediction beats an error during an outage — then re-resolve the
        // series' home through the directory: a memory restarted by the
        // supervisor re-registers under its new pid, so the lookup heals
        // the cached memory pid for the next query.
        let stale = self.cores.get(series).and_then(SeriesState::forecast).map(|mut f| {
            f.stale = true;
            f
        });
        if let Some(w) = self.waiting.remove(series) {
            for c in w.waiters {
                if stale.is_some() {
                    self.stale_served += 1;
                }
                self.answer(ctx, series, c, &stale);
            }
        }
        if self.cores.contains(series) {
            self.send_where_is(ctx, series);
        }
    }
}

/// A one-shot client: queries one series and stashes the reply.
pub struct Client {
    pub(crate) forecaster: ProcessId,
    pub(crate) series: SeriesId,
    pub(crate) result: Rc<RefCell<Option<Option<Forecast>>>>,
}

impl Process<NwsMsg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        NwsMsg::Query { series: self.series }.send(ctx, self.forecaster);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryReply { forecast, .. } = msg {
            *self.result.borrow_mut() = Some(forecast.map(|f| *f));
        }
    }
}

/// The answer list carried by a `QueryBatchReply`, slot-aligned with the
/// request's series.
pub type BatchAnswers = Vec<Option<Forecast>>;

/// A one-shot batch client: sends one `QueryBatch` and stashes the reply.
pub struct BatchClient {
    pub(crate) forecaster: ProcessId,
    pub(crate) series: Vec<SeriesId>,
    pub(crate) result: Rc<RefCell<Option<BatchAnswers>>>,
}

impl Process<NwsMsg> for BatchClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let series = std::mem::take(&mut self.series);
        NwsMsg::QueryBatch { id: 0, series }.send(ctx, self.forecaster);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
        if let NwsMsg::QueryBatchReply { forecasts, .. } = msg {
            *self.result.borrow_mut() = Some(forecasts);
        }
    }
}
