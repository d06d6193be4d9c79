//! The discrete-event engine: simulated clock, event queue, fluid flows and
//! actor processes.
//!
//! Flows do not schedule their own completion events — their rates change
//! whenever the active flow set changes. Instead the main loop interleaves
//! queued events with the earliest flow completion under the *current*
//! max-min allocation, draining transferred bytes as time advances. This is
//! the standard fluid-simulation approach and keeps every observable
//! deterministic: BTreeMap iteration orders flows by id, the queue breaks
//! time ties by insertion sequence.
//!
//! Processes ([`Process`]) are single-threaded actors pinned to a host.
//! They react to messages, timers and the completion of flows they own,
//! through a [`Ctx`] handle that exposes the engine's services. The NWS
//! crate builds its four server kinds (sensor, memory, forecaster, name
//! server) on this interface.

use std::any::Any;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::error::{NetError, NetResult};
use crate::fairness::{FairEngine, FairnessModel, ResourceId, ResourceTable};
use crate::faults::LossModel;
use crate::flow::{FlowId, FlowOutcome};
use crate::name::FixedState;
use crate::routing::RouteTable;
use crate::time::{SimTime, TimeDelta};
use crate::topology::{NodeId, Topology};
use crate::units::Bytes;

/// Identifier of a process (actor) registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index — only meaningful for ids handed out by
    /// an [`Engine`]; exposed for downstream test fixtures.
    pub fn from_raw(raw: u32) -> Self {
        ProcessId(raw)
    }
}

/// Identifier of a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Message type for simulations that never exchange messages (probe-only
/// use). Uninhabited, so dead branches compile away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoMsg {}

/// An actor running on a simulated host.
///
/// All callbacks receive a [`Ctx`] for interacting with the engine. Default
/// implementations ignore the event, so implementors override only what
/// they need.
#[expect(unused_variables, reason = "default callbacks ignore their arguments")]
pub trait Process<M> {
    /// Called once when the simulation starts (or when the process is added
    /// to a running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {}

    /// A message from another process has been delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M) {}

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {}

    /// A flow started by this process completed (ack received).
    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_, M>, outcome: &FlowOutcome) {}

    /// A message this process sent could not be delivered (firewall or
    /// disconnection).
    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, M>, to: ProcessId, err: &NetError) {}

    /// This process as [`Any`], so a caller holding [`Engine::process`] can
    /// downcast to the concrete type and read its state between events.
    /// `None` (the default) keeps the process opaque.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// Statistics counters, exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    pub events_processed: u64,
    pub flows_started: u64,
    pub messages_sent: u64,
    pub bytes_transferred: f64,
    /// Control messages silently lost by the fault plane (see
    /// [`crate::faults`]). Zero unless a fault seed is armed.
    pub messages_dropped: u64,
    /// Extra copies injected by the fault plane.
    pub messages_duplicated: u64,
}

#[derive(Debug)]
struct ActiveFlow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    bytes: Bytes,
    /// Bytes left to drain as of `updated_at`. Flows drain *lazily*: the
    /// count is only materialised when the flow's rate changes, so steady
    /// clock advances touch no per-flow state.
    remaining: f64,
    updated_at: SimTime,
    /// Current allocated rate in bytes/sec (mirror of the fairness
    /// engine's committed rate; kept here for drain materialisation).
    rate: f64,
    started: SimTime,
    /// One-way forward + return latency, added after drain for the ack.
    ack_latency: TimeDelta,
    owner: Option<ProcessId>,
    tag: u64,
    /// Bumped on every rate change. Completion-heap entries carry the value
    /// they were pushed with, so stale projections are recognised and
    /// discarded lazily instead of being searched for and removed.
    push_seq: u32,
}

/// A projected flow completion. Entries are never removed eagerly: a rate
/// change bumps the flow's `push_seq`, invalidating every older entry.
#[derive(Debug, Clone, Copy)]
struct CompEntry {
    at: SimTime,
    id: FlowId,
    /// Fairness-engine key (= flow slot index) for O(1) validation.
    key: u32,
    seq: u32,
}

impl PartialEq for CompEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}

impl Eq for CompEntry {}

impl Ord for CompEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for the max-heap: earliest completion first, ties broken
        // by flow id ascending (the order the old linear scan returned).
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for CompEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

enum EventKind<M> {
    Start { pid: ProcessId },
    Deliver { from: ProcessId, to: ProcessId, msg: M },
    Timer { to: ProcessId, timer: TimerId, tag: u64 },
    FlowAck { flow: FlowId },
}

struct QEntry<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for QEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for QEntry<M> {}

impl<M> Ord for QEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for QEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything in the engine except the boxed processes; split out so a
/// process callback can borrow the core mutably through [`Ctx`] while its
/// own box is temporarily detached.
pub struct Core<M> {
    /// Shared snapshot of the platform. Workers mapping in parallel hold
    /// clones of the same `Arc`s; mutation goes through copy-on-write
    /// ([`Engine::topo_mut`]), so a worker's snapshot is never changed
    /// under it.
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<QEntry<M>>,
    /// Flow id → fairness-engine key (also the `flow_slots` index).
    flows: BTreeMap<FlowId, u32>,
    /// Active flow state, indexed by fairness-engine key. Slots are
    /// recycled by the fairness engine's freelist.
    flow_slots: Vec<Option<ActiveFlow>>,
    /// The incremental allocator: interned resources, per-resource user
    /// counts, reusable scratch (see `fairness::FairEngine`).
    fair: FairEngine,
    /// Projected completions (lazy deletion; see [`CompEntry`]).
    completions: BinaryHeap<CompEntry>,
    /// Sum of all active flow rates, maintained incrementally so clock
    /// advances update transfer stats in O(1) instead of O(flows).
    total_rate: f64,
    /// The flow set changed since the rates were last computed (see
    /// [`Core::settle`]).
    stale: bool,
    /// Reusable buffer for interned path extraction at flow start.
    res_scratch: Vec<ResourceId>,
    next_flow: u64,
    next_timer: u64,
    finished: HashMap<FlowId, FlowOutcome, FixedState>,
    cancelled_timers: HashSet<TimerId, FixedState>,
    proc_nodes: Vec<NodeId>,
    /// TCP window used to cap flow rates at `window / RTT`; `None` models
    /// well-tuned transfers that are never window-limited.
    tcp_window: Option<Bytes>,
    stats: EngineStats,
    /// Owners of drained-but-not-yet-acked flows, so the ack event can
    /// notify them. `None` entries are probe flows.
    owner_of_finished: HashMap<FlowId, Option<ProcessId>, FixedState>,
    /// Last scheduled delivery per (sender, receiver): control messages
    /// between two processes are FIFO, like the TCP connections real NWS
    /// servers keep open (a short message must not overtake a longer one
    /// sent earlier). Entries of killed processes are pruned in
    /// [`Engine::kill_process`] so crash/restart churn cannot grow the map
    /// unboundedly.
    last_delivery: HashMap<(ProcessId, ProcessId), SimTime, FixedState>,
    /// Fault plane (see [`crate::faults`]): armed by
    /// [`Engine::set_fault_seed`]. While armed, every cross-node send
    /// draws a fixed number of uniforms so the stream stays a function of
    /// the message sequence alone.
    fault_rng: Option<SmallRng>,
    /// Engine-wide loss model applied to every cross-node message.
    default_loss: Option<LossModel>,
}

impl<M> Core<M> {
    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QEntry { time, seq, kind });
    }

    /// Advance the clock to instant `t`. Flows drain lazily (their
    /// `remaining` is only materialised on rate changes), so this is O(1):
    /// the transfer statistic advances by the maintained aggregate rate.
    fn advance_to(&mut self, t: SimTime) {
        let dt = t.since(self.now).as_secs();
        if dt > 0.0 && self.total_rate > 0.0 {
            self.stats.bytes_transferred += self.total_rate * dt;
        }
        self.now = t;
    }

    /// Bring the rates up to date with the flow set, once however many
    /// flows started or completed at this instant: an allocation that holds
    /// for dt = 0 carries no bytes, so only the last one at an instant is
    /// observable. Runs before the clock moves or a completion is read, and
    /// before anything a pending re-level depends on (capacities, the
    /// sharing model) is changed.
    fn settle(&mut self) {
        if std::mem::take(&mut self.stale) {
            self.reallocate();
        }
    }

    /// Recompute the fair allocation for the current flow set. Only flows
    /// whose rate actually changed are touched: their drain is
    /// materialised under the old rate, the aggregate rate is adjusted,
    /// and a fresh completion projection is pushed (invalidating older
    /// heap entries via `push_seq`). Steady-state cost: O(changed), zero
    /// heap allocation.
    fn reallocate(&mut self) {
        let now = self.now;
        self.fair.reallocate();
        for i in 0..self.fair.changed().len() {
            let key = self.fair.changed()[i];
            let new_rate = self.fair.rate(key);
            let f =
                self.flow_slots[key as usize].as_mut().expect("changed key refers to a live flow");
            // Materialise the drain accrued under the old rate.
            let dt = now.since(f.updated_at).as_secs();
            if dt > 0.0 {
                f.remaining -= f.rate * dt;
            }
            f.updated_at = now;
            self.total_rate += new_rate - f.rate;
            f.rate = new_rate;
            f.push_seq = f.push_seq.wrapping_add(1);
            if new_rate > 0.0 {
                let at = now + TimeDelta::from_secs((f.remaining / new_rate).max(0.0));
                self.completions.push(CompEntry { at, id: f.id, key, seq: f.push_seq });
            }
        }
        if self.flows.is_empty() {
            // Clear any accumulated floating-point drift while idle, and
            // drop every (necessarily stale) completion projection: a
            // long-lived engine driving scenario after scenario must not
            // carry dead-heap baggage between them.
            self.total_rate = 0.0;
            self.completions.clear();
        }
        // Bound the lazy-deletion heap absolutely: entries superseded deep
        // in the heap (projected far in the future while a flow was
        // near-stalled) are otherwise only discarded on reaching the top.
        // Each live flow has at most one current entry, so more than
        // 2× live entries means at least half the heap is stale — rebuild
        // in place (amortised O(1) per push). The small floor only stops
        // tiny heaps from rebuilding on every call; unlike the previous
        // 64-entry floor it keeps the bound tight even when the live-flow
        // count stays small across long engine reuse.
        if self.completions.len() > 8 && self.completions.len() > 2 * self.flows.len() {
            let mut entries = std::mem::take(&mut self.completions).into_vec();
            entries.retain(|e| Self::completion_valid(&self.flow_slots, e));
            // From<Vec> heapifies in place — no allocation.
            self.completions = BinaryHeap::from(entries);
        }
    }

    /// The lazy-deletion invariant: a heap entry is current iff its slot
    /// still holds the same flow (recycled slots change `id`) at the same
    /// `push_seq` (rate changes bump it).
    fn completion_valid(flow_slots: &[Option<ActiveFlow>], e: &CompEntry) -> bool {
        flow_slots
            .get(e.key as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|f| f.id == e.id && f.push_seq == e.seq)
    }

    /// Earliest instant at which some active flow finishes draining, under
    /// current rates. Pops stale heap entries (superseded projections and
    /// completed flows) and peeks the first valid one — amortised
    /// O(log flows) against the old O(flows) scan per event.
    fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        while let Some(top) = self.completions.peek() {
            if Self::completion_valid(&self.flow_slots, top) {
                return Some((top.at, top.id));
            }
            self.completions.pop();
        }
        None
    }

    fn start_flow_inner(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
        owner: Option<ProcessId>,
        tag: u64,
    ) -> NetResult<FlowId> {
        if bytes == Bytes::ZERO {
            return Err(NetError::EmptyTransfer);
        }
        if src == dst {
            return Err(NetError::SelfProbe(src));
        }
        self.topo.try_node(src)?;
        self.topo.try_node(dst)?;
        if !self.topo.allows(src, dst) {
            return Err(NetError::Firewalled { src, dst });
        }
        // Interned path extraction: walk both directions without building a
        // `Path`, accumulating latency and (forward only) resource ids into
        // the reusable scratch buffer.
        let mut res = std::mem::take(&mut self.res_scratch);
        res.clear();
        let mut fwd_secs = 0.0;
        let mut back_secs = 0.0;
        let walk = (|| -> NetResult<()> {
            for (from, l) in self.routes.hops_rev(&self.topo, src, dst)? {
                let link = self.topo.link(l);
                fwd_secs += link.latency.as_secs();
                res.push(self.fair.table().link_dir(l, link.a == from));
            }
            for (_, l) in self.routes.hops_rev(&self.topo, dst, src)? {
                back_secs += self.topo.link(l).latency.as_secs();
            }
            Ok(())
        })();
        if let Err(e) = walk {
            self.res_scratch = res;
            return Err(e);
        }
        res.sort_unstable();
        res.dedup();
        let ack_latency = TimeDelta::from_secs(fwd_secs + back_secs);
        let rate_cap = self.tcp_window.map(|w| {
            let rtt = (fwd_secs + back_secs).max(1e-9);
            w.as_f64() / rtt
        });

        let key = self.fair.add_flow(&res, rate_cap);
        self.res_scratch = res;
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        if self.flow_slots.len() <= key as usize {
            self.flow_slots.resize_with(key as usize + 1, || None);
        }
        self.flow_slots[key as usize] = Some(ActiveFlow {
            id,
            src,
            dst,
            bytes,
            remaining: bytes.as_f64(),
            updated_at: self.now,
            rate: 0.0,
            started: self.now,
            ack_latency,
            owner,
            tag,
            push_seq: 0,
        });
        self.flows.insert(id, key);
        self.stats.flows_started += 1;
        self.stale = true;
        Ok(id)
    }

    /// Complete a drained flow: record its outcome skeleton and schedule
    /// the ack event.
    fn complete_flow(&mut self, id: FlowId) {
        let key = self.flows.remove(&id).expect("completing unknown flow");
        let f = self.flow_slots[key as usize].take().expect("completing empty slot");
        self.fair.remove_flow(key);
        self.total_rate -= f.rate;
        let outcome = FlowOutcome {
            id,
            src: f.src,
            dst: f.dst,
            bytes: f.bytes,
            tag: f.tag,
            started: f.started,
            drained: self.now,
            acked: self.now + f.ack_latency, // finalized on ack delivery
        };
        self.finished.insert(id, outcome);
        let ack_at = self.now + f.ack_latency;
        // Stash the owner in the event via the finished map; FlowAck will
        // look it up.
        self.owner_of_finished.insert(id, f.owner);
        self.push_event(ack_at, EventKind::FlowAck { flow: id });
        self.stale = true;
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    pub fn process_node(&self, pid: ProcessId) -> NodeId {
        self.proc_nodes[pid.index()]
    }

    /// The recorded outcome of a completed flow, if it has been acked.
    pub fn outcome(&self, id: FlowId) -> Option<&FlowOutcome> {
        self.finished.get(&id)
    }
}

/// The simulation engine. Generic over the message type `M` exchanged by
/// processes; use [`NoMsg`] (alias [`Sim`]) when only probes are needed.
pub struct Engine<M> {
    core: Core<M>,
    procs: Vec<Option<Box<dyn Process<M>>>>,
}

/// Probe-only simulator alias.
pub type Sim = Engine<NoMsg>;

/// Handle given to process callbacks for interacting with the engine.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    me: ProcessId,
}

impl<'a, M> Ctx<'a, M> {
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The host this process runs on.
    pub fn my_node(&self) -> NodeId {
        self.core.proc_nodes[self.me.index()]
    }

    pub fn topo(&self) -> &Topology {
        &self.core.topo
    }

    pub fn node_of(&self, pid: ProcessId) -> NodeId {
        self.core.proc_nodes[pid.index()]
    }

    /// Send a control message to another process. Delivery takes the
    /// one-way path latency plus serialization at the path bottleneck;
    /// control messages are small and do not compete with bulk flows.
    ///
    /// When a fault plane is armed ([`Engine::set_fault_seed`]) cross-node
    /// messages are subject to the active [`LossModel`]s: a dropped
    /// message vanishes silently (`Ok` is still returned — the sender
    /// learns nothing, like a UDP datagram lost in flight), a duplicated
    /// message delivers an extra copy that bypasses the per-pair FIFO
    /// clamp (so it may arrive reordered), and jitter delays delivery
    /// before the FIFO clamp (so the pair stream stays ordered).
    pub fn send(&mut self, to: ProcessId, bytes: Bytes, msg: M) -> NetResult<()>
    where
        M: Clone,
    {
        let src = self.my_node();
        let dst = *self.core.proc_nodes.get(to.index()).ok_or(NetError::UnknownProcess(to.0))?;
        self.core.stats.messages_sent += 1;
        if src == dst {
            // Local delivery never traverses a link: the fault plane does
            // not apply (and draws nothing, keeping the random stream a
            // function of cross-node traffic only).
            let mut at = self.core.now;
            if let Some(prev) = self.core.last_delivery.get(&(self.me, to)) {
                if *prev > at {
                    at = *prev;
                }
            }
            self.core.last_delivery.insert((self.me, to), at);
            self.core.push_event(at, EventKind::Deliver { from: self.me, to, msg });
            return Ok(());
        }
        if !self.core.topo.allows(src, dst) {
            return Err(NetError::Firewalled { src, dst });
        }
        let (lat, bw) = self.core.routes.latency_and_bottleneck(&self.core.topo, src, dst)?;
        let bw = bw.as_bytes_per_sec().max(1.0);
        let mut at = self.core.now + TimeDelta::from_secs(lat.as_secs() + bytes.as_f64() / bw);
        // Fault plane: fixed draw count per send (drop, dup, jitter,
        // dup-delay) so the consumed stream is deterministic regardless of
        // which faults fire.
        let mut duplicate_at = None;
        if let Some(rng) = self.core.fault_rng.as_mut() {
            let r_drop = rng.next_f64();
            let r_dup = rng.next_f64();
            let r_jit = rng.next_f64();
            let r_dup_delay = rng.next_f64();
            let eff = self.core.default_loss.unwrap_or(LossModel::NONE);
            if !eff.is_none() {
                if r_drop < eff.drop_p {
                    // Silent loss: no delivery, no FIFO update, the sender
                    // is not told (recovery is the protocol layer's job).
                    self.core.stats.messages_dropped += 1;
                    return Ok(());
                }
                let jitter = eff.jitter.as_secs();
                if jitter > 0.0 {
                    at += TimeDelta::from_secs(jitter * r_jit);
                }
                if r_dup < eff.dup_p {
                    // The copy takes an independently jittered path and
                    // does not advance the FIFO clamp: it may overtake or
                    // trail later messages, exercising receiver dedup.
                    duplicate_at = Some(at + TimeDelta::from_secs(jitter * r_dup_delay));
                }
            }
        }
        // FIFO per process pair: model the ordered TCP connection.
        if let Some(prev) = self.core.last_delivery.get(&(self.me, to)) {
            if *prev > at {
                at = *prev;
            }
        }
        self.core.last_delivery.insert((self.me, to), at);
        if let Some(dup_at) = duplicate_at {
            self.core.stats.messages_duplicated += 1;
            let copy = msg.clone();
            self.core.push_event(dup_at, EventKind::Deliver { from: self.me, to, msg: copy });
        }
        self.core.push_event(at, EventKind::Deliver { from: self.me, to, msg });
        Ok(())
    }

    /// Start a bulk transfer owned by this process; `on_flow_complete`
    /// fires when the ack returns.
    pub fn start_flow(&mut self, dst: NodeId, bytes: Bytes, tag: u64) -> NetResult<FlowId> {
        let src = self.my_node();
        self.core.start_flow_inner(src, dst, bytes, Some(self.me), tag)
    }

    /// Arm a one-shot timer; `on_timer` fires with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: TimeDelta, tag: u64) -> TimerId {
        let timer = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        let at = self.core.now + delay;
        self.core.push_event(at, EventKind::Timer { to: self.me, timer, tag });
        timer
    }

    /// Cancel a pending timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.core.cancelled_timers.insert(timer);
    }

    /// Measured RTT estimate from the routing tables (a cheap local
    /// computation, *not* a probe — sensors use flows for real probes).
    pub fn static_rtt(&self, dst: NodeId) -> NetResult<TimeDelta> {
        let src = self.my_node();
        let fwd = self.core.routes.latency(&self.core.topo, src, dst)?;
        let back = self.core.routes.latency(&self.core.topo, dst, src)?;
        Ok(TimeDelta::from_secs(fwd.as_secs() + back.as_secs()))
    }
}

impl<M> Engine<M> {
    /// Build an engine over a validated topology. Routes are computed once
    /// here; call [`Engine::recompute_routes`] after link state changes.
    pub fn new(topo: Topology) -> Self {
        let routes = RouteTable::compute(&topo);
        Self::from_snapshot(Arc::new(topo), Arc::new(routes))
    }

    /// Build an engine over an existing shared (topology, routes) snapshot
    /// without recomputing routes. Interns the topology's resources — one
    /// pass over its links and mediums, reading every capacity — so a caller
    /// standing up many engines on one snapshot interns once and uses
    /// [`Engine::from_parts`]. The snapshot is immutable-by-contract:
    /// [`Engine::topo_mut`] and [`Engine::recompute_routes`] copy what they
    /// change, so sibling engines sharing the `Arc`s are unaffected.
    pub fn from_snapshot(topo: Arc<Topology>, routes: Arc<RouteTable>) -> Self {
        let table = Arc::new(ResourceTable::new(&topo));
        Self::from_parts(topo, routes, table)
    }

    /// [`Engine::from_snapshot`] over resources interned from `topo`
    /// beforehand and shared like the rest of the snapshot — the per-job
    /// entry point of the parallel mapper. Cost is the allocator's zeroed
    /// per-resource arrays.
    pub fn from_parts(
        topo: Arc<Topology>,
        routes: Arc<RouteTable>,
        table: Arc<ResourceTable>,
    ) -> Self {
        assert!(table.covers(&topo), "resource table interned from another topology");
        let fair = FairEngine::with_table(table, FairnessModel::default());
        Engine {
            core: Core {
                topo,
                routes,
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                flows: BTreeMap::new(),
                flow_slots: Vec::new(),
                fair,
                completions: BinaryHeap::new(),
                total_rate: 0.0,
                stale: false,
                res_scratch: Vec::new(),
                next_flow: 0,
                next_timer: 0,
                finished: HashMap::default(),
                cancelled_timers: HashSet::default(),
                proc_nodes: Vec::new(),
                tcp_window: None,
                stats: EngineStats::default(),
                owner_of_finished: HashMap::default(),
                last_delivery: HashMap::default(),
                fault_rng: None,
                default_loss: None,
            },
            procs: Vec::new(),
        }
    }

    /// Cap flow rates at `window / RTT` (TCP window modelling). `None`
    /// disables the cap (default).
    pub fn set_tcp_window(&mut self, window: Option<Bytes>) {
        self.core.tcp_window = window;
    }

    /// Select the bandwidth-sharing model (ablation hook; max-min default).
    /// Takes effect on the next flow-set change: a re-level still owed to
    /// earlier starts runs first, under the model they started with.
    pub fn set_fairness_model(&mut self, model: FairnessModel) {
        self.core.settle();
        self.core.fair.set_model(model);
    }

    /// Arm the fault plane with a dedicated seed (see [`crate::faults`]).
    /// Until armed, sends never consult the loss models and draw nothing.
    /// Re-arming resets the stream, so a run is reproducible from any
    /// checkpoint that re-seeds.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.core.fault_rng = Some(SmallRng::seed_from_u64(seed ^ 0x10_55_1e_af));
    }

    /// Engine-wide loss model applied to every cross-node control message.
    /// `None` clears it.
    pub fn set_default_loss(&mut self, model: Option<LossModel>) {
        self.core.default_loss = model;
    }

    /// Register a process on a host. Its `on_start` runs when the engine
    /// next processes events.
    pub fn add_process(&mut self, node: NodeId, proc_: Box<dyn Process<M>>) -> ProcessId {
        let pid = ProcessId(self.core.proc_nodes.len() as u32);
        self.core.proc_nodes.push(node);
        self.procs.push(Some(proc_));
        let now = self.core.now;
        self.core.push_event(now, EventKind::Start { pid });
        pid
    }

    /// Start an ownerless flow (used by the probe API).
    pub fn start_probe_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
    ) -> NetResult<FlowId> {
        self.core.start_flow_inner(src, dst, bytes, None, 0)
    }

    /// Kill a process: it stops receiving events immediately (failure
    /// injection — e.g. a crashed NWS sensor whose clique must recover its
    /// token). Messages already in flight to it bounce back to their
    /// senders as [`Process::on_send_failed`] (the TCP-RST analog); its
    /// FIFO clamp entries are pruned so crash/restart churn cannot grow
    /// `last_delivery` unboundedly.
    pub fn kill_process(&mut self, pid: ProcessId) {
        if let Some(slot) = self.procs.get_mut(pid.index()) {
            *slot = None;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "D2: retain's predicate is pure, so the surviving set is visit-order-independent"
        )]
        self.core.last_delivery.retain(|&(s, r), _| s != pid && r != pid);
    }

    /// Number of live `(sender, receiver)` FIFO clamp entries
    /// (diagnostics: the crash-churn regression test asserts pruning).
    pub fn last_delivery_len(&self) -> usize {
        self.core.last_delivery.len()
    }

    /// The live process behind `pid`, for inspection between events; `None`
    /// once it was killed (or for an id this engine never handed out).
    pub fn process(&self, pid: ProcessId) -> Option<&dyn Process<M>> {
        self.procs.get(pid.index())?.as_deref()
    }

    /// Whether a process is still alive.
    pub fn process_alive(&self, pid: ProcessId) -> bool {
        self.procs.get(pid.index()).map(|s| s.is_some()).unwrap_or(false)
    }

    pub fn now(&self) -> SimTime {
        self.core.now
    }

    pub fn topo(&self) -> &Topology {
        &self.core.topo
    }

    /// Mutable topology access for failure injection; routes must be
    /// recomputed afterwards. Copy-on-write: if the topology snapshot is
    /// shared with other engines (parallel mapping workers), the first
    /// mutation clones it — sharers keep the platform they started with.
    pub fn topo_mut(&mut self) -> &mut Topology {
        self.core.settle();
        Arc::make_mut(&mut self.core.topo)
    }

    /// The shared (topology, routes) snapshot — cheap `Arc` clones for
    /// standing up per-worker engines via [`Engine::from_snapshot`].
    pub fn snapshot(&self) -> (Arc<Topology>, Arc<RouteTable>) {
        (Arc::clone(&self.core.topo), Arc::clone(&self.core.routes))
    }

    pub fn recompute_routes(&mut self) {
        self.core.settle();
        self.core.routes = Arc::new(RouteTable::compute(&self.core.topo));
        // Capacity mutations through topo_mut() must reach the interned
        // tables too; like the old from-scratch allocator, they take
        // effect on the next reallocation. Structural growth (hosts and
        // access links appended by the churn mutators) extends the interned
        // tables in place — resource ids are append-stable, so flows in
        // flight keep their resource lists and this is safe mid-traffic.
        self.core.fair.sync_topology(&self.core.topo);
    }

    pub fn routes(&self) -> &RouteTable {
        &self.core.routes
    }

    pub fn stats(&self) -> EngineStats {
        self.core.stats
    }

    pub fn outcome(&self, id: FlowId) -> Option<&FlowOutcome> {
        self.core.finished.get(&id)
    }

    pub fn active_flow_count(&self) -> usize {
        self.core.flows.len()
    }

    /// Current size of the lazy-deletion completion heap, stale entries
    /// included (diagnostics; the churn regression test samples this while
    /// flows are live, asserting the prune keeps it near
    /// `max(8, 2 × live flows)`, and checks it reads 0 once idle).
    pub fn completion_heap_len(&self) -> usize {
        self.core.completions.len()
    }

    pub fn process_node(&self, pid: ProcessId) -> NodeId {
        self.core.proc_nodes[pid.index()]
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Start { pid } => {
                self.with_proc(pid, |p, ctx| p.on_start(ctx));
            }
            EventKind::Deliver { from, to, msg } => {
                let alive = self.procs.get(to.index()).is_some_and(|s| s.is_some());
                if alive {
                    self.with_proc(to, |p, ctx| p.on_message(ctx, from, msg));
                } else {
                    // The receiver died with the message in flight: notify
                    // the sender (the connection-reset a real NWS server
                    // would see) instead of losing the send silently.
                    let err = NetError::UnknownProcess(to.0);
                    self.with_proc(from, |p, ctx| p.on_send_failed(ctx, to, &err));
                }
            }
            EventKind::Timer { to, timer, tag } => {
                if self.core.cancelled_timers.remove(&timer) {
                    return;
                }
                self.with_proc(to, |p, ctx| p.on_timer(ctx, tag));
            }
            EventKind::FlowAck { flow } => {
                // Finalize the ack timestamp, then notify the owner.
                if let Some(o) = self.core.finished.get_mut(&flow) {
                    o.acked = self.core.now;
                }
                if let Some(Some(owner)) = self.core.owner_of_finished.remove(&flow) {
                    let outcome = self.core.finished[&flow].clone();
                    self.with_proc(owner, |p, ctx| p.on_flow_complete(ctx, &outcome));
                }
            }
        }
    }

    fn with_proc<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Ctx<'_, M>),
    {
        let Some(slot) = self.procs.get_mut(pid.index()) else { return };
        let Some(mut proc_) = slot.take() else { return };
        {
            let mut ctx = Ctx { core: &mut self.core, me: pid };
            f(proc_.as_mut(), &mut ctx);
        }
        self.procs[pid.index()] = Some(proc_);
    }

    /// Process one step (the earliest event or flow completion). Returns
    /// false when nothing remains.
    fn step(&mut self, limit: SimTime) -> bool {
        self.core.settle();
        let t_ev = self.core.queue.peek().map(|e| e.time);
        let t_flow = self.core.next_completion();
        match (t_ev, t_flow) {
            (None, None) => false,
            (ev, flow) => {
                let tf = flow.map(|(t, _)| t);
                // Flow completions win ties so capacity frees before
                // same-instant events run.
                let use_flow = match (tf, ev) {
                    (Some(tf), Some(te)) => tf <= te,
                    (Some(_), None) => true,
                    _ => false,
                };
                if use_flow {
                    let (t, id) = flow.expect("checked above");
                    if t > limit {
                        self.core.advance_to(limit);
                        return false;
                    }
                    self.core.advance_to(t);
                    self.core.complete_flow(id);
                } else {
                    let te = ev.expect("checked above");
                    if te > limit {
                        self.core.advance_to(limit);
                        return false;
                    }
                    self.core.advance_to(te);
                    let entry = self.core.queue.pop().expect("peeked above");
                    self.core.stats.events_processed += 1;
                    self.dispatch(entry.kind);
                }
                true
            }
        }
    }

    /// Run until the clock reaches `until` (events at exactly `until` are
    /// processed).
    pub fn run_until(&mut self, until: SimTime) {
        while self.step(until) {}
        if self.core.now < until {
            self.core.advance_to(until);
        }
    }

    /// Run until no events or flows remain. Errors if the horizon passes
    /// first (a liveness guard against runaway simulations).
    pub fn run_until_quiescent(&mut self, horizon: TimeDelta) -> NetResult<SimTime> {
        let limit = self.core.now + horizon;
        while self.step(limit) {}
        if self.core.queue.is_empty() && self.core.flows.is_empty() {
            Ok(self.core.now)
        } else {
            Err(NetError::HorizonExceeded { horizon_secs: horizon.as_secs() })
        }
    }

    /// Run until all listed flows have been acked (their outcomes are
    /// available). Other events keep being processed meanwhile.
    pub fn run_until_flows_done(&mut self, flows: &[FlowId], horizon: TimeDelta) -> NetResult<()> {
        let limit = self.core.now + horizon;
        // An acked flow stays acked, so the flows before `next` are never
        // looked at again.
        let mut next = 0;
        loop {
            while flows.get(next).is_some_and(|f| {
                self.core.finished.contains_key(f) && !self.core.owner_of_finished.contains_key(f)
            }) {
                next += 1;
            }
            if next == flows.len() {
                return Ok(());
            }
            if !self.step(limit) {
                return Err(NetError::HorizonExceeded { horizon_secs: horizon.as_secs() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkMode, TopologyBuilder};
    use crate::units::{Bandwidth, Latency};

    fn two_hosts_hub() -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        (b.build().unwrap(), a, c)
    }

    #[test]
    fn single_flow_completes_with_correct_duration() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let f = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f], TimeDelta::from_secs(60.0)).unwrap();
        let o = e.outcome(f).unwrap();
        // 1 MiB at 12.5 MB/s = 0.0839 s, plus 4*50us latency.
        let expect = 1024.0 * 1024.0 / 12_500_000.0 + 4.0 * 50e-6;
        assert!((o.duration().as_secs() - expect).abs() < 1e-6);
        assert!(o.throughput().as_mbps() > 99.0 && o.throughput().as_mbps() < 100.0);
    }

    #[test]
    fn concurrent_hub_flows_halve() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(10.0));
        let hosts: Vec<NodeId> = (0..4)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        let mut e: Sim = Engine::new(b.build().unwrap());
        let f1 = e.start_probe_flow(hosts[0], hosts[1], Bytes::mib(1)).unwrap();
        let f2 = e.start_probe_flow(hosts[2], hosts[3], Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f1, f2], TimeDelta::from_secs(60.0)).unwrap();
        let bw1 = e.outcome(f1).unwrap().throughput().as_mbps();
        let bw2 = e.outcome(f2).unwrap().throughput().as_mbps();
        assert!((bw1 - 50.0).abs() < 1.0, "got {bw1}");
        assert!((bw2 - 50.0).abs() < 1.0, "got {bw2}");
    }

    #[test]
    fn staggered_flows_share_then_speed_up() {
        // Start one flow; halfway through, start a second; the first's
        // total duration reflects the shared phase.
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let f1 = e.start_probe_flow(a, c, Bytes::mib(10)).unwrap();
        e.run_until(SimTime::from_secs(0.4)); // ~48% drained
        let f2 = e.start_probe_flow(c, a, Bytes::mib(10)).unwrap();
        e.run_until_flows_done(&[f1, f2], TimeDelta::from_secs(60.0)).unwrap();
        let d1 = e.outcome(f1).unwrap().duration().as_secs();
        let d2 = e.outcome(f2).unwrap().duration().as_secs();
        // Alone, 10 MiB takes ~0.839 s. f1: 0.4 s alone, then shares.
        assert!(d1 > 0.9, "f1 must be slowed by sharing, got {d1}");
        assert!(d2 > d1 - 0.4, "f2 shares its whole life, got {d2}");
    }

    #[test]
    fn firewall_blocks_flow() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(10.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        b.firewall_deny_between(&[a], &[c]);
        let mut e: Sim = Engine::new(b.build().unwrap());
        assert!(matches!(
            e.start_probe_flow(a, c, Bytes::kib(64)),
            Err(NetError::Firewalled { .. })
        ));
    }

    #[test]
    fn self_and_empty_flows_rejected() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        assert!(matches!(e.start_probe_flow(a, a, Bytes::kib(1)), Err(NetError::SelfProbe(_))));
        assert!(matches!(e.start_probe_flow(a, c, Bytes::ZERO), Err(NetError::EmptyTransfer)));
    }

    #[test]
    fn tcp_window_caps_throughput() {
        // 1 ms each way → RTT 2 ms... here: hub port latency 1 ms, two
        // ports each way → one-way 2 ms, RTT 4 ms. 64 KiB window / 4 ms =
        // 16 MiB/s ≈ 134 Mbps... use a smaller window to make the cap bind:
        // 8 KiB / 4 ms = 2 MiB/s ≈ 16.8 Mbps < 100 Mbps.
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::millis(1.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        let mut e: Sim = Engine::new(b.build().unwrap());
        e.set_tcp_window(Some(Bytes::kib(8)));
        let f = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f], TimeDelta::from_secs(60.0)).unwrap();
        let bw = e.outcome(f).unwrap().throughput().as_mbps();
        assert!(bw < 20.0, "window cap should bind, got {bw} Mbps");
    }

    #[test]
    fn quiescence_and_horizon() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let _ = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        let end = e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert!(end.as_secs() > 0.0);
        // With an absurdly small horizon the guard trips.
        let mut e2: Sim = Engine::new(two_hosts_hub().0);
        let a2 = e2.topo().node_by_label("a").unwrap();
        let c2 = e2.topo().node_by_label("c").unwrap();
        let _ = e2.start_probe_flow(a2, c2, Bytes::mib(100)).unwrap();
        assert!(matches!(
            e2.run_until_quiescent(TimeDelta::from_millis(1.0)),
            Err(NetError::HorizonExceeded { .. })
        ));
    }

    // --- actor tests -----------------------------------------------------

    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }

    /// Replies Pong(n+1) to every Ping(n).
    struct Echo;

    impl Process<TestMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: ProcessId, msg: TestMsg) {
            if let TestMsg::Ping(n) = msg {
                ctx.send(from, Bytes::new(8), TestMsg::Pong(n + 1)).unwrap();
            }
        }
    }

    /// Sends a Ping on start, records the Pong arrival time.
    struct Pinger {
        peer: Option<ProcessId>,
        got: std::rc::Rc<std::cell::RefCell<Option<(u32, SimTime)>>>,
    }

    impl Process<TestMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            if let Some(p) = self.peer {
                ctx.send(p, Bytes::new(8), TestMsg::Ping(41)).unwrap();
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _from: ProcessId, msg: TestMsg) {
            if let TestMsg::Pong(n) = msg {
                *self.got.borrow_mut() = Some((n, ctx.now()));
            }
        }
    }

    #[test]
    fn message_round_trip() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let echo = e.add_process(c, Box::new(Echo));
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let _pinger = e.add_process(a, Box::new(Pinger { peer: Some(echo), got: got.clone() }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        let (n, at) = got.borrow().expect("pong must arrive");
        assert_eq!(n, 42);
        // Two port latencies each way = 4 * 50 us, plus serialization.
        assert!(at.as_secs() >= 200e-6);
        assert!(at.as_secs() < 1e-3);
    }

    /// Fires a timer chain: 3 timers of 1 s each, then quiesces.
    struct TimerChain {
        fired: std::rc::Rc<std::cell::RefCell<Vec<(u64, SimTime)>>>,
    }

    impl Process<TestMsg> for TimerChain {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(TimeDelta::from_secs(1.0), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            self.fired.borrow_mut().push((tag, ctx.now()));
            if tag < 3 {
                ctx.set_timer(TimeDelta::from_secs(1.0), tag + 1);
            }
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let (t, a, _) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        e.add_process(a, Box::new(TimerChain { fired: fired.clone() }));
        e.run_until_quiescent(TimeDelta::from_secs(60.0)).unwrap();
        let fired = fired.borrow();
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].0, 1);
        assert!((fired[0].1.as_secs() - 1.0).abs() < 1e-9);
        assert!((fired[2].1.as_secs() - 3.0).abs() < 1e-9);
    }

    /// Cancels its own timer before it can fire.
    struct Canceller {
        fired: std::rc::Rc<std::cell::RefCell<bool>>,
    }

    impl Process<TestMsg> for Canceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let t = ctx.set_timer(TimeDelta::from_secs(1.0), 7);
            ctx.cancel_timer(t);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            *self.fired.borrow_mut() = true;
        }
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let (t, a, _) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let fired = std::rc::Rc::new(std::cell::RefCell::new(false));
        e.add_process(a, Box::new(Canceller { fired: fired.clone() }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert!(!*fired.borrow());
    }

    /// Starts a flow from its host and records the observed throughput.
    struct FlowOwner {
        dst: NodeId,
        seen: std::rc::Rc<std::cell::RefCell<Option<Bandwidth>>>,
    }

    impl Process<TestMsg> for FlowOwner {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.start_flow(self.dst, Bytes::kib(64), 9).unwrap();
        }
        fn on_flow_complete(&mut self, _ctx: &mut Ctx<'_, TestMsg>, outcome: &FlowOutcome) {
            assert_eq!(outcome.tag, 9);
            *self.seen.borrow_mut() = Some(outcome.throughput());
        }
    }

    #[test]
    fn process_owned_flow_reports_completion() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(None));
        e.add_process(a, Box::new(FlowOwner { dst: c, seen: seen.clone() }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        let bw = seen.borrow().expect("flow must complete");
        assert!(bw.as_mbps() > 80.0, "got {}", bw.as_mbps());
    }

    /// Two back-to-back sends between one process pair must arrive in
    /// order even when the second is smaller (models TCP's FIFO stream).
    struct Burst {
        to: ProcessId,
    }
    impl Process<TestMsg> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            // Large then small: without per-pair FIFO the small one wins.
            ctx.send(self.to, Bytes::kib(512), TestMsg::Ping(1)).unwrap();
            ctx.send(self.to, Bytes::new(8), TestMsg::Ping(2)).unwrap();
        }
    }
    struct OrderCheck {
        seen: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    }
    impl Process<TestMsg> for OrderCheck {
        fn on_message(&mut self, _c: &mut Ctx<'_, TestMsg>, _f: ProcessId, msg: TestMsg) {
            if let TestMsg::Ping(n) = msg {
                self.seen.borrow_mut().push(n);
            }
        }
    }

    #[test]
    fn messages_between_pair_are_fifo() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        e.add_process(a, Box::new(Burst { to: rx }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(*seen.borrow(), vec![1, 2], "sends must not be reordered");
    }

    #[test]
    fn send_to_unknown_process_errors() {
        let (t, a, _) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        struct BadSender;
        impl Process<TestMsg> for BadSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
                let err = ctx
                    .send(ProcessId::from_raw(4040), Bytes::new(8), TestMsg::Ping(0))
                    .unwrap_err();
                assert!(matches!(err, NetError::UnknownProcess(4040)));
            }
        }
        e.add_process(a, Box::new(BadSender));
        e.run_until_quiescent(TimeDelta::from_secs(1.0)).unwrap();
    }

    #[test]
    fn killed_process_stops_receiving() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        let tx = e.add_process(a, Box::new(Burst { to: rx }));
        assert!(e.process_alive(rx));
        e.kill_process(rx);
        assert!(!e.process_alive(rx));
        assert!(e.process_alive(tx));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert!(seen.borrow().is_empty(), "dead processes receive nothing");
    }

    #[test]
    fn capacity_mutation_reaches_allocator_after_recompute() {
        // Failure injection: degrading a link through topo_mut must affect
        // flows started after recompute_routes (the interned capacities
        // are refreshed; the from-scratch allocator read them live).
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let r = b.router("r.x", "10.0.1.1");
        let l1 = b.link(a, r, Bandwidth::mbps(100.0), Latency::ZERO);
        b.link(r, c, Bandwidth::mbps(100.0), Latency::ZERO);
        let mut e: Sim = Engine::new(b.build().unwrap());

        let f1 = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f1], TimeDelta::from_secs(60.0)).unwrap();
        assert!(e.outcome(f1).unwrap().throughput().as_mbps() > 99.0);

        // Degrade the first hop to 10 Mbps.
        let link_id = l1;
        if let LinkMode::FullDuplex { capacity_ab, capacity_ba } =
            &mut e.topo_mut().link_mut(link_id).mode
        {
            *capacity_ab = Bandwidth::mbps(10.0);
            *capacity_ba = Bandwidth::mbps(10.0);
        }
        e.recompute_routes();

        let f2 = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f2], TimeDelta::from_secs(60.0)).unwrap();
        let bw = e.outcome(f2).unwrap().throughput().as_mbps();
        assert!(bw < 11.0, "degraded link must cap the flow, got {bw} Mbps");
    }

    #[test]
    fn completion_heap_stays_bounded_under_tiny_flow_churn() {
        // A long-lived flow keeps the engine busy (so clear-on-idle never
        // fires) while short flows churn on the shared medium: every
        // start/finish bumps push_seq on the survivor and pushes fresh
        // projections, so stale entries accumulate with the live-flow
        // count pinned at one. Only the prune floor bounds the heap in
        // this regime — the regime where the old 64-entry floor let stale
        // entries pile up unpruned.
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let f_long = e.start_probe_flow(a, c, Bytes::mib(64)).unwrap();
        let mut max_seen = 0usize;
        for round in 0..200 {
            // Each churn flow halves f_long's rate, then restores it on
            // completion: at least two stale projections per round.
            let f2 = e.start_probe_flow(c, a, Bytes::kib(16)).unwrap();
            e.run_until_flows_done(&[f2], TimeDelta::from_secs(60.0)).unwrap();
            assert_eq!(e.active_flow_count(), 1, "f_long must outlive the churn");
            max_seen = max_seen.max(e.completion_heap_len());
            assert!(
                e.completion_heap_len() <= 16,
                "round {round}: heap grew to {} with one live flow",
                e.completion_heap_len()
            );
        }
        assert!(max_seen > 2, "churn must actually accumulate stale entries, saw {max_seen}");
        // Draining the last flow clears every projection.
        e.run_until_flows_done(&[f_long], TimeDelta::from_secs(600.0)).unwrap();
        assert_eq!(e.active_flow_count(), 0);
        assert_eq!(e.completion_heap_len(), 0, "idle heap must be empty");
    }

    #[test]
    fn mid_flight_capacity_and_growth_keep_heap_and_tables_consistent() {
        // Extends completion_heap_stays_bounded_under_tiny_flow_churn with
        // the churn subsystem's engine mutations *while flows are active*:
        // set_link_capacity-style edits (link_mut + medium_mut +
        // recompute_routes) and structural growth (add_host_like) must keep
        // the completion heap bounded and the interned capacity tables
        // consistent — the long-lived flow keeps draining throughout and
        // new rates take effect on the next flow-set change.
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        let r = b.router("r.x", "10.0.1.1");
        b.attach(a, hub);
        b.attach(c, hub);
        let l_r = b.link(a, r, Bandwidth::mbps(100.0), Latency::micros(50.0));
        let d = b.host("d.x", "10.0.1.2");
        b.link(r, d, Bandwidth::mbps(100.0), Latency::micros(50.0));
        let mut e: Sim = Engine::new(b.build().unwrap());

        let f_long = e.start_probe_flow(a, c, Bytes::mib(64)).unwrap();
        let mut max_seen = 0usize;
        for round in 0..60 {
            // Tiny churn flows on the shared medium keep bumping f_long.
            let f2 = e.start_probe_flow(c, a, Bytes::kib(16)).unwrap();
            e.run_until_flows_done(&[f2], TimeDelta::from_secs(60.0)).unwrap();
            match round {
                20 => {
                    // Degrade the hub medium mid-flight.
                    let m = crate::topology::MediumId(0);
                    e.topo_mut().medium_mut(m).capacity = Bandwidth::mbps(50.0);
                    e.recompute_routes();
                }
                30 => {
                    // Degrade the router link mid-flight (unused by f_long;
                    // proves unrelated capacity edits don't disturb it).
                    if let LinkMode::FullDuplex { capacity_ab, capacity_ba } =
                        &mut e.topo_mut().link_mut(l_r).mode
                    {
                        *capacity_ab = Bandwidth::mbps(10.0);
                        *capacity_ba = Bandwidth::mbps(10.0);
                    }
                    e.recompute_routes();
                }
                40 => {
                    // Grow the topology mid-flight: a new host on the hub.
                    e.topo_mut().add_host_like("new.x", "10.0.0.99".parse().unwrap(), c).unwrap();
                    e.recompute_routes();
                }
                _ => {}
            }
            assert_eq!(e.active_flow_count(), 1, "f_long must outlive the churn");
            max_seen = max_seen.max(e.completion_heap_len());
            assert!(
                e.completion_heap_len() <= 16,
                "round {round}: heap grew to {} with one live flow",
                e.completion_heap_len()
            );
            if round == 41 {
                // The appended host is fully wired: flows route to it and
                // share the (degraded) medium with f_long.
                let new = e.topo().node_by_name("new.x").unwrap();
                let f3 = e.start_probe_flow(a, new, Bytes::kib(64)).unwrap();
                e.run_until_flows_done(&[f3], TimeDelta::from_secs(60.0)).unwrap();
                let bw = e.outcome(f3).unwrap().throughput().as_mbps();
                assert!(bw < 51.0, "degraded medium must cap the new host's flow, got {bw}");
            }
        }
        assert!(max_seen > 2, "churn must actually accumulate stale entries, saw {max_seen}");
        // After the medium degrade, a fresh exclusive probe sees 50 Mbps —
        // the interned capacities are consistent with the topology.
        e.run_until_flows_done(&[f_long], TimeDelta::from_secs(600.0)).unwrap();
        assert_eq!(e.completion_heap_len(), 0, "idle heap must be empty");
        let f4 = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f4], TimeDelta::from_secs(60.0)).unwrap();
        let bw = e.outcome(f4).unwrap().throughput().as_mbps();
        assert!((bw - 50.0).abs() < 2.0, "expected ~50 Mbps on degraded hub, got {bw}");
        // And the degraded router link binds too.
        let f5 = e.start_probe_flow(a, d, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f5], TimeDelta::from_secs(60.0)).unwrap();
        let bw = e.outcome(f5).unwrap().throughput().as_mbps();
        assert!(bw < 11.0, "degraded link must cap the flow, got {bw}");
    }

    #[test]
    fn isolated_node_becomes_unreachable_after_recompute() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        assert!(e.start_probe_flow(a, c, Bytes::kib(4)).is_ok());
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        e.topo_mut().isolate_node(c);
        e.recompute_routes();
        assert!(matches!(
            e.start_probe_flow(a, c, Bytes::kib(4)),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn host_added_before_recompute_is_unreachable_not_a_panic() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let ip = "10.0.0.99".parse().unwrap();
        let new = e.topo_mut().add_host_like("new.example.net", ip, c).unwrap();
        // The route table predates `new`: no route either way, and no panic.
        for (src, dst) in [(a, new), (new, a)] {
            assert!(!e.routes().reachable(src, dst));
            assert_eq!(
                e.start_probe_flow(src, dst, Bytes::kib(4)),
                Err(NetError::Unreachable { src, dst })
            );
        }
        e.recompute_routes();
        assert!(e.start_probe_flow(a, new, Bytes::kib(4)).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Sim = Engine::new(t);
        let f = e.start_probe_flow(a, c, Bytes::mib(1)).unwrap();
        e.run_until_flows_done(&[f], TimeDelta::from_secs(10.0)).unwrap();
        let s = e.stats();
        assert_eq!(s.flows_started, 1);
        assert!(s.bytes_transferred >= 1024.0 * 1024.0 * 0.99);
    }

    /// Sends `count` numbered pings to a peer on start.
    struct Sprayer {
        to: ProcessId,
        count: u32,
    }
    impl Process<TestMsg> for Sprayer {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            for n in 0..self.count {
                ctx.send(self.to, Bytes::new(64), TestMsg::Ping(n)).unwrap();
            }
        }
    }

    fn lossy_run(seed: u64) -> (Vec<u32>, u64, u64) {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        e.set_fault_seed(seed);
        e.set_default_loss(Some(LossModel::degraded(0.3, 0.3, TimeDelta::from_millis(5.0))));
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        e.add_process(a, Box::new(Sprayer { to: rx, count: 200 }));
        e.run_until_quiescent(TimeDelta::from_secs(60.0)).unwrap();
        let s = e.stats();
        let seen = seen.borrow().clone();
        (seen, s.messages_dropped, s.messages_duplicated)
    }

    #[test]
    fn fault_plane_is_deterministic_and_accounts_every_message() {
        let (seen_a, dropped_a, duped_a) = lossy_run(11);
        let (seen_b, dropped_b, duped_b) = lossy_run(11);
        assert_eq!(seen_a, seen_b, "same fault seed must replay bit-identically");
        assert_eq!((dropped_a, duped_a), (dropped_b, duped_b));
        assert!(dropped_a > 0, "30% drop over 200 sends must lose something");
        assert!(duped_a > 0, "30% dup over 200 sends must duplicate something");
        // Delivery conservation: every survivor arrives once, plus a copy
        // per duplication.
        assert_eq!(seen_a.len() as u64, 200 - dropped_a + duped_a);
        let (seen_c, ..) = lossy_run(12);
        assert_ne!(seen_a, seen_c, "different fault seed must change the trace");
    }

    #[test]
    fn unarmed_fault_plane_changes_nothing() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        // Loss configured but no seed armed: all messages sail through.
        e.set_default_loss(Some(LossModel::lossy(1.0)));
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        e.add_process(a, Box::new(Sprayer { to: rx, count: 10 }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(seen.borrow().len(), 10);
        assert_eq!(e.stats().messages_dropped, 0);
    }

    #[test]
    fn jitter_preserves_pair_fifo() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        e.set_fault_seed(3);
        // Jitter only: nothing lost or duplicated, order must still hold.
        e.set_default_loss(Some(LossModel::degraded(0.0, 0.0, TimeDelta::from_millis(50.0))));
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        e.add_process(a, Box::new(Sprayer { to: rx, count: 50 }));
        e.run_until_quiescent(TimeDelta::from_secs(60.0)).unwrap();
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(*seen.borrow(), expect, "jitter must not reorder a pair's stream");
    }

    /// Records `on_send_failed` notifications.
    struct BounceWatcher {
        to: ProcessId,
        bounced: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    }
    impl Process<TestMsg> for BounceWatcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.send(self.to, Bytes::new(8), TestMsg::Ping(7)).unwrap();
        }
        fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, TestMsg>, to: ProcessId, err: &NetError) {
            assert!(matches!(err, NetError::UnknownProcess(_)));
            self.bounced.borrow_mut().push(to.0);
        }
    }

    #[test]
    fn in_flight_message_to_killed_process_bounces_to_sender() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        let bounced = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        e.add_process(a, Box::new(BounceWatcher { to: rx, bounced: bounced.clone() }));
        e.kill_process(rx);
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert!(seen.borrow().is_empty());
        assert_eq!(*bounced.borrow(), vec![rx.0], "sender must hear about the dead receiver");
    }

    #[test]
    fn kill_process_prunes_fifo_clamp_entries() {
        let (t, a, c) = two_hosts_hub();
        let mut e: Engine<TestMsg> = Engine::new(t);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = e.add_process(c, Box::new(OrderCheck { seen: seen.clone() }));
        let tx = e.add_process(a, Box::new(Sprayer { to: rx, count: 3 }));
        e.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(e.last_delivery_len(), 1, "one live (tx, rx) clamp entry");
        e.kill_process(rx);
        assert_eq!(e.last_delivery_len(), 0, "entries touching the corpse must go");
        let _ = tx;
    }
}
