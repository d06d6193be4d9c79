//! The NWS sensor process: conducts the measurements (paper §2.1–§2.3).
//!
//! A sensor
//!
//! * runs the three network experiments of §2.2 against its clique peers
//!   whenever it holds a clique token — 4-byte RTT (latency), 64 KiB timed
//!   transfer (bandwidth), and connect time (derived as 1.5 RTT from the
//!   latency experiment rather than a third probe; documented delta);
//! * participates in any number of measurement cliques ([`CliqueMembership`]),
//!   holding at most one token's experiments at a time — NWS's guarantee
//!   that a host is involved in at most one measurement at once;
//! * optionally implements **host-level measurement locks** — the paper's
//!   §6 proposal ("a possibility to lock hosts (and not networks) is still
//!   needed"): before probing a peer, the holder asks the peer's sensor
//!   for permission, so two cliques sharing a member can no longer probe
//!   into it simultaneously;
//! * optionally free-runs on a fixed period *without* clique coordination,
//!   which reproduces the measurement collisions of §2.3 (experiment E1);
//! * optionally samples the synthetic host-load model (CPU / free memory).
//!
//! All results are `Store`d to the sensor's memory server.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use netsim::engine::{Ctx, Process, ProcessId, TimerId};
use netsim::error::NetError;
use netsim::flow::FlowOutcome;
use netsim::time::TimeDelta;
use netsim::topology::NodeId;

use crate::clique::{CliqueMembership, CliqueRetarget};
use crate::hostload::HostLoadModel;
use crate::ids::{HostId, SeriesId, SeriesTableHandle};
use crate::msg::{NwsMsg, Resource, ServerKind};

const TAG_HOST_SENSE: u64 = 0;
const TAG_FREE_RUN: u64 = 1;
const TAG_LOCK_TIMEOUT: u64 = 2;
const TAG_GRANT_EXPIRY: u64 = 3;
const TAG_RETRY: u64 = 4;
const TAG_WATCHDOG: u64 = 100;
const TAG_PASS: u64 = 200;
const TAG_INITIAL: u64 = 300;

/// Free-running (uncoordinated) measurement configuration.
#[derive(Debug, Clone)]
pub struct FreeRun {
    pub targets: Vec<(HostId, NodeId)>,
    pub period: TimeDelta,
}

/// Period of the host-resource (CPU / free memory) samples.
const HOST_SENSE_PERIOD_S: f64 = 10.0;
/// Delay before ring member 0 injects the initial token, milliseconds.
const INITIAL_TOKEN_DELAY_MS: f64 = 200.0;
/// How long a holder waits for a peer's lock grant before skipping it.
const LOCK_TIMEOUT_S: f64 = 2.0;
/// Safety expiry on a grant (in case the holder dies mid-probe).
const GRANT_TIMEOUT_S: f64 = 10.0;
/// First store-retry backoff; doubles per attempt up to [`RETRY_MAX_S`].
const RETRY_INITIAL_S: f64 = 1.0;
const RETRY_MAX_S: f64 = 30.0;
/// Unacked stores buffered while the memory is unreachable; beyond this
/// the oldest measurement is shed (newest data wins — NWS series are
/// rings for the same reason).
const UNACKED_CAP: usize = 1024;

/// What differs from one sensor to the next.
#[derive(Debug, Clone)]
pub struct SensorConfig {
    /// The host name this sensor reports under (series key component).
    pub host_name: String,
    pub ns: ProcessId,
    pub memory: ProcessId,
    pub free_run: Option<FreeRun>,
    /// Sample the synthetic host-load model too, seeded with this.
    pub host_sense: Option<u64>,
    /// Seed for the token-gap jitter.
    pub seed: u64,
    /// Enable the §6 host-locking extension.
    pub host_locking: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeKind {
    Latency,
    Bandwidth,
}

#[derive(Debug, Clone, Copy)]
struct ActiveProbe {
    peer: HostId,
    node: NodeId,
    kind: ProbeKind,
    /// The peer's sensor, when we hold a lock on it to release afterwards.
    locked: Option<ProcessId>,
}

/// A pending probe target: the peer's sensor pid (None for free-run
/// targets without one), host and host node.
type Target = (Option<ProcessId>, HostId, NodeId);

/// Token work: membership index, accepted sequence, round counter.
type TokenWork = (usize, u64, u64);

/// The sensor process.
pub struct Sensor {
    cfg: SensorConfig,
    /// The deployment's series table: a measurement's series id is minted
    /// from this host's and the peer's interned names.
    ids: SeriesTableHandle,
    host: HostId,
    /// The CPU and free-memory series of this host, when it samples them.
    host_series: Option<[SeriesId; 2]>,
    memberships: Vec<CliqueMembership>,
    /// Slots retired by a `Retarget`: membership indexes are baked into
    /// timer tags, so slots are never removed — a retired slot ignores
    /// tokens and watchdogs and may be recycled by a later retarget.
    retired: Vec<bool>,
    watchdogs: Vec<Option<TimerId>>,
    /// Pending initial-token timers per slot, cancelled on retirement so a
    /// recycled slot cannot receive a stale injection.
    initial_timers: Vec<Option<TimerId>>,
    /// Peers still to probe in the current activation.
    queue: VecDeque<Target>,
    active: Option<ActiveProbe>,
    /// The token currently held (work in progress or awaiting the pass).
    current: Option<TokenWork>,
    pending: VecDeque<TokenWork>,
    load: Option<HostLoadModel>,
    /// Jitter source for token gaps. Without jitter, two cliques whose
    /// measurements collide finish their probes at the same instant and
    /// re-align their schedules forever (the classic self-synchronization
    /// of periodic messages); NWS randomizes periods for the same reason.
    rng: SmallRng,
    // --- host-locking state (§6 extension) ---
    /// Who currently holds a grant to probe this host.
    granted_to: Option<ProcessId>,
    grant_expiry: Option<TimerId>,
    /// Requests queued while engaged.
    grant_queue: VecDeque<ProcessId>,
    /// The peer we are waiting on for a grant.
    waiting_grant: Option<Target>,
    lock_wait_timer: Option<TimerId>,
    /// Number of token holds completed (for tests).
    pub holds: u64,
    /// Probes skipped because a lock was not granted in time.
    pub lock_skips: u64,
    // --- store reliability (seq + ack + retry) ---
    /// Last allocated store sequence number (first store carries seq 1).
    next_store_seq: u64,
    /// Sent-but-unacked stores, by seq: the outage buffer, drained in seq
    /// order on every retry or memory retarget.
    unacked: BTreeMap<u64, (SeriesId, f64, f64)>,
    retry_timer: Option<TimerId>,
    retry_backoff: TimeDelta,
    /// Stores resent by the retry machinery (for tests/benches).
    pub store_retries: u64,
    /// Oldest unacked stores shed by the buffer cap during a long outage.
    pub stores_shed: u64,
}

impl Sensor {
    pub(crate) fn new(
        cfg: SensorConfig,
        memberships: Vec<CliqueMembership>,
        ids: &SeriesTableHandle,
    ) -> Self {
        let load = cfg.host_sense.map(HostLoadModel::new);
        let n = memberships.len();
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e4_50e5);
        let retry_backoff = TimeDelta::from_secs(RETRY_INITIAL_S);
        let (host, host_series) = {
            let mut t = ids.borrow_mut();
            let host = t.host(&cfg.host_name);
            let host_series = load.is_some().then(|| {
                [t.id(Resource::CpuLoad, host, host), t.id(Resource::FreeMemory, host, host)]
            });
            (host, host_series)
        };
        Sensor {
            cfg,
            ids: ids.clone(),
            host,
            host_series,
            memberships,
            retired: vec![false; n],
            watchdogs: vec![None; n],
            initial_timers: vec![None; n],
            queue: VecDeque::new(),
            active: None,
            current: None,
            pending: VecDeque::new(),
            load,
            rng,
            granted_to: None,
            grant_expiry: None,
            grant_queue: VecDeque::new(),
            waiting_grant: None,
            lock_wait_timer: None,
            holds: 0,
            lock_skips: 0,
            next_store_seq: 0,
            unacked: BTreeMap::new(),
            retry_timer: None,
            retry_backoff,
            store_retries: 0,
            stores_shed: 0,
        }
    }

    /// The live (non-retired) clique memberships, in slot order.
    #[cfg(test)]
    pub(crate) fn memberships(&self) -> impl Iterator<Item = &CliqueMembership> {
        self.memberships.iter().zip(&self.retired).filter(|(_, r)| !**r).map(|(m, _)| m)
    }

    fn busy(&self) -> bool {
        self.active.is_some() || self.current.is_some() || self.waiting_grant.is_some()
    }

    /// Whether this host is involved in a measurement right now (as prober,
    /// grant holder's target, or waiting to probe).
    fn engaged(&self) -> bool {
        self.active.is_some() || self.waiting_grant.is_some() || self.granted_to.is_some()
    }

    /// Send one measurement to the memory, reliably: the point is buffered
    /// under a fresh sequence number until the memory's `StoreAck` releases
    /// it, with [`Sensor::resend_unacked`] retrying on a backoff timer. A
    /// send that fails outright (memory dead or unreachable) leaves the
    /// point in the buffer to drain on recovery.
    fn store(&mut self, ctx: &mut Ctx<'_, NwsMsg>, series: SeriesId, value: f64) {
        self.next_store_seq += 1;
        let seq = self.next_store_seq;
        let t = ctx.now().as_secs();
        if self.unacked.len() >= UNACKED_CAP {
            self.unacked.pop_first();
            self.stores_shed += 1;
        }
        self.unacked.insert(seq, (series, t, value));
        NwsMsg::Store { series, seq, t, value }.send(ctx, self.cfg.memory);
        self.arm_retry(ctx);
    }

    /// Store one measurement of `resource` on the link to `peer`.
    fn store_link(&mut self, ctx: &mut Ctx<'_, NwsMsg>, resource: Resource, peer: HostId, v: f64) {
        let series = self.ids.borrow_mut().id(resource, self.host, peer);
        self.store(ctx, series, v);
    }

    fn arm_retry(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if self.retry_timer.is_none() {
            self.retry_timer = Some(ctx.set_timer(self.retry_backoff, TAG_RETRY));
        }
    }

    /// Resend every unacked store in seq order, double the backoff (capped)
    /// and schedule the next attempt. No-op when the buffer is empty.
    fn resend_unacked(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if self.unacked.is_empty() {
            self.retry_backoff = TimeDelta::from_secs(RETRY_INITIAL_S);
            return;
        }
        self.store_retries += self.unacked.len() as u64;
        for (&seq, &(series, t, value)) in &self.unacked {
            NwsMsg::Store { series, seq, t, value }.send(ctx, self.cfg.memory);
        }
        self.retry_backoff = (self.retry_backoff * 2.0).min(TimeDelta::from_secs(RETRY_MAX_S));
        self.retry_timer = Some(ctx.set_timer(self.retry_backoff, TAG_RETRY));
    }

    /// Record a token acceptance and either start its experiments or queue
    /// the work.
    fn accept_token(&mut self, ctx: &mut Ctx<'_, NwsMsg>, m: usize, seq: u64, round: u64) {
        if !self.memberships[m].accepts(seq) {
            return; // stale or duplicate token
        }
        if let Some(t) = self.watchdogs[m].take() {
            ctx.cancel_timer(t);
        }
        self.memberships[m].last_seq = seq;
        self.memberships[m].rounds_seen = round;
        if self.busy() {
            self.pending.push_back((m, seq, round));
        } else {
            self.start_work(ctx, (m, seq, round));
        }
    }

    fn start_work(&mut self, ctx: &mut Ctx<'_, NwsMsg>, work: TokenWork) {
        let (m, seq, _) = work;
        // Drop work made stale by a newer token for the same clique, or by
        // the clique's retirement while the work was queued.
        if self.retired[m] || self.memberships[m].last_seq != seq {
            self.next_pending(ctx);
            return;
        }
        self.current = Some(work);
        self.queue = self.memberships[m]
            .members
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.memberships[m].me_idx)
            .map(|(_, &(pid, host, node))| (Some(pid), host, node))
            .collect();
        self.holds += 1;
        self.start_next_probe(ctx);
    }

    fn next_pending(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if let Some(work) = self.pending.pop_front() {
            self.start_work(ctx, work);
        } else {
            self.service_grants(ctx);
        }
    }

    /// Launch the next experiment (acquiring the peer lock first when the
    /// §6 extension is on), or wind down the activation.
    fn start_next_probe(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        while let Some((pid, peer, node)) = self.queue.pop_front() {
            if self.cfg.host_locking {
                if let Some(peer_pid) = pid {
                    self.waiting_grant = Some((Some(peer_pid), peer, node));
                    NwsMsg::LockRequest.send(ctx, peer_pid);
                    self.lock_wait_timer =
                        Some(ctx.set_timer(TimeDelta::from_secs(LOCK_TIMEOUT_S), TAG_LOCK_TIMEOUT));
                    return;
                }
            }
            match ctx.start_flow(node, netsim::probes::LATENCY_PROBE_BYTES, 0) {
                Ok(_) => {
                    self.active =
                        Some(ActiveProbe { peer, node, kind: ProbeKind::Latency, locked: None });
                    return;
                }
                Err(_) => continue, // unreachable peer: skip
            }
        }
        // Queue drained.
        self.active = None;
        match self.current {
            Some((m, _, _)) => {
                // Hold the token through the configured gap (jittered to
                // break inter-clique phase locking), then pass it.
                let gap = self.memberships[m].gap * (1.0 + self.rng.gen_range(0.0..0.5));
                ctx.set_timer(gap, TAG_PASS + m as u64);
                self.service_grants(ctx);
            }
            None => self.next_pending(ctx),
        }
    }

    /// A grant arrived: run the locked probe.
    fn begin_locked_probe(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId) {
        let Some((pid, peer, node)) = self.waiting_grant.take() else { return };
        if pid != Some(from) {
            // Grant from someone we are no longer waiting on.
            self.waiting_grant = Some((pid, peer, node));
            return;
        }
        if let Some(t) = self.lock_wait_timer.take() {
            ctx.cancel_timer(t);
        }
        match ctx.start_flow(node, netsim::probes::LATENCY_PROBE_BYTES, 0) {
            Ok(_) => {
                self.active =
                    Some(ActiveProbe { peer, node, kind: ProbeKind::Latency, locked: pid });
            }
            Err(_) => {
                if let Some(p) = pid {
                    NwsMsg::LockRelease.send(ctx, p);
                }
                self.start_next_probe(ctx);
            }
        }
    }

    /// Grant queued lock requests when this host becomes free.
    fn service_grants(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        if self.engaged() {
            return;
        }
        if let Some(h) = self.grant_queue.pop_front() {
            self.granted_to = Some(h);
            self.grant_expiry =
                Some(ctx.set_timer(TimeDelta::from_secs(GRANT_TIMEOUT_S), TAG_GRANT_EXPIRY));
            NwsMsg::LockGrant.send(ctx, h);
        }
    }

    fn pass_token(&mut self, ctx: &mut Ctx<'_, NwsMsg>, m: usize) {
        let Some((cm, seq, round)) = self.current.take() else { return };
        debug_assert_eq!(cm, m);
        // If the clique was retargeted while we held its token, migrate the
        // token into the replacement membership of the same name — a
        // restart must not cost a full watchdog period of silence (the
        // holder is where the token almost always lives). Only a clique
        // that was *stopped* outright drops its token here.
        let m = if self.retired[m] {
            let name = self.memberships[m].clique.clone();
            let replacement = (0..self.memberships.len())
                .find(|&i| !self.retired[i] && self.memberships[i].clique == name);
            match replacement {
                Some(i) => i,
                None => {
                    self.next_pending(ctx);
                    return;
                }
            }
        } else {
            m
        };
        let membership = &mut self.memberships[m];
        // Keep acceptance monotonic in the replacement ring even if it has
        // seen its own (regenerated) tokens meanwhile.
        let seq = seq.max(membership.last_seq);
        membership.last_seq = membership.last_seq.max(seq);
        let membership = &self.memberships[m];
        let next = membership.next_member();
        let round = round + u64::from(membership.pass_completes_round());
        NwsMsg::Token { clique: membership.clique.clone(), seq: seq + 1, round }.send(ctx, next);
        // Re-arm the watchdog for the token's return.
        let delay = membership.watchdog_delay();
        if let Some(t) = self.watchdogs[m].take() {
            ctx.cancel_timer(t);
        }
        self.watchdogs[m] = Some(ctx.set_timer(delay, TAG_WATCHDOG + m as u64));
        self.next_pending(ctx);
    }

    /// Retire a clique membership by name (idempotent).
    fn retire_clique(&mut self, ctx: &mut Ctx<'_, NwsMsg>, name: &str) {
        for m in 0..self.memberships.len() {
            if self.retired[m] || self.memberships[m].clique != name {
                continue;
            }
            self.retired[m] = true;
            if let Some(t) = self.watchdogs[m].take() {
                ctx.cancel_timer(t);
            }
            if let Some(t) = self.initial_timers[m].take() {
                ctx.cancel_timer(t);
            }
            self.pending.retain(|(pm, _, _)| *pm != m);
            // Work in flight for the retired clique is allowed to finish;
            // pass_token migrates its token into a same-name replacement
            // (or drops it when the clique was stopped outright).
        }
    }

    /// Apply a `Retarget`: retire removed cliques, install added ones —
    /// the in-place reconfiguration path of incremental plan repair.
    fn retarget(&mut self, ctx: &mut Ctx<'_, NwsMsg>, add: Vec<CliqueRetarget>, remove: &[String]) {
        for name in remove {
            self.retire_clique(ctx, name);
        }
        for r in add {
            let Some(membership) =
                CliqueMembership::new(&r.clique, r.ring, ctx.me(), r.gap, r.watchdog)
            else {
                continue; // defensive: not addressed to this sensor
            };
            // A restart of an existing clique retires the old membership.
            self.retire_clique(ctx, &r.clique);
            // Recycle a retired slot that carries no in-flight work, so
            // membership indexes (baked into timer tags) stay bounded by
            // the concurrent-clique count, not the retarget history.
            let reusable = (0..self.memberships.len()).find(|&m| {
                self.retired[m]
                    && self.current.map(|(cm, _, _)| cm != m).unwrap_or(true)
                    && !self.pending.iter().any(|(pm, _, _)| *pm == m)
            });
            let m = match reusable {
                Some(m) => {
                    self.memberships[m] = membership;
                    self.retired[m] = false;
                    m
                }
                None => {
                    self.memberships.push(membership);
                    self.retired.push(false);
                    self.watchdogs.push(None);
                    self.initial_timers.push(None);
                    self.memberships.len() - 1
                }
            };
            debug_assert!(m < (TAG_PASS - TAG_WATCHDOG) as usize, "timer tag space exhausted");
            let delay = self.memberships[m].watchdog_delay();
            self.watchdogs[m] = Some(ctx.set_timer(delay, TAG_WATCHDOG + m as u64));
            if r.start_token && self.memberships[m].me_idx == 0 {
                self.initial_timers[m] = Some(ctx.set_timer(
                    TimeDelta::from_millis(INITIAL_TOKEN_DELAY_MS),
                    TAG_INITIAL + m as u64,
                ));
            }
        }
    }

    fn enqueue_free_run(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let Some(fr) = &self.cfg.free_run else { return };
        if self.busy() {
            return; // skip this period rather than stack up probes
        }
        self.queue = fr.targets.iter().map(|&(host, node)| (None, host, node)).collect();
        self.start_next_probe(ctx);
    }

    fn sense_host(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let (Some(load), Some([cpu_series, mem_series])) = (&mut self.load, self.host_series)
        else {
            return;
        };
        let cpu = load.sample();
        let mem = load.sample_memory();
        self.store(ctx, cpu_series, cpu);
        self.store(ctx, mem_series, mem);
    }
}

impl Process<NwsMsg> for Sensor {
    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        let reg = NwsMsg::Register { name: self.cfg.host_name.clone(), kind: ServerKind::Sensor };
        reg.send(ctx, self.cfg.ns);

        if self.cfg.host_sense.is_some() {
            ctx.set_timer(TimeDelta::from_secs(HOST_SENSE_PERIOD_S), TAG_HOST_SENSE);
        }
        if let Some(fr) = &self.cfg.free_run {
            ctx.set_timer(fr.period, TAG_FREE_RUN);
        }
        for m in 0..self.memberships.len() {
            let delay = self.memberships[m].watchdog_delay();
            self.watchdogs[m] = Some(ctx.set_timer(delay, TAG_WATCHDOG + m as u64));
            if self.memberships[m].me_idx == 0 {
                self.initial_timers[m] = Some(ctx.set_timer(
                    TimeDelta::from_millis(INITIAL_TOKEN_DELAY_MS),
                    TAG_INITIAL + m as u64,
                ));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::Token { clique, seq, round } => {
                let slot = self
                    .memberships
                    .iter()
                    .enumerate()
                    .position(|(m, c)| !self.retired[m] && c.clique == clique);
                if let Some(m) = slot {
                    self.accept_token(ctx, m, seq, round);
                }
            }
            NwsMsg::Retarget { add, remove } => {
                self.retarget(ctx, add, &remove);
            }
            NwsMsg::StoreAck { seq } => {
                self.unacked.remove(&seq);
                if self.unacked.is_empty() {
                    self.retry_backoff = TimeDelta::from_secs(RETRY_INITIAL_S);
                    if let Some(t) = self.retry_timer.take() {
                        ctx.cancel_timer(t);
                    }
                }
            }
            NwsMsg::RetargetMemory { memory } => {
                // The supervisor restarted our memory under a new pid:
                // drain the outage buffer to it right away.
                self.cfg.memory = memory;
                self.retry_backoff = TimeDelta::from_secs(RETRY_INITIAL_S);
                if let Some(t) = self.retry_timer.take() {
                    ctx.cancel_timer(t);
                }
                self.resend_unacked(ctx);
            }
            NwsMsg::Ping => {
                NwsMsg::Pong.send(ctx, from);
            }
            NwsMsg::LockRequest => {
                if self.engaged() {
                    self.grant_queue.push_back(from);
                } else {
                    self.granted_to = Some(from);
                    self.grant_expiry = Some(
                        ctx.set_timer(TimeDelta::from_secs(GRANT_TIMEOUT_S), TAG_GRANT_EXPIRY),
                    );
                    NwsMsg::LockGrant.send(ctx, from);
                }
            }
            NwsMsg::LockGrant => {
                self.begin_locked_probe(ctx, from);
            }
            NwsMsg::LockRelease if self.granted_to == Some(from) => {
                self.granted_to = None;
                if let Some(t) = self.grant_expiry.take() {
                    ctx.cancel_timer(t);
                }
                self.service_grants(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NwsMsg>, tag: u64) {
        match tag {
            TAG_HOST_SENSE => {
                self.sense_host(ctx);
                if self.cfg.host_sense.is_some() {
                    ctx.set_timer(TimeDelta::from_secs(HOST_SENSE_PERIOD_S), TAG_HOST_SENSE);
                }
            }
            TAG_FREE_RUN => {
                self.enqueue_free_run(ctx);
                if let Some(fr) = &self.cfg.free_run {
                    ctx.set_timer(fr.period, TAG_FREE_RUN);
                }
            }
            TAG_LOCK_TIMEOUT
                // The peer never granted (it is engaged or dead): skip it.
                if self.waiting_grant.take().is_some() => {
                    self.lock_skips += 1;
                    self.lock_wait_timer = None;
                    self.start_next_probe(ctx);
                }
            TAG_GRANT_EXPIRY => {
                // Holder died mid-probe; free the host.
                self.granted_to = None;
                self.grant_expiry = None;
                self.service_grants(ctx);
            }
            TAG_RETRY => {
                self.retry_timer = None;
                self.resend_unacked(ctx);
            }
            t if (TAG_WATCHDOG..TAG_PASS).contains(&t) => {
                let m = (t - TAG_WATCHDOG) as usize;
                if self.retired[m] {
                    return; // stale watchdog of a retargeted clique
                }
                self.watchdogs[m] = None;
                // Ignore if we are the holder (or have the work queued).
                let holding = self.current.map(|(cm, _, _)| cm == m).unwrap_or(false)
                    || self.pending.iter().any(|(pm, _, _)| *pm == m);
                if holding {
                    return;
                }
                // Token lost: regenerate (paper §2.3's error handling).
                let seq = self.memberships[m].regen_seq();
                let round = self.memberships[m].rounds_seen;
                self.memberships[m].last_seq = seq;
                if self.busy() {
                    self.pending.push_back((m, seq, round));
                } else {
                    self.start_work(ctx, (m, seq, round));
                }
            }
            t if (TAG_PASS..TAG_INITIAL).contains(&t) => {
                self.pass_token(ctx, (t - TAG_PASS) as usize);
            }
            t if t >= TAG_INITIAL => {
                let m = (t - TAG_INITIAL) as usize;
                self.initial_timers[m] = None;
                if !self.retired[m] && self.memberships[m].last_seq == 0 {
                    self.accept_token(ctx, m, 1, 0);
                }
            }
            _ => {}
        }
    }

    fn on_flow_complete(&mut self, ctx: &mut Ctx<'_, NwsMsg>, outcome: &FlowOutcome) {
        let Some(probe) = self.active.take() else { return };
        match probe.kind {
            ProbeKind::Latency => {
                let rtt_ms = outcome.duration().as_millis();
                self.store_link(ctx, Resource::Latency, probe.peer, rtt_ms);
                // Connect time derived as 1.5 RTT (three-way handshake)
                // instead of a third probe.
                self.store_link(ctx, Resource::ConnectTime, probe.peer, 1.5 * rtt_ms);
                // Follow with the bandwidth experiment to the same peer.
                match ctx.start_flow(probe.node, netsim::probes::BANDWIDTH_PROBE_BYTES, 0) {
                    Ok(_) => {
                        self.active = Some(ActiveProbe { kind: ProbeKind::Bandwidth, ..probe });
                    }
                    Err(_) => {
                        if let Some(p) = probe.locked {
                            NwsMsg::LockRelease.send(ctx, p);
                        }
                        self.start_next_probe(ctx);
                    }
                }
            }
            ProbeKind::Bandwidth => {
                let mbps = outcome.throughput().as_mbps();
                self.store_link(ctx, Resource::Bandwidth, probe.peer, mbps);
                if let Some(p) = probe.locked {
                    NwsMsg::LockRelease.send(ctx, p);
                }
                self.start_next_probe(ctx);
            }
        }
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, NwsMsg>, to: ProcessId, _err: &NetError) {
        // A store bounced off a dead memory (the TCP-RST analog). The
        // measurement is still in the unacked buffer; keep the retry timer
        // running so the buffer drains once the memory — or, after a
        // `RetargetMemory`, its successor — is back. Failed token or lock
        // sends need no action here: the clique watchdog regenerates lost
        // tokens and lock waits time out on their own.
        if to == self.cfg.memory && !self.unacked.is_empty() {
            self.arm_retry(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeriesTable;
    use netsim::engine::Engine;
    use netsim::topology::TopologyBuilder;
    use netsim::units::{Bandwidth, Latency};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A bare sensor's configuration with host locking on.
    fn locking_cfg() -> SensorConfig {
        let nobody = ProcessId::from_raw(999);
        SensorConfig {
            host_name: "h0.x".to_string(),
            ns: nobody,
            memory: nobody,
            free_run: None,
            host_sense: None,
            seed: 0,
            host_locking: true,
        }
    }

    fn hub3() -> (Engine<NwsMsg>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        (Engine::new(b.build().unwrap()), hosts)
    }

    /// A probe process that drives the lock protocol against a sensor.
    struct LockProber {
        target: ProcessId,
        log: Rc<RefCell<Vec<&'static str>>>,
        hold: TimeDelta,
    }

    impl Process<NwsMsg> for LockProber {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
            self.log.borrow_mut().push("request");
            let m = NwsMsg::LockRequest;
            let s = m.wire_size();
            ctx.send(self.target, s, m).unwrap();
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
            if let NwsMsg::LockGrant = msg {
                self.log.borrow_mut().push("granted");
                ctx.set_timer(self.hold, 99);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, NwsMsg>, tag: u64) {
            if tag == 99 {
                self.log.borrow_mut().push("released");
                let m = NwsMsg::LockRelease;
                let s = m.wire_size();
                ctx.send(self.target, s, m).unwrap();
            }
        }
    }

    /// An idle sensor grants a lock immediately; a second requester queues
    /// until the first releases.
    #[test]
    fn lock_grants_are_serialized() {
        let (mut eng, hosts) = hub3();
        // A bare sensor with locking on, no cliques, no probes of its own.
        let sensor = eng.add_process(
            hosts[0],
            Box::new(Sensor::new(locking_cfg(), vec![], &SeriesTable::new())),
        );

        let log_a = Rc::new(RefCell::new(Vec::new()));
        let log_b = Rc::new(RefCell::new(Vec::new()));
        eng.add_process(
            hosts[1],
            Box::new(LockProber {
                target: sensor,
                log: log_a.clone(),
                hold: TimeDelta::from_secs(2.0),
            }),
        );
        eng.add_process(
            hosts[2],
            Box::new(LockProber {
                target: sensor,
                log: log_b.clone(),
                hold: TimeDelta::from_secs(2.0),
            }),
        );
        let deadline = eng.now() + TimeDelta::from_secs(30.0);
        eng.run_until(deadline);

        // Both probers eventually got the lock and released it.
        assert_eq!(*log_a.borrow(), vec!["request", "granted", "released"]);
        assert_eq!(*log_b.borrow(), vec!["request", "granted", "released"]);
    }

    /// A grant expires if the holder never releases (crash tolerance).
    #[test]
    fn unreleased_grant_expires() {
        struct Hog {
            target: ProcessId,
            got: Rc<RefCell<bool>>,
        }
        impl Process<NwsMsg> for Hog {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
                let m = NwsMsg::LockRequest;
                let s = m.wire_size();
                ctx.send(self.target, s, m).unwrap();
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
                if let NwsMsg::LockGrant = msg {
                    *self.got.borrow_mut() = true; // never releases
                }
            }
        }

        let (mut eng, hosts) = hub3();
        let sensor = eng.add_process(
            hosts[0],
            Box::new(Sensor::new(locking_cfg(), vec![], &SeriesTable::new())),
        );

        let got_hog = Rc::new(RefCell::new(false));
        eng.add_process(hosts[1], Box::new(Hog { target: sensor, got: got_hog.clone() }));
        // Second requester arrives later; must be served after the expiry.
        let log = Rc::new(RefCell::new(Vec::new()));
        eng.add_process(
            hosts[2],
            Box::new(LockProber {
                target: sensor,
                log: log.clone(),
                hold: TimeDelta::from_millis(100.0),
            }),
        );
        let deadline = eng.now() + TimeDelta::from_secs(30.0);
        eng.run_until(deadline);

        assert!(*got_hog.borrow(), "hog received its grant");
        assert!(
            log.borrow().contains(&"granted"),
            "queued requester must be served after the grant expires: {:?}",
            log.borrow()
        );
    }
}
