//! Max-min fair bandwidth allocation by progressive filling.
//!
//! Every active flow occupies a set of *resources*: one per directed
//! full-duplex link it crosses, or the single shared medium of each hub it
//! crosses (counted **once** per flow — a hub is one collision domain, so a
//! flow entering and leaving a hub consumes the medium once, and flows in
//! opposite directions contend, which is what makes ENV's jammed-bandwidth
//! test distinguish hubs from switches).
//!
//! Progressive filling raises all unfrozen flows' rates together; whenever a
//! resource saturates, the flows crossing it freeze at their current rate.
//! A flow may additionally carry a rate cap (e.g. a TCP-window/RTT bound),
//! modelled as a private resource.

#[cfg(test)]
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::routing::Path;
use crate::topology::{LinkId, LinkMode, MediumId, Topology};
use crate::units::Bandwidth;

/// Relative slack under which a resource counts as saturated (and absolute
/// slack for rate caps). Shared by the reference allocator and the
/// incremental [`FairEngine`] so both freeze identically.
const EPS: f64 = 1e-7;

/// A capacity-constrained entity flows compete for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// One direction of a full-duplex link. `from_a` is true for the a→b
    /// direction.
    LinkDir { link: LinkId, from_a: bool },
    /// The half-duplex shared medium of a hub.
    Medium(MediumId),
}

impl Resource {
    /// The resource's capacity in the given topology.
    pub fn capacity(self, topo: &Topology) -> Bandwidth {
        match self {
            Resource::LinkDir { link, from_a } => match topo.link(link).mode {
                LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                    if from_a {
                        capacity_ab
                    } else {
                        capacity_ba
                    }
                }
                LinkMode::Shared { medium } => topo.medium(medium).capacity,
            },
            Resource::Medium(m) => topo.medium(m).capacity,
        }
    }
}

/// The deduplicated resource set of a directed path.
pub fn path_resources(topo: &Topology, path: &Path) -> Vec<Resource> {
    let mut out: Vec<Resource> = Vec::with_capacity(path.links.len());
    for (i, l) in path.links.iter().enumerate() {
        let link = topo.link(*l);
        let r = match link.mode {
            LinkMode::FullDuplex { .. } => {
                Resource::LinkDir { link: *l, from_a: path.nodes[i] == link.a }
            }
            LinkMode::Shared { medium } => Resource::Medium(medium),
        };
        out.push(r);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// One flow's demand as seen by the reference allocators.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct FlowDemand {
    pub(crate) resources: Vec<Resource>,
    /// Optional per-flow rate ceiling (TCP window / application limit).
    pub(crate) rate_cap: Option<Bandwidth>,
}

/// How concurrent flows share capacity — the fluid model underlying every
/// observable. Max-min is the default (and what TCP approximates over a
/// LAN); the naive equal-share model exists as an ablation target: ENV's
/// ratio thresholds must classify identically under both (DESIGN.md,
/// design decision 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessModel {
    /// Progressive filling: the unique allocation where no flow can grow
    /// without shrinking a slower one.
    #[default]
    MaxMin,
    /// Each flow gets the minimum over its resources of `capacity / users`,
    /// with every flow counted on every resource it crosses — simpler and
    /// pessimistic (capacity freed by remotely-bottlenecked flows is not
    /// redistributed).
    BottleneckEqualShare,
}

/// Allocate under the chosen fluid model.
#[cfg(test)]
pub(crate) fn allocate(
    topo: &Topology,
    flows: &[FlowDemand],
    model: FairnessModel,
) -> Vec<Bandwidth> {
    match model {
        FairnessModel::MaxMin => max_min_allocate(topo, flows),
        FairnessModel::BottleneckEqualShare => equal_share_allocate(topo, flows),
    }
}

/// The naive equal-share model (see [`FairnessModel::BottleneckEqualShare`]).
#[cfg(test)]
pub(crate) fn equal_share_allocate(topo: &Topology, flows: &[FlowDemand]) -> Vec<Bandwidth> {
    let mut users: HashMap<Resource, u32> = HashMap::new();
    for f in flows {
        for r in &f.resources {
            *users.entry(*r).or_insert(0) += 1;
        }
    }
    flows
        .iter()
        .map(|f| {
            let mut rate = f.rate_cap.map(|c| c.as_bytes_per_sec()).unwrap_or(f64::INFINITY);
            for r in &f.resources {
                let share = r.capacity(topo).as_bytes_per_sec() / users[r] as f64;
                rate = rate.min(share);
            }
            debug_assert!(rate.is_finite(), "flow without resources or cap");
            Bandwidth::bytes_per_sec(rate)
        })
        .collect()
}

/// Compute the max-min fair allocation for the given flows.
///
/// Panics (debug) if a flow has neither resources nor a rate cap — such a
/// flow has unbounded rate and should be special-cased by the caller
/// (same-host transfers never reach the allocator).
#[cfg(test)]
pub(crate) fn max_min_allocate(topo: &Topology, flows: &[FlowDemand]) -> Vec<Bandwidth> {
    let n = flows.len();
    let mut rate = vec![0.0f64; n];
    if n == 0 {
        return Vec::new();
    }

    // Remaining capacity and unfrozen-flow count per resource. BTreeMap,
    // not HashMap: the bottleneck scan below iterates this table, and the
    // oracle's visit order must not depend on the hash seed (rule D2).
    // `delta` is a pure min-fold so the result would be identical anyway,
    // but the oracle is the yardstick every differential suite compares
    // against — it stays canonically ordered.
    let mut remaining: BTreeMap<Resource, f64> = BTreeMap::new();
    let mut users: BTreeMap<Resource, u32> = BTreeMap::new();
    for f in flows {
        debug_assert!(
            !f.resources.is_empty() || f.rate_cap.is_some(),
            "flow without resources or cap has unbounded rate"
        );
        for r in &f.resources {
            remaining.entry(*r).or_insert_with(|| r.capacity(topo).as_bytes_per_sec());
            *users.entry(*r).or_insert(0) += 1;
        }
    }

    let mut frozen = vec![false; n];
    let mut unfrozen = n;

    // Each iteration freezes at least one flow, so this terminates in <= n
    // rounds; each round is O(total resource references).
    while unfrozen > 0 {
        // The uniform rate increment all unfrozen flows can still take.
        let mut delta = f64::INFINITY;
        for (r, rem) in &remaining {
            let u = users[r];
            if u > 0 {
                delta = delta.min(*rem / u as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if let Some(cap) = f.rate_cap {
                delta = delta.min(cap.as_bytes_per_sec() - rate[i]);
            }
        }
        debug_assert!(delta.is_finite(), "unfrozen flow with no binding constraint");
        let delta = delta.max(0.0);

        // Apply the increment.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rate[i] += delta;
            for r in &f.resources {
                // Each unfrozen user consumed `delta` of the resource, and
                // resource lists are deduplicated, so this subtraction runs
                // exactly once per (flow, resource) reference.
                *remaining.get_mut(r).expect("resource was registered") -= delta;
            }
        }

        // Freeze flows on saturated resources or at their cap.
        let mut to_freeze = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let saturated = f
                .resources
                .iter()
                .any(|r| remaining[r] <= EPS * r.capacity(topo).as_bytes_per_sec().max(1.0));
            let capped = f.rate_cap.map(|c| rate[i] + EPS >= c.as_bytes_per_sec()).unwrap_or(false);
            if saturated || capped {
                to_freeze.push(i);
            }
        }
        if to_freeze.is_empty() {
            // delta was 0 without progress — numerically stuck; freeze all
            // remaining flows to guarantee termination.
            for froze in frozen.iter_mut() {
                *froze = true;
            }
            break;
        }
        for i in to_freeze {
            frozen[i] = true;
            unfrozen -= 1;
            for r in &flows[i].resources {
                *users.get_mut(r).expect("registered") -= 1;
            }
        }
    }

    rate.into_iter().map(Bandwidth::bytes_per_sec).collect()
}

// ---------------------------------------------------------------------------
// Incremental allocation engine
// ---------------------------------------------------------------------------
//
// The reference allocators above (compiled for tests only) rebuild
// `HashMap<Resource, _>` tables from scratch for every call — fine as an
// oracle, quadratic-with-allocations as the per-event hot path of the
// simulator. The types below replace them on the hot path:
//
// * [`ResourceTable`] interns every [`Resource`] of a topology into a dense
//   [`ResourceId`] once, so per-resource state lives in flat arrays;
// * [`FairEngine`] keeps per-resource user counts incrementally as flows
//   come and go, and reallocates into reusable scratch buffers — zero heap
//   allocation in steady state.
//
// `FairEngine::reallocate` is arithmetically identical to
// [`max_min_allocate`] / [`equal_share_allocate`] (same rounds, same
// `delta`s, the same chain of roundings on every value, same freeze
// thresholds), which the differential property suite below exploits: for
// random topologies and random add/remove sequences the two must agree
// bit-for-bit (`to_bits`).

/// Dense index of a [`Resource`] within a [`ResourceTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(u32);

impl ResourceId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res{}", self.0)
    }
}

/// Interns the resources of one topology: hub mediums first, then the two
/// directions of every full-duplex link. Shared-mode (hub port) links map
/// both directions to their hub's medium resource, so interning a path
/// automatically collapses a hub crossed twice into one reference (after
/// the caller sorts and dedups, as [`path_resources`] does for the oracle).
#[derive(Debug, Clone)]
pub struct ResourceTable {
    /// `link_dir[link][0]` is the a→b direction, `[1]` the b→a direction.
    link_dir: Vec<[ResourceId; 2]>,
    capacity: Vec<f64>,
    /// Precomputed freeze threshold `EPS * capacity.max(1.0)` — identical
    /// to the oracle's per-round expression.
    freeze_eps: Vec<f64>,
    /// Mediums come first: `resources[..mediums]`, fixed at build.
    mediums: usize,
    resources: Vec<Resource>,
}

impl ResourceTable {
    pub fn new(topo: &Topology) -> Self {
        let mut resources: Vec<Resource> =
            Vec::with_capacity(topo.medium_count() + 2 * topo.link_count());
        resources.extend(topo.mediums().map(|m| Resource::Medium(m.id)));
        let mut link_dir = Vec::with_capacity(topo.link_count());
        for link in topo.links() {
            match link.mode {
                LinkMode::Shared { medium } => {
                    let r = ResourceId(medium.index() as u32);
                    link_dir.push([r, r]);
                }
                LinkMode::FullDuplex { .. } => {
                    let ab = ResourceId(resources.len() as u32);
                    resources.push(Resource::LinkDir { link: link.id, from_a: true });
                    let ba = ResourceId(resources.len() as u32);
                    resources.push(Resource::LinkDir { link: link.id, from_a: false });
                    link_dir.push([ab, ba]);
                }
            }
        }
        let capacity: Vec<f64> =
            resources.iter().map(|r| r.capacity(topo).as_bytes_per_sec()).collect();
        let freeze_eps: Vec<f64> = capacity.iter().map(|c| EPS * c.max(1.0)).collect();
        ResourceTable { link_dir, capacity, freeze_eps, mediums: topo.medium_count(), resources }
    }

    /// Number of distinct resources in the topology.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// The resource consumed by traversing `link` in the given direction.
    pub fn link_dir(&self, link: LinkId, from_a: bool) -> ResourceId {
        self.link_dir[link.index()][usize::from(!from_a)]
    }

    /// The resource of a hub's shared medium.
    pub fn medium(&self, m: MediumId) -> ResourceId {
        ResourceId(m.index() as u32)
    }

    /// The interned resource's identity (for diagnostics and tests).
    pub fn resource(&self, r: ResourceId) -> Resource {
        self.resources[r.index()]
    }

    /// Capacity in bytes/sec.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.capacity[r.index()]
    }

    /// Whether the table still covers the topology's structure (same link
    /// and medium populations). False after links were appended through
    /// the churn mutators, meaning the table must be extended.
    pub fn covers(&self, topo: &Topology) -> bool {
        self.link_dir.len() == topo.link_count() && self.mediums == topo.medium_count()
    }

    /// Extend the table over links appended to the topology since it was
    /// built, and re-read every capacity. Existing [`ResourceId`]s are
    /// stable (new resources are appended), so flows registered before the
    /// growth stay valid — this is what makes topology churn safe under
    /// live traffic. Mediums cannot be added post-build; links cannot be
    /// removed (only administratively downed), both enforced here.
    pub fn sync(&mut self, topo: &Topology) {
        assert!(
            self.link_dir.len() <= topo.link_count(),
            "links cannot be removed from a topology, only downed"
        );
        assert_eq!(
            self.mediums,
            topo.medium_count(),
            "mediums cannot be added or removed after build"
        );
        for link in topo.links().skip(self.link_dir.len()) {
            match link.mode {
                LinkMode::Shared { medium } => {
                    let r = ResourceId(medium.index() as u32);
                    self.link_dir.push([r, r]);
                }
                LinkMode::FullDuplex { .. } => {
                    let ab = ResourceId(self.resources.len() as u32);
                    self.resources.push(Resource::LinkDir { link: link.id, from_a: true });
                    let ba = ResourceId(self.resources.len() as u32);
                    self.resources.push(Resource::LinkDir { link: link.id, from_a: false });
                    self.link_dir.push([ab, ba]);
                }
            }
        }
        self.capacity.clear();
        self.capacity.extend(self.resources.iter().map(|r| r.capacity(topo).as_bytes_per_sec()));
        self.freeze_eps.clear();
        self.freeze_eps.extend(self.capacity.iter().map(|c| EPS * c.max(1.0)));
    }

    /// Intern a path's resource set (sorted, deduplicated) — the id-space
    /// equivalent of [`path_resources`].
    pub fn intern_path(&self, topo: &Topology, path: &Path, out: &mut Vec<ResourceId>) {
        out.clear();
        for (i, l) in path.links.iter().enumerate() {
            let link = topo.link(*l);
            out.push(self.link_dir(*l, path.nodes[i] == link.a));
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// One flow registered with a [`FairEngine`]. Freed slots keep their
/// resource vector so re-adding a flow in steady state allocates nothing.
#[derive(Debug, Default)]
struct FlowSlot {
    resources: Vec<ResourceId>,
    /// `f64::INFINITY` when uncapped.
    cap: f64,
    rate: f64,
    alive: bool,
}

/// Reusable working memory for [`FairEngine::reallocate`]. All vectors are
/// sized once (per-resource arrays) or grow to the high-water flow count
/// (per-slot arrays), after which reallocation performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Per-resource remaining capacity; only entries of active resources
    /// are (re)initialised each call.
    remaining: Vec<f64>,
    /// Per-resource count of *unfrozen* users this call.
    unfrozen: Vec<u32>,
    /// Resources still participating in the current progressive-filling
    /// rounds; pruned as their last user freezes.
    round: Vec<ResourceId>,
    /// Flows by resource, rebuilt by counting sort each call: once built,
    /// the live keys crossing `r` are `members[start[r] - users[r]..start[r]]`.
    start: Vec<u32>,
    members: Vec<u32>,
    /// Per-slot working rate, written when the flow freezes.
    work: Vec<f64>,
    /// Per-slot frozen flag.
    frozen: Vec<bool>,
    /// Resources that saturated in the current round.
    saturated: Vec<ResourceId>,
    /// Slots whose committed rate changed in the last reallocate.
    changed: Vec<u32>,

    // The last max-min fill's log, which the next fill resumes from when
    // flows have only departed since (see `FairEngine::resume_round`).
    /// Whether the log describes the live flows minus `departed`: false
    /// after an admission, a capacity or model change, a stuck exit or an
    /// equal-share fill.
    resumable: bool,
    /// Keys removed since the last fill.
    departed: Vec<u32>,
    /// Per-slot round in which the flow froze.
    freeze_round: Vec<u32>,
    /// Per-round `delta`; a round's `level` is their sum so far, added in
    /// order as the fill added them.
    deltas: Vec<f64>,
    /// Checkpoint `c` (1-based) is `remaining` at the top of round
    /// `c * CHECKPOINT_ROUNDS` of every resource still in the round list,
    /// at `ck_rem[slot * ck_stride + ck_row[r]]` with `slot = c %
    /// CHECKPOINTS`, the slot holding it while `ck_block[slot] == c`.
    ck_rem: Vec<f64>,
    ck_block: [usize; CHECKPOINTS],
    /// Per-resource row: its position in the round list at checkpoint 1,
    /// which lists every resource a later checkpoint does.
    ck_row: Vec<u32>,
    ck_stride: usize,
    /// The departed flows' resources, one entry per (flow, resource).
    patch: Vec<ResourceId>,
    /// Per-round count of one resource's members that froze in that round.
    hist: Vec<u32>,
    /// The round each max-min fill started from.
    #[cfg(test)]
    starts: Vec<usize>,
}

/// Rounds between two checkpoints of the fill log. A resume re-runs on
/// average half an interval below the departed flow's freeze round, and
/// the log stores one checkpoint per interval, so the interval trades
/// rounds re-run against checkpoint memory; DESIGN.md §2 has the figures.
const CHECKPOINT_ROUNDS: usize = 8;

/// Checkpoints kept: the last ones written. A departing flow is one of the
/// fastest, so it froze in the fill's last rounds; one below them costs a
/// fill from round 0.
const CHECKPOINTS: usize = 4;

impl Scratch {
    /// Where checkpoint `c` starts in `ck_rem`, if it is still kept.
    fn checkpoint(&self, c: usize) -> Option<usize> {
        let slot = c % CHECKPOINTS;
        (self.ck_block[slot] == c).then_some(slot * self.ck_stride)
    }

    /// Replay resource `r` through rounds `0..from` of the logged fill,
    /// twice from its capacity: with the `gone` departed flows, as the
    /// logged fill saw it, and with the `users` members it has now. Writes
    /// the second into every kept checkpoint up to `from`. False when either
    /// share is not strictly above a round's `delta` (it could have been,
    /// or could become, the binding term) or the resource would saturate.
    fn replay(
        &mut self,
        table: &ResourceTable,
        r: ResourceId,
        users: u32,
        gone: u32,
        from: usize,
    ) -> bool {
        let ri = r.index();
        // `hist[t]`: members now crossing `r` that froze in round `t`.
        self.hist.clear();
        self.hist.resize(from, 0);
        let end = self.start[ri] as usize;
        for m in end - users as usize..end {
            let round = self.freeze_round[self.members[m] as usize] as usize;
            if round < from {
                self.hist[round] += 1;
            }
        }
        let (mut logged, mut now) = (table.capacity[ri], table.capacity[ri]);
        let mut unfrozen = users;
        for t in 0..from {
            let delta = self.deltas[t];
            if logged / (unfrozen + gone) as f64 <= delta {
                return false;
            }
            for _ in 0..unfrozen + gone {
                logged -= delta;
            }
            if unfrozen > 0 {
                if now / unfrozen as f64 <= delta {
                    return false;
                }
                for _ in 0..unfrozen {
                    now -= delta;
                }
                if now <= table.freeze_eps[ri] {
                    return false;
                }
                unfrozen -= self.hist[t];
            }
            // The departed flows kept `r` in the round list up to `from`,
            // so it has a row.
            if (t + 1).is_multiple_of(CHECKPOINT_ROUNDS) {
                if let Some(base) = self.checkpoint((t + 1) / CHECKPOINT_ROUNDS) {
                    self.ck_rem[base + self.ck_row[ri] as usize] = now;
                }
            }
        }
        true
    }
}

/// Incrementally-maintained fair-allocation engine: the hot-path
/// replacement for calling the test-only reference `allocate` from
/// scratch on every flow change.
///
/// Flows are registered with [`add_flow`](Self::add_flow) (which returns a
/// dense key) and dropped with [`remove_flow`](Self::remove_flow); both
/// maintain per-resource user counts and the active-resource list, so
/// [`reallocate`](Self::reallocate) touches only resources that currently
/// carry flows and performs zero heap allocation in steady state.
#[derive(Debug)]
pub struct FairEngine {
    /// Shared by the engines of one snapshot and copied on write, so that a
    /// sibling keeps the capacities and ids it started with.
    table: Arc<ResourceTable>,
    model: FairnessModel,
    /// Per-resource count of live flows crossing it.
    users: Vec<u32>,
    /// Resources with `users > 0` (unordered; `active_pos` locates them).
    active: Vec<ResourceId>,
    /// Position of each resource in `active`, or `u32::MAX`.
    active_pos: Vec<u32>,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    /// Live keys in insertion order — the order rates are filled, matching
    /// the oracle's demand-vector order for differential testing.
    live: Vec<u32>,
    scratch: Scratch,
}

impl FairEngine {
    pub fn new(topo: &Topology, model: FairnessModel) -> Self {
        Self::with_table(Arc::new(ResourceTable::new(topo)), model)
    }

    /// An engine over an already interned table: its own cost is the zeroed
    /// per-resource arrays, not the interning.
    pub fn with_table(table: Arc<ResourceTable>, model: FairnessModel) -> Self {
        let n = table.len();
        FairEngine {
            table,
            model,
            users: vec![0; n],
            active: Vec::new(),
            active_pos: vec![u32::MAX; n],
            slots: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            scratch: Scratch {
                remaining: vec![0.0; n],
                unfrozen: vec![0; n],
                start: vec![0; n],
                ck_row: vec![0; n],
                ..Scratch::default()
            },
        }
    }

    pub fn table(&self) -> &ResourceTable {
        &self.table
    }

    pub fn model(&self) -> FairnessModel {
        self.model
    }

    /// Switch the sharing model. Takes effect on the next reallocate, like
    /// the from-scratch path did.
    pub fn set_model(&mut self, model: FairnessModel) {
        self.model = model;
        self.scratch.resumable = false;
    }

    /// Re-read resource capacities from the topology (whose structure must
    /// be unchanged — links and mediums cannot be added or removed after
    /// build). Call after mutating link or medium capacities for failure
    /// injection; like the from-scratch path, the new values take effect on
    /// the next reallocate.
    pub fn refresh_capacities(&mut self, topo: &Topology) {
        debug_assert_eq!(
            self.table.link_dir.len(),
            topo.link_count(),
            "topology structure changed under the interner"
        );
        let table = Arc::make_mut(&mut self.table);
        for (i, r) in table.resources.iter().enumerate() {
            let cap = r.capacity(topo).as_bytes_per_sec();
            table.capacity[i] = cap;
            table.freeze_eps[i] = EPS * cap.max(1.0);
        }
        self.scratch.resumable = false;
    }

    /// Bring the engine in sync with a topology that may have *grown* (new
    /// hosts and access links appended by the churn mutators) as well as
    /// changed capacities. Resource ids are stable under growth, so live
    /// flows keep their interned resource lists; the per-resource state
    /// arrays are extended to match. Safe to call with flows active — the
    /// new capacities take effect on the next reallocate, exactly like
    /// [`refresh_capacities`](Self::refresh_capacities).
    pub fn sync_topology(&mut self, topo: &Topology) {
        if self.table.covers(topo) {
            self.refresh_capacities(topo);
            return;
        }
        Arc::make_mut(&mut self.table).sync(topo);
        let n = self.table.len();
        self.users.resize(n, 0);
        self.active_pos.resize(n, u32::MAX);
        self.scratch.remaining.resize(n, 0.0);
        self.scratch.unfrozen.resize(n, 0);
        self.scratch.start.resize(n, 0);
        self.scratch.ck_row.resize(n, 0);
        self.scratch.resumable = false;
    }

    pub fn flow_count(&self) -> usize {
        self.live.len()
    }

    /// Committed rate (bytes/sec) of a registered flow.
    pub fn rate(&self, key: u32) -> f64 {
        self.slots[key as usize].rate
    }

    /// Live keys in allocation order.
    pub fn live_keys(&self) -> &[u32] {
        &self.live
    }

    /// The resource list of a registered flow (sorted, deduplicated).
    pub fn resources(&self, key: u32) -> &[ResourceId] {
        &self.slots[key as usize].resources
    }

    /// Optional rate cap (bytes/sec) of a registered flow.
    pub fn rate_cap(&self, key: u32) -> Option<f64> {
        let cap = self.slots[key as usize].cap;
        cap.is_finite().then_some(cap)
    }

    fn activate(&mut self, r: ResourceId) {
        self.active_pos[r.index()] = self.active.len() as u32;
        self.active.push(r);
    }

    fn deactivate(&mut self, r: ResourceId) {
        let pos = self.active_pos[r.index()] as usize;
        self.active.swap_remove(pos);
        if let Some(&moved) = self.active.get(pos) {
            self.active_pos[moved.index()] = pos as u32;
        }
        self.active_pos[r.index()] = u32::MAX;
    }

    /// Register a flow crossing the given resources (need not be sorted;
    /// duplicates are collapsed). Returns the flow's dense key. Does not
    /// reallocate — call [`reallocate`](Self::reallocate) after the batch
    /// of changes.
    pub fn add_flow(&mut self, resources: &[ResourceId], rate_cap: Option<f64>) -> u32 {
        debug_assert!(
            !resources.is_empty() || rate_cap.is_some(),
            "flow without resources or cap has unbounded rate"
        );
        let key = match self.free.pop() {
            Some(k) => k,
            None => {
                self.slots.push(FlowSlot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[key as usize];
        slot.resources.clear();
        slot.resources.extend_from_slice(resources);
        slot.resources.sort_unstable();
        slot.resources.dedup();
        slot.cap = rate_cap.unwrap_or(f64::INFINITY);
        slot.rate = 0.0;
        slot.alive = true;
        self.live.push(key);
        self.scratch.resumable = false;
        self.scratch.departed.clear();
        for i in 0..self.slots[key as usize].resources.len() {
            let r = self.slots[key as usize].resources[i];
            self.users[r.index()] += 1;
            if self.users[r.index()] == 1 {
                self.activate(r);
            }
        }
        key
    }

    /// Drop a registered flow, releasing its resource references. The slot
    /// (and its resource vector's capacity) is recycled by later adds.
    pub fn remove_flow(&mut self, key: u32) {
        let slot = &mut self.slots[key as usize];
        assert!(slot.alive, "removing dead flow {key}");
        slot.alive = false;
        slot.rate = 0.0;
        for i in 0..self.slots[key as usize].resources.len() {
            let r = self.slots[key as usize].resources[i];
            self.users[r.index()] -= 1;
            if self.users[r.index()] == 0 {
                self.deactivate(r);
            }
        }
        let pos =
            self.live.iter().position(|&k| k == key).expect("live list contains every alive flow");
        // Ordered removal keeps allocation order stable for the remaining
        // flows (and bit-for-bit agreement with the oracle's demand order).
        self.live.remove(pos);
        self.free.push(key);
        self.scratch.departed.push(key);
    }

    /// Keys whose committed rate changed in the last
    /// [`reallocate`](Self::reallocate) (for completion-time invalidation).
    pub fn changed(&self) -> &[u32] {
        &self.scratch.changed
    }

    /// Recompute all rates under the configured model. The keys whose
    /// committed rate changed are readable via [`changed`](Self::changed).
    /// Allocation-free once scratch has grown to the high-water flow count.
    pub fn reallocate(&mut self) {
        // Grow scratch to the high-water marks (no-ops in steady state): per
        // slot, and the fill log with it, since a fill runs at most one
        // round per live flow; the checkpoints by active resources; the
        // departed flows' resource list by their paths. Only an admission
        // raises the first two, and an admission discards the log, so the
        // checkpoints are replaced rather than copied.
        fn reserve<T>(v: &mut Vec<T>, cap: usize) {
            v.reserve(cap.saturating_sub(v.len()));
        }
        let s = &mut self.scratch;
        let n_slots = self.slots.len();
        if s.work.len() < n_slots {
            s.work.resize(n_slots, 0.0);
            s.frozen.resize(n_slots, false);
            s.freeze_round.resize(n_slots, 0);
            reserve(&mut s.departed, n_slots);
            reserve(&mut s.deltas, n_slots);
            reserve(&mut s.hist, n_slots);
        }
        let ck = CHECKPOINTS * self.active.len();
        if s.ck_rem.capacity() < ck {
            s.ck_rem = Vec::with_capacity(ck);
            s.resumable = false;
        }
        let refs = s.departed.iter().map(|&k| self.slots[k as usize].resources.len()).sum();
        reserve(&mut s.patch, refs);

        match self.model {
            FairnessModel::MaxMin => self.reallocate_max_min(),
            FairnessModel::BottleneckEqualShare => self.reallocate_equal_share(),
        }
        // Commit, collecting changed flows.
        let s = &mut self.scratch;
        s.departed.clear();
        s.changed.clear();
        for &k in &self.live {
            let slot = &mut self.slots[k as usize];
            if s.work[k as usize] != slot.rate {
                slot.rate = s.work[k as usize];
                s.changed.push(k);
            }
        }
    }

    /// Progressive filling over interned resources — the same rounds and
    /// the same `delta`s as `max_min_allocate`, walked from the resource
    /// side. Every unfrozen flow holds the same sum of deltas, so one `level`
    /// stands for all of them. A resource with `u` unfrozen users loses
    /// `delta` `u` times a round whichever flow delivers each one, so the
    /// chain of subtractions runs in a register — repeated, never
    /// `u * delta`, which rounds differently. And a resource that saturates
    /// freezes its own members through the flows-by-resource table.
    ///
    /// The fill starts from round 0, or, when flows have only departed
    /// since the last fill, from the checkpoint `resume_round` picks: the
    /// rounds below it are the last fill's.
    fn reallocate_max_min(&mut self) {
        fn freeze(s: &mut Scratch, slot: &FlowSlot, k: u32, level: f64, round: usize) {
            s.frozen[k as usize] = true;
            s.work[k as usize] = level;
            s.freeze_round[k as usize] = round as u32;
            for &r in &slot.resources {
                s.unfrozen[r.index()] -= 1;
            }
        }
        let s = &mut self.scratch;
        let mut total = 0;
        for &r in &self.active {
            s.remaining[r.index()] = self.table.capacity[r.index()];
            s.unfrozen[r.index()] = self.users[r.index()];
            s.start[r.index()] = total;
            total += self.users[r.index()];
        }
        // Counting sort: each flow drops its key at its resources' cursors,
        // which end up one past each resource's run of members.
        s.members.resize(total as usize, 0);
        let mut any_cap = false;
        for &k in &self.live {
            let slot = &self.slots[k as usize];
            s.frozen[k as usize] = false;
            any_cap |= slot.cap.is_finite();
            for &r in &slot.resources {
                s.members[s.start[r.index()] as usize] = k;
                s.start[r.index()] += 1;
            }
        }

        let from = self.resume_round();
        let s = &mut self.scratch;
        #[cfg(test)]
        s.starts.push(from);
        let mut level = 0.0f64;
        let mut unfrozen_flows = self.live.len();
        s.round.clear();
        if from == 0 {
            s.round.extend_from_slice(&self.active);
            s.deltas.clear();
            s.ck_block = [0; CHECKPOINTS];
        } else {
            // Restore the flows frozen below the checkpoint, then the
            // resources their freezes leave in the round list.
            level = s.deltas[..from].iter().fold(0.0, |level, delta| level + delta);
            s.deltas.truncate(from);
            for &k in &self.live {
                if (s.freeze_round[k as usize] as usize) < from {
                    s.frozen[k as usize] = true;
                    for &r in &self.slots[k as usize].resources {
                        s.unfrozen[r.index()] -= 1;
                    }
                    unfrozen_flows -= 1;
                }
            }
            let base = s.checkpoint(from / CHECKPOINT_ROUNDS).expect("resume_round checked");
            for &r in &self.active {
                if s.unfrozen[r.index()] > 0 {
                    s.remaining[r.index()] = s.ck_rem[base + s.ck_row[r.index()] as usize];
                    s.round.push(r);
                }
            }
        }

        // Each round freezes at least one flow (or bails on numerical
        // stagnation), so this terminates in <= live.len() rounds.
        let mut t = from;
        while unfrozen_flows > 0 {
            // The uniform increment all unfrozen flows can still take,
            // scanning only resources that still carry unfrozen users.
            let mut delta = f64::INFINITY;
            let mut i = 0;
            while i < s.round.len() {
                let r = s.round[i];
                let u = s.unfrozen[r.index()];
                if u == 0 {
                    s.round.swap_remove(i);
                    continue;
                }
                delta = delta.min(s.remaining[r.index()] / u as f64);
                i += 1;
            }
            if t.is_multiple_of(CHECKPOINT_ROUNDS) && t > from {
                let c = t / CHECKPOINT_ROUNDS;
                if c == 1 {
                    for (i, &r) in s.round.iter().enumerate() {
                        s.ck_row[r.index()] = i as u32;
                    }
                    s.ck_stride = s.round.len();
                    s.ck_rem.resize(CHECKPOINTS * s.ck_stride, 0.0);
                }
                let base = c % CHECKPOINTS * s.ck_stride;
                for &r in &s.round {
                    s.ck_rem[base + s.ck_row[r.index()] as usize] = s.remaining[r.index()];
                }
                s.ck_block[c % CHECKPOINTS] = c;
            }
            if any_cap {
                for &k in &self.live {
                    if !s.frozen[k as usize] {
                        delta = delta.min(self.slots[k as usize].cap - level);
                    }
                }
            }
            debug_assert!(delta.is_finite(), "unfrozen flow with no binding constraint");
            let delta = delta.max(0.0);
            level += delta;
            s.deltas.push(delta);

            // Saturation is decided for every resource before any flow
            // freezes: a freeze lowers `unfrozen` on the flow's other
            // resources, which must still lose this round's full share.
            s.saturated.clear();
            for &r in &s.round {
                let mut rem = s.remaining[r.index()];
                for _ in 0..s.unfrozen[r.index()] {
                    rem -= delta;
                }
                s.remaining[r.index()] = rem;
                if rem <= self.table.freeze_eps[r.index()] {
                    s.saturated.push(r);
                }
            }
            let before = unfrozen_flows;
            for i in 0..s.saturated.len() {
                let r = s.saturated[i].index();
                let end = s.start[r] as usize;
                for m in end - self.users[r] as usize..end {
                    let k = s.members[m];
                    if !s.frozen[k as usize] {
                        freeze(s, &self.slots[k as usize], k, level, t);
                        unfrozen_flows -= 1;
                    }
                }
            }
            if any_cap {
                for &k in &self.live {
                    let slot = &self.slots[k as usize];
                    if !s.frozen[k as usize] && level + EPS >= slot.cap {
                        freeze(s, slot, k, level, t);
                        unfrozen_flows -= 1;
                    }
                }
            }
            if unfrozen_flows == before {
                // delta was 0 without progress — numerically stuck; stop
                // raising rates (everything keeps its current share). The
                // flows left unfrozen have no freeze round to resume from.
                for &k in &self.live {
                    if !s.frozen[k as usize] {
                        s.work[k as usize] = level;
                    }
                }
                s.resumable = false;
                return;
            }
            t += 1;
        }
        s.resumable = true;
    }

    /// The round this fill starts from. Round 0 unless the last fill's log
    /// still holds and only departures followed it. Then every round below
    /// the earliest freeze round `j` of a departed flow repeats: the
    /// departed flows were unfrozen throughout, so each such round had the
    /// same binding resource — unless a departed flow's own cap or
    /// resource was the binding term, which the replay below rules out —
    /// the same `delta`, and the same subtractions on every resource no
    /// departed flow crosses. Those are in the checkpoint at or below `j`;
    /// the departed flows' resources are replayed from capacity without
    /// them and written into it and every older checkpoint. Any doubt — a
    /// replayed share not strictly above the logged `delta`, or a replayed
    /// resource down to its freeze threshold — answers round 0.
    fn resume_round(&mut self) -> usize {
        let s = &mut self.scratch;
        if !s.resumable || s.deltas.is_empty() {
            return 0;
        }
        let last = s.deltas.len() - 1;
        let j =
            s.departed.iter().map(|&k| s.freeze_round[k as usize] as usize).fold(last, usize::min);
        let mut c = j / CHECKPOINT_ROUNDS;
        while c > 0 && s.checkpoint(c).is_none() {
            c -= 1;
        }
        let from = c * CHECKPOINT_ROUNDS;
        if from == 0 {
            return 0;
        }
        // A departed flow's cap must not have bound any round below `from`.
        for &k in &s.departed {
            let cap = self.slots[k as usize].cap;
            if cap.is_infinite() {
                continue;
            }
            let mut level = 0.0;
            for t in 0..from {
                if cap - level <= s.deltas[t] {
                    return 0;
                }
                level += s.deltas[t];
            }
        }
        s.patch.clear();
        for &k in &s.departed {
            s.patch.extend_from_slice(&self.slots[k as usize].resources);
        }
        s.patch.sort_unstable();
        let mut i = 0;
        while i < s.patch.len() {
            let r = s.patch[i];
            let run = s.patch[i..].iter().take_while(|&&x| x == r).count();
            i += run;
            if !s.replay(&self.table, r, self.users[r.index()], run as u32, from) {
                return 0;
            }
        }
        from
    }

    /// Flat-array equivalent of `equal_share_allocate`: every flow is
    /// counted on every resource it crosses.
    fn reallocate_equal_share(&mut self) {
        let s = &mut self.scratch;
        for &k in &self.live {
            let slot = &self.slots[k as usize];
            let mut rate = slot.cap;
            for &r in &slot.resources {
                let share = self.table.capacity[r.index()] / self.users[r.index()] as f64;
                rate = rate.min(share);
            }
            debug_assert!(rate.is_finite(), "flow without resources or cap");
            s.work[k as usize] = rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteTable;
    use crate::topology::{NodeId, TopologyBuilder};
    use crate::units::Latency;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::mbps(x)
    }

    struct Net {
        topo: Topology,
        routes: RouteTable,
    }

    impl Net {
        fn demand(&self, src: NodeId, dst: NodeId) -> FlowDemand {
            let p = self.routes.path(&self.topo, src, dst).unwrap();
            FlowDemand { resources: path_resources(&self.topo, &p), rate_cap: None }
        }
    }

    fn hub_net(n_hosts: usize, rate: f64) -> (Net, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", mbps(rate), Latency::micros(10.0));
        let hosts: Vec<NodeId> = (0..n_hosts)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, hub);
                h
            })
            .collect();
        let topo = b.build().unwrap();
        let routes = RouteTable::compute(&topo);
        (Net { topo, routes }, hosts)
    }

    fn switch_net(n_hosts: usize, rate: f64) -> (Net, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let sw = b.switch("sw", mbps(rate), Latency::micros(10.0));
        let hosts: Vec<NodeId> = (0..n_hosts)
            .map(|i| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.0.{}", i + 1));
                b.attach(h, sw);
                h
            })
            .collect();
        let topo = b.build().unwrap();
        let routes = RouteTable::compute(&topo);
        (Net { topo, routes }, hosts)
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let (net, h) = hub_net(2, 100.0);
        let rates = max_min_allocate(&net.topo, &[net.demand(h[0], h[1])]);
        assert!((rates[0].as_mbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn hub_flows_share_one_medium() {
        // Two disjoint pairs on one hub still halve each other — the
        // behaviour NWS's clique protocol exists to avoid (paper §2.3).
        let (net, h) = hub_net(4, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[2], h[3])];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 50.0).abs() < 1e-6);
        assert!((rates[1].as_mbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn hub_medium_counted_once_per_flow() {
        // A single flow through a hub crosses two ports but must still get
        // the full medium rate, not half.
        let (net, h) = hub_net(2, 100.0);
        let d = net.demand(h[0], h[1]);
        assert_eq!(d.resources.len(), 1, "medium must be deduplicated");
        let rates = max_min_allocate(&net.topo, &[d]);
        assert!((rates[0].as_mbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn switch_flows_are_independent() {
        let (net, h) = switch_net(4, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[2], h[3])];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 100.0).abs() < 1e-6);
        assert!((rates[1].as_mbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn switch_flows_share_common_port() {
        // Both flows leave the same source host: its single port is the
        // bottleneck — the effect that keeps ENV's pairwise test from
        // splitting switched clusters.
        let (net, h) = switch_net(3, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[0], h[2])];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 50.0).abs() < 1e-6);
        assert!((rates[1].as_mbps() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn opposite_directions_share_hub_but_not_switch() {
        let (net, h) = hub_net(2, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[1], h[0])];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 50.0).abs() < 1e-6, "hub is half-duplex");

        let (net, h) = switch_net(2, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[1], h[0])];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 100.0).abs() < 1e-6, "switch is full-duplex");
        assert!((rates[1].as_mbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_binds() {
        let (net, h) = switch_net(2, 100.0);
        let mut d = net.demand(h[0], h[1]);
        d.rate_cap = Some(mbps(7.0));
        let rates = max_min_allocate(&net.topo, &[d]);
        assert!((rates[0].as_mbps() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_capacity_to_others() {
        let (net, h) = switch_net(3, 100.0);
        let mut capped = net.demand(h[0], h[1]);
        capped.rate_cap = Some(mbps(10.0));
        let open = net.demand(h[0], h[2]);
        // Both flows share h0's egress port (100 Mbps): the capped flow
        // takes 10, the other grows to 90.
        let rates = max_min_allocate(&net.topo, &[capped, open]);
        assert!((rates[0].as_mbps() - 10.0).abs() < 1e-6);
        assert!((rates[1].as_mbps() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn classic_line_network_max_min() {
        // a —10M— r1 —10M— r2 —10M— c with flows a→r2-side host etc.
        // Use 3 hosts in a line via two routers; long flow shares both
        // links with two short flows → long flow gets 5, shorts get 5 then
        // fill to... classic parking-lot: all get 5 on the contended link;
        // short flow on the other link also 5 since both links carry
        // (long, one short).
        let mut b = TopologyBuilder::new();
        let a = b.host("a.x", "10.0.0.1");
        let m = b.host("m.x", "10.0.0.2");
        let c = b.host("c.x", "10.0.0.3");
        let r1 = b.router("r1.x", "10.0.1.1");
        let r2 = b.router("r2.x", "10.0.1.2");
        b.link(a, r1, mbps(100.0), Latency::ZERO);
        b.link(r1, r2, mbps(10.0), Latency::ZERO);
        b.link(r2, c, mbps(100.0), Latency::ZERO);
        b.link(r1, m, mbps(100.0), Latency::ZERO);
        let topo = b.build().unwrap();
        let routes = RouteTable::compute(&topo);
        let net = Net { topo, routes };
        // Flow 1: a→c (crosses r1-r2). Flow 2: m→c (crosses r1-r2 too).
        // Flow 3: a→m (does not cross the bottleneck).
        let flows = vec![net.demand(a, c), net.demand(m, c), net.demand(a, m)];
        let rates = max_min_allocate(&net.topo, &flows);
        assert!((rates[0].as_mbps() - 5.0).abs() < 1e-6);
        assert!((rates[1].as_mbps() - 5.0).abs() < 1e-6);
        // Flow 3 shares a→r1 with flow 1 (which froze at 5): gets 95.
        assert!((rates[2].as_mbps() - 95.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input() {
        let (net, _) = hub_net(2, 100.0);
        assert!(max_min_allocate(&net.topo, &[]).is_empty());
        assert!(equal_share_allocate(&net.topo, &[]).is_empty());
    }

    #[test]
    fn equal_share_matches_max_min_on_single_bottleneck() {
        // On one shared hub the two models agree exactly.
        let (net, h) = hub_net(4, 100.0);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[2], h[3])];
        let mm = max_min_allocate(&net.topo, &flows);
        let es = equal_share_allocate(&net.topo, &flows);
        for (a, b) in mm.iter().zip(&es) {
            assert!((a.as_mbps() - b.as_mbps()).abs() < 1e-9);
        }
    }

    #[test]
    fn equal_share_is_pessimistic_on_parking_lot() {
        // Classic difference: a flow bottlenecked elsewhere still "uses"
        // its share under equal-share, so the co-located flow gets less
        // than max-min would grant it.
        let (net, h) = switch_net(3, 100.0);
        let mut capped = net.demand(h[0], h[1]);
        capped.rate_cap = Some(mbps(10.0));
        let open = net.demand(h[0], h[2]);
        let flows = vec![capped, open];
        let mm = max_min_allocate(&net.topo, &flows);
        let es = equal_share_allocate(&net.topo, &flows);
        assert!((mm[1].as_mbps() - 90.0).abs() < 1e-6, "max-min redistributes");
        assert!((es[1].as_mbps() - 50.0).abs() < 1e-6, "equal share does not");
        // The model selector dispatches correctly.
        let via_enum = allocate(&net.topo, &flows, FairnessModel::BottleneckEqualShare);
        assert_eq!(es, via_enum);
    }

    #[test]
    fn resource_table_interns_every_resource() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", mbps(10.0), Latency::micros(10.0));
        let sw = b.switch("sw", mbps(100.0), Latency::micros(10.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, sw);
        let r = b.router("r.x", "10.0.1.1");
        b.attach(r, hub);
        b.attach(r, sw);
        let topo = b.build().unwrap();
        let table = ResourceTable::new(&topo);
        // 1 medium + 2 directions for each of the 2 full-duplex switch
        // ports; the 2 hub ports share the medium resource.
        assert_eq!(table.len(), 5);
        let routes = RouteTable::compute(&topo);
        let path = routes.path(&topo, a, c).unwrap();
        let mut ids = Vec::new();
        table.intern_path(&topo, &path, &mut ids);
        let plain = path_resources(&topo, &path);
        assert_eq!(ids.len(), plain.len(), "interned set matches the oracle's");
        // Same multiset of resources, same capacities.
        let mut caps_interned: Vec<f64> = ids.iter().map(|&r| table.capacity(r)).collect();
        let mut caps_plain: Vec<f64> =
            plain.iter().map(|r| r.capacity(&topo).as_bytes_per_sec()).collect();
        caps_interned.sort_by(f64::total_cmp);
        caps_plain.sort_by(f64::total_cmp);
        assert_eq!(caps_interned, caps_plain);
        for &id in &ids {
            assert!(plain.contains(&table.resource(id)));
        }
    }

    #[test]
    fn fair_engine_recycles_slots_without_leaking_users() {
        let (net, h) = hub_net(3, 100.0);
        let mut fe = FairEngine::new(&net.topo, FairnessModel::MaxMin);
        let table = ResourceTable::new(&net.topo);
        let mut ids = Vec::new();
        let p = net.routes.path(&net.topo, h[0], h[1]).unwrap();
        table.intern_path(&net.topo, &p, &mut ids);
        let k1 = fe.add_flow(&ids, None);
        let k2 = fe.add_flow(&ids, None);
        fe.reallocate();
        // Two flows on one 100 Mbps hub medium: 50 Mbps each.
        assert!((fe.rate(k1) - mbps(50.0).as_bytes_per_sec()).abs() < 1.0);
        assert!((fe.rate(k2) - mbps(50.0).as_bytes_per_sec()).abs() < 1.0);
        assert_eq!(fe.flow_count(), 2);
        fe.remove_flow(k1);
        fe.reallocate();
        // The lone survivor gets the whole medium back.
        assert!((fe.rate(k2) - mbps(100.0).as_bytes_per_sec()).abs() < 1.0);
        // The freed slot is recycled.
        let k3 = fe.add_flow(&ids, None);
        assert_eq!(k3, k1, "freelist reuses the freed key");
        fe.reallocate();
        assert!((fe.rate(k2) - mbps(50.0).as_bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn stuck_exit_leaves_every_unfrozen_flow_at_the_level() {
        // No finite input reaches the exit — a round's binding resource
        // always tests as saturated — so put its threshold out of reach.
        let (net, h) = hub_net(3, 100.0);
        let mut fe = FairEngine::new(&net.topo, FairnessModel::MaxMin);
        let table = ResourceTable::new(&net.topo);
        let mut ids = Vec::new();
        let p = net.routes.path(&net.topo, h[0], h[1]).unwrap();
        table.intern_path(&net.topo, &p, &mut ids);
        let k1 = fe.add_flow(&ids, None);
        let k2 = fe.add_flow(&ids, None);
        Arc::make_mut(&mut fe.table).freeze_eps[ids[0].index()] = -1.0;
        fe.reallocate();
        let half = mbps(100.0).as_bytes_per_sec() / 2.0;
        assert_eq!(fe.rate(k1).to_bits(), half.to_bits());
        assert_eq!(fe.rate(k2).to_bits(), half.to_bits());
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A platform mixing one hub and one switch behind a router.
        fn mixed_net(n_each: usize, rate: f64) -> (Net, Vec<NodeId>) {
            let mut b = TopologyBuilder::new();
            let hub = b.hub("hub", mbps(rate), Latency::micros(10.0));
            let sw = b.switch("sw", mbps(rate), Latency::micros(10.0));
            let r = b.router("r.x", "10.9.0.1");
            b.attach(r, hub);
            b.attach(r, sw);
            let mut hosts = Vec::new();
            for i in 0..n_each {
                let h = b.host(&format!("hh{i}.x"), &format!("10.1.0.{}", i + 1));
                b.attach(h, hub);
                hosts.push(h);
            }
            for i in 0..n_each {
                let h = b.host(&format!("sh{i}.x"), &format!("10.2.0.{}", i + 1));
                b.attach(h, sw);
                hosts.push(h);
            }
            let topo = b.build().unwrap();
            let routes = RouteTable::compute(&topo);
            (Net { topo, routes }, hosts)
        }

        /// Give a host's port — or, behind a hub, the whole hub — a new
        /// capacity.
        fn set_port(net: &mut Net, host: NodeId, bw: Bandwidth) {
            let (port, _) = net.topo.neighbours(host)[0];
            match &mut net.topo.link_mut(port).mode {
                LinkMode::FullDuplex { capacity_ab, capacity_ba } => {
                    *capacity_ab = bw;
                    *capacity_ba = bw;
                }
                LinkMode::Shared { medium } => {
                    let medium = *medium;
                    net.topo.medium_mut(medium).capacity = bw;
                }
            }
        }

        /// Admit a flow `src → dst` to the engine and its demand to the
        /// shadow state.
        fn admit(
            net: &Net,
            fe: &mut FairEngine,
            shadow: &mut HashMap<u32, FlowDemand>,
            (src, dst): (NodeId, NodeId),
            cap: Option<Bandwidth>,
        ) {
            let mut demand = net.demand(src, dst);
            demand.rate_cap = cap;
            let p = net.routes.path(&net.topo, src, dst).unwrap();
            let mut ids = Vec::new();
            fe.table().intern_path(&net.topo, &p, &mut ids);
            let key = fe.add_flow(&ids, cap.map(|c| c.as_bytes_per_sec()));
            shadow.insert(key, demand);
        }

        /// Live keys by committed rate, ties by key.
        fn by_rate(fe: &FairEngine) -> Vec<u32> {
            let mut keys = fe.live_keys().to_vec();
            keys.sort_by(|a, b| fe.rate(*a).total_cmp(&fe.rate(*b)).then(a.cmp(b)));
            keys
        }

        /// Reallocate, then compare every live rate with the oracle's, to
        /// the bit.
        fn matches_oracle(
            net: &Net,
            fe: &mut FairEngine,
            shadow: &HashMap<u32, FlowDemand>,
        ) -> Result<(), String> {
            fe.reallocate();
            let demands: Vec<FlowDemand> =
                fe.live_keys().iter().map(|k| shadow[k].clone()).collect();
            let model = fe.model();
            let oracle = allocate(&net.topo, &demands, model);
            for (k, want) in fe.live_keys().iter().zip(&oracle) {
                let got = fe.rate(*k);
                let want = want.as_bytes_per_sec();
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "flow {k}: incremental {got:e} vs oracle {want:e} \
                     ({} flows, model {model:?}, fill from round {:?})",
                    demands.len(),
                    fe.scratch.starts.last()
                );
            }
            if model == FairnessModel::MaxMin {
                members_match_users(fe)?;
            }
            Ok(())
        }

        /// After a max-min reallocate, the flows-by-resource table lists
        /// exactly the `users[r]` live keys that cross each active resource.
        fn members_match_users(fe: &FairEngine) -> Result<(), String> {
            let s = &fe.scratch;
            let mut listed = 0;
            for &r in &fe.active {
                let end = s.start[r.index()] as usize;
                let run = &s.members[end - fe.users[r.index()] as usize..end];
                listed += run.len();
                for (i, &k) in run.iter().enumerate() {
                    prop_assert!(fe.live.contains(&k), "{r}: dead key {k}");
                    prop_assert!(fe.resources(k).contains(&r), "{r}: {k} does not cross it");
                    prop_assert!(!run[..i].contains(&k), "{r}: {k} listed twice");
                }
            }
            let refs: usize = fe.live.iter().map(|&k| fe.resources(k).len()).sum();
            prop_assert_eq!(listed, refs);
            prop_assert_eq!(s.members.len(), refs);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Mixed hub+switch platforms keep the same invariants, and the
            /// hub medium is never oversubscribed by cross-device flows.
            #[test]
            fn max_min_invariants_mixed(
                n_each in 2usize..5,
                pairs in proptest::collection::vec((0usize..10, 0usize..10), 1..10),
                rate in 10.0f64..500.0,
            ) {
                let (net, hosts) = mixed_net(n_each, rate);
                let n = hosts.len();
                let flows: Vec<FlowDemand> = pairs
                    .iter()
                    .filter_map(|(s, d)| {
                        let s = s % n;
                        let d = d % n;
                        (s != d).then(|| net.demand(hosts[s], hosts[d]))
                    })
                    .collect();
                prop_assume!(!flows.is_empty());
                let rates = max_min_allocate(&net.topo, &flows);

                let mut usage: std::collections::BTreeMap<Resource, f64> =
                    std::collections::BTreeMap::new();
                for (f, r) in flows.iter().zip(&rates) {
                    prop_assert!(r.as_bytes_per_sec() > 0.0, "starved flow");
                    for res in &f.resources {
                        *usage.entry(*res).or_insert(0.0) += r.as_bytes_per_sec();
                    }
                }
                for (res, used) in &usage {
                    let cap = res.capacity(&net.topo).as_bytes_per_sec();
                    prop_assert!(*used <= cap * (1.0 + 1e-6),
                        "{res:?} oversubscribed");
                }
            }

            /// On a random star switch with random flows, no resource is
            /// oversubscribed and every flow is bottlenecked somewhere.
            #[test]
            fn max_min_invariants(
                n_hosts in 2usize..8,
                pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..12),
                rate in 10.0f64..1000.0,
            ) {
                let (net, hosts) = switch_net(n_hosts, rate);
                let flows: Vec<FlowDemand> = pairs
                    .iter()
                    .filter_map(|(s, d)| {
                        let s = s % n_hosts;
                        let d = d % n_hosts;
                        (s != d).then(|| net.demand(hosts[s], hosts[d]))
                    })
                    .collect();
                prop_assume!(!flows.is_empty());
                let rates = max_min_allocate(&net.topo, &flows);

                // No resource oversubscribed.
                let mut usage: std::collections::BTreeMap<Resource, f64> =
                    std::collections::BTreeMap::new();
                for (f, r) in flows.iter().zip(&rates) {
                    for res in &f.resources {
                        *usage.entry(*res).or_insert(0.0) += r.as_bytes_per_sec();
                    }
                }
                for (res, used) in &usage {
                    let cap = res.capacity(&net.topo).as_bytes_per_sec();
                    prop_assert!(*used <= cap * (1.0 + 1e-6),
                        "resource {res:?} oversubscribed: {used} > {cap}");
                }

                // Every flow is bottlenecked: it crosses some resource
                // whose capacity is (nearly) fully used.
                for (f, r) in flows.iter().zip(&rates) {
                    prop_assert!(r.as_bytes_per_sec() > 0.0);
                    let bottlenecked = f.resources.iter().any(|res| {
                        let cap = res.capacity(&net.topo).as_bytes_per_sec();
                        usage[res] >= cap * (1.0 - 1e-6)
                    });
                    prop_assert!(bottlenecked, "flow has slack everywhere");
                }
            }

            /// Differential suite: the incremental [`FairEngine`] must
            /// produce the same per-flow rates, to the bit, as the
            /// from-scratch oracle after every step of a random add/remove
            /// sequence (up to 64 live flows), on random mixed hub+switch
            /// topologies, under both sharing models. Half the flows are
            /// capped between rate/8 and rate, so caps bind in rounds before
            /// and after the hub or a port saturates; `dead` gives one
            /// host's port (or the whole hub) zero capacity, so a round has
            /// `delta == 0`. A step removes one to three flows — the oldest,
            /// a resource's only member, or by committed rate the highest,
            /// lowest or median — so the next fill resumes from the last
            /// one's log, or removes and admits, changes a port's capacity
            /// or switches the model, after which it must start at round 0.
            #[test]
            fn incremental_engine_matches_oracle(
                n_each in 2usize..5,
                rate in 10.0f64..500.0,
                dead in proptest::option::of(0usize..10),
                // Each op: (src pick, dst pick, cap pick, what). cap < 4 →
                // uncapped, otherwise a cap of cap/8 × rate Mbps. what 0
                // drops the oldest live flow, 1 a flow that is some
                // resource's only member (the resource must leave `active`
                // and the table), 2, 3 and 4 the highest-, lowest- and
                // median-rate flow, 5 the two or three fastest, 6 the
                // median-rate flow while admitting one, 7 sets a port's
                // capacity, 8 switches the model; anything else adds one.
                ops in proptest::collection::vec(
                    (0usize..12, 0usize..12, 0usize..9, 0usize..20),
                    1..160
                ),
                equal_share in proptest::bool::ANY,
            ) {
                let (mut net, hosts) = mixed_net(n_each, rate);
                if let Some(d) = dead {
                    set_port(&mut net, hosts[d % hosts.len()], Bandwidth::ZERO);
                }
                let model = if equal_share {
                    FairnessModel::BottleneckEqualShare
                } else {
                    FairnessModel::MaxMin
                };
                let mut fe = FairEngine::new(&net.topo, model);
                // Shadow state, keyed in the engine's live order.
                let mut shadow: HashMap<u32, FlowDemand> = HashMap::new();
                let n = hosts.len();

                for (s, d, cap_pick, what) in ops {
                    let cap = (cap_pick >= 4).then(|| mbps(cap_pick as f64 * rate / 8.0));
                    let pair = (hosts[s % n], hosts[d % n]);
                    let removes = !shadow.is_empty() && (what < 7 || shadow.len() == 64 && what > 8);
                    let mut from_scratch = false;
                    if removes {
                        let keys = by_rate(&fe);
                        let fastest = keys.len() - 1;
                        let victims = match what {
                            1 => fe.live_keys().iter().copied().find(|&k| {
                                fe.resources(k).iter().any(|r| fe.users[r.index()] == 1)
                            }).into_iter().collect(),
                            2 => vec![keys[fastest]],
                            3 => vec![keys[0]],
                            4 | 6 => vec![keys[keys.len() / 2]],
                            5 => keys.iter().rev().take(2 + s % 2).copied().collect(),
                            _ => vec![fe.live_keys()[0]],
                        };
                        for key in victims {
                            fe.remove_flow(key);
                            shadow.remove(&key);
                        }
                        if what == 6 && pair.0 != pair.1 {
                            admit(&net, &mut fe, &mut shadow, pair, cap);
                            from_scratch = true;
                        }
                    } else if what == 7 {
                        set_port(&mut net, pair.0, mbps(rate * (1 + cap_pick) as f64 / 4.0));
                        fe.refresh_capacities(&net.topo);
                        from_scratch = true;
                    } else if what == 8 {
                        fe.set_model(match fe.model() {
                            FairnessModel::MaxMin => FairnessModel::BottleneckEqualShare,
                            FairnessModel::BottleneckEqualShare => FairnessModel::MaxMin,
                        });
                        from_scratch = true;
                    } else if pair.0 != pair.1 {
                        admit(&net, &mut fe, &mut shadow, pair, cap);
                        from_scratch = true;
                    }
                    let fills = fe.scratch.starts.len();
                    matches_oracle(&net, &mut fe, &shadow)?;
                    if from_scratch && fe.scratch.starts.len() > fills {
                        prop_assert_eq!(fe.scratch.starts[fills], 0);
                    }
                }
            }

            /// Fills long enough to resume: every flow between two hosts of
            /// a switch carries its own cap, from 40 distinct values well
            /// under a port's share, so each cap binds in a round of its
            /// own and a fill runs more than three checkpoint intervals.
            /// The fastest flows leave first, as they do in a drain, and
            /// the fills after them must resume above round 0 and still
            /// match the oracle to the bit.
            #[test]
            fn long_fills_resume_and_match_oracle(
                rate in 10.0f64..500.0,
                pairs in proptest::collection::vec((0usize..16, 1usize..16), 40..64),
                // (which, how many): which 0 and 1 the fastest, 2 the
                // slowest, 3 the median-rate flows; one to three at once.
                removals in proptest::collection::vec((0usize..4, 1usize..4), 4..24),
            ) {
                let (net, hosts) = switch_net(16, rate);
                let mut fe = FairEngine::new(&net.topo, FairnessModel::MaxMin);
                let mut shadow: HashMap<u32, FlowDemand> = HashMap::new();
                for (i, &(s, hop)) in pairs.iter().enumerate() {
                    // Flow i's cap is one of 40 values; every sixth flow is
                    // uncapped, so ports saturate between the caps.
                    let cap = (i % 6 != 5).then(|| mbps(rate * (1 + i % 40) as f64 / 256.0));
                    admit(&net, &mut fe, &mut shadow, (hosts[s], hosts[(s + hop) % 16]), cap);
                }
                matches_oracle(&net, &mut fe, &shadow)?;
                prop_assert!(
                    fe.scratch.deltas.len() > 3 * CHECKPOINT_ROUNDS,
                    "the first fill ran {} rounds", fe.scratch.deltas.len()
                );
                for (which, count) in removals {
                    for _ in 0..count.min(fe.flow_count()) {
                        let keys = by_rate(&fe);
                        let key = match which {
                            0 | 1 => keys[keys.len() - 1],
                            2 => keys[0],
                            _ => keys[keys.len() / 2],
                        };
                        fe.remove_flow(key);
                        shadow.remove(&key);
                    }
                    matches_oracle(&net, &mut fe, &shadow)?;
                }
                let resumed = fe.scratch.starts.iter().filter(|&&r| r > 0).count();
                prop_assert!(resumed > 0, "no fill resumed: {:?}", fe.scratch.starts);
            }

            /// Interned path extraction agrees with [`path_resources`] on
            /// identity and capacity for every host pair.
            #[test]
            fn interned_paths_match_oracle(
                n_each in 2usize..5,
                rate in 10.0f64..500.0,
            ) {
                let (net, hosts) = mixed_net(n_each, rate);
                let table = ResourceTable::new(&net.topo);
                let mut ids = Vec::new();
                for &a in &hosts {
                    for &b in &hosts {
                        if a == b {
                            continue;
                        }
                        let p = net.routes.path(&net.topo, a, b).unwrap();
                        table.intern_path(&net.topo, &p, &mut ids);
                        let plain = path_resources(&net.topo, &p);
                        prop_assert_eq!(ids.len(), plain.len());
                        for &id in &ids {
                            prop_assert!(plain.contains(&table.resource(id)));
                        }
                    }
                }
            }
        }
    }
}
