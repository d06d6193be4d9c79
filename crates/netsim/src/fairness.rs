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

#[cfg(test)]
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::routing::Path;
use crate::topology::{LinkId, LinkMode, MediumId, Topology};
use crate::units::Bandwidth;

/// Relative slack under which a resource counts as saturated. Shared by the
/// reference allocator and the incremental [`FairEngine`] so both freeze
/// identically.
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
    pub(crate) fn capacity(self, topo: &Topology) -> Bandwidth {
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
            let mut rate = f64::INFINITY;
            for r in &f.resources {
                let share = r.capacity(topo).as_bytes_per_sec() / users[r] as f64;
                rate = rate.min(share);
            }
            debug_assert!(rate.is_finite(), "flow without resources");
            Bandwidth::bytes_per_sec(rate)
        })
        .collect()
}

/// Compute the max-min fair allocation for the given flows.
///
/// Panics (debug) if a flow has no resources — such a flow has unbounded
/// rate and should be special-cased by the caller
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
        debug_assert!(!f.resources.is_empty(), "flow without resources has unbounded rate");
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

        // Freeze flows on saturated resources.
        let mut to_freeze = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let saturated = f
                .resources
                .iter()
                .any(|r| remaining[r] <= EPS * r.capacity(topo).as_bytes_per_sec().max(1.0));
            if saturated {
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
    pub(crate) fn index(self) -> usize {
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
    pub(crate) fn len(&self) -> usize {
        self.resources.len()
    }

    /// The resource consumed by traversing `link` in the given direction.
    pub fn link_dir(&self, link: LinkId, from_a: bool) -> ResourceId {
        self.link_dir[link.index()][usize::from(!from_a)]
    }

    /// Capacity in bytes/sec.
    #[cfg(test)]
    pub(crate) fn capacity(&self, r: ResourceId) -> f64 {
        self.capacity[r.index()]
    }

    /// Whether the table still covers the topology's structure (same link
    /// and medium populations). False after links were appended through
    /// the churn mutators, meaning the table must be extended.
    pub(crate) fn covers(&self, topo: &Topology) -> bool {
        self.link_dir.len() == topo.link_count() && self.mediums == topo.medium_count()
    }

    /// Extend the table over links appended to the topology since it was
    /// built, and re-read every capacity. Existing [`ResourceId`]s are
    /// stable (new resources are appended), so flows registered before the
    /// growth stay valid — this is what makes topology churn safe under
    /// live traffic. Mediums cannot be added post-build; links cannot be
    /// removed (only administratively downed), both enforced here.
    pub(crate) fn sync(&mut self, topo: &Topology) {
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
    rate: f64,
    /// Admission sequence number: `live` is in ascending `seq` order.
    seq: u64,
    alive: bool,
}

/// Reusable working memory for [`FairEngine::reallocate`]. All vectors are
/// sized once (per-resource arrays) or grow to the high-water flow count
/// (per-slot arrays), after which reallocation performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Per-resource remaining capacity: a fill from round 0 resets the
    /// active resources' entries, a resume loads its thawed flows' from
    /// the checkpoint.
    remaining: Vec<f64>,
    /// Per-resource count of *unfrozen* users this call; 0 on every
    /// resource once a fill completes.
    unfrozen: Vec<u32>,
    /// Resources still participating in the current progressive-filling
    /// rounds; pruned as their last user freezes.
    round: Vec<ResourceId>,
    /// Flows by resource, rebuilt by counting sort after an admission: the
    /// keys crossing `r` are `members[run_begin[r]..run_end[r]]`. A key
    /// that departed since stays in its runs and reads as frozen.
    run_begin: Vec<u32>,
    run_end: Vec<u32>,
    members: Vec<u32>,
    /// Whether `members` lists every live key: false after an admission. A
    /// growing `sync_topology` appends resources no live flow crosses, so
    /// the runs stay valid.
    sorted: bool,
    /// Per-slot working rate, written when the flow freezes.
    work: Vec<f64>,
    /// Per-slot frozen flag; true for every dead key.
    frozen: Vec<bool>,
    /// Resources that saturated in the current round.
    saturated: Vec<ResourceId>,
    /// Slots whose committed rate changed in the last reallocate, in live
    /// order.
    changed: Vec<u32>,

    // The last max-min fill's log, which the next fill resumes from when
    // flows have only departed since (see `FairEngine::resume_round`), or
    // which isolated changes patch (see `FairEngine::patch`).
    /// Whether the log describes the live flows minus `departed`, plus
    /// those admitted from `log_seq` on: false after a capacity or model
    /// change, a stuck exit or an equal-share fill. A departed key is not
    /// admitted again before the next fill commits, so its slot still
    /// holds the resources the log read.
    resumable: bool,
    /// Keys removed since the last fill.
    departed: Vec<u32>,
    /// The `FlowSlot::seq` of the first flow admitted since the last fill.
    log_seq: u64,
    /// Per-slot round in which the flow froze.
    freeze_round: Vec<u32>,
    /// Keys in the order they froze, and per round the length of `order`
    /// after it: a resume from round `t` thaws `order[round_end[t - 1]..]`.
    /// A patch keeps `round_end` as per-round freeze counts and leaves
    /// `order` stale: only a resume reads it, and a patched log has no
    /// checkpoint to resume from.
    order: Vec<u32>,
    round_end: Vec<u32>,
    /// Per-round `delta`; a round's `level` is their sum so far, added in
    /// order as the fill added them.
    deltas: Vec<f64>,
    /// Per round below `CHECKPOINT_ROUNDS`, the resources that saturated
    /// in it with a share equal to its `delta`. A lone user's tie always
    /// saturates (`rem - rem` is 0), so the count holds every tie of a
    /// resource a patch replays, and leaving out a shared resource that
    /// tied without saturating only makes the patch refuse more.
    ties: [u32; CHECKPOINT_ROUNDS],
    /// How the last max-min reallocate came by its rates.
    outcome: Patch,
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
    /// Counting sorts of the flows-by-resource table.
    #[cfg(test)]
    sorts: usize,
}

/// Rounds between two checkpoints of the fill log. A resume re-runs on
/// average half an interval below the departed flow's freeze round, and
/// the log stores one checkpoint per interval, so the interval trades
/// rounds re-run against checkpoint memory; DESIGN.md §2 has the figures.
/// A log no longer than one interval has no checkpoint, and is the one a
/// patch applies to.
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
        slots: &[FlowSlot],
        r: ResourceId,
        users: u32,
        gone: u32,
        from: usize,
    ) -> bool {
        let ri = r.index();
        // `hist[t]`: members now crossing `r` that froze in round `t`.
        self.hist.clear();
        self.hist.resize(from, 0);
        for m in self.run_begin[ri] as usize..self.run_end[ri] as usize {
            let k = self.members[m] as usize;
            let round = self.freeze_round[k] as usize;
            if slots[k].alive && round < from {
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

/// How the last max-min [`FairEngine::reallocate`] came by its rates:
/// by patching the last fill's log with the changes made since, or by a
/// fill, for the reason the patch did not apply (DESIGN.md §2, "Isolated
/// changes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Patch {
    /// The changes were applied to the log; no fill ran.
    Applied,
    /// A changed flow shares a resource, the model is not max-min, or
    /// there is no log without a checkpoint to patch.
    #[default]
    Inapplicable,
    /// An admitted flow's share fell below a kept round's `delta`.
    NewBottleneck,
    /// A kept round lost every resource whose share equalled its `delta`.
    LostTie,
    /// More than one admitted flow outlasts every other flow.
    TwoTails,
    /// A kept round, or the outlasting flow's own round, would freeze no
    /// flow.
    NoFreeze,
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
    /// The next admission's `FlowSlot::seq`.
    next_seq: u64,
    scratch: Scratch,
}

impl FairEngine {
    pub fn new(topo: &Topology, model: FairnessModel) -> Self {
        Self::with_table(Arc::new(ResourceTable::new(topo)), model)
    }

    /// An engine over an already interned table: its own cost is the zeroed
    /// per-resource arrays, not the interning.
    pub(crate) fn with_table(table: Arc<ResourceTable>, model: FairnessModel) -> Self {
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
            next_seq: 0,
            scratch: Scratch {
                remaining: vec![0.0; n],
                unfrozen: vec![0; n],
                run_begin: vec![0; n],
                run_end: vec![0; n],
                ck_row: vec![0; n],
                ..Scratch::default()
            },
        }
    }

    pub fn table(&self) -> &ResourceTable {
        &self.table
    }

    /// Switch the sharing model. Takes effect on the next reallocate, like
    /// the from-scratch path did.
    pub(crate) fn set_model(&mut self, model: FairnessModel) {
        self.model = model;
        self.scratch.resumable = false;
    }

    /// Re-read resource capacities from the topology (whose structure must
    /// be unchanged — links and mediums cannot be added or removed after
    /// build). Call after mutating link or medium capacities for failure
    /// injection; like the from-scratch path, the new values take effect on
    /// the next reallocate.
    pub(crate) fn refresh_capacities(&mut self, topo: &Topology) {
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
    pub(crate) fn sync_topology(&mut self, topo: &Topology) {
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
        self.scratch.run_begin.resize(n, 0);
        self.scratch.run_end.resize(n, 0);
        self.scratch.ck_row.resize(n, 0);
        self.scratch.resumable = false;
    }

    #[cfg(test)]
    pub(crate) fn flow_count(&self) -> usize {
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
    pub fn add_flow(&mut self, resources: &[ResourceId]) -> u32 {
        debug_assert!(!resources.is_empty(), "flow without resources has unbounded rate");
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
        slot.rate = 0.0;
        slot.seq = self.next_seq;
        slot.alive = true;
        self.next_seq += 1;
        self.live.push(key);
        self.scratch.sorted = false;
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
    /// (and its resource vector's capacity) is recycled by the adds after
    /// the next [`reallocate`](Self::reallocate): until then the fill log
    /// reads the departed flow's resources from it.
    pub fn remove_flow(&mut self, key: u32) {
        let slot = &mut self.slots[key as usize];
        assert!(slot.alive, "removing dead flow {key}");
        slot.alive = false;
        slot.rate = 0.0;
        let seq = slot.seq;
        for i in 0..self.slots[key as usize].resources.len() {
            let r = self.slots[key as usize].resources[i];
            self.users[r.index()] -= 1;
            if self.users[r.index()] == 0 {
                self.deactivate(r);
            }
        }
        let pos = self
            .live
            .binary_search_by_key(&seq, |&k| self.slots[k as usize].seq)
            .expect("live list contains every alive flow");
        // Ordered removal keeps allocation order stable for the remaining
        // flows (and bit-for-bit agreement with the oracle's demand order).
        self.live.remove(pos);
        // The key stays in the flows-by-resource runs until the next sort.
        if let Some(frozen) = self.scratch.frozen.get_mut(key as usize) {
            *frozen = true;
        }
        self.scratch.departed.push(key);
    }

    /// Keys whose committed rate changed in the last
    /// [`reallocate`](Self::reallocate), in [`live_keys`](Self::live_keys)
    /// order (for completion-time invalidation).
    pub(crate) fn changed(&self) -> &[u32] {
        &self.scratch.changed
    }

    /// How the last max-min [`reallocate`](Self::reallocate) came by its
    /// rates.
    #[cfg(test)]
    pub(crate) fn last_patch(&self) -> Patch {
        self.scratch.outcome
    }

    /// Recompute all rates under the configured model. The keys whose
    /// committed rate changed are readable via `changed`.
    /// Allocation-free once scratch has grown to the high-water flow count.
    pub fn reallocate(&mut self) {
        // Grow scratch to the high-water marks (no-ops in steady state): per
        // slot, and the fill log with it, since a fill runs at most one
        // round per live flow; the checkpoints by active resources; the
        // departed flows' resource list by their paths. Only an admission
        // raises the first two; growing the checkpoints discards a log that
        // has any rather than copying them.
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
            reserve(&mut self.free, n_slots);
            reserve(&mut s.deltas, n_slots);
            reserve(&mut s.order, n_slots);
            reserve(&mut s.round_end, n_slots);
            reserve(&mut s.hist, n_slots);
        }
        let ck = CHECKPOINTS * self.active.len();
        if s.ck_rem.capacity() < ck {
            s.ck_rem = Vec::with_capacity(ck);
            s.resumable &= s.ck_block == [0; CHECKPOINTS];
        }
        let refs = s.departed.iter().map(|&k| self.slots[k as usize].resources.len()).sum();
        reserve(&mut s.patch, refs);

        // The keys whose rate may have moved: `live[i..]`, in live order,
        // or a resumed fill's thawed keys `order[i..]`.
        let (from_order, i) = match self.model {
            FairnessModel::MaxMin => match self.patch() {
                Ok(admitted) => {
                    self.scratch.outcome = Patch::Applied;
                    (false, admitted)
                }
                Err(why) => {
                    self.scratch.outcome = why;
                    self.reallocate_max_min().map_or((false, 0), |thawed| (true, thawed))
                }
            },
            FairnessModel::BottleneckEqualShare => {
                self.reallocate_equal_share();
                (false, 0)
            }
        };
        // Commit, collecting changed flows in live order. Every other live
        // key still holds its committed rate.
        let Scratch { departed, changed, work, order, log_seq, .. } = &mut self.scratch;
        self.free.append(departed);
        changed.clear();
        *log_seq = self.next_seq;
        let keys = if from_order { &order[i..] } else { &self.live[i..] };
        for &k in keys {
            let slot = &mut self.slots[k as usize];
            if work[k as usize] != slot.rate {
                slot.rate = work[k as usize];
                changed.push(k);
            }
        }
        if from_order {
            changed.sort_unstable_by_key(|&k| self.slots[k as usize].seq);
        }
    }

    /// Applies the admissions and departures made since the last fill to
    /// its log, without filling, when every changed flow is alone on each
    /// of its resources; DESIGN.md §2, "Isolated changes", has the
    /// argument. Such a flow's resources lose one `delta` a round and
    /// share nothing, so every other flow repeats the logged fill as long
    /// as the logged `delta`s do. Writes the admitted flows' rates into
    /// `work` and returns where they start in `live` (they are its tail),
    /// or why the log cannot be patched. Every comparison that decides is
    /// exact, and a failure leaves a log that only a fill from round 0
    /// reads: a log without checkpoints offers no resume.
    fn patch(&mut self) -> Result<usize, Patch> {
        let s = &mut self.scratch;
        let rounds = s.deltas.len();
        // A fill from round 0 that ran at most `CHECKPOINT_ROUNDS` rounds,
        // so it counted every round's ties and kept no checkpoint.
        if !s.resumable || s.ck_block != [0; CHECKPOINTS] {
            return Err(Patch::Inapplicable);
        }
        let admitted = self.live.partition_point(|&k| self.slots[k as usize].seq < s.log_seq);

        // Each departed flow was in the fill and alone on its resources:
        // none has a user now, and no two departed flows share one.
        s.patch.clear();
        for &d in &s.departed {
            let slot = &self.slots[d as usize];
            if slot.seq >= s.log_seq || slot.resources.iter().any(|r| self.users[r.index()] > 0) {
                return Err(Patch::Inapplicable);
            }
            s.patch.extend_from_slice(&slot.resources);
        }
        s.patch.sort_unstable();
        if s.patch.windows(2).any(|w| w[0] == w[1]) {
            return Err(Patch::Inapplicable);
        }
        // Per round, the flows that froze in it, and the ties, without the
        // departed flows: a lone user's share `rem / 1.0` is `rem`, and
        // it loses `delta` once a round up to its freeze round.
        let mut froze = [0u32; CHECKPOINT_ROUNDS];
        let mut before = 0;
        for (n, &end) in froze.iter_mut().zip(&s.round_end) {
            *n = end - before;
            before = end;
        }
        for &d in &s.departed {
            let j = s.freeze_round[d as usize] as usize;
            froze[j] -= 1;
            for &r in &self.slots[d as usize].resources {
                let mut rem = self.table.capacity[r.index()];
                for t in 0..=j {
                    if rem == s.deltas[t] {
                        s.ties[t] -= 1;
                    }
                    rem -= s.deltas[t];
                }
            }
        }
        // The survivors freeze in the rounds they froze in, so the fill
        // keeps the rounds up to the last of them.
        let kept = froze[..rounds].iter().rposition(|&n| n > 0).map_or(0, |t| t + 1);
        let mut levels = [0.0f64; CHECKPOINT_ROUNDS];
        let mut level = 0.0;
        for (at, &delta) in levels.iter_mut().zip(&s.deltas[..kept]) {
            level += delta;
            *at = level;
        }

        // Replay each admitted flow's resources from capacity through the
        // kept rounds, as the fill would: a share below a round's `delta`
        // would have lowered it.
        let mut tail = None;
        for &a in &self.live[admitted..] {
            let resources = &self.slots[a as usize].resources;
            if resources.iter().any(|r| self.users[r.index()] > 1) {
                return Err(Patch::Inapplicable);
            }
            for r in resources {
                s.remaining[r.index()] = self.table.capacity[r.index()];
            }
            let mut round = None;
            for t in 0..kept {
                let delta = s.deltas[t];
                let mut saturated = false;
                for r in resources {
                    let rem = &mut s.remaining[r.index()];
                    if *rem < delta {
                        return Err(Patch::NewBottleneck);
                    }
                    if *rem == delta {
                        s.ties[t] += 1;
                    }
                    *rem -= delta;
                    saturated |= *rem <= self.table.freeze_eps[r.index()];
                }
                if saturated {
                    round = Some(t);
                    break;
                }
            }
            match round {
                Some(t) => {
                    froze[t] += 1;
                    s.freeze_round[a as usize] = t as u32;
                    s.work[a as usize] = levels[t];
                }
                None if tail.is_none() => tail = Some(a),
                None => return Err(Patch::TwoTails),
            }
        }
        // The kept rounds keep their `delta` if each still has a share at
        // it, and they stay rounds only if each still freezes a flow.
        for (&n, &ties) in froze[..kept].iter().zip(&s.ties) {
            if n == 0 {
                return Err(Patch::NoFreeze);
            }
            if ties == 0 {
                return Err(Patch::LostTie);
            }
        }
        s.deltas.truncate(kept);
        // A flow that outlasts all others runs one round of its own, in
        // which its resources are the whole round list.
        if let Some(a) = tail {
            if kept == CHECKPOINT_ROUNDS {
                return Err(Patch::Inapplicable);
            }
            let resources = &self.slots[a as usize].resources;
            let delta =
                resources.iter().fold(f64::INFINITY, |d, r| d.min(s.remaining[r.index()])).max(0.0);
            let (mut ties, mut saturated) = (0, false);
            for r in resources {
                let rem = &mut s.remaining[r.index()];
                ties += u32::from(*rem == delta);
                *rem -= delta;
                saturated |= *rem <= self.table.freeze_eps[r.index()];
            }
            if !saturated {
                return Err(Patch::NoFreeze);
            }
            s.deltas.push(delta);
            s.ties[kept] = ties;
            froze[kept] = 1;
            s.freeze_round[a as usize] = kept as u32;
            s.work[a as usize] = level + delta;
        }
        s.round_end.clear();
        let mut total = 0;
        for &n in &froze[..s.deltas.len()] {
            total += n;
            s.round_end.push(total);
        }
        Ok(admitted)
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
    /// rounds below it are the last fill's, and only the flows that froze
    /// from it on are thawed. Returns where those keys start in `order`,
    /// or `None` when every live key may have moved.
    fn reallocate_max_min(&mut self) -> Option<usize> {
        fn freeze(s: &mut Scratch, slot: &FlowSlot, k: u32, level: f64, round: usize) {
            s.frozen[k as usize] = true;
            s.work[k as usize] = level;
            s.freeze_round[k as usize] = round as u32;
            s.order.push(k);
            for &r in &slot.resources {
                s.unfrozen[r.index()] -= 1;
            }
        }
        let from = self.resume_round();
        let s = &mut self.scratch;
        #[cfg(test)]
        s.starts.push(from);
        let mut level = 0.0f64;
        let mut unfrozen_flows = 0;
        s.round.clear();
        let thawed = if from == 0 {
            // After an admission, rebuild the flows-by-resource table by
            // counting sort: each flow drops its key at its resources'
            // cursors, which end up one past each resource's run.
            let sort = !s.sorted;
            let mut total = 0;
            for &r in &self.active {
                let ri = r.index();
                s.remaining[ri] = self.table.capacity[ri];
                s.unfrozen[ri] = self.users[ri];
                if sort {
                    s.run_begin[ri] = total;
                    s.run_end[ri] = total;
                    total += self.users[ri];
                }
            }
            if sort {
                s.members.resize(total as usize, 0);
                s.sorted = true;
                #[cfg(test)]
                {
                    s.sorts += 1;
                }
            }
            for &k in &self.live {
                s.frozen[k as usize] = false;
                if sort {
                    for &r in &self.slots[k as usize].resources {
                        s.members[s.run_end[r.index()] as usize] = k;
                        s.run_end[r.index()] += 1;
                    }
                }
            }
            unfrozen_flows = self.live.len();
            s.round.extend_from_slice(&self.active);
            s.deltas.clear();
            s.order.clear();
            s.round_end.clear();
            s.ck_block = [0; CHECKPOINTS];
            None
        } else {
            // The last fill ended with every live flow frozen, so every
            // `unfrozen[r]` is 0. Thaw the live flows that froze from round
            // `from` on; the first to cross `r` puts it back in the round
            // list with its checkpointed `remaining`.
            level = s.deltas[..from].iter().fold(0.0, |level, delta| level + delta);
            s.deltas.truncate(from);
            s.round_end.truncate(from);
            let thawed = s.round_end[from - 1] as usize;
            let base = s.checkpoint(from / CHECKPOINT_ROUNDS).expect("resume_round checked");
            for i in thawed..s.order.len() {
                let k = s.order[i];
                let slot = &self.slots[k as usize];
                if !slot.alive {
                    continue;
                }
                s.frozen[k as usize] = false;
                for &r in &slot.resources {
                    let ri = r.index();
                    if s.unfrozen[ri] == 0 {
                        s.remaining[ri] = s.ck_rem[base + s.ck_row[ri] as usize];
                        s.round.push(r);
                    }
                    s.unfrozen[ri] += 1;
                }
                unfrozen_flows += 1;
            }
            s.order.truncate(thawed);
            Some(thawed)
        };

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
            debug_assert!(delta.is_finite(), "unfrozen flow with no binding constraint");
            let delta = delta.max(0.0);
            level += delta;
            s.deltas.push(delta);

            // Saturation is decided for every resource before any flow
            // freezes: a freeze lowers `unfrozen` on the flow's other
            // resources, which must still lose this round's full share.
            // A saturated resource whose share was `delta` is a tie.
            s.saturated.clear();
            let mut ties = 0;
            for &r in &s.round {
                let (start, users) = (s.remaining[r.index()], s.unfrozen[r.index()]);
                let mut rem = start;
                for _ in 0..users {
                    rem -= delta;
                }
                s.remaining[r.index()] = rem;
                if rem <= self.table.freeze_eps[r.index()] {
                    s.saturated.push(r);
                    ties += u32::from(start / users as f64 == delta);
                }
            }
            if t < CHECKPOINT_ROUNDS {
                s.ties[t] = ties;
            }
            let before = unfrozen_flows;
            for i in 0..s.saturated.len() {
                let r = s.saturated[i].index();
                for m in s.run_begin[r] as usize..s.run_end[r] as usize {
                    let k = s.members[m];
                    if !s.frozen[k as usize] {
                        freeze(s, &self.slots[k as usize], k, level, t);
                        unfrozen_flows -= 1;
                    }
                }
            }
            if unfrozen_flows == before {
                // delta was 0 without progress — numerically stuck; stop
                // raising rates (everything keeps its current share). The
                // flows left unfrozen have no freeze round to resume from,
                // and are not in `order` to be committed from.
                for &k in &self.live {
                    if !s.frozen[k as usize] {
                        s.work[k as usize] = level;
                    }
                }
                s.resumable = false;
                return None;
            }
            s.round_end.push(s.order.len() as u32);
            t += 1;
        }
        s.resumable = true;
        thawed
    }

    /// The round this fill starts from. Round 0 unless the last fill's log
    /// still holds and only departures followed the last counting sort (a
    /// resume freezes through the flows-by-resource table, which lacks the
    /// flows admitted since). Then every round below
    /// the earliest freeze round `j` of a departed flow repeats: the
    /// departed flows were unfrozen throughout, so each such round had the
    /// same binding resource — unless a departed flow's own resource was
    /// the binding term, which the replay below rules out —
    /// the same `delta`, and the same subtractions on every resource no
    /// departed flow crosses. Those are in the checkpoint at or below `j`;
    /// the departed flows' resources are replayed from capacity without
    /// them and written into it and every older checkpoint. Any doubt — a
    /// replayed share not strictly above the logged `delta`, or a replayed
    /// resource down to its freeze threshold — answers round 0.
    fn resume_round(&mut self) -> usize {
        let s = &mut self.scratch;
        if !s.resumable || !s.sorted || s.deltas.is_empty() {
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
            if !s.replay(&self.table, &self.slots, r, self.users[r.index()], run as u32, from) {
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
            let mut rate = f64::INFINITY;
            for &r in &slot.resources {
                let share = self.table.capacity[r.index()] / self.users[r.index()] as f64;
                rate = rate.min(share);
            }
            debug_assert!(rate.is_finite(), "flow without resources");
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

    impl ResourceTable {
        /// The interned resource's identity (for diagnostics and tests).
        fn resource(&self, r: ResourceId) -> Resource {
            self.resources[r.index()]
        }
    }

    impl FairEngine {
        fn model(&self) -> FairnessModel {
            self.model
        }
    }

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
            FlowDemand { resources: path_resources(&self.topo, &p) }
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
        ported_net(&vec![rate; n_hosts])
    }

    /// A switch whose host `i` has an access port of `ports[i]` Mbps.
    fn ported_net(ports: &[f64]) -> (Net, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let sw = b.switch("sw", mbps(ports[0]), Latency::micros(10.0));
        let hosts: Vec<NodeId> = ports
            .iter()
            .enumerate()
            .map(|(i, &port)| {
                let h = b.host(&format!("h{i}.x"), &format!("10.0.{}.{}", i / 250, i % 250 + 1));
                b.attach_with_capacity(h, sw, mbps(port));
                h
            })
            .collect();
        let topo = b.build().unwrap();
        let routes = RouteTable::compute(&topo);
        (Net { topo, routes }, hosts)
    }

    /// Fills that run tens of rounds: `servers` hosts at `rate` Mbps, then
    /// one client per flow whose own access port is one of 40 values well
    /// under a server port's share, so each binds in a round of its own.
    /// Every sixth client has a full-rate port, so the server ports
    /// saturate between those rounds.
    fn deep_fill_net(servers: usize, clients: usize, rate: f64) -> (Net, Vec<NodeId>) {
        let ports: Vec<f64> = (0..servers)
            .map(|_| rate)
            .chain((0..clients).map(|i| {
                if i % 6 == 5 {
                    rate
                } else {
                    rate * (1 + i % 40) as f64 / 256.0
                }
            }))
            .collect();
        ported_net(&ports)
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
    fn capped_flow_releases_capacity_to_others() {
        let (net, h) = ported_net(&[100.0, 10.0, 100.0]);
        let capped = net.demand(h[0], h[1]);
        let open = net.demand(h[0], h[2]);
        // Both flows share h0's egress port (100 Mbps): the flow capped by
        // h1's 10 Mbps port takes 10, the other grows to 90.
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
        let (net, h) = ported_net(&[100.0, 10.0, 100.0]);
        let flows = vec![net.demand(h[0], h[1]), net.demand(h[0], h[2])];
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
        let k1 = fe.add_flow(&ids);
        let k2 = fe.add_flow(&ids);
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
        let k3 = fe.add_flow(&ids);
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
        let k1 = fe.add_flow(&ids);
        let k2 = fe.add_flow(&ids);
        Arc::make_mut(&mut fe.table).freeze_eps[ids[0].index()] = -1.0;
        fe.reallocate();
        let half = mbps(100.0).as_bytes_per_sec() / 2.0;
        assert_eq!(fe.rate(k1).to_bits(), half.to_bits());
        assert_eq!(fe.rate(k2).to_bits(), half.to_bits());

        // The exit left both flows unfrozen. A departure keeps the sorted
        // table, so the departed key stays in the medium's run and must
        // read frozen, or the next fill freezes it a second time.
        fe.refresh_capacities(&net.topo);
        fe.remove_flow(k1);
        assert!(fe.scratch.frozen[k1 as usize], "a departed key reads frozen");
        fe.reallocate();
        assert_eq!(fe.scratch.sorts, 1, "a departure does not re-sort");
        assert_eq!(fe.rate(k2).to_bits(), mbps(100.0).as_bytes_per_sec().to_bits());
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
        ) {
            let p = net.routes.path(&net.topo, src, dst).unwrap();
            let mut ids = Vec::new();
            fe.table().intern_path(&net.topo, &p, &mut ids);
            let key = fe.add_flow(&ids);
            shadow.insert(key, net.demand(src, dst));
        }

        /// Live keys by committed rate, ties by key.
        fn by_rate(fe: &FairEngine) -> Vec<u32> {
            let mut keys = fe.live_keys().to_vec();
            keys.sort_by(|a, b| fe.rate(*a).total_cmp(&fe.rate(*b)).then(a.cmp(b)));
            keys
        }

        /// Reallocate, then compare every live rate with the oracle's, to
        /// the bit, and `changed()` with the live keys whose rate moved.
        fn matches_oracle(
            net: &Net,
            fe: &mut FairEngine,
            shadow: &HashMap<u32, FlowDemand>,
        ) -> Result<(), String> {
            let before: Vec<f64> = fe.live_keys().iter().map(|&k| fe.rate(k)).collect();
            let log_seq = fe.scratch.log_seq;
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
            let moved: Vec<u32> = fe
                .live_keys()
                .iter()
                .zip(&before)
                .filter(|&(&k, &was)| fe.rate(k) != was)
                .map(|(&k, _)| k)
                .collect();
            prop_assert_eq!(
                fe.changed(),
                &moved[..],
                "fill from round {:?}",
                fe.scratch.starts.last()
            );
            if model == FairnessModel::MaxMin && fe.last_patch() == Patch::Applied {
                // A patch admits only flows alone on every resource.
                for &k in fe.live_keys() {
                    if fe.slots[k as usize].seq >= log_seq {
                        for r in fe.resources(k) {
                            prop_assert_eq!(fe.users[r.index()], 1, "{} admitted shared", k);
                        }
                    }
                }
            } else if model == FairnessModel::MaxMin {
                members_match_users(fe)?;
            }
            Ok(())
        }

        /// After a max-min fill, the live keys in each active resource's
        /// run of the flows-by-resource table are exactly the `users[r]`
        /// that cross it, and every dead key left in a run reads frozen.
        fn members_match_users(fe: &FairEngine) -> Result<(), String> {
            let s = &fe.scratch;
            prop_assert!(s.sorted, "a max-min fill leaves the table sorted");
            let mut listed = 0;
            for &r in &fe.active {
                let ri = r.index();
                let run = &s.members[s.run_begin[ri] as usize..s.run_end[ri] as usize];
                let mut live = 0;
                for (i, &k) in run.iter().enumerate() {
                    prop_assert!(fe.resources(k).contains(&r), "{r}: {k} does not cross it");
                    prop_assert!(!run[..i].contains(&k), "{r}: {k} listed twice");
                    if fe.slots[k as usize].alive {
                        live += 1;
                    } else {
                        prop_assert!(s.frozen[k as usize], "{r}: dead key {k} reads unfrozen");
                    }
                }
                prop_assert_eq!(live, fe.users[ri], "{}: live keys in its run", r);
                listed += live as usize;
            }
            let refs: usize = fe.live.iter().map(|&k| fe.resources(k).len()).sum();
            prop_assert_eq!(listed, refs);
            Ok(())
        }

        /// A topology that grows under live traffic keeps the
        /// flows-by-resource table: the appended resources carry no flow
        /// until an admission, so the fills after the growth — from round
        /// 0, then resumed — sort nothing and still match the oracle.
        #[test]
        fn growth_under_live_flows_keeps_the_sorted_table() {
            let (mut net, hosts) = deep_fill_net(16, 48, 100.0);
            let mut fe = FairEngine::new(&net.topo, FairnessModel::MaxMin);
            let mut shadow = HashMap::new();
            for i in 0..48 {
                admit(&net, &mut fe, &mut shadow, (hosts[16 + i], hosts[i % 16]));
            }
            matches_oracle(&net, &mut fe, &shadow).unwrap();
            let before = fe.table().len();
            net.topo.add_host_like("late.x", "10.0.9.9".parse().unwrap(), hosts[0]).unwrap();
            fe.sync_topology(&net.topo);
            assert_eq!(fe.table().len(), before + 2, "the new access link's two directions");
            for _ in 0..12 {
                let fastest = *by_rate(&fe).last().unwrap();
                fe.remove_flow(fastest);
                shadow.remove(&fastest);
                matches_oracle(&net, &mut fe, &shadow).unwrap();
            }
            assert_eq!(fe.scratch.sorts, 1);
            assert!(fe.scratch.starts.iter().any(|&r| r > 0), "{:?}", fe.scratch.starts);
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
            /// topologies, under both sharing models. The switch hosts' ports
            /// run between rate/8 and rate, so they saturate in rounds before
            /// and after the hub does; `dead` gives one
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
                ports in proptest::collection::vec(1usize..9, 4),
                dead in proptest::option::of(0usize..10),
                // Each op: (src pick, dst pick, port pick, what). what 0
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
                for (&h, p) in hosts[n_each..].iter().zip(ports) {
                    set_port(&mut net, h, mbps(rate * p as f64 / 8.0));
                }
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

                for (s, d, port_pick, what) in ops {
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
                            admit(&net, &mut fe, &mut shadow, pair);
                            from_scratch = true;
                        }
                    } else if what == 7 {
                        set_port(&mut net, pair.0, mbps(rate * (1 + port_pick) as f64 / 4.0));
                        fe.refresh_capacities(&net.topo);
                        from_scratch = true;
                    } else if what == 8 {
                        fe.set_model(match fe.model() {
                            FairnessModel::MaxMin => FairnessModel::BottleneckEqualShare,
                            FairnessModel::BottleneckEqualShare => FairnessModel::MaxMin,
                        });
                        from_scratch = true;
                    } else if pair.0 != pair.1 {
                        admit(&net, &mut fe, &mut shadow, pair);
                        from_scratch = true;
                    }
                    let fills = fe.scratch.starts.len();
                    matches_oracle(&net, &mut fe, &shadow)?;
                    if from_scratch && fe.scratch.starts.len() > fills {
                        prop_assert_eq!(fe.scratch.starts[fills], 0);
                    }
                }
            }

            /// Fills long enough to resume: every flow leaves its own client
            /// port for one of 16 server ports (see `deep_fill_net`), so a
            /// fill runs more than three checkpoint intervals.
            /// The fastest flows leave first, as they do in a drain, and
            /// the fills after them must resume above round 0 and still
            /// match the oracle to the bit.
            #[test]
            fn long_fills_resume_and_match_oracle(
                rate in 10.0f64..500.0,
                servers in proptest::collection::vec(0usize..16, 40..64),
                // (which, how many): which 0 and 1 the fastest, 2 the
                // slowest, 3 the median-rate flows; one to three at once.
                removals in proptest::collection::vec((0usize..4, 1usize..4), 4..24),
            ) {
                let (net, hosts) = deep_fill_net(16, servers.len(), rate);
                let mut fe = FairEngine::new(&net.topo, FairnessModel::MaxMin);
                let mut shadow: HashMap<u32, FlowDemand> = HashMap::new();
                for (i, &s) in servers.iter().enumerate() {
                    admit(&net, &mut fe, &mut shadow, (hosts[16 + i], hosts[s]));
                }
                matches_oracle(&net, &mut fe, &shadow)?;
                prop_assert!(
                    fe.scratch.deltas.len() > 3 * CHECKPOINT_ROUNDS,
                    "the first fill ran {} rounds", fe.scratch.deltas.len()
                );
                prop_assert_eq!(fe.scratch.sorts, 1);
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
                // Departures alone never re-sort the flows-by-resource table.
                prop_assert_eq!(fe.scratch.sorts, 1);
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
