//! Orchestration of a full ENV run (paper §4.2), and of incremental
//! *re*-runs under topology churn ([`EnvMapper::remap`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use netsim::prelude::*;
use netsim::{Engine, ResourceTable, RouteTable};

#[cfg(test)]
use crate::net::NetKind;
use crate::net::{EnvNet, EnvView, FlatNet};
use crate::refine::{refine_cluster, RefHost, RefinedCluster};
use crate::structural::{build_tree_from_chains, clusters_with_gateways, hop_key, StructNode};
use crate::thresholds::EnvThresholds;

/// A host given to the mapper: a hostname or a bare dotted-quad address
/// (the paper's "machines without hostname" fix, §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInput(pub String);

impl HostInput {
    pub fn new(s: &str) -> Self {
        HostInput(s.to_string())
    }
}

/// Probe accounting, for the intrusiveness and cost experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeStats {
    pub traceroutes: u64,
    pub bw_probes: u64,
    pub concurrent_experiments: u64,
    /// Simulated seconds the mapping took.
    pub mapping_seconds: f64,
}

impl ProbeStats {
    /// Total discrete experiments run.
    pub fn total_experiments(&self) -> u64 {
        self.traceroutes + self.bw_probes + self.concurrent_experiments
    }
}

/// Mapper configuration: the two things a caller varies. Everything else
/// an experiment needs is a constant in [`crate::refine`].
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    pub thresholds: EnvThresholds,
    /// Issue resource-disjoint refinement probes concurrently (see
    /// [`crate::batch`]); off by default, matching ENV's strictly serial
    /// schedule. The jammed-bandwidth experiment always stays serial.
    pub batch_probes: bool,
}

impl EnvConfig {
    /// The paper's thresholds on ENV's serial schedule (same as `Default`).
    pub fn fast() -> Self {
        EnvConfig::default()
    }

    /// [`EnvConfig::fast`] with batched probe scheduling — the pipeline
    /// scaling harness's configuration.
    pub fn fast_batched() -> Self {
        EnvConfig { batch_probes: true, ..EnvConfig::fast() }
    }
}

/// A machine record carried through to GridML and the merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineRecord {
    /// The input name (FQDN or bare IP).
    pub name: String,
    pub ip: Ipv4,
    /// Site grouping key: DNS domain, or classful pseudo-domain for
    /// nameless machines.
    pub site: String,
    /// Other known names of the same machine (other interfaces).
    pub aliases: Vec<String>,
    pub node: NodeId,
}

/// The result of one ENV run.
#[derive(Debug, Clone)]
pub struct EnvRun {
    pub view: EnvView,
    pub structural: StructNode,
    pub machines: Vec<MachineRecord>,
    pub stats: ProbeStats,
    /// The master's resolved input name.
    pub master: String,
    /// name/alias → index into `machines`, built once at construction
    /// (mirrors `Topology::node_by_name`): [`EnvRun::machine`] used to scan
    /// every record's name *and* aliases per lookup, which made per-host
    /// consumers quadratic. First machine carrying the name wins, exactly
    /// like the old scan. Fixed hash keys: a run is cloned and dropped per
    /// remap, in bucket order, and that order must not differ from one
    /// process to the next (see netsim's `name::FixedState`).
    machine_index: HashMap<String, usize, BuildHasherDefault<DefaultHasher>>,
}

impl EnvRun {
    /// Assemble a run, building the machine name/alias index.
    pub(crate) fn new(
        view: EnvView,
        structural: StructNode,
        machines: Vec<MachineRecord>,
        stats: ProbeStats,
        master: String,
    ) -> Self {
        let mut machine_index =
            HashMap::with_capacity_and_hasher(machines.len() * 2, BuildHasherDefault::default());
        for (i, m) in machines.iter().enumerate() {
            machine_index.entry(m.name.clone()).or_insert(i);
            for a in &m.aliases {
                machine_index.entry(a.clone()).or_insert(i);
            }
        }
        EnvRun { view, structural, machines, stats, master, machine_index }
    }

    /// The record owning `name` (input name or alias) — O(1) via the index
    /// built at construction.
    pub(crate) fn machine(&self, name: &str) -> Option<&MachineRecord> {
        self.machine_index.get(name).map(|&i| &self.machines[i])
    }
}

/// The ENV mapper.
#[derive(Debug, Clone, Default)]
pub struct EnvMapper {
    pub config: EnvConfig,
}

impl EnvMapper {
    pub fn new(config: EnvConfig) -> Self {
        EnvMapper { config }
    }

    /// Run the full pipeline on the given hosts from `master`'s viewpoint,
    /// probing on the caller's live engine: its clock advances and its
    /// cross-traffic is what the probes see.
    ///
    /// `external` is the well-known traceroute destination of the
    /// structural phase; pass `None` (or an unreachable node, as inside a
    /// firewall) to fall back to tracerouting toward the master.
    pub fn map<M>(
        &self,
        eng: &mut Engine<M>,
        hosts: &[HostInput],
        master: &str,
        external: Option<&str>,
    ) -> NetResult<EnvRun> {
        self.run(Exec::live(eng), None, hosts, master, external)
    }

    /// Incrementally re-map after topology churn: re-probe only the hosts
    /// whose site/structural neighborhood is **dirty**, splicing the
    /// previous run's refined clusters over everything untouched. Clean
    /// clusters cost *zero* probe experiments — their traceroute chains
    /// are reused from `prev`'s structural tree and their measurements
    /// from `prev`'s effective view.
    ///
    /// `hosts` is the complete current host list (departed hosts simply
    /// absent); `dirty` names the hosts whose master-relative measurements
    /// may have changed. The **dirty-neighborhood contract**: the caller
    /// must mark every host whose path to the master gained/lost capacity
    /// or whose cluster's membership changed (a joiner's whole LAN, a
    /// leaver's remaining neighbors, every member of a re-provisioned
    /// LAN). Hosts unknown to `prev` are implicitly dirty. Under that
    /// contract the splice is sound (see DESIGN.md §7): measurements are
    /// functions of the quiescent platform along master↔member paths, so a
    /// cluster with no dirty member and unchanged membership re-measures
    /// to exactly its previous values — reuse and re-probe are
    /// indistinguishable, which the differential suite asserts
    /// (`remap == map` on the mutated platform, bit for bit).
    ///
    /// The master must be clean and present; a dirtied master (or a master
    /// swap) invalidates every measurement, so callers should fall back to
    /// a full [`EnvMapper::map`].
    pub fn remap<M>(
        &self,
        eng: &mut Engine<M>,
        prev: &EnvRun,
        hosts: &[HostInput],
        dirty: &[String],
        master: &str,
        external: Option<&str>,
    ) -> NetResult<EnvRun> {
        self.run(Exec::live(eng), Some((prev, dirty)), hosts, master, external)
    }

    /// [`EnvMapper::map`] with the probe phases fanned out across
    /// `threads` workers, each driving its own simulator instance over the
    /// engine's shared immutable snapshot ([`Engine::snapshot`]).
    /// Traceroute chains fan out per host; refinement fans out per
    /// structural cluster, with [`crate::batch`] co-scheduling running
    /// within each worker. The caller's engine is **not** advanced — the
    /// run is a pure function of the snapshot, and the resulting view is
    /// bit-identical for any `threads ≥ 1` (each cluster refines on a
    /// fresh worker simulator at t = 0, so neither scheduling nor thread
    /// count can reorder its probes). Against the serial oracle the view
    /// agrees on [`EnvView::approx_eq`]: serial refinement runs clusters
    /// back-to-back on one advancing clock, which perturbs measurement
    /// arithmetic only at floating-point rounding level.
    ///
    /// `stats.mapping_seconds` models the parallel makespan: the maximum
    /// over workers of their summed simulated probe times.
    pub fn map_parallel<M>(
        &self,
        eng: &Engine<M>,
        hosts: &[HostInput],
        master: &str,
        external: Option<&str>,
        threads: usize,
    ) -> NetResult<EnvRun> {
        self.run(Exec::snapshot(eng, threads), None, hosts, master, external)
    }

    /// [`EnvMapper::remap`] with the same fan-out as
    /// [`EnvMapper::map_parallel`]: the splice decisions are made serially
    /// (pure planning over the previous run), then only the clusters that
    /// actually need re-probing are dispatched to workers. Dirty hosts'
    /// traceroutes fan out per host; clean hosts reuse their previous
    /// chains at zero cost, exactly like the serial incremental path.
    #[expect(clippy::too_many_arguments, reason = "`remap`'s arguments plus the worker count")]
    pub fn remap_parallel<M>(
        &self,
        eng: &Engine<M>,
        prev: &EnvRun,
        hosts: &[HostInput],
        dirty: &[String],
        master: &str,
        external: Option<&str>,
        threads: usize,
    ) -> NetResult<EnvRun> {
        self.run(Exec::snapshot(eng, threads), Some((prev, dirty)), hosts, master, external)
    }

    /// The one ENV pipeline (paper §4.2): lookup → structural traceroutes
    /// → refinement → assembly. `exec` is where the probes run; `prev` is
    /// a previous run plus the hosts declared dirty since, from which
    /// everything clean is reused instead of probed — a full map is the
    /// incremental one with nothing to reuse.
    fn run<M>(
        &self,
        mut exec: Exec<'_, M>,
        prev: Option<(&EnvRun, &[String])>,
        hosts: &[HostInput],
        master: &str,
        external: Option<&str>,
    ) -> NetResult<EnvRun> {
        self.config.thresholds.validate()?;
        let mut stats = ProbeStats::default();

        // ---- phase 1: lookup ---------------------------------------------
        let machines = resolve_inputs(exec.topo(), hosts)?;
        let master_rec = master_record(&machines, master)?;
        let external_node = external.map(|name| exec.topo().resolve_host(name)).transpose()?;
        let reuse = prev.map(|(prev, dirty)| Reuse::new(prev, dirty, &machines));

        // ---- phase 3: structural topology ---------------------------------
        // Clean hosts reuse the chain recorded in the previous tree; the
        // rest are traced. Rebuilding from merged chains is bit-identical
        // to a full rebuild over the same paths.
        let mut chains: Vec<(String, Vec<String>)> = Vec::with_capacity(machines.len());
        let mut to_trace: Vec<usize> = Vec::new();
        for (i, m) in machines.iter().enumerate() {
            let reused = reuse.as_ref().and_then(|r| r.chain(&m.name));
            if reused.is_none() {
                to_trace.push(i);
            }
            chains.push((m.name.clone(), reused.unwrap_or_default()));
        }
        let traced = exec.trace(&machines, &to_trace, external_node, master_rec.node, &mut stats);
        for (i, chain) in traced {
            chains[i].1 = chain;
        }
        let structural = build_tree_from_chains(&chains);

        // ---- phases 4–7 + assembly ----------------------------------------
        let mut jobs = plan_clusters(&machines, &master_rec, &structural, |refs| {
            reuse.as_ref().and_then(|r| r.splice(refs))
        });
        exec.refine(master_rec.node, &mut jobs, &self.config, &mut stats);
        let mut flat: Vec<FlatCluster> = Vec::new();
        for job in jobs {
            for rc in job.refined.expect("the executor refines every job not spliced") {
                flat.push((job.gateways.clone(), job.routers.clone(), rc));
            }
        }
        let networks = assemble_tree(flat);
        stats.mapping_seconds = exec.mapping_seconds();

        Ok(EnvRun::new(
            EnvView { master: master_rec.name.clone(), networks },
            structural,
            machines,
            stats,
            master_rec.name,
        ))
    }
}

/// Where a run's probes execute. Everything around the probes is
/// [`EnvMapper::run`]; an executor only traces, refines, and reports the
/// simulated time that took — which means something different on each
/// (the caller's clock delta vs. the worker makespan), so it is the
/// executor's to say.
enum Exec<'e, M> {
    /// Serially on the caller's engine. This is the executor that can map
    /// a platform *under load* (paper §4.3, `tests/mapping_under_load.rs`):
    /// the engine's background flows contend with the probes, and the
    /// clock the caller keeps using has advanced by the mapping time.
    Live { eng: &'e mut Engine<M>, t_start: SimTime },
    /// On `threads` workers, each driving its own simulator over a shared
    /// immutable snapshot of the quiescent platform. The run is a pure
    /// function of the snapshot, bit-identical for any thread count (the
    /// soundness argument of DESIGN.md §9). `makespan` is the modeled
    /// mapping time: the maximum over workers of their summed per-cluster
    /// simulated times.
    Snapshot { topo: Arc<Topology>, routes: Arc<RouteTable>, threads: usize, makespan: f64 },
}

impl<'e, M> Exec<'e, M> {
    fn live(eng: &'e mut Engine<M>) -> Self {
        let t_start = eng.now();
        Exec::Live { eng, t_start }
    }

    fn snapshot(eng: &Engine<M>, threads: usize) -> Self {
        let (topo, routes) = eng.snapshot();
        Exec::Snapshot { topo, routes, threads: threads.max(1), makespan: 0.0 }
    }

    fn topo(&self) -> &Topology {
        match self {
            Exec::Live { eng, .. } => eng.topo(),
            Exec::Snapshot { topo, .. } => topo,
        }
    }

    /// Structural traceroutes for the machines named by `indices`, as
    /// `(machine index, outermost-first key chain)` in any order.
    /// Traceroutes are pure path walks — they never advance the simulated
    /// clock — so per-worker engines and round-robin assignment yield
    /// chains bit-identical to the serial loop's.
    fn trace(
        &mut self,
        machines: &[MachineRecord],
        indices: &[usize],
        external_node: Option<NodeId>,
        master_node: NodeId,
        stats: &mut ProbeStats,
    ) -> Vec<(usize, Vec<String>)> {
        match self {
            Exec::Live { eng, .. } => indices
                .iter()
                .map(|&i| (i, trace_chain(eng, &machines[i], external_node, master_node, stats)))
                .collect(),
            Exec::Snapshot { topo, routes, threads, .. } => {
                let per_worker = on_workers(*threads, |w| {
                    let mut eng: Sim = Engine::from_snapshot(Arc::clone(topo), Arc::clone(routes));
                    let mut st = ProbeStats::default();
                    let mut out = Vec::new();
                    for &i in indices.iter().skip(w).step_by(*threads) {
                        let m = &machines[i];
                        out.push((
                            i,
                            trace_chain(&mut eng, m, external_node, master_node, &mut st),
                        ));
                    }
                    (out, st)
                });
                let mut traced = Vec::with_capacity(indices.len());
                for (out, st) in per_worker {
                    stats.traceroutes += st.traceroutes;
                    traced.extend(out);
                }
                traced
            }
        }
    }

    /// Phases 4–7: fill in `refined` for every job not already answered
    /// by a splice. On a snapshot every cluster gets a **fresh** engine at
    /// t = 0, so its refinement is a pure function of the quiescent
    /// platform whatever the thread count or scheduling order; jobs are
    /// assigned round-robin (`idx % threads`).
    fn refine(
        &mut self,
        master_node: NodeId,
        jobs: &mut [ClusterJob],
        config: &EnvConfig,
        stats: &mut ProbeStats,
    ) {
        match self {
            Exec::Live { eng, .. } => {
                for job in jobs.iter_mut().filter(|j| j.refined.is_none()) {
                    job.refined = Some(refine_cluster(eng, master_node, &job.refs, config, stats));
                }
            }
            Exec::Snapshot { topo, routes, threads, makespan } => {
                let shared = &*jobs;
                let per_worker = on_workers(*threads, |w| {
                    // Interned once per worker and shared by the engines of
                    // all its jobs.
                    let table = Arc::new(ResourceTable::new(topo));
                    let mut out = Vec::new();
                    for (idx, job) in shared.iter().enumerate().skip(w).step_by(*threads) {
                        if job.refined.is_some() {
                            continue;
                        }
                        let (topo, routes) = (Arc::clone(topo), Arc::clone(routes));
                        let mut eng: Sim = Engine::from_parts(topo, routes, Arc::clone(&table));
                        let mut st = ProbeStats::default();
                        let rcs = refine_cluster(&mut eng, master_node, &job.refs, config, &mut st);
                        out.push((idx, rcs, st, eng.now().since(SimTime::ZERO).as_secs()));
                    }
                    out
                });
                for worker in per_worker {
                    let mut worker_secs = 0.0;
                    for (idx, rcs, st, elapsed) in worker {
                        worker_secs += elapsed;
                        stats.traceroutes += st.traceroutes;
                        stats.bw_probes += st.bw_probes;
                        stats.concurrent_experiments += st.concurrent_experiments;
                        jobs[idx].refined = Some(rcs);
                    }
                    *makespan = makespan.max(worker_secs);
                }
            }
        }
    }

    fn mapping_seconds(&self) -> f64 {
        match self {
            Exec::Live { eng, t_start } => eng.now().since(*t_start).as_secs(),
            Exec::Snapshot { makespan, .. } => *makespan,
        }
    }
}

/// Run `work(w)` for `w` in `0..threads` on scoped worker threads and
/// return the results in worker order. A single worker is the caller: a
/// thread of its own would buy nothing, and its malloc arena — every
/// engine the mapping stood up — would sit idle beside the caller's heap
/// for the rest of the process.
fn on_workers<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads == 1 {
        return vec![work(0)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || work(w))).collect();
        handles.into_iter().map(|h| h.join().expect("mapping worker panicked")).collect()
    })
}

/// A refined net ready for assembly: the gateway/router chains it hangs
/// under plus the refined cluster itself.
type FlatCluster = (Vec<String>, Vec<String>, RefinedCluster);

/// One structural cluster's refinement work order: the gateway/router
/// chains it hangs under, the member hosts to probe, and the answer —
/// pre-filled when spliced from a previous run, otherwise filled in by
/// the executor.
struct ClusterJob {
    gateways: Vec<String>,
    routers: Vec<String>,
    refs: Vec<RefHost>,
    refined: Option<Vec<RefinedCluster>>,
}

/// Turn the structural tree into an ordered list of refinement jobs.
/// Pure planning — no probes are issued — so both executors consume the
/// exact same job list in the exact same order.
fn plan_clusters(
    machines: &[MachineRecord],
    master_rec: &MachineRecord,
    structural: &StructNode,
    mut reuse: impl FnMut(&[RefHost]) -> Option<Vec<RefinedCluster>>,
) -> Vec<ClusterJob> {
    let by_name: BTreeMap<&str, &MachineRecord> = machines
        .iter()
        .flat_map(|m| {
            std::iter::once((m.name.as_str(), m))
                .chain(m.aliases.iter().map(move |a| (a.as_str(), m)))
        })
        .collect();
    let clusters = clusters_with_gateways(structural, |hop| by_name.contains_key(hop));

    let mut jobs = Vec::with_capacity(clusters.len());
    for (gateways, routers, cluster_hosts) in clusters {
        let refs: Vec<RefHost> = cluster_hosts
            .iter()
            .filter(|h| {
                // The master is part of the structural tree (Figure 2)
                // but not of any refined cluster (Figure 1b).
                by_name[h.as_str()].node != master_rec.node
            })
            .map(|h| RefHost { name: h.clone(), node: by_name[h.as_str()].node })
            .collect();
        if refs.is_empty() {
            continue;
        }
        let refined = reuse(&refs);
        jobs.push(ClusterJob { gateways, routers, refs, refined });
    }
    jobs
}

/// Phase-1 lookup over all inputs. Rather than failing on the first
/// unknown host, every input is resolved and the failures are reported
/// together — sorted and deduplicated, so the error message is a
/// deterministic function of the input *set* regardless of list order.
fn resolve_inputs(topo: &Topology, hosts: &[HostInput]) -> NetResult<Vec<MachineRecord>> {
    let mut machines = Vec::with_capacity(hosts.len());
    let mut unresolved: Vec<&str> = Vec::new();
    for h in hosts {
        match resolve_host(topo, &h.0) {
            Ok(m) => machines.push(m),
            Err(_) => unresolved.push(h.0.as_str()),
        }
    }
    if !unresolved.is_empty() {
        unresolved.sort_unstable();
        unresolved.dedup();
        return Err(NetError::NameNotFound(unresolved.join(", ")));
    }
    Ok(machines)
}

/// The master's record among the resolved inputs.
fn master_record(machines: &[MachineRecord], master: &str) -> NetResult<MachineRecord> {
    machines
        .iter()
        .find(|m| m.name == master || m.aliases.iter().any(|a| a == master))
        .cloned()
        .ok_or_else(|| NetError::NameNotFound(format!("master {master} not in host list")))
}

/// One host's structural traceroute, as an outermost-first key chain
/// (empty when the host *is* the target or nothing answers). Falls back to
/// the master as destination when the external target is unreachable (the
/// firewalled side, §4.2.1.3).
fn trace_chain<M>(
    eng: &mut Engine<M>,
    m: &MachineRecord,
    external_node: Option<NodeId>,
    master_node: NodeId,
    stats: &mut ProbeStats,
) -> Vec<String> {
    let target = external_node.unwrap_or(master_node);
    if m.node == target {
        return Vec::new();
    }
    let keys = |hops: Vec<netsim::probes::TracerouteHop>| {
        let mut keys: Vec<String> = hops.iter().map(hop_key).collect();
        keys.reverse(); // outermost first
        keys
    };
    match eng.traceroute(m.node, target) {
        Ok(hops) => {
            stats.traceroutes += 1;
            keys(hops)
        }
        Err(_) => {
            // Unreachable external (firewalled side): fall back to the
            // master as destination for this host.
            if external_node.is_some() && m.node != master_node {
                if let Ok(hops) = eng.traceroute(m.node, master_node) {
                    stats.traceroutes += 1;
                    return keys(hops);
                }
            }
            Vec::new()
        }
    }
}

/// What an incremental run may take from the previous one instead of
/// probing for it.
struct Reuse<'a> {
    /// Declared dirty, plus anything the previous run never saw (joiners
    /// are dirty by definition).
    dirty: BTreeSet<&'a str>,
    /// host → its traceroute chain in the previous structural tree.
    chain_of: BTreeMap<String, Vec<String>>,
    flat: Vec<FlatNet<'a>>,
    /// host → index into `flat` of the previous refined cluster holding it.
    net_of: BTreeMap<&'a str, usize>,
}

impl<'a> Reuse<'a> {
    fn new(prev: &'a EnvRun, dirty: &'a [String], machines: &'a [MachineRecord]) -> Self {
        let mut dirty: BTreeSet<&str> = dirty.iter().map(String::as_str).collect();
        for m in machines {
            if prev.machine(&m.name).is_none() {
                dirty.insert(m.name.as_str());
            }
        }
        let mut chain_of = BTreeMap::new();
        for (chain, cluster_hosts) in prev.structural.clusters() {
            for h in cluster_hosts {
                chain_of.insert(h, chain.clone());
            }
        }
        let flat = prev.view.flatten();
        let mut net_of = BTreeMap::new();
        for (i, f) in flat.iter().enumerate() {
            for h in &f.net.hosts {
                net_of.insert(h.as_str(), i);
            }
        }
        Reuse { dirty, chain_of, flat, net_of }
    }

    /// A clean host's previous traceroute chain.
    fn chain(&self, host: &str) -> Option<Vec<String>> {
        if self.dirty.contains(host) {
            return None;
        }
        self.chain_of.get(host).cloned()
    }

    /// The reuse rule for refinement: a structural cluster is spliced from
    /// the previous view iff no member is dirty and its member set is
    /// exactly a union of previous refined clusters (each previous cluster
    /// fully inside it). Everything else re-refines from scratch.
    fn splice(&self, refs: &[RefHost]) -> Option<Vec<RefinedCluster>> {
        if refs.iter().any(|h| self.dirty.contains(h.name.as_str())) {
            return None;
        }
        let mut net_ids: Vec<usize> = Vec::new();
        for h in refs {
            match self.net_of.get(h.name.as_str()) {
                Some(&i) => {
                    if !net_ids.contains(&i) {
                        net_ids.push(i);
                    }
                }
                None => return None, // previously unplaced
            }
        }
        // Exact cover: every ref is in some previous cluster, and those
        // clusters hold no host outside this one (sizes match because a
        // view's clusters partition its hosts).
        let total: usize = net_ids.iter().map(|&i| self.flat[i].net.hosts.len()).sum();
        if total != refs.len() {
            return None;
        }
        net_ids.sort_unstable(); // pre-order, deterministic
        Some(net_ids.iter().map(|&i| splice_cluster(self.flat[i].net, refs)).collect())
    }
}

/// Reconstruct a previous effective network as a refined cluster, so the
/// incremental path can feed it through the same assembly as fresh
/// refinements. Nodes are re-resolved from the current lookup; the
/// measurements are the previous run's (sound under the dirty-neighborhood
/// contract — see [`EnvMapper::remap`]).
fn splice_cluster(net: &EnvNet, refs: &[RefHost]) -> RefinedCluster {
    RefinedCluster {
        hosts: net
            .hosts
            .iter()
            .map(|h| {
                let node = refs
                    .iter()
                    .find(|r| r.name == *h)
                    .expect("splice candidates cover the cluster")
                    .node;
                RefHost { name: h.clone(), node }
            })
            .collect(),
        kind: net.kind,
        base_bw_mbps: net.base_bw_mbps,
        local_bw_mbps: net.local_bw_mbps,
        jam_ratio: net.jam_ratio,
        pairwise_dependent: net.hosts.len() >= 2,
    }
}

/// Resolve one host input (name or bare IP) against the platform's
/// interned name table (one hash lookup, covering interface names and
/// extra aliases alike), falling back to a literal address.
fn resolve_host(topo: &Topology, input: &str) -> NetResult<MachineRecord> {
    let (node, ip) = match topo.names().resolve(input) {
        Some(n) => {
            let ip = topo
                .node(n)
                .ifaces
                .iter()
                .find(|i| i.name.as_deref() == Some(input))
                .map(|i| i.ip)
                .or_else(|| topo.node(n).primary_ip())
                .ok_or_else(|| NetError::NameNotFound(input.to_string()))?;
            (n, ip)
        }
        None => {
            let ip: Ipv4 = input.parse().map_err(|_| NetError::NameNotFound(input.to_string()))?;
            let n = topo.node_by_ip(ip).ok_or_else(|| NetError::NameNotFound(input.to_string()))?;
            (n, ip)
        }
    };
    let site = topo.dns().site_of(ip);
    let aliases: Vec<String> = topo
        .node(node)
        .ifaces
        .iter()
        .filter_map(|i| i.name.clone())
        .filter(|n| n != input)
        .collect();
    Ok(MachineRecord { name: input.to_string(), ip, site, aliases, node })
}

/// Turn the flat (gateway chain, cluster) list into the nested [`EnvNet`]
/// tree: clusters reached through a gateway hang under the network that
/// gateway belongs to.
fn assemble_tree(
    flat: Vec<(Vec<String>, Vec<String>, crate::refine::RefinedCluster)>,
) -> Vec<EnvNet> {
    // Sort: shallow chains first so parents exist before children attach;
    // ties broken by first host name for determinism.
    let mut flat = flat;
    flat.sort_by(|a, b| {
        a.0.len().cmp(&b.0.len()).then_with(|| {
            a.2.hosts
                .first()
                .map(|h| h.name.clone())
                .cmp(&b.2.hosts.first().map(|h| h.name.clone()))
        })
    });

    let mut roots: Vec<EnvNet> = Vec::new();
    for (gateways, routers, rc) in flat {
        let hosts: Vec<String> = rc.hosts.iter().map(|h| h.name.clone()).collect();
        let via = gateways.last().cloned();
        let label = via
            .clone()
            .or_else(|| routers.last().cloned())
            .or_else(|| hosts.first().cloned())
            .unwrap_or_else(|| "net".to_string());
        let net = EnvNet {
            label,
            kind: rc.kind,
            hosts,
            via: via.clone(),
            router_path: routers,
            base_bw_mbps: rc.base_bw_mbps,
            local_bw_mbps: rc.local_bw_mbps,
            jam_ratio: rc.jam_ratio,
            children: Vec::new(),
        };
        match &via {
            Some(gw) => {
                if !attach_under(&mut roots, gw, net.clone()) {
                    // Gateway not in any known network (it may be the
                    // master itself): keep at top level.
                    roots.push(net);
                }
            }
            None => roots.push(net),
        }
    }
    roots
}

/// Attach `net` as a child of the network containing `gw`; true on success.
fn attach_under(nets: &mut [EnvNet], gw: &str, net: EnvNet) -> bool {
    for n in nets.iter_mut() {
        if n.hosts.iter().any(|h| h == gw) {
            n.children.push(net);
            return true;
        }
        if attach_under(&mut n.children, gw, net.clone()) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::scenarios::{
        ens_lyon, random_campus, Calibration, CampusParams, ENS_LYON_INSIDE, ENS_LYON_OUTSIDE,
    };
    use netsim::Sim;

    fn outside_inputs() -> [HostInput; 6] {
        ENS_LYON_OUTSIDE.map(HostInput::new)
    }

    /// The paper's outside run: master the-doors, six public hosts.
    #[test]
    fn ens_lyon_outside_run_matches_figure_1b_top() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let run = mapper
            .map(
                &mut eng,
                &outside_inputs(),
                "the-doors.ens-lyon.fr",
                Some("well-known.example.org"),
            )
            .unwrap();

        // Structural tree = Figure 2.
        assert_eq!(run.structural.key, "192.168.254.1");
        assert_eq!(run.structural.host_count(), 6);

        // Two effective networks: {canaria, moby} and {myri, popc, sci}.
        assert_eq!(run.view.networks.len(), 2);
        let hub1 = run.view.find_containing("canaria.ens-lyon.fr").unwrap();
        assert_eq!(hub1.kind, NetKind::Shared);
        assert_eq!(hub1.hosts.len(), 2);
        assert!((hub1.base_bw_mbps - 100.0).abs() < 8.0, "hub1 base {}", hub1.base_bw_mbps);

        let hub2 = run.view.find_containing("popc.ens-lyon.fr").unwrap();
        assert_eq!(hub2.kind, NetKind::Shared, "jam ratio {:?}", hub2.jam_ratio);
        assert_eq!(hub2.hosts.len(), 3);
        assert!((hub2.base_bw_mbps - 10.0).abs() < 1.0, "hub2 base {}", hub2.base_bw_mbps);
        assert!(hub2.jam_ratio.unwrap() < 0.7);

        // The master is in the structural tree but no cluster.
        assert!(run.view.find_containing("the-doors.ens-lyon.fr").is_none());
    }

    /// The inside run: master sci0, private hosts, external unreachable.
    #[test]
    fn ens_lyon_inside_run_discovers_private_structure() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let inputs = ENS_LYON_INSIDE.map(HostInput::new);
        let mapper = EnvMapper::new(EnvConfig::fast());
        let run = mapper.map(&mut eng, &inputs, "sci0.popc.private", None).unwrap();

        // sci1..6: switched cluster at ~32.65 Mbps.
        let sw = run.view.find_containing("sci1.popc.private").unwrap();
        assert_eq!(sw.kind, NetKind::Switched, "jam {:?}", sw.jam_ratio);
        assert_eq!(sw.hosts.len(), 6);
        assert!((sw.base_bw_mbps - 32.65).abs() < 2.0, "sci base {}", sw.base_bw_mbps);

        // myri1, myri2 hang behind myri0 with local 100 ≫ base 10.
        let hub3 = run.view.find_containing("myri1.popc.private").unwrap();
        assert_eq!(hub3.kind, NetKind::Shared);
        assert_eq!(hub3.via.as_deref(), Some("myri0.popc.private"));
        assert!((hub3.base_bw_mbps - 10.0).abs() < 1.0, "hub3 base {}", hub3.base_bw_mbps);
        assert!(hub3.local_bw_mbps.unwrap() > 80.0, "hub3 local {:?}", hub3.local_bw_mbps);

        // The gateways myri0 and popc0 form their own (shared) cluster.
        let hub2 = run.view.find_containing("myri0.popc.private").unwrap();
        assert!(hub2.hosts.contains(&"popc0.popc.private".to_string()));
        assert_eq!(hub2.kind, NetKind::Shared);
        // And hub3 is attached beneath it, via myri0.
        assert!(hub2.children.iter().any(|c| c.via.as_deref() == Some("myri0.popc.private")));
    }

    #[test]
    fn unknown_host_or_master_errors() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        assert!(mapper
            .map(&mut eng, &[HostInput::new("ghost.example")], "ghost.example", None)
            .is_err());
        assert!(mapper.map(&mut eng, &outside_inputs(), "not-in-list.example", None).is_err());
    }

    #[test]
    fn invalid_thresholds_are_refused_before_probing() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mut config = EnvConfig::fast();
        config.thresholds.h2h_split_ratio = f64::NAN;
        let mapper = EnvMapper::new(config);
        let master = "the-doors.ens-lyon.fr";
        let refused = |r: NetResult<EnvRun>| matches!(r, Err(NetError::InvalidTopology(_)));
        assert!(refused(mapper.map(&mut eng, &outside_inputs(), master, None)));
        assert!(refused(mapper.map_parallel(&eng, &outside_inputs(), master, None, 1)));
        assert_eq!(eng.now(), SimTime::ZERO, "no probe ran");
    }

    #[test]
    fn bare_ip_inputs_resolve() {
        // The paper's fix: hosts without hostnames are given by address.
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let inputs = vec![
            HostInput::new("140.77.13.10"),  // the-doors by IP
            HostInput::new("140.77.13.229"), // canaria by IP
        ];
        let run = mapper.map(&mut eng, &inputs, "140.77.13.10", None).unwrap();
        assert_eq!(run.machines.len(), 2);
        // Site grouping falls back to... DNS still resolves the IP here, so
        // the site is the reverse domain.
        assert_eq!(run.machines[0].site, "ens-lyon.fr");
    }

    /// Paper §4.3 "Machines without hostname": hosts given by bare IP with
    /// no DNS entry are grouped by classful network and mapped normally.
    #[test]
    fn unnamed_hosts_group_by_ip_class() {
        let mut b = netsim::TopologyBuilder::new();
        let hub = b.hub("hub", netsim::Bandwidth::mbps(100.0), netsim::Latency::micros(50.0));
        let named = b.host("named.site.org", "10.1.0.1");
        let anon1 = b.host_unnamed("192.168.81.60");
        let anon2 = b.host_unnamed("192.168.81.61");
        b.attach(named, hub);
        b.attach(anon1, hub);
        b.attach(anon2, hub);
        let mut eng = Sim::new(b.build().unwrap());
        let inputs = vec![
            HostInput::new("named.site.org"),
            HostInput::new("192.168.81.60"),
            HostInput::new("192.168.81.61"),
        ];
        let run = EnvMapper::new(EnvConfig::fast())
            .map(&mut eng, &inputs, "named.site.org", None)
            .unwrap();
        // Site grouping: named host by domain, unnamed by classful network.
        assert_eq!(run.machine("named.site.org").unwrap().site, "site.org");
        assert_eq!(run.machine("192.168.81.60").unwrap().site, "net-192.168.81");
        // They still cluster together on the hub (one shared network).
        let net = run.view.find_containing("192.168.81.60").unwrap();
        assert!(net.hosts.contains(&"192.168.81.61".to_string()));
        assert_eq!(net.kind, NetKind::Shared);
        // GridML gets a pseudo-domain site.
        let doc = run.to_gridml();
        assert!(doc.site("net-192.168.81").is_some());
    }

    #[test]
    fn probe_stats_accumulate_and_time_advances() {
        let net = ens_lyon(Calibration::Paper);
        let mut eng = Sim::new(net.topo.clone());
        let mapper = EnvMapper::new(EnvConfig::fast());
        let run = mapper
            .map(
                &mut eng,
                &outside_inputs(),
                "the-doors.ens-lyon.fr",
                Some("well-known.example.org"),
            )
            .unwrap();
        assert!(run.stats.traceroutes >= 5);
        assert!(run.stats.bw_probes >= 5);
        assert!(run.stats.concurrent_experiments >= 4);
        assert!(run.stats.mapping_seconds > 0.0);
        assert_eq!(
            run.stats.total_experiments(),
            run.stats.traceroutes + run.stats.bw_probes + run.stats.concurrent_experiments
        );
    }

    #[test]
    fn campus_mapping_recovers_lan_kinds() {
        // Uniform LAN rates: with mixed rates a master on a slow LAN can
        // misclassify a faster remote hub as switched (its probe is capped
        // below the hub rate, so jamming is invisible) — a real ENV
        // limitation of the master-dependent view, exercised in E6.
        let params = CampusParams { lan_rates_mbps: vec![100.0], ..CampusParams::default() };
        let (gen, truth) = random_campus(11, &params);
        let mut eng = Sim::new(gen.topo.clone());
        let inputs: Vec<HostInput> = gen
            .hosts
            .iter()
            .map(|h| HostInput::new(eng.topo().node(*h).ifaces[0].name.as_deref().unwrap()))
            .collect();
        let master_name = inputs[0].0.clone();
        let mapper = EnvMapper::new(EnvConfig::fast());
        let run =
            mapper.map(&mut eng, &inputs, &master_name, Some("well-known.example.org")).unwrap();

        // Every ground-truth LAN with ≥2 non-master members must appear as
        // one cluster with the right kind (for ≥3 members; 2-host LANs are
        // reported shared by construction).
        for (members, is_hub, _rate) in &truth.lans {
            let names: Vec<String> = members
                .iter()
                .filter(|n| **n != gen.master)
                .map(|n| gen.topo.node(*n).ifaces[0].name.clone().unwrap())
                .collect();
            if names.len() < 2 {
                continue;
            }
            let net = run
                .view
                .find_containing(&names[0])
                .unwrap_or_else(|| panic!("no cluster contains {}", names[0]));
            for n in &names {
                assert!(net.hosts.contains(n), "{n} missing from its LAN cluster");
            }
            if names.len() >= 3 {
                let expect = if *is_hub { NetKind::Shared } else { NetKind::Switched };
                assert_eq!(net.kind, expect, "LAN {names:?} misclassified");
            }
        }
    }
}
