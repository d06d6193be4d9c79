//! Deployment and wiring of a whole NWS system: the specs the planner
//! emits and [`NwsSystem`], which deploys, reconfigures, supervises and
//! queries them on the simulator. The forecaster process and its clients
//! live in [`crate::forecaster`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::disk::DiskRegistry;
use netsim::engine::{Ctx, Engine, Process, ProcessId};
use netsim::faults::apply_link_fault;
use netsim::prelude::*;

use crate::clique::{CliqueMembership, CliqueRetarget, Ring};
use crate::forecast::Forecast;
use crate::forecaster::{BatchClient, Client, ForecasterServer};
use crate::ids::{SeriesTable, SeriesTableHandle};
use crate::memory::{MemoryHandle, MemoryServer};
use crate::msg::{NwsMsg, SeriesKey};
use crate::persist::{wal_compact_bytes, DEFAULT_WAL_COMPACT_KIB};
use crate::registry::{NameServer, RegistryHandle};
use crate::schedule::{Event, Schedule};
use crate::sensor::{FreeRun, Sensor, SensorConfig};
use crate::series::Series;
use crate::supervisor::{SupervisorConfig, SupervisorHandle, SupervisorProc, SupervisorState};

/// How a sensor coordinates its measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorMode {
    /// Clique-coordinated (normal NWS operation).
    Clique,
    /// Uncoordinated periodic probes of the given host names — the
    /// collision-prone configuration of experiment E1.
    FreeRunning { targets: Vec<String>, period: TimeDelta },
}

/// One sensor to deploy.
#[derive(Debug, Clone)]
pub struct SensorSpec {
    /// Host (DNS name) the sensor runs on; also its series identity.
    pub host: String,
    pub mode: SensorMode,
    /// Sample CPU/memory too.
    pub host_sensing: bool,
    /// Which memory host this sensor stores to (`None` = the first memory
    /// in the system spec). Hierarchical plans point firewalled hosts at
    /// the memory on their gateway.
    pub memory: Option<String>,
}

impl SensorSpec {
    pub fn clique_member(host: &str) -> Self {
        SensorSpec {
            host: host.to_string(),
            mode: SensorMode::Clique,
            host_sensing: false,
            memory: None,
        }
    }
}

/// The token-hold gap of a clique nobody tuned, seconds: what
/// [`NwsSystemSpec::minimal`] deploys and what a plan carries by default.
pub const DEFAULT_GAP_S: f64 = 0.5;

/// Minimum spacing between restarts of the same host, seconds. A host that
/// is unreachable (link down) rather than dead keeps missing heartbeats
/// after a restart; throttling re-heals keeps the supervisor from burning
/// its outage buffer over and over in a restart storm.
const REHEAL_BACKOFF_S: f64 = 15.0;

/// One measurement clique (paper §2.3).
#[derive(Debug, Clone)]
pub struct CliqueSpec {
    pub name: String,
    /// Member host names; ring order is the list order.
    pub members: Vec<String>,
    /// Pause between a member's experiments and the token pass.
    pub gap: TimeDelta,
}

/// A full NWS deployment description (what the paper's §5 planner emits).
#[derive(Debug, Clone)]
pub struct NwsSystemSpec {
    pub nameserver_host: String,
    pub memory_hosts: Vec<String>,
    pub forecaster_host: String,
    pub sensors: Vec<SensorSpec>,
    pub cliques: Vec<CliqueSpec>,
    pub series_capacity: usize,
    /// Watchdog base: how long a member waits for the token before
    /// regenerating it.
    pub watchdog: TimeDelta,
    pub seed: u64,
    /// Enable the §6 host-locking extension on every sensor.
    pub host_locking: bool,
    /// WAL compaction threshold (KiB) for the durable state plane: a
    /// memory server or forecaster whose write-ahead log outgrows this
    /// snapshots its state and truncates the log. Small values bound
    /// replay work at recovery; large values amortize snapshot writes.
    pub wal_compact_kib: u64,
}

impl NwsSystemSpec {
    pub fn minimal(nameserver: &str, hosts: &[&str]) -> Self {
        NwsSystemSpec {
            nameserver_host: nameserver.to_string(),
            memory_hosts: vec![nameserver.to_string()],
            forecaster_host: nameserver.to_string(),
            sensors: hosts.iter().map(|h| SensorSpec::clique_member(h)).collect(),
            cliques: vec![CliqueSpec {
                name: "clique0".to_string(),
                members: hosts.iter().map(|h| h.to_string()).collect(),
                gap: TimeDelta::from_secs(DEFAULT_GAP_S),
            }],
            series_capacity: Series::DEFAULT_CAPACITY,
            watchdog: TimeDelta::from_secs(30.0),
            seed: 42,
            host_locking: false,
            wal_compact_kib: DEFAULT_WAL_COMPACT_KIB,
        }
    }

    /// The memory host `s` stores to: the one it names, else the first.
    fn memory_host_of<'a>(&'a self, s: &'a SensorSpec) -> Option<&'a String> {
        s.memory.as_ref().or(self.memory_hosts.first())
    }

    /// `series_capacity`, if a ring can have it: 0 would fail the first
    /// store, and a bound past `u32::MAX` cannot be saved in a snapshot,
    /// so a recovered ring would evict at a different one.
    fn series_capacity(&self) -> NetResult<usize> {
        let cap = self.series_capacity;
        if cap == 0 || u32::try_from(cap).is_err() {
            return Err(NetError::InvalidTopology(format!(
                "series_capacity {cap} is out of range"
            )));
        }
        Ok(cap)
    }

    /// `wal_compact_kib` in bytes; a value no `u64` byte count can hold is
    /// a malformed spec, not a wrapped (tiny) threshold.
    fn wal_compact_bytes(&self) -> NetResult<u64> {
        let kib = self.wal_compact_kib;
        wal_compact_bytes(kib).ok_or_else(|| {
            NetError::InvalidTopology(format!("wal_compact_kib {kib} overflows a byte count"))
        })
    }
}

/// The incremental counterpart of [`NwsSystemSpec`]: what
/// [`NwsSystem::reconfigure`] applies to a *running* system instead of
/// tearing it down and redeploying. Derived from a plan delta by
/// `envdeploy::manager::plan_delta_to_reconfig`.
#[derive(Debug, Clone, Default)]
pub struct ReconfigSpec {
    /// Cliques to retire everywhere.
    pub cliques_to_stop: Vec<String>,
    /// Cliques to (re)start; an existing clique of the same name is
    /// retargeted in place at every member.
    pub cliques_to_upsert: Vec<CliqueSpec>,
    pub sensors_to_add: Vec<SensorSpec>,
    pub sensors_to_remove: Vec<String>,
    pub memories_to_add: Vec<String>,
    pub memories_to_remove: Vec<String>,
}

/// One-shot controller process: delivers the retarget messages of a
/// reconfiguration, then goes quiet (the manager "running on each
/// machine", §5.2, compressed into a message burst).
struct Reconfigurer {
    sends: Vec<(ProcessId, NwsMsg)>,
}

impl Process<NwsMsg> for Reconfigurer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
        for (to, msg) in self.sends.drain(..) {
            msg.send(ctx, to);
        }
    }
}

/// Recover a durable memory server from `host`'s disk and start it with
/// the spec's WAL compaction threshold. An empty disk recovers to an empty
/// store, so cold start, re-adding a host that held a memory before and
/// restarting a crashed one are the same code path — what the server
/// knows is exactly what snapshot + WAL replay reconstructs.
fn spawn_memory(
    eng: &mut Engine<NwsMsg>,
    spec: &NwsSystemSpec,
    disks: &mut DiskRegistry,
    ids: &SeriesTableHandle,
    nameserver: ProcessId,
    idx: usize,
    host: &str,
) -> NetResult<(ProcessId, MemoryHandle)> {
    let node = eng.topo().resolve_host(host)?;
    let (mem, handle) = MemoryServer::recover(
        &format!("memory{idx}@{host}"),
        nameserver,
        spec.series_capacity()?,
        disks.disk(host),
        spec.wal_compact_bytes()?,
        ids,
    );
    Ok((eng.add_process(node, Box::new(mem)), handle))
}

/// The pid of the memory server `s` stores to.
fn memory_for(
    memories: &BTreeMap<String, (ProcessId, MemoryHandle)>,
    spec: &NwsSystemSpec,
    s: &SensorSpec,
) -> NetResult<ProcessId> {
    let host = spec
        .memory_host_of(s)
        .ok_or_else(|| NetError::NameNotFound("no memory hosts".to_string()))?;
    memories
        .get(host)
        .map(|(p, _)| *p)
        .ok_or_else(|| NetError::NameNotFound(format!("memory host {host}")))
}

/// The [`SensorConfig`] for `s` under `spec`; the two ordinals seed its
/// probe jitter and its host-load model.
#[expect(clippy::too_many_arguments, reason = "private; one call per spawn site")]
fn sensor_config(
    topo: &Topology,
    spec: &NwsSystemSpec,
    ids: &mut SeriesTable,
    nameserver: ProcessId,
    memory: ProcessId,
    s: &SensorSpec,
    seed_ord: u64,
    sense_ord: u64,
) -> NetResult<SensorConfig> {
    let free_run = match &s.mode {
        SensorMode::Clique => None,
        SensorMode::FreeRunning { targets, period } => {
            let targets = targets
                .iter()
                .map(|t| Ok((ids.host(t), topo.resolve_host(t)?)))
                .collect::<NetResult<_>>()?;
            Some(FreeRun { targets, period: *period })
        }
    };
    Ok(SensorConfig {
        host_name: s.host.clone(),
        ns: nameserver,
        memory,
        free_run,
        host_sense: s.host_sensing.then(|| spec.seed.wrapping_add(sense_ord)),
        seed: spec.seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed_ord),
        host_locking: spec.host_locking,
    })
}

/// Clique `c`'s ring, built once for all its members to share: the one
/// place a member's host name is interned. `locate` gives the sensor pid
/// and node of a member host.
fn build_ring(
    c: &CliqueSpec,
    ids: &mut SeriesTable,
    locate: impl Fn(&str) -> Option<(ProcessId, NodeId)>,
) -> NetResult<Ring> {
    c.members
        .iter()
        .map(|m| {
            let (pid, node) =
                locate(m).ok_or_else(|| NetError::NameNotFound(format!("clique member {m}")))?;
            Ok((pid, ids.host(m), node))
        })
        .collect()
}

/// A deployed NWS system: process ids plus shared-state handles for
/// inspection by tests, benches and the deployment validator.
pub struct NwsSystem {
    pub nameserver: ProcessId,
    pub registry: RegistryHandle,
    /// memory host name → (pid, store handle)
    pub memories: BTreeMap<String, (ProcessId, MemoryHandle)>,
    pub forecaster: ProcessId,
    /// sensor host name → pid
    pub sensors: BTreeMap<String, ProcessId>,
    /// Node used to run ad-hoc query clients.
    client_node: NodeId,
    /// The spec currently in force (updated by reconfigurations).
    spec: NwsSystemSpec,
    /// Monotonic counter seeding newly added sensors.
    sensors_spawned: usize,
    /// The heartbeat supervisor, when attached: its pid and the shared
    /// liveness ledger [`NwsSystem::heal`] drains.
    supervisor: Option<(ProcessId, SupervisorHandle)>,
    /// host → instant of its last restart, for the re-heal throttle.
    healed_at: BTreeMap<String, SimTime>,
    /// Per-host simulated disks: the durable state plane. Every memory
    /// server and the forecaster log to their host's disk; recovery after
    /// a crash reads **only** from here — there is no in-RAM handoff.
    pub disks: DiskRegistry,
    /// The series table every process of this system names series by.
    pub series_ids: SeriesTableHandle,
}

impl NwsSystem {
    /// Deploy the system described by `spec` onto the engine's platform.
    /// Host names are resolved against the platform DNS.
    pub fn deploy(eng: &mut Engine<NwsMsg>, spec: &NwsSystemSpec) -> NetResult<NwsSystem> {
        // Per-host disks: crash-fault draws share the spec seed so two
        // identically seeded deployments tear identical file tails.
        let mut disks = DiskRegistry::new();
        disks.set_fault_seed(spec.seed);
        let ids = SeriesTable::new();

        // Name server.
        let ns_node = eng.topo().resolve_host(&spec.nameserver_host)?;
        let (ns, registry) = NameServer::new();
        let ns_pid = eng.add_process(ns_node, Box::new(ns));

        // Memory servers — durable from the start.
        let mut memories = BTreeMap::new();
        for (i, host) in spec.memory_hosts.iter().enumerate() {
            if memories.contains_key(host) {
                return Err(NetError::InvalidTopology(format!("duplicate memory host {host}")));
            }
            let memory = spawn_memory(eng, spec, &mut disks, &ids, ns_pid, i, host)?;
            memories.insert(host.clone(), memory);
        }

        // Forecaster (durable, same disk plane).
        let fc_node = eng.topo().resolve_host(&spec.forecaster_host)?;
        let fc = ForecasterServer::durable(
            &format!("forecaster@{}", spec.forecaster_host),
            ns_pid,
            disks.disk(&spec.forecaster_host),
            spec.wal_compact_bytes()?,
            &ids,
        );
        let fc_pid = eng.add_process(fc_node, Box::new(fc));

        // Sensors, in spec order. Rings name every member's pid, so work out
        // the pid each sensor WILL get: engine pids are dense and sequential
        // (the Engine API guarantees it) and the forecaster was the last
        // process added.
        let first_sensor = fc_pid.index() + 1;
        let sensor_pid_of = |idx: usize| ProcessId::from_raw((first_sensor + idx) as u32);
        let mut index_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut nodes = Vec::with_capacity(spec.sensors.len());
        for (idx, s) in spec.sensors.iter().enumerate() {
            if index_of.insert(&s.host, idx).is_some() {
                return Err(NetError::InvalidTopology(format!("duplicate sensor host {}", s.host)));
            }
            nodes.push(eng.topo().resolve_host(&s.host)?);
        }

        // One pass over the cliques hands each sensor its memberships, in
        // spec clique order: O(sensors + Σ|c|) time and memory, the ring
        // being shared rather than copied per member.
        let mut memberships: Vec<Vec<CliqueMembership>> = vec![Vec::new(); spec.sensors.len()];
        for c in &spec.cliques {
            let ring = build_ring(c, &mut ids.borrow_mut(), |m| {
                index_of.get(m).map(|&i| (sensor_pid_of(i), nodes[i]))
            })?;
            for (pos, (pid, _, _)) in ring.iter().enumerate() {
                let mine = &mut memberships[pid.index() - first_sensor];
                // A host listed twice in one clique holds one membership,
                // at its first position.
                if mine.last().is_some_and(|prev| Rc::ptr_eq(&prev.members, &ring)) {
                    continue;
                }
                mine.push(CliqueMembership::at(&c.name, ring.clone(), pos, c.gap, spec.watchdog));
            }
        }

        let mut sensors = BTreeMap::new();
        for (idx, (s, memberships)) in spec.sensors.iter().zip(memberships).enumerate() {
            let memory = memory_for(&memories, spec, s)?;
            let ord = idx as u64;
            let cfg = sensor_config(
                eng.topo(),
                spec,
                &mut ids.borrow_mut(),
                ns_pid,
                memory,
                s,
                ord,
                ord,
            )?;
            let sensor = Sensor::new(cfg, memberships, &ids);
            let pid = eng.add_process(nodes[idx], Box::new(sensor));
            assert_eq!(pid, sensor_pid_of(idx), "sensor pid prediction broke");
            sensors.insert(s.host.clone(), pid);
        }

        let sensors_spawned = spec.sensors.len();
        Ok(NwsSystem {
            nameserver: ns_pid,
            registry,
            memories,
            forecaster: fc_pid,
            sensors,
            client_node: fc_node,
            spec: spec.clone(),
            sensors_spawned,
            supervisor: None,
            healed_at: BTreeMap::new(),
            disks,
            series_ids: ids,
        })
    }

    /// The live sensor process on `host`, for inspection between events.
    pub fn sensor<'e>(&self, eng: &'e Engine<NwsMsg>, host: &str) -> Option<&'e Sensor> {
        eng.process(*self.sensors.get(host)?)?.as_any()?.downcast_ref()
    }

    /// Apply an incremental reconfiguration to the *running* system:
    /// sensors, cliques and series are retargeted in place instead of
    /// being torn down and redeployed. Memory servers and the forecaster
    /// are never restarted, so every stored series — and the forecaster's
    /// per-series battery state and delta-fetch watermarks — survive the
    /// transition; only hosts that left the platform lose their processes.
    ///
    /// Clique changes travel as [`NwsMsg::Retarget`] control messages
    /// delivered through the simulated network; measurements continue
    /// meanwhile (a clique's old token keeps circulating until the new
    /// membership absorbs or regenerates it).
    pub fn reconfigure(&mut self, eng: &mut Engine<NwsMsg>, re: &ReconfigSpec) -> NetResult<()> {
        // --- per-sensor retarget accumulation ------------------------------
        // host → (cliques to join or restart, cliques to retire)
        let mut retargets: BTreeMap<String, (Vec<CliqueRetarget>, Vec<String>)> = BTreeMap::new();
        let old_members = |spec: &NwsSystemSpec, name: &str| -> Vec<String> {
            spec.cliques
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.members.clone())
                .unwrap_or_default()
        };
        for name in &re.cliques_to_stop {
            for m in old_members(&self.spec, name) {
                retargets.entry(m).or_default().1.push(name.clone());
            }
        }
        for c in &re.cliques_to_upsert {
            // Members dropped by a restart must retire the old membership;
            // staying members are retargeted by the add alone.
            for m in old_members(&self.spec, &c.name) {
                if !c.members.contains(&m) {
                    retargets.entry(m).or_default().1.push(c.name.clone());
                }
            }
        }

        // --- process churn -------------------------------------------------
        for host in &re.sensors_to_remove {
            if let Some(pid) = self.sensors.remove(host) {
                eng.kill_process(pid);
            }
            self.spec.sensors.retain(|s| &s.host != host);
            retargets.remove(host); // no point messaging a dead process
        }
        for host in &re.memories_to_add {
            if self.memories.contains_key(host) {
                continue;
            }
            let idx = self.memories.len();
            let mem = spawn_memory(
                eng,
                &self.spec,
                &mut self.disks,
                &self.series_ids,
                self.nameserver,
                idx,
                host,
            )?;
            self.memories.insert(host.clone(), mem);
            self.spec.memory_hosts.push(host.clone());
        }
        for host in &re.memories_to_remove {
            if let Some((pid, _)) = self.memories.remove(host) {
                eng.kill_process(pid);
            }
            self.spec.memory_hosts.retain(|h| h != host);
        }
        for s in &re.sensors_to_add {
            if self.sensors.contains_key(&s.host) {
                continue;
            }
            let node = eng.topo().resolve_host(&s.host)?;
            let memory = memory_for(&self.memories, &self.spec, s)?;
            let ord = self.sensors_spawned as u64;
            // (n, n + 1) where deploy passes (idx, idx): kept as is, the pinned
            // event counts of every churn join and sensor heal depend on it.
            let cfg = sensor_config(
                eng.topo(),
                &self.spec,
                &mut self.series_ids.borrow_mut(),
                self.nameserver,
                memory,
                s,
                ord,
                ord + 1,
            )?;
            self.sensors_spawned += 1;
            // Memberships arrive via Retarget once every member's pid is
            // known; the sensor starts bare.
            let sensor = Sensor::new(cfg, Vec::new(), &self.series_ids);
            let pid = eng.add_process(node, Box::new(sensor));
            self.sensors.insert(s.host.clone(), pid);
            self.spec.sensors.push(s.clone());
        }

        // --- clique retargets ----------------------------------------------
        for c in &re.cliques_to_upsert {
            let started = self.spec.cliques.iter().any(|old| old.name == c.name);
            let ring = build_ring(c, &mut self.series_ids.borrow_mut(), |m| {
                self.sensors.get(m).map(|&pid| (pid, eng.process_node(pid)))
            })?;
            for m in &c.members {
                retargets.entry(m.clone()).or_default().0.push(CliqueRetarget {
                    clique: c.name.clone(),
                    ring: ring.clone(),
                    gap: c.gap,
                    watchdog: self.spec.watchdog,
                    start_token: !started,
                });
            }
        }

        // --- spec bookkeeping ----------------------------------------------
        self.spec.cliques.retain(|c| {
            !re.cliques_to_stop.contains(&c.name)
                && !re.cliques_to_upsert.iter().any(|u| u.name == c.name)
        });
        self.spec.cliques.extend(re.cliques_to_upsert.iter().cloned());

        // --- deliver -------------------------------------------------------
        let sends: Vec<(ProcessId, NwsMsg)> = retargets
            .into_iter()
            .filter_map(|(host, (add, remove))| {
                let pid = *self.sensors.get(&host)?;
                Some((pid, NwsMsg::Retarget { add, remove }))
            })
            .collect();
        if !sends.is_empty() {
            eng.add_process(self.client_node, Box::new(Reconfigurer { sends }));
        }
        Ok(())
    }

    /// Run the deployed system for a simulated duration.
    pub fn run_for(&self, eng: &mut Engine<NwsMsg>, d: TimeDelta) {
        let until = eng.now() + d;
        eng.run_until(until);
    }

    /// Spawn a heartbeat supervisor (on the name server's host) monitoring
    /// every sensor and memory server. Returns the shared liveness ledger;
    /// drain it with [`NwsSystem::heal`] (or let
    /// [`NwsSystem::run_supervised`] do both). The forecaster is not
    /// monitored: restarting it would discard battery state for no gain —
    /// its failure mode is covered by the query-path staleness machinery.
    pub fn attach_supervisor(
        &mut self,
        eng: &mut Engine<NwsMsg>,
        cfg: SupervisorConfig,
    ) -> SupervisorHandle {
        let state: SupervisorHandle = Rc::new(RefCell::new(SupervisorState::default()));
        {
            let mut st = state.borrow_mut();
            for pid in self.sensors.values() {
                st.targets.insert(*pid);
            }
            for (pid, _) in self.memories.values() {
                st.targets.insert(*pid);
            }
        }
        let node = eng.process_node(self.nameserver);
        let pid = eng.add_process(node, Box::new(SupervisorProc::new(cfg, state.clone())));
        self.supervisor = Some((pid, state.clone()));
        state
    }

    /// Restart every component the supervisor currently suspects dead.
    /// Sensors are restarted through the reconfigure/Retarget machinery (a
    /// bare replacement process joins its cliques in place, token
    /// migration included); a memory server is **recovered from its
    /// host's disk** (`MemoryServer::recover` — snapshot + WAL replay,
    /// no in-RAM handoff) and its sensors get a `RetargetMemory` burst so
    /// their outage buffers drain to the new pid. Returns the healed host
    /// names (one entry per restart).
    pub fn heal(&mut self, eng: &mut Engine<NwsMsg>) -> NetResult<Vec<String>> {
        let Some((_, handle)) = &self.supervisor else {
            return Ok(Vec::new());
        };
        let handle = handle.clone();
        let suspects: Vec<ProcessId> = handle.borrow().suspected.iter().copied().collect();
        let mut healed = Vec::new();
        let now = eng.now();
        for pid in suspects {
            let sensor_host = self.sensors.iter().find(|(_, p)| **p == pid).map(|(h, _)| h.clone());
            if let Some(host) = sensor_host {
                if let Some(&at) = self.healed_at.get(&host) {
                    if now.since(at) < TimeDelta::from_secs(REHEAL_BACKOFF_S) {
                        continue;
                    }
                }
                let Some(spec) = self.spec.sensors.iter().find(|s| s.host == host).cloned() else {
                    continue;
                };
                let cliques: Vec<CliqueSpec> = self
                    .spec
                    .cliques
                    .iter()
                    .filter(|c| c.members.contains(&host))
                    .cloned()
                    .collect();
                let re = ReconfigSpec {
                    sensors_to_remove: vec![host.clone()],
                    sensors_to_add: vec![spec],
                    cliques_to_upsert: cliques,
                    ..ReconfigSpec::default()
                };
                self.reconfigure(eng, &re)?;
                let new_pid = self.sensors[&host];
                handle.borrow_mut().replace_target(pid, new_pid);
                self.healed_at.insert(host.clone(), now);
                healed.push(host);
                continue;
            }
            let memory_host =
                self.memories.iter().find(|(_, (p, _))| *p == pid).map(|(h, _)| h.clone());
            if let Some(host) = memory_host {
                if let Some(&at) = self.healed_at.get(&host) {
                    if now.since(at) < TimeDelta::from_secs(REHEAL_BACKOFF_S) {
                        continue;
                    }
                }
                let new_pid = self.restart_memory(eng, &host)?;
                handle.borrow_mut().replace_target(pid, new_pid);
                self.healed_at.insert(host.clone(), now);
                healed.push(host);
            } else {
                // Stale suspicion of a pid already swapped out: drop it.
                handle.borrow_mut().suspected.remove(&pid);
            }
        }
        Ok(healed)
    }

    /// Run for `d`, sweeping the supervisor's suspect list every
    /// `check_every` and restarting whatever it flagged: an empty
    /// [`NwsSystem::run_schedule`].
    pub fn run_supervised(
        &mut self,
        eng: &mut Engine<NwsMsg>,
        d: TimeDelta,
        check_every: TimeDelta,
    ) -> NetResult<Vec<String>> {
        let until = eng.now() + d;
        self.run_schedule(eng, &Schedule::default(), until, check_every, |_, _, _| {})
    }

    /// Apply `schedule` and run on to `until`, sweeping the supervisor's
    /// suspect list every `check_every` and restarting whatever it
    /// flagged. The sweeps stop at each event's instant, so every instant
    /// is a sweep boundary; there `before` sees the event, and then it
    /// applies. An event that names a host no sensor or memory (for a
    /// link, no node) answers to is `NameNotFound` when it comes due; an
    /// event due after `until` still applies. Returns every healed host
    /// name in restart order; worst-case
    /// recovery is `miss_threshold × period + check_every` plus the
    /// Retarget / `RetargetMemory` delivery.
    pub fn run_schedule(
        &mut self,
        eng: &mut Engine<NwsMsg>,
        schedule: &Schedule,
        until: SimTime,
        check_every: TimeDelta,
        mut before: impl FnMut(&Engine<NwsMsg>, &NwsSystem, &Event),
    ) -> NetResult<Vec<String>> {
        let mut healed = Vec::new();
        let stops = schedule.events().iter().map(|e| (e.at, Some(&e.event)));
        for (at, event) in stops.chain([(until, None)]) {
            while eng.now() < at {
                let next = (eng.now() + check_every).min(at);
                eng.run_until(next);
                healed.extend(self.heal(eng)?);
            }
            if let Some(event) = event {
                before(eng, self, event);
                self.apply(eng, event)?;
            }
        }
        Ok(healed)
    }

    fn apply(&mut self, eng: &mut Engine<NwsMsg>, event: &Event) -> NetResult<()> {
        let sensor = |host: &String| {
            self.sensors.get(host).copied().ok_or_else(|| NetError::NameNotFound(host.clone()))
        };
        let memory = |host: &String| {
            self.memories.get(host).map(|m| m.0).ok_or_else(|| NetError::NameNotFound(host.clone()))
        };
        match event {
            Event::Crash { host } => eng.kill_process(sensor(host)?),
            Event::Restart { host } => {
                sensor(host)?; // the restart itself is the supervisor's job
            }
            Event::LinkDown { host } => apply_link_fault(eng, host, false)?,
            Event::LinkUp { host } => apply_link_fault(eng, host, true)?,
            Event::LossStart { model } => eng.set_default_loss(Some(*model)),
            Event::LossEnd => eng.set_default_loss(None),
            Event::MemoryKill { host } => eng.kill_process(memory(host)?),
            Event::MemoryCrash { host } => {
                memory(host)?;
                self.crash_memory(eng, host);
            }
        }
        Ok(())
    }

    /// Restart the memory server on `host` from the host's simulated disk
    /// — the dead process's RAM (and its old [`MemoryHandle`]) is gone —
    /// and re-point its sensors; returns the replacement pid.
    fn restart_memory(&mut self, eng: &mut Engine<NwsMsg>, host: &str) -> NetResult<ProcessId> {
        let (old_pid, _) = self
            .memories
            .get(host)
            .cloned()
            .ok_or_else(|| NetError::NameNotFound(format!("memory host {host}")))?;
        eng.kill_process(old_pid); // no-op when it already crashed
        let idx = self.spec.memory_hosts.iter().position(|h| h == host).unwrap_or(0);
        let (new_pid, store) = spawn_memory(
            eng,
            &self.spec,
            &mut self.disks,
            &self.series_ids,
            self.nameserver,
            idx,
            host,
        )?;
        self.memories.insert(host.to_string(), (new_pid, store));
        // Every sensor that stores to this memory drains its buffer to the
        // replacement.
        let mut sends: Vec<(ProcessId, NwsMsg)> = Vec::new();
        for s in &self.spec.sensors {
            if self.spec.memory_host_of(s).is_some_and(|mh| mh == host) {
                if let Some(&spid) = self.sensors.get(&s.host) {
                    sends.push((spid, NwsMsg::RetargetMemory { memory: new_pid }));
                }
            }
        }
        if !sends.is_empty() {
            eng.add_process(self.client_node, Box::new(Reconfigurer { sends }));
        }
        Ok(new_pid)
    }

    /// Crash the memory on `host` at the host/power level: the process
    /// dies **and** its disk loses a seeded-random suffix of each file's
    /// unsynced page cache ([`netsim::disk::SimDisk::crash`]). By
    /// contrast, `eng.kill_process(pid)` alone models a process crash —
    /// the page cache survives and recovery loses nothing. Pair with
    /// [`NwsSystem::heal`] / a supervisor sweep to bring the host back.
    pub fn crash_memory(&mut self, eng: &mut Engine<NwsMsg>, host: &str) {
        if let Some((pid, _)) = self.memories.get(host) {
            eng.kill_process(*pid);
        }
        self.disks.crash_host(host);
    }

    /// Issue a client query through the full §2.1 path and wait (up to
    /// `patience` simulated seconds) for the reply. The query boundary:
    /// `key` enters the simulation as its series id.
    pub fn query(
        &self,
        eng: &mut Engine<NwsMsg>,
        key: SeriesKey,
        patience: TimeDelta,
    ) -> Option<Forecast> {
        let series = self.series_ids.borrow_mut().intern(&key);
        let result = Rc::new(RefCell::new(None));
        eng.add_process(
            self.client_node,
            Box::new(Client { forecaster: self.forecaster, series, result: result.clone() }),
        );
        let deadline = eng.now() + patience;
        eng.run_until(deadline);
        let out = result.borrow().clone();
        out.flatten()
    }

    /// Issue one batched multi-series query through the full §2.1 path —
    /// one `QueryBatch` message, one reply — and wait (up to `patience`
    /// simulated seconds) for it. Answers come back in request order, each
    /// with its key; none at all if the reply did not arrive in time.
    pub fn query_batch(
        &self,
        eng: &mut Engine<NwsMsg>,
        keys: Vec<SeriesKey>,
        patience: TimeDelta,
    ) -> Vec<(SeriesKey, Option<Forecast>)> {
        let series = {
            let mut ids = self.series_ids.borrow_mut();
            keys.iter().map(|k| ids.intern(k)).collect()
        };
        let result = Rc::new(RefCell::new(None));
        eng.add_process(
            self.client_node,
            Box::new(BatchClient { forecaster: self.forecaster, series, result: result.clone() }),
        );
        let deadline = eng.now() + patience;
        eng.run_until(deadline);
        let answers = result.borrow_mut().take();
        answers.map(|a| keys.into_iter().zip(a).collect()).unwrap_or_default()
    }

    /// A fresh out-of-sim serving plane for this system: `shards`
    /// forecaster shards (0 is treated as 1), clique-aligned so a clique's
    /// series co-locate. Answers are shard-count invariant; the count
    /// trades publication parallelism against fan-out. Feed it epochs with
    /// [`NwsSystem::publish_epoch`].
    pub fn serving_plane(&self, shards: usize) -> crate::serve::ServingPlane {
        let map = crate::shard::ShardMap::clique_aligned(shards, &self.spec.cliques);
        crate::serve::ServingPlane::new(map)
    }

    /// Publish one serving epoch: pull every memory's new points into the
    /// plane (single-threaded — memory stores are actor-local), then
    /// observe + snapshot the shards in parallel on `workers` scoped
    /// threads. Returns the published epoch number.
    pub fn publish_epoch(&self, plane: &mut crate::serve::ServingPlane, workers: usize) -> u64 {
        let ids = self.series_ids.borrow();
        for (_, handle) in self.memories.values() {
            plane.ingest_store(&handle.borrow(), &ids);
        }
        plane.publish(workers)
    }

    /// `f` of the stored series `key`, from the first memory holding it.
    fn with_series<T>(&self, key: &SeriesKey, f: impl FnOnce(&Series) -> T) -> Option<T> {
        let id = self.series_ids.borrow().get(key)?;
        let handle =
            self.memories.values().map(|(_, h)| h).find(|h| h.borrow().series.contains(id))?;
        let store = handle.borrow();
        Some(f(&store.series[id]))
    }

    /// Direct (out-of-band) view of a stored series, across all memories.
    pub fn series(&self, key: &SeriesKey) -> Option<Vec<(f64, f64)>> {
        self.with_series(key, Series::to_pairs)
    }

    /// Mean interval between measurements of a series, if known.
    pub fn measurement_interval(&self, key: &SeriesKey) -> Option<f64> {
        self.with_series(key, Series::mean_interval).flatten()
    }

    /// Total measurements stored so far.
    pub fn total_stores(&self) -> u64 {
        self.memories.values().map(|(_, h)| h.borrow().stores).sum()
    }

    /// All stored series keys, in key order.
    pub fn series_keys(&self) -> Vec<SeriesKey> {
        let order = self.series_ids.borrow_mut().in_key_order();
        let ids = self.series_ids.borrow();
        let stores: Vec<_> = self.memories.values().map(|(_, h)| h.borrow()).collect();
        order
            .iter()
            .filter(|&&id| stores.iter().any(|s| s.series.contains(id)))
            .map(|&id| ids.key(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Resource;
    use netsim::scenarios::star_hub;

    impl NwsSystem {
        /// The spec currently in force (reflects past reconfigurations).
        fn spec(&self) -> &NwsSystemSpec {
            &self.spec
        }
    }

    fn hub_engine(n: usize) -> (Engine<NwsMsg>, Vec<String>) {
        let net = star_hub(n, Bandwidth::mbps(100.0));
        let names: Vec<String> =
            net.hosts.iter().map(|h| net.topo.node(*h).ifaces[0].name.clone().unwrap()).collect();
        (Engine::new(net.topo), names)
    }

    #[test]
    fn clique_measures_all_directed_pairs_without_collisions() {
        let (mut eng, names) = hub_engine(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let spec = NwsSystemSpec::minimal(&names[0], &refs);
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));

        // Every directed pair measured.
        for a in &names {
            for b in &names {
                if a == b {
                    continue;
                }
                let key = SeriesKey::link(Resource::Bandwidth, a, b);
                let series = sys.series(&key).unwrap_or_else(|| panic!("no series {key}"));
                assert!(!series.is_empty(), "empty series {key}");
                // Exclusive measurements on a hub see the full rate; the
                // 64 KiB probe loses a few percent to latency.
                for (_, v) in &series {
                    assert!(*v > 85.0, "collided measurement: {v} Mbps on {key}");
                }
                // Latency and connect-time series exist too.
                assert!(sys.series(&SeriesKey::link(Resource::Latency, a, b)).is_some());
                assert!(sys.series(&SeriesKey::link(Resource::ConnectTime, a, b)).is_some());
            }
        }
    }

    #[test]
    fn free_running_sensors_collide_on_hub() {
        // The paper's §2.3 motivation: simultaneous experiments "may
        // report an availability of about the half of the real value".
        let (mut eng, names) = hub_engine(4);
        let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
        spec.cliques.clear();
        spec.sensors = vec![
            SensorSpec {
                host: names[0].clone(),
                mode: SensorMode::FreeRunning {
                    targets: vec![names[1].clone()],
                    period: TimeDelta::from_secs(5.0),
                },
                host_sensing: false,
                memory: None,
            },
            SensorSpec {
                host: names[2].clone(),
                mode: SensorMode::FreeRunning {
                    targets: vec![names[3].clone()],
                    period: TimeDelta::from_secs(5.0),
                },
                host_sensing: false,
                memory: None,
            },
        ];
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(60.0));

        let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let series = sys.series(&key).expect("series exists");
        let mean = series.iter().map(|(_, v)| v).sum::<f64>() / series.len() as f64;
        assert!(
            (mean - 50.0).abs() < 10.0,
            "synchronized free-running probes must halve: mean {mean} Mbps"
        );
    }

    #[test]
    fn query_path_returns_forecast() {
        let (mut eng, names) = hub_engine(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let spec = NwsSystemSpec::minimal(&names[0], &refs);
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(90.0));

        let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let f = sys.query(&mut eng, key, TimeDelta::from_secs(10.0)).expect("forecast produced");
        assert!(f.value > 85.0 && f.value < 101.0, "forecast {f:?}");
        assert!(f.samples > 0);

        // Unknown series → None.
        let ghost = SeriesKey::link(Resource::Bandwidth, "ghost.a", "ghost.b");
        assert!(sys.query(&mut eng, ghost, TimeDelta::from_secs(10.0)).is_none());
    }

    #[test]
    fn token_loss_recovers_via_watchdog() {
        let (mut eng, names) = hub_engine(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.watchdog = TimeDelta::from_secs(20.0);
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(60.0));
        let before = sys.total_stores();
        assert!(before > 0);

        // Kill one sensor: the token will eventually be lost at it.
        let victim = sys.sensors[&names[1]];
        eng.kill_process(victim);
        sys.run_for(&mut eng, TimeDelta::from_secs(180.0));
        let after = sys.total_stores();
        assert!(
            after > before + 4,
            "measurements must continue after token regeneration: {before} → {after}"
        );
    }

    #[test]
    fn host_sensing_produces_cpu_series() {
        let (mut eng, names) = hub_engine(2);
        let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
        spec.cliques.clear();
        spec.sensors = vec![SensorSpec {
            host: names[0].clone(),
            mode: SensorMode::Clique,
            host_sensing: true,
            memory: None,
        }];
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(301.0));

        let cpu = sys.series(&SeriesKey::host(Resource::CpuLoad, &names[0])).expect("cpu series");
        assert!(cpu.len() >= 29, "got {} samples", cpu.len());
        assert!(cpu.iter().all(|(_, v)| (0.0..=1.0).contains(v)));
        let mem =
            sys.series(&SeriesKey::host(Resource::FreeMemory, &names[0])).expect("memory series");
        assert!(!mem.is_empty());
    }

    #[test]
    fn measurement_frequency_decreases_with_clique_size() {
        // Paper §2.3: "the frequency of the measurements obviously
        // decreases when the number of hosts in a given clique increases".
        let interval_for = |k: usize| -> f64 {
            let (mut eng, names) = hub_engine(k);
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let spec = NwsSystemSpec::minimal(&names[0], &refs);
            let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
            sys.run_for(&mut eng, TimeDelta::from_secs(600.0));
            let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
            sys.measurement_interval(&key).expect("measured repeatedly")
        };
        let i3 = interval_for(3);
        let i6 = interval_for(6);
        assert!(
            i6 > i3 * 1.5,
            "interval must grow with clique size: k=3 → {i3:.2}s, k=6 → {i6:.2}s"
        );
    }

    /// The derived connect-time series is exactly 1.5× the latency series
    /// (the documented §2.2 delta: derived from the RTT probe instead of a
    /// third experiment).
    #[test]
    fn connect_time_is_consistently_derived() {
        let (mut eng, names) = hub_engine(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let spec = NwsSystemSpec::minimal(&names[0], &refs);
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
        let lat = sys.series(&SeriesKey::link(Resource::Latency, &names[0], &names[1])).unwrap();
        let ct = sys.series(&SeriesKey::link(Resource::ConnectTime, &names[0], &names[1])).unwrap();
        assert_eq!(lat.len(), ct.len());
        for ((t1, l), (t2, c)) in lat.iter().zip(&ct) {
            assert_eq!(t1, t2, "stored at the same instant");
            assert!((c - 1.5 * l).abs() < 1e-9, "connect = 1.5 x rtt");
        }
    }

    #[test]
    fn registry_sees_all_servers() {
        let (mut eng, names) = hub_engine(3);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let spec = NwsSystemSpec::minimal(&names[0], &refs);
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(30.0));
        let reg = sys.registry.borrow();
        // 1 memory + 1 forecaster + 3 sensors registered.
        assert!(reg.servers.len() >= 5, "registered: {:?}", reg.servers.keys());
        // Series registrations flowed through the name server.
        assert!(!reg.series.is_empty());
    }

    #[test]
    fn per_sensor_memory_assignment_and_cross_memory_query() {
        // Two memory servers; sensors split between them. The forecaster
        // must locate the right memory through the name server (§2.1 step
        // 2) for both.
        let (mut eng, names) = hub_engine(4);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.memory_hosts = vec![names[0].clone(), names[1].clone()];
        for (i, s) in spec.sensors.iter_mut().enumerate() {
            s.memory = Some(if i % 2 == 0 { names[0].clone() } else { names[1].clone() });
        }
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));

        // Both memories hold series.
        for host in [&names[0], &names[1]] {
            let (_, handle) = &sys.memories[host];
            assert!(handle.borrow().stores > 0, "memory on {host} unused");
        }
        // Queries resolve series on either memory.
        let k0 = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let k1 = SeriesKey::link(Resource::Bandwidth, &names[1], &names[2]);
        assert!(sys.query(&mut eng, k0, TimeDelta::from_secs(10.0)).is_some());
        assert!(sys.query(&mut eng, k1, TimeDelta::from_secs(10.0)).is_some());
    }

    /// In-place reconfiguration: growing a clique keeps every stored
    /// series (prefix intact — the memory server is never restarted) while
    /// the new member starts being measured; the forecaster's watermark
    /// state survives, so queries keep answering across the transition.
    #[test]
    fn reconfigure_grows_clique_preserving_series_and_queries() {
        let (mut eng, names) = hub_engine(4);
        let refs: Vec<&str> = names.iter().take(3).map(|s| s.as_str()).collect();
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.watchdog = TimeDelta::from_secs(15.0);
        let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(90.0));

        let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let before = sys.series(&key).expect("series exists before reconfigure");
        assert!(!before.is_empty());
        assert!(sys.query(&mut eng, key.clone(), TimeDelta::from_secs(10.0)).is_some());

        // Grow clique0 with names[3]: one new sensor, one clique restart.
        let re = ReconfigSpec {
            cliques_to_upsert: vec![CliqueSpec {
                name: "clique0".to_string(),
                members: names.clone(),
                gap: TimeDelta::from_millis(500.0),
            }],
            sensors_to_add: vec![SensorSpec::clique_member(&names[3])],
            ..ReconfigSpec::default()
        };
        sys.reconfigure(&mut eng, &re).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(180.0));

        // Old series continued: the prefix survived and it kept growing.
        let after = sys.series(&key).expect("series survives");
        assert!(after.len() > before.len(), "{} -> {}", before.len(), after.len());
        assert_eq!(after[..before.len()], before[..], "stored prefix must be untouched");

        // The new member is measured in both directions.
        let new_out = SeriesKey::link(Resource::Bandwidth, &names[3], &names[0]);
        let new_in = SeriesKey::link(Resource::Bandwidth, &names[0], &names[3]);
        assert!(sys.series(&new_out).map(|s| !s.is_empty()).unwrap_or(false));
        assert!(sys.series(&new_in).map(|s| !s.is_empty()).unwrap_or(false));

        // Queries still work, with more samples than before.
        let f = sys.query(&mut eng, key, TimeDelta::from_secs(10.0)).expect("query survives");
        assert!(f.samples as usize >= after.len().min(before.len()));
        // The spec in force reflects the new membership.
        assert_eq!(sys.spec().cliques[0].members.len(), 4);
    }

    /// Stopping a clique and removing its spare sensor quiesces those
    /// measurements while the remaining clique keeps running.
    #[test]
    fn reconfigure_stops_clique_and_removes_sensor() {
        let (mut eng, names) = hub_engine(5);
        let mut spec = NwsSystemSpec::minimal(&names[0], &[]);
        spec.sensors = names.iter().map(|h| SensorSpec::clique_member(h)).collect();
        spec.cliques = vec![
            CliqueSpec {
                name: "keep".to_string(),
                members: names[..3].to_vec(),
                gap: TimeDelta::from_millis(500.0),
            },
            CliqueSpec {
                name: "drop".to_string(),
                members: names[3..].to_vec(),
                gap: TimeDelta::from_millis(500.0),
            },
        ];
        let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(60.0));
        let dropped_key = SeriesKey::link(Resource::Bandwidth, &names[3], &names[4]);
        let kept_key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let dropped_before = sys.series(&dropped_key).expect("dropped clique measured").len();
        let kept_before = sys.series(&kept_key).expect("kept clique measured").len();

        let re = ReconfigSpec {
            cliques_to_stop: vec!["drop".to_string()],
            sensors_to_remove: vec![names[3].clone(), names[4].clone()],
            ..ReconfigSpec::default()
        };
        sys.reconfigure(&mut eng, &re).unwrap();
        // Let any in-flight work drain, then measure the steady state.
        sys.run_for(&mut eng, TimeDelta::from_secs(30.0));
        let dropped_mid = sys.series(&dropped_key).unwrap().len();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));

        let dropped_after = sys.series(&dropped_key).unwrap().len();
        let kept_after = sys.series(&kept_key).unwrap().len();
        assert_eq!(dropped_mid, dropped_after, "stopped clique must stop measuring");
        assert!(kept_after > kept_before, "kept clique must keep measuring");
        assert!(dropped_after >= dropped_before);
        assert!(!sys.sensors.contains_key(&names[3]));
        assert_eq!(sys.spec().cliques.len(), 1);
    }

    /// A clique restart migrates the live token into the new membership
    /// at whichever member holds it — it must NOT wait out a watchdog.
    /// Pinned with an enormous watchdog: if the token were dropped on
    /// retirement, measurements would never resume within the horizon.
    #[test]
    fn reconfigure_restart_migrates_the_live_token() {
        let (mut eng, names) = hub_engine(4);
        let refs: Vec<&str> = names.iter().take(3).map(|s| s.as_str()).collect();
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.watchdog = TimeDelta::from_secs(100_000.0);
        let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(60.0));
        let key = SeriesKey::link(Resource::Bandwidth, &names[0], &names[1]);
        let before = sys.series(&key).expect("measured before restart").len();

        // Restart clique0 with a grown membership. The token is being held
        // by some member right now (gap holds dominate the round).
        let re = ReconfigSpec {
            cliques_to_upsert: vec![CliqueSpec {
                name: "clique0".to_string(),
                members: names.clone(),
                gap: TimeDelta::from_millis(500.0),
            }],
            sensors_to_add: vec![SensorSpec::clique_member(&names[3])],
            ..ReconfigSpec::default()
        };
        sys.reconfigure(&mut eng, &re).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));
        let after = sys.series(&key).unwrap().len();
        assert!(
            after > before + 3,
            "token must migrate across the restart, not wait for the watchdog: \
             {before} -> {after} points"
        );
        // And the joiner is measured too.
        let joined = SeriesKey::link(Resource::Bandwidth, &names[3], &names[0]);
        assert!(sys.series(&joined).map(|s| !s.is_empty()).unwrap_or(false));
    }

    /// A reconfiguration can add a memory server and point a new sensor's
    /// stores at it.
    #[test]
    fn reconfigure_adds_memory_for_new_sensor() {
        let (mut eng, names) = hub_engine(4);
        let refs: Vec<&str> = names.iter().take(2).map(|s| s.as_str()).collect();
        let spec = NwsSystemSpec::minimal(&names[0], &refs);
        let mut sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(30.0));

        let re = ReconfigSpec {
            cliques_to_upsert: vec![CliqueSpec {
                name: "side".to_string(),
                members: vec![names[2].clone(), names[3].clone()],
                gap: TimeDelta::from_millis(500.0),
            }],
            sensors_to_add: vec![
                SensorSpec {
                    host: names[2].clone(),
                    mode: SensorMode::Clique,
                    host_sensing: false,
                    memory: Some(names[2].clone()),
                },
                SensorSpec {
                    host: names[3].clone(),
                    mode: SensorMode::Clique,
                    host_sensing: false,
                    memory: Some(names[2].clone()),
                },
            ],
            memories_to_add: vec![names[2].clone()],
            ..ReconfigSpec::default()
        };
        sys.reconfigure(&mut eng, &re).unwrap();
        sys.run_for(&mut eng, TimeDelta::from_secs(120.0));

        let (_, handle) = &sys.memories[&names[2]];
        assert!(handle.borrow().stores > 0, "new memory must receive stores");
        let key = SeriesKey::link(Resource::Bandwidth, &names[2], &names[3]);
        assert!(sys.query(&mut eng, key, TimeDelta::from_secs(10.0)).is_some());
    }

    #[test]
    fn unknown_hosts_fail_deployment() {
        let (mut eng, names) = hub_engine(2);
        let spec = NwsSystemSpec::minimal("ghost.example", &[&names[0]]);
        assert!(NwsSystem::deploy(&mut eng, &spec).is_err());

        // Malformed specs are errors too, never panics: a sensor with no
        // memory host to store to, and a clique naming a host that runs
        // no sensor.
        let mut no_memory = NwsSystemSpec::minimal(&names[0], &[&names[0]]);
        no_memory.memory_hosts.clear();
        assert!(matches!(NwsSystem::deploy(&mut eng, &no_memory), Err(NetError::NameNotFound(_))));
        let mut no_sensor = NwsSystemSpec::minimal(&names[0], &[&names[0]]);
        no_sensor.cliques[0].members.push(names[1].clone());
        assert!(matches!(NwsSystem::deploy(&mut eng, &no_sensor), Err(NetError::NameNotFound(_))));

        // So is the same host twice, as a sensor or as a memory: the second
        // sensor would find another's pid in its rings, the second memory
        // would shift every sensor pid the rings name.
        let twice = NwsSystemSpec::minimal(&names[0], &[&names[0], &names[1], &names[0]]);
        assert!(matches!(NwsSystem::deploy(&mut eng, &twice), Err(NetError::InvalidTopology(_))));
        let mut twice = NwsSystemSpec::minimal(&names[0], &[&names[0], &names[1]]);
        twice.memory_hosts.push(names[0].clone());
        assert!(matches!(NwsSystem::deploy(&mut eng, &twice), Err(NetError::InvalidTopology(_))));

        // And a compaction threshold whose byte count overflows: an error in
        // debug and release alike, not a panic or a wrap to a tiny one.
        let mut huge = NwsSystemSpec::minimal(&names[0], &[&names[0], &names[1]]);
        huge.wal_compact_kib = 1 << 54;
        assert!(matches!(NwsSystem::deploy(&mut eng, &huge), Err(NetError::InvalidTopology(_))));

        // And a ring bound no ring can have (0 fails the first store) or no
        // snapshot can save (past u32::MAX, a recovered ring would evict at
        // another bound).
        for cap in [0, u32::MAX as usize + 1] {
            let mut bad = NwsSystemSpec::minimal(&names[0], &[&names[0], &names[1]]);
            bad.series_capacity = cap;
            let got = NwsSystem::deploy(&mut eng, &bad);
            assert!(matches!(got, Err(NetError::InvalidTopology(_))), "capacity {cap}");
        }
    }

    /// Every ring entry names the sensor that runs on the member's node,
    /// however many processes were spawned before the first sensor.
    #[test]
    fn ring_pids_are_the_members_sensors() {
        let (mut eng, names) = hub_engine(4);
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut spec = NwsSystemSpec::minimal(&names[0], &refs);
        spec.memory_hosts = names[..3].to_vec();
        let sys = NwsSystem::deploy(&mut eng, &spec).unwrap();
        for host in &names {
            let sensor = sys.sensor(&eng, host).expect("deployed");
            let m = sensor.memberships().next().expect("in clique0");
            let ids = sys.series_ids.borrow();
            assert_eq!(ids.host_name(m.members[m.me_idx].1), host);
            for &(pid, name, node) in m.members.iter() {
                let name = ids.host_name(name);
                assert_eq!(pid, sys.sensors[name]);
                assert_eq!(eng.process_node(pid), node);
                assert_eq!(eng.topo().resolve_host(name), Ok(node));
            }
        }
    }
}
