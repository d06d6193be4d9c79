//! # netsim — flow-level discrete-event network simulator
//!
//! This crate is the hardware substitute for the reproduction of
//! *"Automatic deployment of the Network Weather Service using the Effective
//! Network View"* (Legrand & Quinson, 2003). The paper's experiments ran on
//! the ENS-Lyon LAN; this simulator reproduces that LAN — and arbitrary other
//! platforms — at the level of detail the paper's tools can observe:
//!
//! * **end-to-end bandwidth** of one or several concurrent TCP transfers,
//!   governed by max-min fair sharing of link capacities ([`fairness`]),
//! * **round-trip latency** of small messages,
//! * **traceroute** hop lists (with routers that may drop probes or report
//!   per-interface addresses),
//! * **DNS** resolution (including hosts without names),
//! * **firewalled** sub-domains reachable only through gateway hosts,
//! * **asymmetric routes** (per-direction link weights / route overrides).
//!
//! The model is *flow-level*: a transfer is a fluid flow over a path of
//! resources (directed link capacities, or the shared medium of a hub), and
//! concurrently active flows share each resource max-min fairly. This is the
//! cheapest model that reproduces the observables ENV's thresholds test:
//! flows through a **hub** halve each other, flows through a **switch** do
//! not interfere, and bottleneck links cap end-to-end throughput.
//!
//! ## Layers
//!
//! * [`topology`] — nodes (hosts, routers, switches, hubs), links, builder.
//! * [`routing`] — per-direction shortest paths, overrides, reachability.
//! * [`fairness`] + [`flow`] — max-min progressive-filling allocator.
//! * [`engine`] — event queue, actor processes with mailboxes and timers.
//! * [`disk`] — per-host simulated durable storage (append/fsync/crash).
//! * [`probes`] — the user-level experiments ENV and NWS run.
//! * [`traffic`] — background cross-traffic generators.
//! * [`scenarios`] — canned platforms, including the paper's ENS-Lyon LAN.
//!
//! ## Quickstart
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Two hosts on a 100 Mbps hub.
//! let mut b = TopologyBuilder::new();
//! let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
//! let a = b.host("a", "10.0.0.1");
//! let c = b.host("c", "10.0.0.2");
//! b.attach(a, hub);
//! b.attach(c, hub);
//! let topo = b.build().unwrap();
//!
//! let mut sim: Sim = Sim::new(topo);
//! let bw = sim.measure_bandwidth(a, c, Bytes::mib(8)).unwrap();
//! assert!((bw.as_mbps() - 100.0).abs() < 1.0); // alone, the probe sees the hub rate
//! ```

pub mod churn;
pub mod disk;
pub mod engine;
pub mod error;
pub mod fairness;
pub mod faults;
pub mod firewall;
pub mod flow;
pub mod ip;
pub mod name;
pub mod probes;
pub mod routing;
pub mod scenarios;
pub mod synth;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod units;

pub use disk::{DiskHandle, DiskRegistry, DiskStats, SimDisk};
pub use engine::{Ctx, Engine, NoMsg, Process, ProcessId, Sim};
pub use error::{NetError, NetResult};
pub use fairness::{FairEngine, FairnessModel, ResourceId, ResourceTable};
pub use faults::LossModel;
pub use flow::{FlowId, FlowOutcome};
pub use ip::Ipv4;
pub use routing::{Path, RouteTable};
pub use time::{SimTime, TimeDelta};
pub use topology::{LinkId, NodeId, NodeKind, Topology, TopologyBuilder};
pub use units::{Bandwidth, Bytes, Latency};

/// Convenience glob-import for downstream crates and examples.
pub mod prelude {
    pub use crate::engine::{Ctx, Engine, NoMsg, Process, ProcessId, Sim};
    pub use crate::error::{NetError, NetResult};
    pub use crate::flow::{FlowId, FlowOutcome};
    pub use crate::ip::Ipv4;
    pub use crate::probes::TracerouteHop;
    pub use crate::time::{SimTime, TimeDelta};
    pub use crate::topology::{LinkId, NodeId, NodeKind, Topology, TopologyBuilder};
    pub use crate::units::{Bandwidth, Bytes, Latency};
}
