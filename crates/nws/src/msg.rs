//! The NWS wire messages exchanged between processes.
//!
//! The real NWS has a binary TCP protocol; we reproduce the *conversations*
//! (who asks whom for what, §2.1) rather than the encoding. Message sizes
//! passed to the simulator approximate the real payloads so control traffic
//! has realistic latency.

use netsim::engine::{Ctx, ProcessId};
use netsim::units::Bytes;

use crate::clique::CliqueRetarget;
use crate::forecast::Forecast;
use crate::ids::SeriesId;

/// What a series measures — the NWS resource kinds of §2 (network link
/// characteristics plus host resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// End-to-end throughput (Mbps), 64 KiB timed transfer.
    Bandwidth,
    /// Small-message round-trip time (ms), 4-byte transfer.
    Latency,
    /// TCP connect-disconnect time (ms).
    ConnectTime,
    /// CPU availability fraction on a host (synthetic host-load model).
    CpuLoad,
    /// Free memory fraction on a host (synthetic).
    FreeMemory,
}

impl Resource {
    /// All resource kinds, in [`Resource::index`] order — the dense axis of
    /// interned `(resource, src, dst)` series tables.
    pub(crate) const ALL: [Resource; 5] = [
        Resource::Bandwidth,
        Resource::Latency,
        Resource::ConnectTime,
        Resource::CpuLoad,
        Resource::FreeMemory,
    ];

    /// Dense index (0..`Resource::ALL``.len()`): lets consumers key
    /// series by `(resource index, interned host id, interned host id)`
    /// instead of a [`SeriesKey`] holding two heap strings.
    pub fn index(self) -> usize {
        match self {
            Resource::Bandwidth => 0,
            Resource::Latency => 1,
            Resource::ConnectTime => 2,
            Resource::CpuLoad => 3,
            Resource::FreeMemory => 4,
        }
    }

    /// Inverse of [`Resource::index`].
    pub(crate) fn from_index(i: usize) -> Option<Resource> {
        Resource::ALL.get(i).copied()
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Resource::Bandwidth => "bandwidthTcp",
            Resource::Latency => "latencyTcp",
            Resource::ConnectTime => "connectTimeTcp",
            Resource::CpuLoad => "availableCpu",
            Resource::FreeMemory => "freeMemory",
        }
    }

    /// Whether this resource concerns a host pair (true) or a single host.
    pub(crate) fn is_link_resource(self) -> bool {
        matches!(self, Resource::Bandwidth | Resource::Latency | Resource::ConnectTime)
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identity of one measurement series: a resource on a link (src→dst) or a
/// host (dst == src).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    pub resource: Resource,
    pub src: String,
    pub dst: String,
}

impl SeriesKey {
    pub fn link(resource: Resource, src: &str, dst: &str) -> Self {
        debug_assert!(resource.is_link_resource());
        SeriesKey { resource, src: src.to_string(), dst: dst.to_string() }
    }

    pub fn host(resource: Resource, host: &str) -> Self {
        debug_assert!(!resource.is_link_resource());
        SeriesKey { resource, src: host.to_string(), dst: host.to_string() }
    }
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.src == self.dst {
            write!(f, "{}:{}", self.resource, self.src)
        } else {
            write!(f, "{}:{}/{}", self.resource, self.src, self.dst)
        }
    }
}

/// The kinds of NWS server processes (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    NameServer,
    Memory,
    Sensor,
    Forecaster,
}

/// Messages between NWS processes. Series travel as the [`SeriesId`] the
/// deployment's [`crate::ids::SeriesTable`] gave them, never as a
/// [`SeriesKey`]: every event the engine queues carries one of these, so
/// the enum stays a few words (`msg_stays_small` pins it).
#[derive(Debug, Clone)]
pub enum NwsMsg {
    // ---- name server directory -----------------------------------------
    /// A server announces itself (step Δ of Figure §2.1).
    Register {
        name: String,
        kind: ServerKind,
    },
    /// A series announces which memory server stores it.
    RegisterSeries {
        series: SeriesId,
        memory: netsim::ProcessId,
    },
    /// Where is the memory in charge of `series`? (step 2)
    WhereIs {
        series: SeriesId,
    },
    WhereIsReply {
        series: SeriesId,
        memory: Option<netsim::ProcessId>,
    },

    // ---- memory ----------------------------------------------------------
    /// A sensor stores one measurement. `seq` is a per-sender sequence
    /// number (starting at 1) so the memory can acknowledge receipt and
    /// deduplicate retries and network-duplicated copies; a sensor buffers
    /// the store until the matching [`NwsMsg::StoreAck`] arrives.
    Store {
        series: SeriesId,
        seq: u64,
        t: f64,
        value: f64,
    },
    /// The memory acknowledges receipt of the sender's store `seq`. Sent
    /// even when the point itself is rejected (non-monotone timestamp) or
    /// recognized as a duplicate — an ack means "received", not "stored",
    /// so retries stop exactly when the wire delivered the message once.
    StoreAck {
        seq: u64,
    },
    /// Point a sensor's stores at a different memory server (sent by the
    /// supervisor after it restarts a memory under a fresh pid); the
    /// sensor immediately drains its unacked buffer to the new target.
    RetargetMemory {
        memory: netsim::ProcessId,
    },

    // ---- supervision heartbeats -------------------------------------------
    /// Liveness probe from the supervisor.
    Ping,
    /// Liveness reply.
    Pong,
    /// A forecaster fetches the history of a series (step 3): only the
    /// points with `t > after`. A forecaster holding persistent battery
    /// state for the series asks for the measurements it has not yet
    /// observed, so a steady-state query ships O(Δ) wire bytes instead of
    /// the whole ring; `after = NEG_INFINITY` asks for the whole ring.
    FetchSince {
        series: SeriesId,
        after: f64,
    },
    /// Reply to `FetchSince`.
    /// `latest` is the timestamp of the newest point the memory holds for
    /// this series (`NEG_INFINITY` when it holds none): a forecaster whose
    /// delta-fetch watermark is *ahead* of `latest` is talking to a store
    /// that was restored to an older state, and must rewind rather than
    /// silently serve across the gap.
    FetchReply {
        series: SeriesId,
        points: Vec<(f64, f64)>,
        latest: f64,
    },

    // ---- clique token ring (paper §2.3, [23]) -----------------------------
    /// The measurement token: only the holder may run experiments.
    Token {
        clique: String,
        seq: u64,
        round: u64,
    },

    // ---- live reconfiguration (plan repair under topology churn) ----------
    /// Retarget a sensor's clique memberships in place: retire the cliques
    /// in `remove`, install the configurations in `add`. Sent by the
    /// deployment manager when an incremental plan repair migrates cliques
    /// instead of tearing the system down.
    Retarget {
        add: Vec<CliqueRetarget>,
        remove: Vec<String>,
    },

    // ---- host-level measurement locks (the paper's §6 proposal:
    // "a possibility to lock hosts (and not networks) is still needed") ----
    /// A token holder asks a peer for permission to probe it.
    LockRequest,
    /// The peer is free and grants the probe.
    LockGrant,
    /// The holder finished probing the peer.
    LockRelease,

    // ---- client query path (steps 1 and 4) --------------------------------
    Query {
        series: SeriesId,
    },
    /// The forecast is boxed: it is 96 bytes and rides one message in a
    /// thousand, so inline it would size every other one.
    QueryReply {
        series: SeriesId,
        forecast: Option<Box<Forecast>>,
    },
    /// Batched multi-series query: one message, one shard-fanout on the
    /// forecaster, one reply. `id` is a client-chosen correlation handle
    /// echoed in the reply; duplicate series are allowed and each slot is
    /// answered. Slots naming the same unresolved series share one
    /// in-flight directory lookup/fetch (single flight) with every other
    /// pending query, batched or single.
    QueryBatch {
        id: u64,
        series: Vec<SeriesId>,
    },
    /// Reply to [`NwsMsg::QueryBatch`]: forecasts in slot order, aligned
    /// with the request's `series`.
    QueryBatchReply {
        id: u64,
        forecasts: Vec<Option<Forecast>>,
    },
}

impl NwsMsg {
    /// Approximate wire size of the message, for latency modelling.
    pub fn wire_size(&self) -> Bytes {
        let b = match self {
            NwsMsg::Register { name, .. } => 64 + name.len(),
            NwsMsg::RegisterSeries { .. } => 128,
            NwsMsg::WhereIs { .. } | NwsMsg::WhereIsReply { .. } => 96,
            NwsMsg::Store { .. } => 72,
            NwsMsg::StoreAck { .. } => 24,
            NwsMsg::RetargetMemory { .. } => 24,
            NwsMsg::Ping | NwsMsg::Pong => 16,
            NwsMsg::FetchSince { .. } => 72,
            NwsMsg::FetchReply { points, .. } => 72 + 16 * points.len(),
            NwsMsg::Token { .. } => 32,
            NwsMsg::Retarget { add, remove } => {
                64 + add.iter().map(|a| 48 + 24 * a.ring.len()).sum::<usize>() + 24 * remove.len()
            }
            NwsMsg::LockRequest | NwsMsg::LockGrant | NwsMsg::LockRelease => 16,
            NwsMsg::Query { .. } => 64,
            NwsMsg::QueryReply { .. } => 128,
            NwsMsg::QueryBatch { series, .. } => 24 + 64 * series.len(),
            NwsMsg::QueryBatchReply { forecasts, .. } => 24 + 128 * forecasts.len(),
        };
        Bytes::new(b as u64)
    }

    /// Send `self` to `to` at its own wire size. The result is dropped: a
    /// dead or unknown destination is a lost message, which every
    /// conversation here already survives (retries, timeouts, watchdogs).
    pub fn send(self, ctx: &mut Ctx<'_, NwsMsg>, to: ProcessId) {
        let size = self.wire_size();
        let _ = ctx.send(to, size, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeriesTable;

    #[test]
    fn series_key_display() {
        let k = SeriesKey::link(Resource::Bandwidth, "a.x", "b.x");
        assert_eq!(k.to_string(), "bandwidthTcp:a.x/b.x");
        let h = SeriesKey::host(Resource::CpuLoad, "a.x");
        assert_eq!(h.to_string(), "availableCpu:a.x");
    }

    #[test]
    fn resource_classification() {
        assert!(Resource::Bandwidth.is_link_resource());
        assert!(Resource::Latency.is_link_resource());
        assert!(Resource::ConnectTime.is_link_resource());
        assert!(!Resource::CpuLoad.is_link_resource());
        assert!(!Resource::FreeMemory.is_link_resource());
    }

    #[test]
    fn wire_sizes_scale_with_history() {
        let series =
            SeriesTable::new().borrow_mut().intern(&SeriesKey::host(Resource::CpuLoad, "a"));
        let small = NwsMsg::FetchReply { series, points: vec![], latest: f64::NEG_INFINITY };
        let big = NwsMsg::FetchReply { series, points: vec![(0.0, 0.0); 100], latest: 99.0 };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(
            NwsMsg::Token { clique: "c".into(), seq: 0, round: 0 }.wire_size(),
            Bytes::new(32)
        );
    }

    /// Every queued event carries an `NwsMsg` by value through the engine's
    /// heap, so a `String` or `Forecast` field added inline would re-inflate
    /// every one of them.
    #[test]
    fn msg_stays_small() {
        fn copy<T: Copy>() {}
        copy::<SeriesId>();
        assert!(std::mem::size_of::<NwsMsg>() <= 56, "{} bytes", std::mem::size_of::<NwsMsg>());
    }

    #[test]
    fn key_ordering_is_total() {
        let a = SeriesKey::link(Resource::Bandwidth, "a", "b");
        let b = SeriesKey::link(Resource::Latency, "a", "b");
        assert!(a < b || b < a);
    }

    #[test]
    fn resource_index_round_trips() {
        for (i, r) in Resource::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Resource::from_index(i), Some(*r));
        }
        assert_eq!(Resource::from_index(Resource::ALL.len()), None);
    }
}
