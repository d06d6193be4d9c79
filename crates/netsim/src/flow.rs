//! Flow identifiers and completed-flow records.

use crate::time::{SimTime, TimeDelta};
use crate::topology::NodeId;
use crate::units::{Bandwidth, Bytes};

/// Identifier of a data transfer. Monotonically increasing, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u64);

/// The record of a finished transfer, as observed by its initiator: the
/// transfer is "done" when the final acknowledgment returns, which is how
/// NWS times its 64 KiB throughput experiments (paper §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: Bytes,
    /// Caller-chosen marker, echoed back on completion.
    pub tag: u64,
    /// When the transfer was initiated.
    pub started: SimTime,
    /// When the last byte left the bottleneck (data fully drained).
    pub drained: SimTime,
    /// When the acknowledgment reached the initiator.
    pub acked: SimTime,
}

impl FlowOutcome {
    /// Wall-clock duration as the initiator measures it.
    pub fn duration(&self) -> TimeDelta {
        self.acked.since(self.started)
    }

    /// Application-level throughput: payload divided by measured duration.
    pub fn throughput(&self) -> Bandwidth {
        let d = self.duration().as_secs();
        if d <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::bytes_per_sec(self.bytes.as_f64() / d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_from_duration() {
        let o = FlowOutcome {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            bytes: Bytes::new(1_000_000),
            tag: 0,
            started: SimTime::ZERO,
            drained: SimTime::from_secs(1.0),
            acked: SimTime::from_secs(1.0),
        };
        assert!((o.throughput().as_bytes_per_sec() - 1_000_000.0).abs() < 1e-6);
        assert!((o.duration().as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_yields_zero_throughput() {
        let o = FlowOutcome {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            bytes: Bytes::new(100),
            tag: 0,
            started: SimTime::from_secs(2.0),
            drained: SimTime::from_secs(2.0),
            acked: SimTime::from_secs(2.0),
        };
        assert_eq!(o.throughput(), Bandwidth::ZERO);
    }
}
