//! Lossy-network fault injection: an engine-wide loss model on the control
//! message path, plus the link-level fault a schedule applies.
//!
//! The paper's §2.3 claims the NWS ships "mechanisms to handle network
//! errors"; exercising those mechanisms needs a network that actually
//! errs. This module supplies the engine's half:
//!
//! * [`LossModel`] — an engine-wide probability model for
//!   control-message faults: independent drop, duplication, and a uniform
//!   extra-latency jitter. The engine applies it on [`crate::Ctx::send`]
//!   once a fault seed is armed ([`crate::Engine::set_fault_seed`]); bulk
//!   flows are unaffected (TCP retransmits below our abstraction — a
//!   lossy path shows up as reduced measured bandwidth, which the fluid
//!   model already captures via capacity edits).
//! * [`apply_link_fault`] — a host's access links down or up.
//!
//! The schedule of crashes, flaps and lossy episodes that drives them is
//! `nws::schedule::Schedule`: its crash events target processes, which
//! only the NWS layer can map to hosts.
//!
//! ## Determinism
//!
//! The fault plane draws a *fixed* number of uniforms per cross-node send
//! (drop, duplicate, jitter, duplicate-delay — whether or not each fires),
//! so the random stream consumed is a function of the message sequence
//! alone. Two runs with the same engine seed, fault seed and schedule are
//! bit-identical in every observable, including the drop/duplicate
//! counters in [`crate::engine::EngineStats`].

use crate::engine::Engine;
use crate::error::{NetError, NetResult};
use crate::time::TimeDelta;

/// Probabilistic fault model for every cross-node message. All faults are
/// independent per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Probability the message silently vanishes.
    pub drop_p: f64,
    /// Probability a second copy is delivered (possibly reordered — the
    /// duplicate bypasses the per-pair FIFO clamp).
    pub dup_p: f64,
    /// Extra one-way delay, uniform in `[0, jitter]`.
    pub jitter: TimeDelta,
}

impl LossModel {
    /// The identity model: nothing dropped, duplicated or delayed.
    pub const NONE: LossModel = LossModel { drop_p: 0.0, dup_p: 0.0, jitter: TimeDelta::ZERO };

    /// A plain lossy link: drop probability only.
    pub fn lossy(drop_p: f64) -> Self {
        LossModel { drop_p, dup_p: 0.0, jitter: TimeDelta::ZERO }
    }

    /// A degraded link: loss plus duplication plus jitter.
    pub fn degraded(drop_p: f64, dup_p: f64, jitter: TimeDelta) -> Self {
        LossModel { drop_p, dup_p, jitter }
    }

    /// Whether this model can ever perturb a message.
    pub fn is_none(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.jitter <= TimeDelta::ZERO
    }
}

/// Down (or restore) every access link of the named host and recompute
/// routes. A name that does not resolve is `NameNotFound`.
pub fn apply_link_fault<M>(eng: &mut Engine<M>, host: &str, up: bool) -> NetResult<()> {
    let node =
        eng.topo().node_by_name(host).ok_or_else(|| NetError::NameNotFound(host.to_string()))?;
    let links: Vec<_> = eng.topo().neighbours(node).iter().map(|(l, _)| *l).collect();
    for l in links {
        eng.topo_mut().set_link_up(l, up);
    }
    eng.recompute_routes();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_model_composition() {
        assert!(LossModel::NONE.is_none());
        assert!(!LossModel::lossy(0.5).is_none());
    }
}
