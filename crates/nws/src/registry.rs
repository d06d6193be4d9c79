//! The NWS name server: "keeps a directory of the system, allowing each
//! part to localize other existing servers" (paper §2.1).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::engine::{Ctx, Process, ProcessId};

use crate::ids::IdMap;
use crate::msg::{NwsMsg, ServerKind};

/// Directory contents, shared with the test/bench harness for
/// introspection.
#[derive(Debug, Default)]
pub struct RegistryState {
    /// Registered servers: name → (kind, pid).
    pub servers: BTreeMap<String, (ServerKind, ProcessId)>,
    /// Which memory server stores each series.
    pub series: IdMap<ProcessId>,
    /// Directory request counters.
    pub lookups: u64,
    pub registrations: u64,
}

/// Shared handle onto a name server's directory.
pub type RegistryHandle = Rc<RefCell<RegistryState>>;

/// The name server process.
pub struct NameServer {
    state: RegistryHandle,
}

impl NameServer {
    pub fn new() -> (Self, RegistryHandle) {
        let state = Rc::new(RefCell::new(RegistryState::default()));
        (NameServer { state: state.clone() }, state)
    }
}

impl Process<NwsMsg> for NameServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, NwsMsg>, from: ProcessId, msg: NwsMsg) {
        match msg {
            NwsMsg::Register { name, kind } => {
                let mut st = self.state.borrow_mut();
                st.servers.insert(name, (kind, from));
                st.registrations += 1;
            }
            NwsMsg::RegisterSeries { series, memory } => {
                let mut st = self.state.borrow_mut();
                st.series.insert(series, memory);
                st.registrations += 1;
            }
            NwsMsg::WhereIs { series } => {
                let memory = {
                    let mut st = self.state.borrow_mut();
                    st.lookups += 1;
                    st.series.get(series).copied()
                };
                NwsMsg::WhereIsReply { series, memory }.send(ctx, from);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SeriesId, SeriesTable};
    use crate::msg::{Resource, SeriesKey};
    use netsim::prelude::*;
    use netsim::Engine;

    /// Sends a registration, then a lookup; records the reply.
    struct Prober {
        ns: ProcessId,
        series: SeriesId,
        got: Rc<RefCell<Option<Option<ProcessId>>>>,
    }

    fn series(host: &str) -> SeriesId {
        SeriesTable::new().borrow_mut().intern(&SeriesKey::host(Resource::CpuLoad, host))
    }

    impl Process<NwsMsg> for Prober {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
            let reg = NwsMsg::RegisterSeries { series: self.series, memory: ctx.me() };
            let size = reg.wire_size();
            ctx.send(self.ns, size, reg).unwrap();
            let q = NwsMsg::WhereIs { series: self.series };
            let size = q.wire_size();
            ctx.send(self.ns, size, q).unwrap();
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _from: ProcessId, msg: NwsMsg) {
            if let NwsMsg::WhereIsReply { memory, .. } = msg {
                *self.got.borrow_mut() = Some(memory);
            }
        }
    }

    #[test]
    fn register_and_lookup_round_trip() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        let mut eng: Engine<NwsMsg> = Engine::new(b.build().unwrap());

        let (ns, state) = NameServer::new();
        let ns_pid = eng.add_process(a, Box::new(ns));
        let got = Rc::new(RefCell::new(None));
        let prober = eng.add_process(
            c,
            Box::new(Prober { ns: ns_pid, series: series("a.x"), got: got.clone() }),
        );
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();

        assert_eq!(got.borrow().expect("reply arrived"), Some(prober));
        let st = state.borrow();
        assert_eq!(st.series.len(), 1);
        assert_eq!(st.lookups, 1);
        assert_eq!(st.registrations, 1);
    }

    #[test]
    fn unknown_series_replies_none() {
        let mut b = TopologyBuilder::new();
        let hub = b.hub("hub", Bandwidth::mbps(100.0), Latency::micros(50.0));
        let a = b.host("a.x", "10.0.0.1");
        let c = b.host("c.x", "10.0.0.2");
        b.attach(a, hub);
        b.attach(c, hub);
        let mut eng: Engine<NwsMsg> = Engine::new(b.build().unwrap());

        struct AskOnly {
            ns: ProcessId,
            got: Rc<RefCell<Option<Option<ProcessId>>>>,
        }
        impl Process<NwsMsg> for AskOnly {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NwsMsg>) {
                let q = NwsMsg::WhereIs { series: series("ghost") };
                let size = q.wire_size();
                ctx.send(self.ns, size, q).unwrap();
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, NwsMsg>, _f: ProcessId, msg: NwsMsg) {
                if let NwsMsg::WhereIsReply { memory, .. } = msg {
                    *self.got.borrow_mut() = Some(memory);
                }
            }
        }

        let (ns, _state) = NameServer::new();
        let ns_pid = eng.add_process(a, Box::new(ns));
        let got = Rc::new(RefCell::new(None));
        eng.add_process(c, Box::new(AskOnly { ns: ns_pid, got: got.clone() }));
        eng.run_until_quiescent(TimeDelta::from_secs(10.0)).unwrap();
        assert_eq!(got.borrow().expect("replied"), None);
    }
}
