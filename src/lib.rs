//! # nws-env-repro — façade crate
//!
//! Reproduction of *"Automatic deployment of the Network Weather Service
//! using the Effective Network View"* (Legrand & Quinson, LIP RR-2003-42 /
//! IPPS 2004).
//!
//! This crate re-exports the workspace members so the `quickstart`
//! example and the integration tests can exercise the whole stack through
//! one import:
//!
//! * [`netsim`] — flow-level network simulator (the hardware substitute),
//! * [`gridml`] — the GridML data format,
//! * [`envmap`] — the Effective Network View mapper,
//! * [`nws`] — the Network Weather Service substrate,
//! * [`envdeploy`] — the automatic deployment planner (the paper's
//!   contribution).
//!
//! See `DESIGN.md` for the system inventory. The paper's figures, listings
//! and claims are regenerated by one binary, `repro_summary` in
//! `crates/bench`: plain, it prints one PASS / FAIL row per checkpoint;
//! `repro_summary <ID>` prints one experiment's tables first. DESIGN.md §3
//! lists the ids.

pub use envdeploy;
pub use envmap;
pub use gridml;
pub use netsim;
pub use nws;
