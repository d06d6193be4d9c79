//! # nws-env-repro — façade crate
//!
//! Reproduction of *"Automatic deployment of the Network Weather Service
//! using the Effective Network View"* (Legrand & Quinson, LIP RR-2003-42 /
//! IPPS 2004).
//!
//! This crate re-exports the workspace members so the top-level examples
//! and integration tests can exercise the whole stack through one import:
//!
//! * [`netsim`] — flow-level network simulator (the hardware substitute),
//! * [`gridml`] — the GridML data format,
//! * [`envmap`] — the Effective Network View mapper,
//! * [`nws`] — the Network Weather Service substrate,
//! * [`envdeploy`] — the automatic deployment planner (the paper's
//!   contribution).
//!
//! See `DESIGN.md` for the system inventory; its §3 is the wiring table of
//! the experiment binaries that regenerate the paper's figures and claims.

pub use envdeploy;
pub use envmap;
pub use gridml;
pub use netsim;
pub use nws;
