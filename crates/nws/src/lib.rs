//! # nws — a Network Weather Service substrate
//!
//! A from-scratch implementation of the NWS process organization the paper
//! deploys (§2): a distributed system of **sensors** conducting periodic
//! measurements, **memory servers** storing the time series, **forecasters**
//! predicting the next values, and a **name server** keeping the directory —
//! all running as actors on the [`netsim`] simulator.
//!
//! Faithful pieces:
//!
//! * the three network experiments of §2.2 — 4-byte round-trip latency,
//!   64 KiB timed throughput, TCP connect time;
//! * the **measurement clique** protocol of §2.3 ([`clique`]): a token ring
//!   guaranteeing that at most one experiment runs in a clique at a time,
//!   with timeout-based token regeneration when a sensor dies;
//! * the forecaster battery ([`forecast`]): a family of predictors (last
//!   value, running/sliding means, medians, exponential smoothing, trimmed
//!   means) raced against each other, the winner by cumulative error
//!   producing the reported forecast — the NWS "dynamic predictor
//!   selection";
//! * the query path of §2.1: client → forecaster → name server → memory →
//!   forecaster → client, as messages over the simulated network.
//!
//! CPU load / free memory sensors are fed by a seeded synthetic host-load
//! model ([`hostload`]) since the simulator has no CPUs to measure; the
//! forecaster pipeline treats those series identically to network ones.

#[cfg(test)]
mod batched_queries;
pub mod clique;
#[cfg(test)]
mod deploy_membership;
pub mod forecast;
pub mod forecaster;
#[cfg(test)]
mod forecaster_differential;
pub mod hostload;
pub mod ids;
pub mod memory;
pub mod msg;
pub mod persist;
#[cfg(test)]
mod persistence;
#[cfg(test)]
mod query_serving;
pub mod registry;
pub mod schedule;
pub mod sensor;
pub mod series;
pub mod series_state;
pub mod serve;
pub mod shard;
pub mod supervisor;
pub mod system;
pub mod wal;

pub use clique::CliqueRetarget;
pub use forecast::{Forecast, ForecasterBattery};
pub use ids::{HostId, IdMap, SeriesId, SeriesTable, SeriesTableHandle};
pub use msg::{NwsMsg, Resource, SeriesKey};
pub use persist::{ForecastLog, MemoryLog};
pub use schedule::Schedule;
pub use series::{Series, SeriesPoint};
pub use series_state::SeriesState;
pub use serve::{MetricsSnapshot, ServingPlane, ShardSnapshot};
pub use shard::ShardMap;
pub use supervisor::{SupervisorConfig, SupervisorHandle, SupervisorState};
pub use system::{CliqueSpec, NwsSystem, NwsSystemSpec, ReconfigSpec, SensorMode, SensorSpec};
