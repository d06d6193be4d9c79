//! # envdeploy — automatic NWS deployment from Effective Network Views
//!
//! The paper's contribution (§5): given the effective topology discovered
//! by ENV, compute a Network Weather Service deployment plan that
//! satisfies the four constraints of §2.3 —
//!
//! 1. **Do not let experiments collide** — hosts on one physical network
//!    share a clique, so their measurements are mutually exclusive;
//! 2. **Scalability** — cliques are as small as possible so measurement
//!    frequency stays high;
//! 3. **Completeness** — any host pair's connectivity is either measured
//!    directly or estimable by aggregating measured segments (latency
//!    adds, bandwidth takes the minimum — the A–B–C example of §2.3);
//! 4. **Reduce intrusiveness** — on a shared network one host pair is
//!    representative of every pair, so only one pair is measured.
//!
//! and then apply it: generate the manager configuration, launch the NWS
//! processes on the simulated platform, and answer end-to-end queries.
//!
//! * [`planner`] — §5.1's algorithm: shared network → clique of two
//!   representatives; switched network → clique of all hosts (plus its
//!   gateway); one inter-network clique ties the top-level networks.
//! * [`plan`] — the [`plan::DeploymentPlan`] data model and its rendering
//!   (Figure 3).
//! * [`validate`] — checks the four constraints against ground truth,
//!   including the collision overlaps the paper itself concedes in §6
//!   ("a possibility to lock hosts (and not networks) is still needed").
//! * [`aggregate`] — the completeness machinery: representative
//!   substitution and segment aggregation over the effective tree.
//! * [`manager`] — the paper's "NWS manager": a shared configuration file
//!   applied per host (§5.2), plus actual deployment onto the simulator.

pub mod aggregate;
mod compiled;
pub mod manager;
pub mod plan;
pub mod planner;
pub mod repair;
pub mod validate;
#[cfg(test)]
mod validate_differential;

pub use aggregate::{Estimate, Estimator, Freshness, MeasurementSource};
pub use manager::{apply_plan, apply_plan_delta, apply_plan_with, parse_config, render_config};
pub use plan::{diff_plans, CliqueRole, DeploymentPlan, PlanDelta, PlannedClique};
pub use planner::{plan_deployment, PlannerConfig};
pub use repair::{repair_plan, RepairConfig, RepairOutcome};
pub use validate::{validate_plan, validate_plan_with_routes, PlanReport};
