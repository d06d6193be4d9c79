//! `nws-lint` — the workspace's static determinism & invariant lint engine.
//!
//! The reproduction's headline guarantee is *same seed ⇒ bit-identical ENV
//! maps, plans and NWS traces*. Until this crate, that contract was
//! enforced only dynamically — by fingerprint gates and differential
//! suites that happen to exercise the right paths. `nws-lint` adds the
//! static layer: a registry-free lexer + rule engine (no `syn`; written
//! from scratch like the rand/proptest shims) that walks every
//! `.rs` file in the workspace at CI time and fails the build on any
//! unwaived violation of the determinism catalog:
//!
//! | rule | invariant | established by |
//! |------|-----------|----------------|
//! | D1 | no wall-clock reads in simulation crates | PR 1 (sim time) |
//! | D2 | no order-dependent hash iteration in netsim/envmap/core/nws | PR 2/4 (fingerprints) |
//! | D3 | no `partial_cmp` float comparators — `total_cmp` | PR 2/3 (NaN lineage) |
//! | D4 | no bare `thread::spawn` — `std::thread::scope` | PR 1/7 |
//! | D5 | no entropy-seeded RNG — explicit seeds only | PR 2 (seeded families) |
//! | D6 | `unsafe` requires an adjacent `// SAFETY:` | PR 1 (alloc gate) |
//!
//! Benign firings are waived in place with
//! `// lint: allow(RULE) — reason`; the reason is mandatory (`W1`), stale
//! waivers are themselves findings (`W3`), and `nws-lint --waivers`
//! prints the complete audit list.

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use engine::{
    collect_rs_files, find_workspace_root, lint_source, lint_workspace, scope_for, FileReport,
};
pub use rules::{Finding, Rule, Scope};
pub use waiver::Waiver;
