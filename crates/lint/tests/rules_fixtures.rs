//! Fixture-backed rule tests: at least one positive and one negative case
//! per catalog rule, plus waiver semantics. Fixtures live under
//! `tests/fixtures/` — a directory the workspace walk deliberately skips,
//! because they contain intentional violations.

use nws_lint::rules::{Rule, Scope};
use nws_lint::{lint_source, scope_for};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// `(rule, line)` pairs of unwaived findings for a fixture under the
/// strictest scope.
fn hits(name: &str) -> Vec<(Rule, u32)> {
    let src = fixture(name);
    let rep = lint_source(name, &src, Scope::strict());
    rep.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn d1_wall_clock_positive_and_negative() {
    assert_eq!(hits("d1_pos.rs"), vec![(Rule::D1, 5), (Rule::D1, 6)]);
    assert_eq!(hits("d1_neg.rs"), vec![]);
}

#[test]
fn d1_is_scoped_to_simulation_crates() {
    let src = fixture("d1_pos.rs");
    let rep = lint_source("d1_pos.rs", &src, Scope { sim: false, det: false });
    assert_eq!(rep.findings.len(), 0, "D1 must not fire outside simulation crates");
}

#[test]
fn d2_hash_iteration_positive_and_negative() {
    assert_eq!(
        hits("d2_pos.rs"),
        vec![(Rule::D2, 11), (Rule::D2, 15), (Rule::D2, 21), (Rule::D2, 27)]
    );
    assert_eq!(hits("d2_neg.rs"), vec![]);
}

#[test]
fn d2_is_scoped_to_determinism_critical_crates() {
    let src = fixture("d2_pos.rs");
    let rep = lint_source("d2_pos.rs", &src, Scope { sim: true, det: false });
    assert_eq!(rep.findings.len(), 0, "D2 must not fire outside determinism-critical crates");
}

#[test]
fn d3_partial_cmp_positive_and_negative() {
    assert_eq!(hits("d3_pos.rs"), vec![(Rule::D3, 3), (Rule::D3, 4), (Rule::D3, 5)]);
    assert_eq!(hits("d3_neg.rs"), vec![]);
}

#[test]
fn d4_bare_spawn_positive_and_negative() {
    assert_eq!(hits("d4_pos.rs"), vec![(Rule::D4, 7), (Rule::D4, 9)]);
    assert_eq!(hits("d4_neg.rs"), vec![]);
}

#[test]
fn d5_entropy_rng_positive_and_negative() {
    assert_eq!(hits("d5_pos.rs"), vec![(Rule::D5, 3), (Rule::D5, 4), (Rule::D5, 5)]);
    assert_eq!(hits("d5_neg.rs"), vec![]);
}

#[test]
fn d6_undocumented_unsafe_positive_and_negative() {
    assert_eq!(hits("d6_pos.rs"), vec![(Rule::D6, 3), (Rule::D6, 11)]);
    assert_eq!(hits("d6_neg.rs"), vec![]);
}

#[test]
fn d7_host_filesystem_positive_and_negative() {
    assert_eq!(
        hits("d7_pos.rs"),
        vec![(Rule::D7, 2), (Rule::D7, 5), (Rule::D7, 6), (Rule::D7, 8), (Rule::D7, 9)]
    );
    assert_eq!(hits("d7_neg.rs"), vec![]);
}

#[test]
fn d7_is_scoped_to_simulation_crates() {
    let src = fixture("d7_pos.rs");
    let rep = lint_source("d7_pos.rs", &src, Scope { sim: false, det: false });
    assert_eq!(rep.findings.len(), 0, "D7 must not fire in harness crates (benches write JSON)");
}

#[test]
fn d8_shared_lock_positive_and_negative() {
    assert_eq!(
        hits("d8_pos.rs"),
        vec![(Rule::D8, 2), (Rule::D8, 2), (Rule::D8, 5), (Rule::D8, 10)]
    );
    assert_eq!(hits("d8_neg.rs"), vec![]);
}

#[test]
fn d8_is_scoped_to_determinism_critical_crates() {
    let src = fixture("d8_pos.rs");
    let rep = lint_source("d8_pos.rs", &src, Scope { sim: true, det: false });
    assert_eq!(rep.findings.len(), 0, "D8 must not fire outside determinism-critical crates");
}

#[test]
fn lexer_hostile_file_yields_zero_findings() {
    assert_eq!(
        hits("lexer_tricky.rs"),
        vec![],
        "rule triggers inside strings/comments/chars must never fire"
    );
}

#[test]
fn line_waivers_cover_standalone_and_trailing_forms() {
    let src = fixture("waiver_line.rs");
    let rep = lint_source("waiver_line.rs", &src, Scope::strict());
    assert_eq!(rep.findings, Vec::new(), "both D2 firings are waived");
    assert_eq!(rep.waived.len(), 2);
    assert_eq!(rep.waivers.len(), 2);
    assert!(rep.waived.iter().all(|(f, reason)| f.rule == Rule::D2 && !reason.is_empty()));
}

#[test]
fn file_level_waiver_covers_the_whole_file() {
    let src = fixture("waiver_file.rs");
    let rep = lint_source("waiver_file.rs", &src, Scope::strict());
    assert_eq!(rep.findings, Vec::new());
    assert_eq!(rep.waived.len(), 2, "one file-level waiver covers both D3 firings");
    assert!(rep.waivers[0].file_level);
}

#[test]
fn waiver_without_reason_is_w1_and_does_not_waive() {
    let src = fixture("waiver_no_reason.rs");
    let rep = lint_source("waiver_no_reason.rs", &src, Scope::strict());
    let rules: Vec<Rule> = rep.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![(Rule::W1), (Rule::D3)], "reasonless waiver rejected, D3 unwaived");
}

#[test]
fn waiver_with_unknown_rule_is_w2() {
    let src = fixture("waiver_unknown_rule.rs");
    let rep = lint_source("waiver_unknown_rule.rs", &src, Scope::strict());
    let rules: Vec<Rule> = rep.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![Rule::W2]);
}

#[test]
fn stale_waiver_is_w3() {
    let src = fixture("waiver_stale.rs");
    let rep = lint_source("waiver_stale.rs", &src, Scope::strict());
    let rules: Vec<Rule> = rep.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![Rule::W3]);
}

#[test]
fn scope_mapping_matches_crate_layout() {
    let det = Scope { sim: true, det: true };
    let sim_only = Scope { sim: true, det: false };
    let harness = Scope { sim: false, det: false };
    assert_eq!(scope_for(Path::new("crates/netsim/src/engine.rs")), det);
    assert_eq!(scope_for(Path::new("crates/envmap/src/mapper.rs")), det);
    assert_eq!(scope_for(Path::new("crates/core/src/planner.rs")), det);
    assert_eq!(scope_for(Path::new("crates/nws/src/sensor.rs")), det);
    assert_eq!(scope_for(Path::new("crates/gridml/src/parse.rs")), sim_only);
    assert_eq!(scope_for(Path::new("src/lib.rs")), det);
    assert_eq!(scope_for(Path::new("tests/determinism.rs")), det);
    assert_eq!(scope_for(Path::new("crates/bench/src/bin/exp_pipeline_scaling.rs")), harness);
    assert_eq!(scope_for(Path::new("crates/shims/rand/src/lib.rs")), harness);
    assert_eq!(scope_for(Path::new("crates/lint/src/lexer.rs")), harness);
}
