//! Fixture-driven rule tests plus the workspace-clean gate.
//!
//! Each rule has one deny and one allow fixture under
//! `tests/fixtures/`. Deny fixtures must produce at least one finding of
//! exactly the expected rule, both through the library API and through
//! the real `abw-lint` binary (which must exit non-zero). Allow fixtures
//! must lint clean. The architecture rules (D7/D8/L1) lint their
//! fixtures *as though they lived at a path* the embedded `lint.toml`
//! scopes cover. Finally, the actual workspace must lint clean with
//! every rule armed — the tree stays warning-free by construction.

use std::path::{Path, PathBuf};
use std::process::Command;

use abw_lint::config::LintConfig;
use abw_lint::{lint_source, lint_source_configured, lint_workspace, FileContext, Rule};

/// `(fixture stem, rule, context the fixture pretends to live in)`.
fn cases() -> Vec<(&'static str, Rule, FileContext)> {
    vec![
        ("d1_wall_clock", Rule::WallClock, FileContext::lib("netsim")),
        ("d1_prof_clock", Rule::WallClock, FileContext::lib("obs")),
        ("d2_hash_iter", Rule::HashIter, FileContext::lib("core")),
        (
            "d3_thread_spawn",
            Rule::ThreadSpawn,
            FileContext::lib("core"),
        ),
        ("d4_float_eq", Rule::FloatEq, FileContext::lib("stats")),
        ("d5_print", Rule::Print, FileContext::lib("core")),
        ("d6_rng", Rule::Rng, FileContext::lib("traffic")),
    ]
}

/// `(fixture stem, rule, context, path the fixture pretends to live
/// at)` for the config-driven architecture rules.
fn arch_cases() -> Vec<(&'static str, Rule, FileContext, &'static str)> {
    vec![
        (
            "d7_panic_free",
            Rule::PanicFree,
            FileContext::lib("netsim"),
            "crates/netsim/src/link.rs",
        ),
        (
            "d8_units",
            Rule::Units,
            FileContext::lib("core"),
            "crates/core/src/estimate.rs",
        ),
        (
            "l1_layering",
            Rule::Layering,
            FileContext::lib("core"),
            "crates/core/src/tools/fake.rs",
        ),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

#[test]
fn deny_fixtures_fire_their_rule() {
    for (stem, rule, ctx) in cases() {
        let source = read_fixture(&format!("{stem}_deny.rs"));
        let findings = lint_source(&ctx, &source);
        assert!(
            !findings.is_empty(),
            "{stem}_deny.rs: expected at least one {rule} finding"
        );
        for f in &findings {
            assert_eq!(
                f.rule, rule,
                "{stem}_deny.rs: unexpected rule {} at {}:{}",
                f.rule, f.line, f.col
            );
        }
    }
}

#[test]
fn allow_fixtures_lint_clean() {
    for (stem, _rule, ctx) in cases() {
        let source = read_fixture(&format!("{stem}_allow.rs"));
        let findings = lint_source(&ctx, &source);
        assert!(
            findings.is_empty(),
            "{stem}_allow.rs: unexpected findings: {findings:?}"
        );
    }
}

#[test]
fn arch_deny_fixtures_fire_their_rule() {
    let config = LintConfig::embedded();
    for (stem, rule, ctx, rel) in arch_cases() {
        let source = read_fixture(&format!("{stem}_deny.rs"));
        let findings = lint_source_configured(&ctx, Path::new(rel), &source, &config);
        assert!(
            !findings.is_empty(),
            "{stem}_deny.rs: expected at least one {rule} finding"
        );
        for f in &findings {
            assert_eq!(
                f.rule, rule,
                "{stem}_deny.rs: unexpected rule {} at {}:{}",
                f.rule, f.line, f.col
            );
        }
    }
}

#[test]
fn arch_allow_fixtures_lint_clean() {
    let config = LintConfig::embedded();
    for (stem, _rule, ctx, rel) in arch_cases() {
        let source = read_fixture(&format!("{stem}_allow.rs"));
        let findings = lint_source_configured(&ctx, Path::new(rel), &source, &config);
        assert!(
            findings.is_empty(),
            "{stem}_allow.rs: unexpected findings: {findings:?}"
        );
    }
}

#[test]
fn layering_except_entries_are_exempt() {
    // a wall-clock import is legal only from the sites its edge's
    // `except` list names (the executor and the bench harness)
    let config = LintConfig::embedded();
    let lint = |krate: &str, rel: &str| {
        let source = "use std::time::Instant;\n";
        lint_source_configured(&FileContext::lib(krate), Path::new(rel), source, &config)
    };
    assert!(lint("exec", "crates/exec/src/lib.rs").is_empty());
    assert!(lint("bench", "crates/bench/src/lib.rs").is_empty());
    let findings = lint("core", "crates/core/src/probe.rs");
    assert!(
        findings.iter().any(|f| f.rule == Rule::Layering),
        "{findings:?}"
    );
}

#[test]
fn no_tool_module_is_exempt_from_the_tools_edge() {
    // tools/mod.rs may no more reach the simulator, the session driver
    // or a Scenario than any tool can
    let config = LintConfig::embedded();
    for import in [
        "abw_netsim::Simulator",
        "crate::probe::Session",
        "crate::scenario::Scenario",
    ] {
        let ctx = FileContext::lib("core");
        let rel = Path::new("crates/core/src/tools/mod.rs");
        let findings = lint_source_configured(&ctx, rel, &format!("use {import};\n"), &config);
        let layering = !findings.is_empty() && findings.iter().all(|f| f.rule == Rule::Layering);
        assert!(layering, "{import}: {findings:?}");
    }
}

#[test]
fn binary_exits_nonzero_on_deny_fixtures_with_rule_id() {
    for (stem, rule, ctx) in cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_abw-lint"))
            .arg("--file")
            .arg(fixture_path(&format!("{stem}_deny.rs")))
            .arg(&ctx.crate_name)
            .arg("lib")
            .output()
            .expect("spawn abw-lint");
        assert!(
            !out.status.success(),
            "{stem}_deny.rs: binary must exit non-zero"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(rule.id()),
            "{stem}_deny.rs: output must name {}:\n{stdout}",
            rule.id()
        );
    }
}

#[test]
fn binary_exits_zero_on_allow_fixtures() {
    for (stem, _rule, ctx) in cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_abw-lint"))
            .arg("--file")
            .arg(fixture_path(&format!("{stem}_allow.rs")))
            .arg(&ctx.crate_name)
            .arg("lib")
            .output()
            .expect("spawn abw-lint");
        assert!(
            out.status.success(),
            "{stem}_allow.rs: binary must exit zero, got:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let reports = lint_workspace(root).expect("walk workspace");
    assert!(
        reports.is_empty(),
        "workspace must lint clean; findings:\n{}",
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
