//! Workspace-level contract tests: the committed crate-graph snapshot,
//! the text findings, and the CLI exit-code contract (0 clean /
//! 1 findings / 2 tool error, a usage error included).
//!
//! The end-to-end cases run the real `abw-lint` binary against the
//! mini-workspace fixture (`tests/fixtures/mini_workspace/`), whose
//! on-disk `lint.toml` declares one forbidden layering edge and a D9
//! registry pairing with one missing and one stale entry.

use std::path::{Path, PathBuf};
use std::process::Command;

use abw_lint::config::LintConfig;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

fn mini_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_workspace")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_abw-lint"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abw_lint_ws_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn import_graph_snapshot_is_current() {
    let analysis =
        abw_lint::analyze_workspace(repo_root(), &LintConfig::embedded()).expect("walk workspace");
    let snap_path = repo_root().join("crates/lint/tests/import_graph.snap");
    let committed = std::fs::read_to_string(&snap_path).expect("read committed snapshot");
    assert_eq!(
        analysis.graph, committed,
        "the crate import graph drifted from the committed snapshot; \
         regenerate with `cargo run -p abw-lint -- --write-graph` and \
         review the new edges"
    );
}

#[test]
fn mini_workspace_fires_layering_and_registry() {
    let out = bin().arg(mini_root()).output().expect("spawn abw-lint");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L1(layering)"), "missing L1:\n{stdout}");
    assert!(
        stdout.contains("beta.rs:1"),
        "L1 anchors at the import:\n{stdout}"
    );
    assert!(stdout.contains("D9(registry)"), "missing D9:\n{stdout}");
    assert!(
        stdout.contains("`beta.rs`"),
        "beta.rs is unregistered:\n{stdout}"
    );
    assert!(
        stdout.contains("ghost"),
        "ghost is a stale entry:\n{stdout}"
    );
    // mod.rs imports the simulator too, but it is the except entry
    assert!(
        !stdout.contains("mod.rs:"),
        "except entry must stay clean:\n{stdout}"
    );
    // exactly one L1 and two D9: beta.rs unregistered, ghost stale
    assert!(
        stdout.ends_with("\nabw-lint: 3 finding(s)\n"),
        "summary line:\n{stdout}"
    );
}

#[test]
fn malformed_config_exits_2() {
    let dir = temp_dir("bad_config");
    std::fs::write(dir.join("lint.toml"), "[layering\nsnapshot = oops").unwrap();
    let out = bin().arg(&dir).output().expect("spawn abw-lint");
    assert_eq!(
        out.status.code(),
        Some(2),
        "config errors must exit 2, not pass as clean"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("lint.toml"),
        "error names the config file:\n{stderr}"
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = bin().arg("--list-rules").output().expect("spawn abw-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "L1"] {
        assert!(
            stdout.contains(id),
            "--list-rules must name {id}:\n{stdout}"
        );
    }
    for name in ["panic_free", "units", "registry", "layering"] {
        assert!(
            stdout.contains(name),
            "--list-rules must name {name}:\n{stdout}"
        );
    }
}

/// Every argument the command line leaves unconsumed is a usage error:
/// exit 2, nothing linted, one stderr line naming it. That covers a
/// second root in either order (the last one used to win silently) and
/// the flags of the removed JSON/SARIF output, baseline and fixer.
#[test]
fn unconsumed_arguments_exit_2_with_their_name() {
    let mini = mini_root();
    let mini = mini.to_str().expect("utf-8 path");
    let repo = repo_root().to_str().expect("utf-8 path");
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d1_wall_clock_deny.rs");
    let fixture = fixture.to_str().expect("utf-8 path");
    let unknown = |flag: &str| format!("unknown flag `{flag}`");
    let unexpected = |arg: &str, after: &str| format!("unexpected argument `{arg}` after {after}");
    for (args, message) in [
        (vec![mini, repo], unexpected(repo, "ROOT")),
        (vec![repo, mini], unexpected(mini, "ROOT")),
        (
            vec!["--list-rules", "extra"],
            unexpected("extra", "--list-rules"),
        ),
        (
            vec!["--file", fixture, "core", "lib", "extra"],
            unexpected("extra", "--file PATH [CRATE] [lib|bin|test]"),
        ),
        (vec!["--format", "json"], unknown("--format")),
        (vec!["--out", "lint.txt"], unknown("--out")),
        (
            vec!["--validate-json", "lint.json"],
            unknown("--validate-json"),
        ),
        (
            vec!["--write-baseline", "b.json"],
            unknown("--write-baseline"),
        ),
        (vec!["--baseline", "b.json"], unknown("--baseline")),
        (vec!["--baseline-check"], unknown("--baseline-check")),
        (vec!["--fix"], unknown("--fix")),
        (vec!["--reason", "why"], unknown("--reason")),
    ] {
        let out = bin().args(&args).output().expect("spawn abw-lint");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, format!("abw-lint: {message}\n"), "{args:?}");
    }
}
