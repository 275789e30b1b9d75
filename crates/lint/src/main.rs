//! `abw-lint` — run the workspace architecture & determinism rules.
//!
//! ```text
//! cargo run -p abw-lint                          # lint the enclosing workspace
//! cargo run -p abw-lint -- <root>                # lint an explicit workspace root
//! cargo run -p abw-lint -- --list-rules          # rule table and exit
//! cargo run -p abw-lint -- --write-graph [root]  # refresh the crate-graph snapshot
//! cargo run -p abw-lint -- --file <f> [crate] [lib|bin|test]
//! ```
//!
//! Findings print as text, one `file:line:col` report each, then a
//! summary line. The one way to suppress a finding is in the source: a
//! `// lint: allow(<rule>) -- reason` marker at the site.
//!
//! Exit code contract: **0** clean, **1** findings, **2** tool error —
//! unreadable paths, malformed `lint.toml`, or an argument the command
//! line does not take. CI distinguishes "the code is wrong" from "the
//! linter is broken" by this split.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use abw_lint::config::LintConfig;
use abw_lint::rules::ALL_RULES;
use abw_lint::{FileClass, FileContext, Report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("abw-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    // modes that bypass the workspace walk entirely
    match args.first().map(String::as_str) {
        Some("--list-rules") => {
            no_extra(&args[1..], "--list-rules")?;
            print!("{}", rule_table());
            return Ok(ExitCode::SUCCESS);
        }
        Some("--file") => {
            let reports = lint_single_file(&args[1..])?;
            for r in &reports {
                println!("{r}");
            }
            return Ok(exit_code(&reports));
        }
        _ => {}
    }

    let (root, write_graph) = parse_options(args)?;
    let config = load_config(&root)?;
    let analysis = abw_lint::analyze_workspace(&root, &config)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;

    if write_graph {
        let snap = root.join(&config.layering.snapshot);
        std::fs::write(&snap, &analysis.graph)
            .map_err(|e| format!("cannot write {}: {e}", snap.display()))?;
        println!("abw-lint: wrote {}", snap.display());
        return Ok(ExitCode::SUCCESS);
    }

    let reports = analysis.reports;
    for r in &reports {
        println!("{r}");
    }
    if reports.is_empty() {
        println!("abw-lint: clean");
    } else {
        println!("abw-lint: {} finding(s)", reports.len());
    }
    Ok(exit_code(&reports))
}

fn exit_code(reports: &[Report]) -> ExitCode {
    if reports.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `[ROOT]` and `--write-graph`, in either order. Anything else — an
/// unknown flag or a second root — is a usage error, so a mistyped
/// command never lints something other than what was asked.
fn parse_options(args: &[String]) -> Result<(PathBuf, bool), String> {
    let mut root = None;
    let mut write_graph = false;
    for arg in args {
        match arg.as_str() {
            "--write-graph" => write_graph = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if root.is_none() => root = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument `{extra}` after ROOT")),
        }
    }
    Ok((root.unwrap_or_else(workspace_root), write_graph))
}

/// A usage error naming the first argument `mode` leaves unconsumed.
fn no_extra(rest: &[String], mode: &str) -> Result<(), String> {
    match rest.first() {
        Some(extra) => Err(format!("unexpected argument `{extra}` after {mode}")),
        None => Ok(()),
    }
}

/// The active contract: an on-disk `lint.toml` under the lint root
/// wins; otherwise the copy compiled into the binary.
fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(source) => abw_lint::config::parse(&source).map_err(|e| e.to_string()),
        Err(_) => Ok(LintConfig::embedded()),
    }
}

/// `--list-rules`: the full rule table, one row per rule.
fn rule_table() -> String {
    let mut out = String::from("id  name          scope\n");
    out.push_str("--  ----          -----\n");
    for rule in ALL_RULES {
        out.push_str(&format!(
            "{:<3} {:<13} {}\n      {}\n",
            rule.id(),
            rule.name(),
            rule.scope(),
            rule.hint()
        ));
    }
    out
}

/// `--file <path> [crate] [lib|bin|test]`: lint one file as though it
/// lived in the given crate and target class. This is how the deny
/// fixtures are exercised end-to-end. Runs the token rules plus the
/// single-file architecture passes (D7/D8 under the embedded config).
fn lint_single_file(args: &[String]) -> Result<Vec<Report>, String> {
    let path = args.first().ok_or("--file requires a path")?;
    no_extra(
        args.get(3..).unwrap_or_default(),
        "--file PATH [CRATE] [lib|bin|test]",
    )?;
    let crate_name = args.get(1).map(String::as_str).unwrap_or("core");
    let class = match args.get(2).map(String::as_str).unwrap_or("lib") {
        "lib" => FileClass::Lib,
        "bin" => FileClass::Bin,
        "test" => FileClass::Test,
        other => return Err(format!("unknown class `{other}` (lib|bin|test)")),
    };
    let ctx = FileContext {
        crate_name: crate_name.to_string(),
        class,
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(abw_lint::lint_file(&ctx, Path::new(path), &source)
        .into_iter()
        .map(|finding| Report {
            file: PathBuf::from(path),
            finding,
        })
        .collect())
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when run via cargo
/// (this crate lives at `crates/lint`), else the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let mut p = PathBuf::from(dir);
            p.pop(); // crates/
            p.pop(); // workspace root
            p
        }
        None => PathBuf::from("."),
    }
}
