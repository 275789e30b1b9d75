//! # abw-lint
//!
//! A zero-dependency, std-only static analyzer for this workspace's
//! determinism and invariant contracts — the rules clippy cannot
//! express because they are *repo policy*, not Rust policy.
//!
//! The paper this repo reproduces is a catalogue of measurement
//! methodology bugs: estimates silently corrupted by timing, ordering
//! and sampling mistakes. The workspace's own headline guarantee —
//! byte-identical experiment output at any `ABW_JOBS` worker count — is
//! exactly the kind of property that regresses from one careless
//! `HashMap` iteration or wall-clock read. `abw-lint` machine-checks
//! those hazards on every build:
//!
//! | id | name           | rule |
//! |----|----------------|------|
//! | D1 | `wall_clock`   | no `Instant::now`/`SystemTime::now` outside `exec`/`bench` |
//! | D2 | `hash_iter`    | no `HashMap`/`HashSet` in `core`/`netsim`/`traffic`/`stats` |
//! | D3 | `thread_spawn` | no `thread::spawn` outside `exec` |
//! | D4 | `float_eq`     | no `==`/`!=` against float literals |
//! | D5 | `print`        | no `println!`/`eprintln!` in library crates |
//! | D6 | `rng`          | no unseeded / ambient RNG construction |
//! | D7 | `panic_free`   | no `unwrap`/`expect`/`panic!`/indexing/narrowing-`as` in the hot scopes `lint.toml` declares |
//! | D8 | `units`        | `f64`/`f32` fields carry a unit suffix (`_bps`, `_s`, …); no deny-alias spellings; no mixed-scale arithmetic |
//! | D9 | `registry`     | every `tools/` module has a registry entry and vice versa, statically |
//! | L1 | `layering`     | no imports along the deny edges `lint.toml` declares (with a committed import-graph snapshot) |
//!
//! D1–D6 are token rules; D7–D9 and L1 read the item-level parse
//! ([`parser`]) and the workspace import graph ([`graph`]), configured
//! by the root `lint.toml` ([`config`]). A deliberate exception carries
//! a `// lint: allow(<name>) -- reason` marker on the same line or the
//! line above; that marker is the one way to suppress a finding. Run it
//! with `cargo run -p abw-lint`: findings print as `file:line:col`
//! text, exit status `1` means findings, `2` a tool/config error
//! (`--list-rules` prints the armed table). The runtime counterpart —
//! `ABW_CHECK=1` arming the simulator's invariant checks — lives in
//! `abw-netsim::invariants` and covers the same failure class from the
//! dynamic side.

pub mod config;
pub mod graph;
pub mod lexer;
pub mod panic_free;
pub mod parser;
pub mod registry_rule;
pub mod rules;
pub mod units;

use std::fmt;
use std::path::{Path, PathBuf};

pub use lexer::{tokenize, Token, TokenKind};
pub use rules::{check, FileClass, FileContext, Finding, Rule, ALL_RULES};

/// A finding located in a file.
#[derive(Debug, Clone)]
pub struct Report {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// The violation.
    pub finding: Finding,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} `{}`\n    hint: {}",
            self.file.display(),
            self.finding.line,
            self.finding.col,
            self.finding.rule,
            self.finding.snippet,
            self.finding.full_hint()
        )
    }
}

/// Classifies a workspace-relative path into the context its rules run
/// under. Returns `None` for files the linter skips entirely:
/// vendored stand-in crates, build output, lint fixtures, and anything
/// that is not Rust source.
pub fn classify(rel: &Path) -> Option<FileContext> {
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let parts: Vec<&str> = rel.iter().map(|c| c.to_str().unwrap_or_default()).collect();
    match parts.first().copied() {
        // vendored offline stand-ins mirror third-party APIs; not ours
        Some("vendor") | Some("target") | Some(".git") => None,
        Some("crates") => {
            let crate_name = parts.get(1).copied()?;
            // the linter's own test fixtures contain violations on purpose
            if crate_name == "lint"
                && parts.get(2) == Some(&"tests")
                && parts.get(3) == Some(&"fixtures")
            {
                return None;
            }
            Some(classify_targets(crate_name, &parts[2..]))
        }
        // root crate (the `abwe` facade): src/, examples/, tests/
        Some(_) => Some(classify_targets("", &parts)),
        None => None,
    }
}

/// Maps the path inside one crate (`src/...`, `tests/...`, …) to a class.
fn classify_targets(crate_name: &str, inside: &[&str]) -> FileContext {
    let class = match inside.first().copied() {
        Some("src") => {
            if inside.get(1) == Some(&"bin") || inside.get(1) == Some(&"main.rs") {
                FileClass::Bin
            } else {
                FileClass::Lib
            }
        }
        Some("examples") | Some("benches") => FileClass::Bin,
        Some("tests") => FileClass::Test,
        // build scripts and stray files: treat as binary-adjacent
        _ => FileClass::Bin,
    };
    FileContext {
        crate_name: crate_name.to_string(),
        class,
    }
}

/// Lints one source string under an explicit context. Runs the
/// token-shaped rules (D1–D6) only — the architecture passes need a
/// workspace; use [`analyze_workspace`] for those.
pub fn lint_source(ctx: &FileContext, source: &str) -> Vec<Finding> {
    rules::check(ctx, &lexer::tokenize(source))
}

/// Lints one source string with every single-file pass armed under the
/// given config: token rules D1–D6 plus D7 panic-freedom, D8 unit
/// hygiene and L1 layering. `rel` is the path the file claims to live
/// at — D7 hot scopes and L1 `from` globs match against it, so fixture
/// tests can opt a file into a scope by naming it accordingly. D9
/// needs the workspace on disk and does not run here.
pub fn lint_source_configured(
    ctx: &FileContext,
    rel: &Path,
    source: &str,
    config: &config::LintConfig,
) -> Vec<Finding> {
    let tokens = lexer::tokenize(source);
    let model = parser::parse(&tokens);
    let allows = rules::Allows::from_tokens(&tokens);
    let rel_str = rel
        .iter()
        .filter_map(|c| c.to_str())
        .collect::<Vec<_>>()
        .join("/");
    let mut findings = rules::check(ctx, &tokens);
    if ctx.enforces(Rule::PanicFree) {
        findings.extend(panic_free::check(
            &rel_str,
            &tokens,
            &model,
            &config.panic_free,
            &allows,
        ));
    }
    if ctx.enforces(Rule::Units) {
        findings.extend(units::check(&tokens, &model, &config.units, &allows));
    }
    if ctx.enforces(Rule::Layering) {
        let records = graph::file_imports(&tokens, &model);
        findings.extend(graph::check_layering(
            &rel_str,
            &records,
            &config.layering,
            &allows,
        ));
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// [`lint_source_configured`] under the embedded workspace contract —
/// the CLI's `--file` mode.
pub fn lint_file(ctx: &FileContext, rel: &Path, source: &str) -> Vec<Finding> {
    lint_source_configured(ctx, rel, source, &config::LintConfig::embedded())
}

/// Everything one multi-pass run over the workspace produces.
pub struct WorkspaceAnalysis {
    /// All findings, sorted by `(file, line, col)`.
    pub reports: Vec<Report>,
    /// The rendered crate import-graph snapshot (see
    /// `graph::render_graph`), for `--write-graph` and the committed
    /// snapshot test.
    pub graph: String,
}

/// Runs every pass — token rules D1–D6, D7 panic-freedom, D8 unit
/// hygiene, the L1 import-graph layering check, and D9 registry
/// exhaustiveness — over every classified `.rs` file under `root`, in
/// path order (the walk itself is deterministic — the linter practices
/// what it preaches).
pub fn analyze_workspace(
    root: &Path,
    config: &config::LintConfig,
) -> std::io::Result<WorkspaceAnalysis> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut reports = Vec::new();
    let mut edges: Vec<(String, String)> = Vec::new();
    for rel in files {
        let Some(ctx) = classify(&rel) else { continue };
        let source = std::fs::read_to_string(root.join(&rel))?;
        let tokens = lexer::tokenize(&source);
        let model = parser::parse(&tokens);
        let allows = rules::Allows::from_tokens(&tokens);
        let rel_str = rel
            .iter()
            .filter_map(|c| c.to_str())
            .collect::<Vec<_>>()
            .join("/");

        let mut findings = rules::check(&ctx, &tokens);
        if ctx.enforces(Rule::PanicFree) {
            findings.extend(panic_free::check(
                &rel_str,
                &tokens,
                &model,
                &config.panic_free,
                &allows,
            ));
        }
        if ctx.enforces(Rule::Units) {
            findings.extend(units::check(&tokens, &model, &config.units, &allows));
        }
        let records = graph::file_imports(&tokens, &model);
        if ctx.enforces(Rule::Layering) {
            findings.extend(graph::check_layering(
                &rel_str,
                &records,
                &config.layering,
                &allows,
            ));
        }
        if ctx.class != FileClass::Test {
            graph::accumulate_crate_edges(&rel, &records, &mut edges);
        }
        for finding in findings {
            reports.push(Report {
                file: rel.clone(),
                finding,
            });
        }
    }
    for finding in registry_rule::check(root, &config.registry)? {
        reports.push(Report {
            file: PathBuf::from(&config.registry.registry_file),
            finding,
        });
    }
    reports.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.col, a.finding.rule).cmp(&(
            &b.file,
            b.finding.line,
            b.finding.col,
            b.finding.rule,
        ))
    });
    Ok(WorkspaceAnalysis {
        reports,
        graph: graph::render_graph(&edges),
    })
}

/// Lints every classified `.rs` file under `root` with every rule
/// armed under the embedded `lint.toml`. Kept as the simple entry
/// point for tests; the CLI calls [`analyze_workspace`] directly.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Report>> {
    Ok(analyze_workspace(root, &config::LintConfig::embedded())?.reports)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or_default();
        if path.is_dir() {
            // prune the big skip-trees early instead of classifying
            // every file inside them
            if matches!(name, "target" | ".git" | "vendor") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_layers() {
        let ctx = classify(Path::new("crates/netsim/src/sim.rs")).unwrap();
        assert_eq!(ctx.crate_name, "netsim");
        assert_eq!(ctx.class, FileClass::Lib);

        let ctx = classify(Path::new("crates/bench/src/bin/fig1.rs")).unwrap();
        assert_eq!(ctx.crate_name, "bench");
        assert_eq!(ctx.class, FileClass::Bin);

        let ctx = classify(Path::new("crates/exec/tests/pool.rs")).unwrap();
        assert_eq!(ctx.class, FileClass::Test);

        let ctx = classify(Path::new("tests/determinism.rs")).unwrap();
        assert_eq!(ctx.crate_name, "");
        assert_eq!(ctx.class, FileClass::Test);

        let ctx = classify(Path::new("examples/quickstart.rs")).unwrap();
        assert_eq!(ctx.class, FileClass::Bin);

        let ctx = classify(Path::new("src/lib.rs")).unwrap();
        assert_eq!(ctx.class, FileClass::Lib);
    }

    #[test]
    fn classify_skips() {
        assert!(classify(Path::new("vendor/rand/src/lib.rs")).is_none());
        assert!(classify(Path::new("target/debug/build/foo.rs")).is_none());
        assert!(classify(Path::new("crates/lint/tests/fixtures/d1_deny.rs")).is_none());
        assert!(classify(Path::new("README.md")).is_none());
    }

    #[test]
    fn lint_main_rs_counts_as_binary() {
        let ctx = classify(Path::new("crates/lint/src/main.rs")).unwrap();
        assert_eq!(ctx.class, FileClass::Bin);
        assert!(lint_source(&ctx, r#"println!("findings");"#).is_empty());
    }
}
