//! The workspace import-graph pass.
//!
//! Two consumers share the per-file import extraction here:
//!
//! * **L1 layering** — every import (a `use` statement or an inline
//!   qualified path like `crate::probe::Session::over(...)`) is matched
//!   against the `[[layering.deny]]` edges in `lint.toml`; a hit is a
//!   finding at the import's `file:line:col`, carrying the edge's
//!   configured reason. Test code (tests/ files and `#[cfg(test)]`
//!   modules) is exempt: the contract governs production structure.
//!
//! * **The crate-graph snapshot** — the same records, collapsed to
//!   crate granularity (`core -> abw_netsim`, `netsim -> rand`, …),
//!   rendered one sorted `from -> to` line per edge. The rendering is
//!   committed at the path named by `[layering].snapshot` and compared
//!   by a test, so any new inter-crate edge shows up as a reviewable
//!   diff instead of an invisible accretion.

use std::path::Path;

use crate::config::{glob_match, path_matches, LayeringConfig};
use crate::lexer::{Token, TokenKind};
use crate::parser::FileModel;
use crate::rules::{Allows, Finding, Rule};

/// One import observed in a file: a `use` path or an inline qualified
/// path expression.
#[derive(Debug, Clone)]
pub struct ImportRecord {
    /// `::`-joined path (`abw_netsim::Simulator`, `std::time::Instant`).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// True when the import sits in test code.
    pub in_test: bool,
}

/// Extracts every import from one file: the model's expanded `use`
/// paths plus maximal inline `ident::ident…` chains in code position.
pub fn file_imports(tokens: &[Token], model: &FileModel) -> Vec<ImportRecord> {
    let mut records: Vec<ImportRecord> = model
        .uses
        .iter()
        .map(|u| ImportRecord {
            path: u.path.clone(),
            line: u.line,
            col: u.col,
            in_test: u.in_test,
        })
        .collect();

    // mask out `use` statement ranges so their paths are not recorded a
    // second time by the inline-chain scan below
    let mut in_use_stmt = vec![false; tokens.len()];
    let mut k = 0usize;
    while k < tokens.len() {
        if tokens[k].kind == TokenKind::Ident && tokens[k].text == "use" {
            while k < tokens.len() {
                in_use_stmt[k] = true;
                if tokens[k].kind == TokenKind::Punct && tokens[k].text == ";" {
                    break;
                }
                k += 1;
            }
        }
        k += 1;
    }

    // inline chains: walk non-comment tokens, stitching ident (:: ident)*
    // runs of length >= 2. Token indices are positions in `tokens`, so
    // the model's test ranges apply directly.
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind != TokenKind::Ident || in_use_stmt[i] || is_path_continuation(tokens, i) {
            i += 1;
            continue;
        }
        let start = i;
        let mut segs = vec![tokens[i].text.clone()];
        let mut j = next_code(tokens, i + 1);
        while j + 1 < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "::" {
            let k = next_code(tokens, j + 1);
            if tokens.get(k).is_some_and(|t| t.kind == TokenKind::Ident) {
                segs.push(tokens[k].text.clone());
                j = next_code(tokens, k + 1);
            } else {
                break; // `Vec::<u32>` turbofish or `::*` — stop the chain
            }
        }
        if segs.len() >= 2 && segs[0] != "use" {
            records.push(ImportRecord {
                path: segs.join("::"),
                line: tokens[start].line,
                col: tokens[start].col,
                in_test: model.in_test_region(start),
            });
        }
        i = j.max(i + 1);
    }
    records
}

/// True when the ident at `i` is preceded by `::` (it continues a chain
/// already recorded) or by `.` (it is a method/field name, not a path
/// root).
fn is_path_continuation(tokens: &[Token], i: usize) -> bool {
    (0..i)
        .rev()
        .find(|&j| tokens[j].kind != TokenKind::Comment)
        .is_some_and(|j| {
            tokens[j].kind == TokenKind::Punct && (tokens[j].text == "::" || tokens[j].text == ".")
        })
}

fn next_code(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len() && tokens[i].kind == TokenKind::Comment {
        i += 1;
    }
    i
}

/// Runs the L1 layering check for one file against the deny edges.
/// `rel` is the workspace-relative path with `/` separators.
pub fn check_layering(
    rel: &str,
    records: &[ImportRecord],
    layering: &LayeringConfig,
    allows: &Allows,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for edge in &layering.deny {
        if !glob_match(&edge.from, rel) {
            continue;
        }
        if edge.except.iter().any(|e| glob_match(e, rel)) {
            continue;
        }
        for r in records {
            if r.in_test {
                continue;
            }
            if !edge.imports.iter().any(|p| path_matches(p, &r.path)) {
                continue;
            }
            if allows.covers(r.line, Rule::Layering) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::Layering,
                line: r.line,
                col: r.col,
                snippet: r.path.clone(),
                note: Some(edge.reason.clone()),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.snippet == b.snippet);
    findings
}

/// The crate a workspace-relative path belongs to, for graph purposes:
/// `crates/<name>/…` → `<name>`, root `src|examples|tests/…` → `abwe`.
pub fn crate_of(rel: &Path) -> Option<String> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    match parts.first().copied() {
        Some("crates") => parts.get(1).map(|s| s.to_string()),
        Some("src") | Some("examples") | Some("tests") | Some("benches") => {
            Some("abwe".to_string())
        }
        _ => None,
    }
}

/// Workspace and vendored crate identifiers that count as graph nodes
/// when they appear as the first segment of an import path.
fn is_tracked_dep(seg: &str) -> bool {
    seg.starts_with("abw_") || matches!(seg, "abwe" | "rand" | "proptest")
}

/// Accumulates crate-level edges from one file's imports into `edges`.
/// Test imports are excluded — the snapshot captures the production
/// graph, where determinism and layering actually matter.
pub fn accumulate_crate_edges(
    rel: &Path,
    records: &[ImportRecord],
    edges: &mut Vec<(String, String)>,
) {
    let Some(from) = crate_of(rel) else { return };
    for r in records {
        if r.in_test {
            continue;
        }
        let Some(first) = r.path.split("::").next() else {
            continue;
        };
        if !is_tracked_dep(first) {
            continue;
        }
        // `abw_lint` inside crates/lint is a self-reference, not an edge
        let self_name = format!("abw_{}", from.replace('-', "_"));
        if first == self_name || (from == "abwe" && first == "abwe") {
            continue;
        }
        let edge = (from.clone(), first.to_string());
        if !edges.contains(&edge) {
            edges.push(edge);
        }
    }
}

/// Renders sorted crate edges in the committed snapshot format.
pub fn render_graph(edges: &[(String, String)]) -> String {
    let mut sorted = edges.to_vec();
    sorted.sort();
    sorted.dedup();
    let mut out = String::from(
        "# Crate import graph — production code only (tests and #[cfg(test)] excluded).\n\
         # Regenerate with: cargo run -p abw-lint -- --write-graph\n",
    );
    for (from, to) in &sorted {
        out.push_str(&format!("{from} -> {to}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::lexer::tokenize;
    use crate::parser::parse;

    fn imports(src: &str) -> Vec<ImportRecord> {
        let toks = tokenize(src);
        let model = parse(&toks);
        file_imports(&toks, &model)
    }

    #[test]
    fn inline_chains_and_uses_both_surface() {
        let recs = imports(
            "use std::time::Duration;\n\
             fn f() { let s = crate::probe::Session::over(r); }\n",
        );
        let paths: Vec<&str> = recs.iter().map(|r| r.path.as_str()).collect();
        assert!(paths.contains(&"std::time::Duration"));
        assert!(paths.iter().any(|p| p.starts_with("crate::probe::Session")));
    }

    #[test]
    fn method_names_do_not_start_chains() {
        let recs = imports("fn f() { x.probe::<u8>(); }\n");
        assert!(
            recs.iter().all(|r| !r.path.starts_with("probe")),
            "got {recs:?}"
        );
    }

    #[test]
    fn test_mod_imports_are_marked() {
        let recs = imports(
            "#[cfg(test)]\nmod tests { use std::time::Instant;\n\
             fn t() { std::time::Instant::now(); } }\n",
        );
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.in_test));
    }

    #[test]
    fn layering_edge_fires_with_reason_and_respects_except() {
        let toml = "\
[layering]
snapshot = \"g.snap\"
[[layering.deny]]
from = \"crates/core/src/tools/*\"
import = [\"crate::probe::Session\"]
except = [\"crates/core/src/tools/mod.rs\"]
reason = \"tools never drive the simulator\"
";
        let cfg = config::parse(toml).unwrap();
        let src = "use crate::probe::Session;\n";
        let toks = tokenize(src);
        let model = parse(&toks);
        let recs = file_imports(&toks, &model);
        let allows = Allows::from_tokens(&toks);

        let hits = check_layering(
            "crates/core/src/tools/igi.rs",
            &recs,
            &cfg.layering,
            &allows,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::Layering);
        assert_eq!(
            hits[0].note.as_deref(),
            Some("tools never drive the simulator")
        );

        let exempt = check_layering(
            "crates/core/src/tools/mod.rs",
            &recs,
            &cfg.layering,
            &allows,
        );
        assert!(exempt.is_empty());

        let elsewhere = check_layering("crates/netsim/src/sim.rs", &recs, &cfg.layering, &allows);
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn layering_allow_marker_is_honoured() {
        let toml = "\
[[layering.deny]]
from = \"crates/obs/*\"
import = [\"std::time::Instant\"]
reason = \"wall-clock-free\"
";
        let cfg = config::parse(toml).unwrap();
        let src = "use std::time::Instant; // lint: allow(layering) -- doc example\n";
        let toks = tokenize(src);
        let model = parse(&toks);
        let recs = file_imports(&toks, &model);
        let allows = Allows::from_tokens(&toks);
        let hits = check_layering("crates/obs/src/lib.rs", &recs, &cfg.layering, &allows);
        assert!(hits.is_empty());
    }

    #[test]
    fn crate_edges_collapse_and_render_sorted() {
        let mut edges = Vec::new();
        let recs = imports("use abw_netsim::SimDuration;\nuse abw_stats::running::Running;\n");
        accumulate_crate_edges(Path::new("crates/core/src/tools/igi.rs"), &recs, &mut edges);
        accumulate_crate_edges(Path::new("crates/core/src/probe.rs"), &recs, &mut edges);
        let rendered = render_graph(&edges);
        let lines: Vec<&str> = rendered.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines, ["core -> abw_netsim", "core -> abw_stats"]);
    }

    #[test]
    fn self_reference_is_not_an_edge() {
        let mut edges = Vec::new();
        let recs = imports("use abw_lint::rules::Rule;\n");
        accumulate_crate_edges(Path::new("crates/lint/src/main.rs"), &recs, &mut edges);
        assert!(edges.is_empty());
    }
}
