//! D9 — tool-registry exhaustiveness, statically.
//!
//! Every `*.rs` module under `[registry].tools_dir` must have a
//! `module: "<stem>"` entry in the registry source, and every entry
//! must point at a module that exists on disk. This replaces the old
//! runtime `registry_completeness` test that re-scanned the directory
//! on every `cargo test`: the linter sees the same facts at analysis
//! time, fails CI with a `file:line:col` finding, and costs nothing at
//! runtime.

use std::path::Path;

use crate::config::RegistryConfig;
use crate::lexer::{tokenize, TokenKind};
use crate::rules::{Allows, Finding, Rule};

/// Runs D9 against the workspace on disk. Returns findings anchored in
/// the registry file, or an I/O error if the configured paths are
/// unreadable (the caller maps that to exit code 2 — a broken config
/// must not pass as a clean lint).
pub fn check(root: &Path, config: &RegistryConfig) -> std::io::Result<Vec<Finding>> {
    if config.tools_dir.is_empty() || config.registry_file.is_empty() {
        return Ok(Vec::new());
    }
    let mut stems: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(root.join(&config.tools_dir))? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_suffix(".rs") {
            if !config.exclude.iter().any(|e| e == stem) {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();

    let source = std::fs::read_to_string(root.join(&config.registry_file))?;
    let tokens = tokenize(&source);
    let allows = Allows::from_tokens(&tokens);

    // `module: "<stem>"` occurrences, with the line of each
    let mut entries: Vec<(String, u32)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "module" {
            continue;
        }
        let rest: Vec<&crate::lexer::Token> = tokens[i + 1..]
            .iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .take(2)
            .collect();
        if let [colon, value] = rest[..] {
            if colon.kind == TokenKind::Punct && colon.text == ":" && value.kind == TokenKind::Str {
                entries.push((str_value(&value.text), value.line));
            }
        }
    }

    let mut findings = Vec::new();
    for stem in &stems {
        // missing-module findings anchor at the top of the registry, so
        // a marker on line 1 is the escape hatch for all of them
        if allows.covers(1, Rule::Registry) {
            break;
        }
        if !entries.iter().any(|(m, _)| m == stem) {
            findings.push(Finding {
                rule: Rule::Registry,
                line: 1,
                col: 1,
                snippet: format!("{stem}.rs"),
                note: Some(format!(
                    "tool module `{stem}` has no `module: \"{stem}\"` entry in {}",
                    config.registry_file
                )),
            });
        }
    }
    for (module, line) in &entries {
        if allows.covers(*line, Rule::Registry) {
            continue;
        }
        if !stems.iter().any(|s| s == module) && !config.exclude.iter().any(|e| e == module) {
            findings.push(Finding {
                rule: Rule::Registry,
                line: *line,
                col: 1,
                snippet: format!("module: \"{module}\""),
                note: Some(format!(
                    "registry entry points at `{module}`, but {}/{module}.rs does not exist",
                    config.tools_dir
                )),
            });
        }
    }
    Ok(findings)
}

/// The contents of a string literal token: the lexer keeps the
/// delimiters (`"igi"`, `r"x"`), so strip prefix letters, hashes and
/// quotes from both ends.
fn str_value(text: &str) -> String {
    text.trim_start_matches(['r', 'b'])
        .trim_matches('#')
        .trim_matches('"')
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, content: &str) {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }

    fn config() -> RegistryConfig {
        RegistryConfig {
            tools_dir: "tools".into(),
            registry_file: "tools/registry.rs".into(),
            exclude: vec!["mod".into(), "registry".into()],
        }
    }

    #[test]
    fn complete_registry_is_clean() {
        let dir = std::env::temp_dir().join("abw_lint_d9_clean");
        let _ = std::fs::remove_dir_all(&dir);
        write(&dir, "tools/igi.rs", "");
        write(&dir, "tools/mod.rs", "");
        write(
            &dir,
            "tools/registry.rs",
            "pub static TOOLS: &[Entry] = &[Entry { module: \"igi\" }];",
        );
        assert!(check(&dir, &config()).unwrap().is_empty());
    }

    #[test]
    fn missing_and_stale_entries_fire() {
        let dir = std::env::temp_dir().join("abw_lint_d9_dirty");
        let _ = std::fs::remove_dir_all(&dir);
        write(&dir, "tools/igi.rs", "");
        write(&dir, "tools/spruce.rs", "");
        write(
            &dir,
            "tools/registry.rs",
            "pub static TOOLS: &[Entry] = &[\n\
             Entry { module: \"igi\" },\n\
             Entry { module: \"ghost\" },\n\
             ];",
        );
        let findings = check(&dir, &config()).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.snippet == "spruce.rs"));
        assert!(findings.iter().any(|f| f.snippet.contains("ghost")));
        // the stale entry is anchored at its own line
        let stale = findings
            .iter()
            .find(|f| f.snippet.contains("ghost"))
            .unwrap();
        assert_eq!(stale.line, 3);
    }

    #[test]
    fn allow_markers_on_both_anchors_silence_their_findings() {
        let dir = std::env::temp_dir().join("abw_lint_d9_allowed");
        let _ = std::fs::remove_dir_all(&dir);
        write(&dir, "tools/igi.rs", "");
        write(&dir, "tools/spruce.rs", "");
        // a missing module anchors at line 1, a stale entry at its own line
        let missing = "// lint: allow(registry) -- spruce registers in its own change";
        let stale = "// lint: allow(registry) -- ghost is built out of tree";
        for (top, entry, left) in [
            (missing, stale, None),
            (missing, "", Some("module: \"ghost\"")),
            ("", stale, Some("spruce.rs")),
        ] {
            write(
                &dir,
                "tools/registry.rs",
                &format!(
                    "{top}\n\
                     pub static TOOLS: &[Entry] = &[\n\
                     Entry {{ module: \"igi\" }},\n\
                     Entry {{ module: \"ghost\" }}, {entry}\n\
                     ];"
                ),
            );
            let findings = check(&dir, &config()).unwrap();
            let snippets: Vec<&str> = findings.iter().map(|f| f.snippet.as_str()).collect();
            assert_eq!(
                snippets,
                Vec::from_iter(left),
                "top `{top}`, entry `{entry}`"
            );
        }
    }

    #[test]
    fn unreadable_paths_are_io_errors_not_clean_runs() {
        let dir = std::env::temp_dir().join("abw_lint_d9_absent");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check(&dir, &config()).is_err());
    }
}
