//! `lint.toml` — the declared architecture contract, and its parser.
//!
//! The linter stays zero-dependency, so this module implements the
//! small TOML subset the config actually uses rather than pulling in a
//! TOML crate:
//!
//! * `[table]` and `[[array.of.tables]]` headers (dotted keys allowed)
//! * `key = "string"`, `key = ["a", "b"]`, `key = 123`, `key = true`
//! * `#` comments and blank lines
//!
//! Anything else is a parse error with a line number — config mistakes
//! must exit 2 (tool error), never silently disarm a rule.
//!
//! The workspace config lives at the repo root as `lint.toml` and is
//! also compiled into the binary (`include_str!`) so `abw-lint` runs
//! with the committed contract even when invoked outside the repo
//! root; an on-disk `lint.toml` under the lint root takes precedence.

use std::collections::BTreeMap;
use std::fmt;

/// The embedded copy of the workspace contract.
pub const DEFAULT_TOML: &str = include_str!("../../../lint.toml");

/// A config-file parse error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in the TOML source.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One `[[layering.deny]]` entry: a forbidden import edge.
#[derive(Debug, Clone, Default)]
pub struct DenyEdge {
    /// Glob over workspace-relative file paths (`*` matches anything,
    /// `/` included).
    pub from: String,
    /// Path prefixes that files matching `from` must not import; a
    /// path matches when equal to the prefix or nested under it
    /// (`std::time::Instant` matches `std::time`).
    pub imports: Vec<String>,
    /// Globs over workspace-relative paths exempt from this edge.
    pub except: Vec<String>,
    /// Why the edge is forbidden — echoed in the finding hint.
    pub reason: String,
}

/// `[layering]`: the import-graph pass.
#[derive(Debug, Clone, Default)]
pub struct LayeringConfig {
    /// Workspace-relative path of the committed crate-graph snapshot.
    pub snapshot: String,
    /// Forbidden edges.
    pub deny: Vec<DenyEdge>,
}

/// One `[[panic_free.scope]]` entry: a hot-path region for D7.
#[derive(Debug, Clone, Default)]
pub struct HotScope {
    /// Glob over workspace-relative file paths.
    pub file: String,
    /// Glob patterns over impl-qualified fn names (`Link::*`,
    /// `*::next`, `Simulator::run_until`). Reachability closes over
    /// same-file calls from matching fns.
    pub fns: Vec<String>,
}

/// `[units]`: the D8 suffix vocabulary.
#[derive(Debug, Clone, Default)]
pub struct UnitsConfig {
    /// The preferred unit suffixes (findings suggest these).
    pub canonical: Vec<String>,
    /// Additional suffixes accepted as units (legacy spellings that
    /// still participate in mixed-unit detection).
    pub accepted: Vec<String>,
    /// Suffixes that are always wrong and carry a canonical
    /// replacement, as `"_sec=_s"` pairs.
    pub deny: Vec<String>,
    /// Exact names exempt from the missing-suffix check on float
    /// fields: genuinely dimensionless quantities (probabilities,
    /// shape parameters, statistical moments over generic data).
    pub dimensionless: Vec<String>,
}

/// `[registry]`: the D9 static exhaustiveness check.
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// Directory whose `*.rs` stems must appear in the registry.
    pub tools_dir: String,
    /// The registry source file scanned for `module: "…"` entries.
    pub registry_file: String,
    /// Module stems exempt from the check (`mod`, `registry`).
    pub exclude: Vec<String>,
}

/// The whole parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Import-graph layering contract.
    pub layering: LayeringConfig,
    /// D7 hot scopes.
    pub panic_free: Vec<HotScope>,
    /// D8 vocabulary.
    pub units: UnitsConfig,
    /// D9 registry pairing.
    pub registry: RegistryConfig,
}

impl LintConfig {
    /// Parses the embedded workspace contract. Panics only if the
    /// committed `lint.toml` is malformed, which the crate's own tests
    /// catch before a release build ships.
    pub fn embedded() -> LintConfig {
        parse(DEFAULT_TOML).expect("embedded lint.toml must parse")
    }
}

// ---------------------------------------------------------------------
// generic TOML-subset representation

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    List(Vec<String>),
    Int(i64),
    Bool(bool),
}

#[derive(Debug, Default)]
struct Table {
    entries: BTreeMap<String, (u32, Value)>,
}

impl Table {
    fn str(&self, key: &str) -> Option<&str> {
        match self.entries.get(key) {
            Some((_, Value::Str(s))) => Some(s),
            _ => None,
        }
    }

    fn list(&self, key: &str) -> Vec<String> {
        match self.entries.get(key) {
            Some((_, Value::List(v))) => v.clone(),
            Some((_, Value::Str(s))) => vec![s.clone()],
            _ => Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Doc {
    /// Header path → the tables declared under it, in file order.
    /// `[t]` appends one table the first time and reuses it after;
    /// `[[t]]` appends a fresh table each time.
    tables: BTreeMap<String, Vec<Table>>,
}

/// Parses `source` into the typed [`LintConfig`].
pub fn parse(source: &str) -> Result<LintConfig, ConfigError> {
    let doc = parse_doc(source)?;
    let mut config = LintConfig::default();

    if let Some(t) = doc.tables.get("layering").and_then(|v| v.first()) {
        config.layering.snapshot = t.str("snapshot").unwrap_or_default().to_string();
    }
    for t in doc.tables.get("layering.deny").into_iter().flatten() {
        let from = t.str("from").map(str::to_string).unwrap_or_default();
        if from.is_empty() {
            let line = t.entries.values().map(|(l, _)| *l).min().unwrap_or(0);
            return Err(ConfigError {
                line,
                message: "[[layering.deny]] requires a `from` glob".into(),
            });
        }
        config.layering.deny.push(DenyEdge {
            from,
            imports: t.list("import"),
            except: t.list("except"),
            reason: t.str("reason").unwrap_or_default().to_string(),
        });
    }
    for t in doc.tables.get("panic_free.scope").into_iter().flatten() {
        let file = t.str("file").map(str::to_string).unwrap_or_default();
        if file.is_empty() {
            let line = t.entries.values().map(|(l, _)| *l).min().unwrap_or(0);
            return Err(ConfigError {
                line,
                message: "[[panic_free.scope]] requires a `file` glob".into(),
            });
        }
        config.panic_free.push(HotScope {
            file,
            fns: t.list("fns"),
        });
    }
    if let Some(t) = doc.tables.get("units").and_then(|v| v.first()) {
        config.units.canonical = t.list("canonical");
        config.units.accepted = t.list("accepted");
        config.units.deny = t.list("deny");
        config.units.dimensionless = t.list("dimensionless");
    }
    if let Some(t) = doc.tables.get("registry").and_then(|v| v.first()) {
        config.registry.tools_dir = t.str("tools_dir").unwrap_or_default().to_string();
        config.registry.registry_file = t.str("registry_file").unwrap_or_default().to_string();
        config.registry.exclude = t.list("exclude");
    }
    Ok(config)
}

fn parse_doc(source: &str) -> Result<Doc, ConfigError> {
    let mut doc = Doc::default();
    let mut current: Option<String> = None;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            let key = inner.trim().to_string();
            validate_header(&key, lineno)?;
            doc.tables
                .entry(key.clone())
                .or_default()
                .push(Table::default());
            current = Some(key);
        } else if let Some(inner) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            let key = inner.trim().to_string();
            validate_header(&key, lineno)?;
            let tables = doc.tables.entry(key.clone()).or_default();
            if tables.is_empty() {
                tables.push(Table::default());
            }
            current = Some(key);
        } else if let Some(eq) = find_eq(line) {
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            if key.is_empty() {
                return Err(ConfigError {
                    line: lineno,
                    message: "missing key before `=`".into(),
                });
            }
            let value = parse_value(value, lineno)?;
            let table_key = current.clone().ok_or(ConfigError {
                line: lineno,
                message: "key/value pair before any [table] header".into(),
            })?;
            let table = doc
                .tables
                .get_mut(&table_key)
                .and_then(|v| v.last_mut())
                .expect("current table exists");
            if table
                .entries
                .insert(key.to_string(), (lineno, value))
                .is_some()
            {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("duplicate key `{key}`"),
                });
            }
        } else {
            return Err(ConfigError {
                line: lineno,
                message: format!("unrecognised line: `{line}`"),
            });
        }
    }
    Ok(doc)
}

fn validate_header(key: &str, line: u32) -> Result<(), ConfigError> {
    let ok = !key.is_empty()
        && key.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        });
    if ok {
        Ok(())
    } else {
        Err(ConfigError {
            line,
            message: format!("invalid table header `[{key}]`"),
        })
    }
}

/// The `=` separating key from value (never inside a string — keys in
/// this subset are bare).
fn find_eq(line: &str) -> Option<usize> {
    line.find('=')
}

/// Strips a `#` comment, honouring `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line: u32) -> Result<Value, ConfigError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(ConfigError {
                line,
                message: "unterminated string".into(),
            });
        };
        if !rest[end + 1..].trim().is_empty() {
            return Err(ConfigError {
                line,
                message: "trailing characters after string".into(),
            });
        }
        return Ok(Value::Str(rest[..end].to_string()));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_list(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some(s) = part.strip_prefix('"').and_then(|r| r.strip_suffix('"')) else {
                return Err(ConfigError {
                    line,
                    message: format!("list items must be strings, got `{part}`"),
                });
            };
            items.push(s.to_string());
        }
        return Ok(Value::List(items));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    Err(ConfigError {
        line,
        message: format!("unrecognised value `{text}`"),
    })
}

/// Splits a list body on commas outside strings.
fn split_list(inner: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
}

// ---------------------------------------------------------------------
// glob matching (shared by layering `from`, `except` is exact, and D7
// fn patterns)

/// Matches `pat` against `text` where `*` matches any run of
/// characters (including `/` and `::` separators) and every other
/// character matches itself. Deliberately simple: the config's globs
/// are file paths and qualified fn names, not shell patterns.
pub fn glob_match(pat: &str, text: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // greedy two-pointer with backtracking on the last `*`
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// True when import path `path` falls under the deny `prefix`:
/// equal, or nested below it (`std::time::Instant` under `std::time`).
pub fn path_matches(prefix: &str, path: &str) -> bool {
    path == prefix || path.starts_with(&format!("{prefix}::"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_embedded_workspace_config() {
        let config = LintConfig::embedded();
        assert!(!config.layering.deny.is_empty(), "deny edges declared");
        assert!(!config.panic_free.is_empty(), "hot scopes declared");
        assert!(!config.units.canonical.is_empty(), "unit vocabulary");
        assert!(!config.registry.tools_dir.is_empty(), "registry paths");
        assert!(!config.layering.snapshot.is_empty(), "snapshot path");
        for edge in &config.layering.deny {
            assert!(!edge.reason.is_empty(), "every deny edge carries a reason");
            assert!(!edge.imports.is_empty());
        }
    }

    #[test]
    fn array_of_tables_accumulate() {
        let src = "\
[[layering.deny]]
from = \"a/*\"
import = [\"x\"]
reason = \"r1\"

[[layering.deny]]
from = \"b/*\"
import = [\"y\", \"z\"]
reason = \"r2\"
";
        let c = parse(src).unwrap();
        assert_eq!(c.layering.deny.len(), 2);
        assert_eq!(c.layering.deny[1].imports, ["y", "z"]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("[units]\ncanonical = [bad]\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("key = \"before any table\"\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("[units]\ncanonical = \"_s\"\ncanonical = \"_ms\"\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn comments_and_strings_coexist() {
        let src = "[registry]\ntools_dir = \"a#b\" # trailing comment\n";
        let c = parse(src).unwrap();
        assert_eq!(c.registry.tools_dir, "a#b");
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match(
            "crates/core/src/tools/*.rs",
            "crates/core/src/tools/igi.rs"
        ));
        assert!(glob_match("crates/obs/*", "crates/obs/src/lib.rs"));
        assert!(glob_match("Link::*", "Link::push"));
        assert!(glob_match("*::next", "Igi::next"));
        assert!(!glob_match("*::next", "next"));
        assert!(glob_match("Simulator::run_until", "Simulator::run_until"));
        assert!(!glob_match("crates/obs/*", "crates/core/src/lib.rs"));
        assert!(glob_match("*", "anything/at/all"));
    }

    #[test]
    fn path_prefix_matching() {
        assert!(path_matches("std::time", "std::time::Instant"));
        assert!(path_matches("std::time", "std::time"));
        assert!(!path_matches("std::time", "std::timer"));
        assert!(!path_matches("std::time::Instant", "std::time"));
    }

    /// Hostile input: mutations of the committed `lint.toml` parse or
    /// fail with a [`ConfigError`], never panic. A seeded std-only loop,
    /// because the crate takes no dependencies (proptest included).
    #[test]
    fn mutated_config_never_panics() {
        const TOKENS: &[&str] = &[
            "[",
            "]",
            "[[",
            "]]",
            "[]",
            "\"",
            "\\",
            "=",
            ",",
            ".",
            "#",
            "\n",
            " ",
            "\t",
            "\r",
            "[[layering.deny]]",
            "[panic_free]",
            "[units]",
            "from = ",
            "import = [",
            "true",
            "-",
            "99999999999999999999",
            "é",
            "\u{0}",
            "\u{feff}",
        ];
        // splitmix64: a fixed seed explores the same inputs every run
        let mut state = 0x1d9e_5eed_u64;
        let mut below = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let base: Vec<char> = DEFAULT_TOML.chars().collect();
        for case in 0..2_000 {
            let mut chars = base.clone();
            for _ in 0..1 + below(6) {
                let at = below(chars.len() + 1);
                let end = (at + below(24)).min(chars.len());
                match below(5) {
                    0 => {
                        chars.drain(at..end);
                    }
                    1 => {
                        chars.splice(at..at, TOKENS[below(TOKENS.len())].chars());
                    }
                    2 => {
                        let copy = chars[at..end].to_vec();
                        chars.splice(at..at, copy);
                    }
                    3 => {
                        let any = char::from_u32(below(0x11_0000) as u32);
                        chars.splice(at..(at + 1).min(chars.len()), any);
                    }
                    _ => chars.truncate(at),
                }
            }
            let input: String = chars.into_iter().collect();
            let outcome = std::panic::catch_unwind(|| parse(&input));
            assert!(outcome.is_ok(), "case {case}: parse panicked on\n{input}");
        }
    }
}
