//! The declarative scenario format: a few lines of text fully determine
//! an experiment.
//!
//! Scenario setup used to be Rust code, so the set of scenarios the
//! repo could exercise was gated on writing more Rust. This module
//! promotes the kebab-case impairment-spec idiom into a full scenario
//! DSL — topology hops, per-hop cross-traffic mix, impairment specs
//! verbatim, the tool list by registry name, seeds and run options —
//! parseable from any `.scn` file and renderable back to canonical text
//! ([`ScenarioSpec::to_spec`]) for byte-exact golden pinning.
//!
//! # Format
//!
//! Line oriented; `#` starts a comment line, blank lines are ignored.
//! The first content line names the scenario; `key = value` lines set
//! run options; each `hop` line appends one hop to the probing path in
//! order, as inline `key=value` items (quote a value containing spaces):
//!
//! ```text
//! scenario tight-not-narrow
//! seeds = 11, 22, 33
//! warmup = 500ms
//! rounds = 1
//! quick = true
//! tools = pathload, spruce
//!
//! hop capacity=100000000 latency=1ms cross=poisson cross-rate=0 cross-sizes=1500
//! hop capacity=155520000 latency=1ms cross=poisson cross-rate=100000000 \
//!     cross-sizes=1500 impair="loss=0.01, jitter=500us"
//! ```
//!
//! (The backslash above is doc-formatting only: a hop is one line.)
//!
//! | hop key | value | default |
//! |---------|-------|---------|
//! | `capacity` | link capacity, bits/s | required |
//! | `latency` | propagation delay (`ns`/`us`/`ms`/`s`) | `1ms` |
//! | `cross` | `cbr`, `poisson`, `pareto-on-off`, `pareto-interarrival` | `poisson` |
//! | `cross-rate` | mean cross-traffic rate, bits/s (must be < capacity) | `0` |
//! | `cross-sizes` | `1500`, `internet-mix`, or `size:prob;size:prob…` | `1500` |
//! | `queue` | queue bound, bytes (omit for unbounded) | unbounded |
//! | `impair` | a PR-5 impairment spec string, verbatim | none |
//!
//! Parse errors are reported in the `abw-lint` style —
//! `file:line:col: message` — pointing at the offending token.
//!
//! # Round trip
//!
//! [`ScenarioSpec::to_spec`] renders the canonical form: floats with
//! their shortest round-trip representation, durations as an integer
//! count of the largest exact unit, impairments through
//! [`ImpairmentConfig::to_spec`]. `parse(to_spec(s)) == s` holds for
//! every valid spec (pinned by property tests), with one documented
//! normalisation: a hop whose impairment is a no-op renders without an
//! `impair` item.
//!
//! # Running specs
//!
//! [`run_specs`] is the one place a `(tool × seed)` comparison cell is
//! built and run: a fresh scenario from the spec's hops and seed, a
//! registry tool, one live session, the verdicts. The `scenario` binary,
//! every experiment binary's `--scenario` hook, the shootout, the loss
//! sweep and the scenario fuzzer all run through it, so a cell means the
//! same thing everywhere.

use std::fmt;

use abw_exec::Executor;
use abw_netsim::{impair, ImpairmentConfig, SimDuration};
use abw_traffic::SizeDist;

use crate::scenario::{CrossKind, HopSpec, Scenario};
use crate::tools::registry::{self, ToolConfig, ToolEntry};
use crate::tools::Verdict;

/// A parse diagnostic, locating the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The file name handed to [`ScenarioSpec::parse`].
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file, self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A fully parsed, validated scenario specification.
///
/// Everything a run needs: the topology ([`HopSpec`]s in path order),
/// the seeds, the registry tools to drive, and the run options. Build
/// one programmatically and render it with [`ScenarioSpec::to_spec`],
/// or parse one from text with [`ScenarioSpec::parse`]; the two are
/// exact inverses.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (`[A-Za-z0-9_-]+`).
    pub name: String,
    /// Seeds to repeat the run over (at least one).
    pub seeds: Vec<u64>,
    /// Warm-up before probing starts.
    pub warmup: SimDuration,
    /// Registry kebab-names of the tools to drive; empty means "let
    /// the runner decide" (the generic runner uses the whole registry).
    pub tools: Vec<String>,
    /// Estimation rounds per (tool, seed) cell over one live session.
    pub rounds: u32,
    /// Use the scaled-down quick tool settings.
    pub quick: bool,
    /// The topology, in path order.
    pub hops: Vec<HopSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            seeds: vec![0xD0C5],
            warmup: SimDuration::from_millis(500),
            tools: Vec::new(),
            rounds: 1,
            quick: true,
            hops: Vec::new(),
        }
    }
}

/// The default hop a bare `hop capacity=…` line produces.
fn default_hop() -> HopSpec {
    HopSpec {
        capacity_bps: 0.0,
        cross_rate_bps: 0.0,
        cross: CrossKind::Poisson,
        cross_sizes: SizeDist::Constant(1500),
        prop_delay: SimDuration::from_millis(1),
        queue_bytes: None,
        impairment: None,
    }
}

/// One `key=value` token of a hop line, with its location.
struct HopItem<'a> {
    key: &'a str,
    value: String,
    key_col: u32,
    value_col: u32,
}

impl ScenarioSpec {
    /// Parses a scenario spec from `src`; `file` names the source in
    /// diagnostics (use the path, or something like `<inline>`).
    pub fn parse(src: &str, file: &str) -> Result<ScenarioSpec, ParseError> {
        let mut spec = ScenarioSpec {
            name: String::new(),
            seeds: Vec::new(),
            warmup: SimDuration::from_millis(500),
            tools: Vec::new(),
            rounds: 1,
            quick: true,
            hops: Vec::new(),
        };
        let err = |line: u32, col: u32, message: String| ParseError {
            file: file.to_string(),
            line,
            col,
            message,
        };
        let mut saw_header = false;
        let mut seen_keys: Vec<String> = Vec::new();
        let mut explicit = Explicit::default();

        for (idx, raw) in src.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let indent = (raw.len() - raw.trim_start().len()) as u32;

            if !saw_header {
                let Some(name) = trimmed.strip_prefix("scenario ") else {
                    return Err(err(
                        line_no,
                        indent + 1,
                        "the first line must be `scenario <name>`".to_string(),
                    ));
                };
                let name = name.trim();
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    return Err(err(
                        line_no,
                        indent + 1 + "scenario ".len() as u32,
                        format!("scenario name `{name}` must match [A-Za-z0-9_-]+"),
                    ));
                }
                spec.name = name.to_string();
                saw_header = true;
                continue;
            }

            if trimmed == "hop" || trimmed.starts_with("hop ") {
                let hop = parse_hop_line(raw, line_no, file)?;
                spec.hops.push(hop);
                continue;
            }

            // top-level `key = value`
            let Some(eq) = raw.find('=') else {
                return Err(err(
                    line_no,
                    indent + 1,
                    format!("expected `key = value` or `hop …`, got `{trimmed}`"),
                ));
            };
            let key = raw[..eq].trim();
            let value = raw[eq + 1..].trim();
            let key_col = (raw.len() - raw.trim_start().len()) as u32 + 1;
            let value_col =
                (eq + 1 + (raw[eq + 1..].len() - raw[eq + 1..].trim_start().len())) as u32 + 1;
            if seen_keys.iter().any(|k| k == key) {
                return Err(err(
                    line_no,
                    key_col,
                    format!("duplicate key `{key}` (each key may appear once)"),
                ));
            }
            seen_keys.push(key.to_string());
            match key {
                "seeds" => {
                    for part in value.split(',').map(str::trim) {
                        let seed = parse_seed(part).map_err(|m| err(line_no, value_col, m))?;
                        spec.seeds.push(seed);
                    }
                    explicit.seeds = true;
                }
                "warmup" => {
                    spec.warmup =
                        impair::parse_duration(value).map_err(|m| err(line_no, value_col, m))?;
                }
                "rounds" => {
                    let rounds: u32 = value.parse().map_err(|_| {
                        err(line_no, value_col, format!("`{value}` is not a count"))
                    })?;
                    if rounds == 0 {
                        return Err(err(
                            line_no,
                            value_col,
                            "rounds must be at least 1".to_string(),
                        ));
                    }
                    spec.rounds = rounds;
                }
                "quick" => {
                    spec.quick = match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(err(
                                line_no,
                                value_col,
                                format!("quick must be `true` or `false`, got `{other}`"),
                            ))
                        }
                    };
                }
                "tools" => {
                    for part in value.split(',').map(str::trim) {
                        if registry::find(part).is_none() {
                            return Err(err(
                                line_no,
                                value_col,
                                format!("`{part}` is not a registered tool (see `registry::all`)"),
                            ));
                        }
                        spec.tools.push(part.to_string());
                    }
                }
                other => {
                    return Err(err(
                        line_no,
                        key_col,
                        format!(
                            "unknown key `{other}` (expected seeds, warmup, rounds, quick, \
                             tools, or a `hop` line)"
                        ),
                    ));
                }
            }
        }

        if !saw_header {
            return Err(err(
                1,
                1,
                "empty spec: missing `scenario <name>`".to_string(),
            ));
        }
        if !explicit.seeds {
            spec.seeds = vec![0xD0C5];
        }
        if spec.hops.is_empty() {
            return Err(err(1, 1, "scenario has no `hop` lines".to_string()));
        }
        Ok(spec)
    }

    /// Renders the canonical text form — the exact inverse of
    /// [`ScenarioSpec::parse`] (see the module docs for the one
    /// no-op-impairment normalisation).
    pub fn to_spec(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "seeds = {}", seeds.join(", "));
        let _ = writeln!(out, "warmup = {}", impair::fmt_duration(self.warmup));
        let _ = writeln!(out, "rounds = {}", self.rounds);
        let _ = writeln!(out, "quick = {}", self.quick);
        if !self.tools.is_empty() {
            let _ = writeln!(out, "tools = {}", self.tools.join(", "));
        }
        out.push('\n');
        for hop in &self.hops {
            let _ = write!(
                out,
                "hop capacity={} latency={} cross={} cross-rate={} cross-sizes={}",
                hop.capacity_bps,
                impair::fmt_duration(hop.prop_delay),
                cross_kind_name(hop.cross),
                hop.cross_rate_bps,
                fmt_sizes(&hop.cross_sizes),
            );
            if let Some(q) = hop.queue_bytes {
                let _ = write!(out, " queue={q}");
            }
            if let Some(cfg) = &hop.impairment {
                if !cfg.is_noop() {
                    let _ = write!(out, " impair=\"{}\"", cfg.to_spec());
                }
            }
            out.push('\n');
        }
        out
    }

    /// The registry entries this spec drives: the named tools, or the
    /// whole registry when the spec names none.
    pub fn tool_entries(&self) -> Vec<&'static ToolEntry> {
        if self.tools.is_empty() {
            registry::all().iter().collect()
        } else {
            self.tools
                .iter()
                .map(|name| registry::find(name).expect("validated at parse time"))
                .collect()
        }
    }

    /// Capacity of the spec's narrow link, `Cn = min C_i`.
    pub fn narrow_capacity_bps(&self) -> f64 {
        self.hops
            .iter()
            .map(|h| h.capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Capacity of the spec's tight link (minimum configured avail-bw).
    pub fn tight_capacity_bps(&self) -> f64 {
        self.hops
            .iter()
            .min_by(|a, b| a.avail_bps().total_cmp(&b.avail_bps()))
            .expect("a spec has at least one hop")
            .capacity_bps
    }

    /// The [`ToolConfig`] the spec's tools are built with: quick flag
    /// from the spec, `Ct` from the spec's tight hop.
    pub fn tool_config(&self) -> ToolConfig {
        ToolConfig {
            tight_capacity_bps: self.tight_capacity_bps(),
            quick: self.quick,
        }
    }
}

/// Which optional top-level keys appeared explicitly (so defaults can
/// be applied only when absent).
#[derive(Default)]
struct Explicit {
    seeds: bool,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("`{s}` is not a seed (u64, decimal or 0x-hex)"))
}

fn cross_kind_name(kind: CrossKind) -> &'static str {
    match kind {
        CrossKind::Cbr => "cbr",
        CrossKind::Poisson => "poisson",
        CrossKind::ParetoOnOff => "pareto-on-off",
        CrossKind::ParetoInterarrival => "pareto-interarrival",
    }
}

/// The [`CrossKind`] a DSL model name (`cross=` value) denotes.
pub fn parse_cross_kind(s: &str) -> Result<CrossKind, String> {
    match s {
        "cbr" => Ok(CrossKind::Cbr),
        "poisson" => Ok(CrossKind::Poisson),
        "pareto-on-off" => Ok(CrossKind::ParetoOnOff),
        "pareto-interarrival" => Ok(CrossKind::ParetoInterarrival),
        other => Err(format!(
            "unknown cross model `{other}` (cbr, poisson, pareto-on-off, pareto-interarrival)"
        )),
    }
}

fn fmt_sizes(sizes: &SizeDist) -> String {
    match sizes {
        SizeDist::Constant(s) => s.to_string(),
        SizeDist::Empirical(entries) => entries
            .iter()
            .map(|(size, p)| format!("{size}:{p}"))
            .collect::<Vec<_>>()
            .join(";"),
    }
}

fn parse_sizes(s: &str) -> Result<SizeDist, String> {
    if s == "internet-mix" {
        return Ok(SizeDist::internet_mix());
    }
    if !s.contains(':') {
        let size: u32 = s
            .parse()
            .map_err(|_| format!("`{s}` is not a packet size in bytes"))?;
        if size == 0 {
            return Err("packet size must be positive".to_string());
        }
        return Ok(SizeDist::Constant(size));
    }
    let mut entries = Vec::new();
    let mut total = 0.0;
    for pair in s.split(';') {
        let (size, p) = pair
            .split_once(':')
            .ok_or_else(|| format!("size entry `{pair}` is not size:prob"))?;
        let size: u32 = size
            .parse()
            .map_err(|_| format!("`{size}` is not a packet size in bytes"))?;
        let p: f64 = p
            .parse()
            .map_err(|_| format!("`{p}` is not a probability"))?;
        if size == 0 {
            return Err("packet size must be positive".to_string());
        }
        if !(p > 0.0 && p.is_finite()) {
            return Err(format!(
                "size probability `{p}` must be positive and finite"
            ));
        }
        total += p;
        entries.push((size, p));
    }
    if (total - 1.0).abs() > 1e-9 {
        return Err(format!("size probabilities sum to {total}, expected 1"));
    }
    Ok(SizeDist::Empirical(entries))
}

fn parse_rate(s: &str) -> Result<f64, String> {
    let rate: f64 = s
        .parse()
        .map_err(|_| format!("`{s}` is not a rate in bits/s"))?;
    if !rate.is_finite() || rate < 0.0 {
        return Err(format!("rate `{s}` must be finite and non-negative"));
    }
    Ok(rate)
}

/// Splits a hop line into `key=value` items starting at byte `start`
/// (past the `hop` keyword), honouring double quotes around values (an
/// `impair` spec contains spaces and commas). Columns are 1-based over
/// the whole line.
fn tokenize_hop_line<'a>(
    raw: &'a str,
    start: usize,
    line: u32,
    file: &str,
) -> Result<Vec<HopItem<'a>>, ParseError> {
    let err = |col: u32, message: String| ParseError {
        file: file.to_string(),
        line,
        col,
        message,
    };
    let bytes = raw.as_bytes();
    let mut items = Vec::new();
    let mut i = start;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        // scan the key up to `=`
        while i < bytes.len() && bytes[i] != b'=' && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'=' {
            return Err(err(
                start as u32 + 1,
                format!("hop item `{}` is not key=value", &raw[start..i]),
            ));
        }
        let key = &raw[start..i];
        i += 1; // consume `=`
        let value_start = i;
        let value = if i < bytes.len() && bytes[i] == b'"' {
            i += 1;
            let content_start = i;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(err(
                    value_start as u32 + 1,
                    format!("unterminated quote in `{key}` value"),
                ));
            }
            let content = raw[content_start..i].to_string();
            i += 1; // closing quote
            content
        } else {
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            raw[value_start..i].to_string()
        };
        items.push(HopItem {
            key,
            value,
            key_col: start as u32 + 1,
            value_col: value_start as u32 + 1,
        });
    }
    Ok(items)
}

fn parse_hop_line(raw: &str, line: u32, file: &str) -> Result<HopSpec, ParseError> {
    let err = |col: u32, message: String| ParseError {
        file: file.to_string(),
        line,
        col,
        message,
    };
    // skip past the `hop` keyword (the caller matched it)
    let indent = raw.len() - raw.trim_start().len();
    let items = tokenize_hop_line(raw, indent + "hop".len(), line, file)?;
    let mut hop = default_hop();
    let mut saw_capacity = false;
    let mut seen: Vec<&str> = Vec::new();
    for item in &items {
        if seen.contains(&item.key) {
            return Err(err(
                item.key_col,
                format!(
                    "duplicate hop key `{}` (each key may appear once)",
                    item.key
                ),
            ));
        }
        seen.push(item.key);
        match item.key {
            "capacity" => {
                let c = parse_rate(&item.value).map_err(|m| err(item.value_col, m))?;
                if c <= 0.0 {
                    return Err(err(item.value_col, "capacity must be positive".to_string()));
                }
                hop.capacity_bps = c;
                saw_capacity = true;
            }
            "latency" => {
                hop.prop_delay =
                    impair::parse_duration(&item.value).map_err(|m| err(item.value_col, m))?;
            }
            "cross" => {
                hop.cross = parse_cross_kind(&item.value).map_err(|m| err(item.value_col, m))?;
            }
            "cross-rate" => {
                hop.cross_rate_bps = parse_rate(&item.value).map_err(|m| err(item.value_col, m))?;
            }
            "cross-sizes" => {
                hop.cross_sizes = parse_sizes(&item.value).map_err(|m| err(item.value_col, m))?;
            }
            "queue" => {
                let q: u64 = item.value.parse().map_err(|_| {
                    err(
                        item.value_col,
                        format!("`{}` is not a queue bound in bytes", item.value),
                    )
                })?;
                if q == 0 {
                    return Err(err(
                        item.value_col,
                        "queue bound must be positive (omit the key for unbounded)".to_string(),
                    ));
                }
                hop.queue_bytes = Some(q);
            }
            "impair" => {
                if item.value.trim().is_empty() {
                    return Err(err(
                        item.value_col,
                        "empty impairment spec (drop the key instead)".to_string(),
                    ));
                }
                let cfg =
                    ImpairmentConfig::parse(&item.value).map_err(|m| err(item.value_col, m))?;
                hop.impairment = Some(cfg);
            }
            other => {
                return Err(err(
                    item.key_col,
                    format!(
                        "unknown hop key `{other}` (capacity, latency, cross, cross-rate, \
                         cross-sizes, queue, impair)"
                    ),
                ));
            }
        }
    }
    if !saw_capacity {
        let col = (raw.len() - raw.trim_start().len()) as u32 + 1;
        return Err(err(col, "hop needs `capacity=<bits/s>`".to_string()));
    }
    if hop.cross_rate_bps >= hop.capacity_bps {
        return Err(err(
            (raw.len() - raw.trim_start().len()) as u32 + 1,
            format!(
                "cross-rate {} must be below capacity {} (a saturated hop never drains)",
                hop.cross_rate_bps, hop.capacity_bps
            ),
        ));
    }
    Ok(hop)
}

/// One verdict produced by [`run_specs`].
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// Registry name of the tool.
    pub tool: &'static str,
    /// The seed this cell ran with.
    pub seed: u64,
    /// 0-based round within the cell's live session.
    pub round: u32,
    /// The tool's verdict.
    pub verdict: Verdict,
}

/// One `(tool, seed, round)` cell abandoned at the per-cell
/// simulated-time budget of the scenario fuzzer
/// ([`FuzzConfig::max_scenario_ms`]). A timeout is an *outcome class*,
/// not a failure: the palette's 99 %-utilisation multi-hop corners
/// legitimately take minutes of simulated probing, and a bounded run
/// records that they ran long instead of stalling on them.
///
/// [`FuzzConfig::max_scenario_ms`]: crate::scenario::fuzz::FuzzConfig::max_scenario_ms
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecTimeout {
    /// Registry name of the tool.
    pub tool: &'static str,
    /// The seed this cell ran with.
    pub seed: u64,
    /// 0-based round the deadline interrupted; later rounds of the cell
    /// are skipped (they would start already past the deadline).
    pub round: u32,
}

/// The outcomes and timeouts of one bounded spec run, as
/// [`evaluate`] returns them.
///
/// [`evaluate`]: crate::scenario::fuzz::evaluate
#[derive(Debug, Clone, Default)]
pub struct BoundedRun {
    /// Verdicts of the cells that finished, in submission order —
    /// byte-identical for any worker count.
    pub outcomes: Vec<SpecOutcome>,
    /// Cells the budget cut short, in the same deterministic order.
    pub timeouts: Vec<SpecTimeout>,
}

/// Drives `specs` through the registry in one executor batch: one job
/// per `(spec, tool, seed)` cell, in that order, fanned across `exec`.
/// Each cell builds its own scenario from the spec's hops and seed,
/// warms it up and drives `rounds` fresh estimators over one live
/// session (so later rounds see the queue state earlier rounds left
/// behind, exactly like the `tracking` experiment). Outcomes come back
/// in submission order — byte-identical for any worker count, and the
/// same as running each spec on its own, one after the other.
pub fn run_specs(specs: &[ScenarioSpec], exec: &Executor) -> Vec<SpecOutcome> {
    run_cells(specs, exec, None, Leg::Reference).outcomes
}

/// How [`run_cells`] runs its cells: the reference run, or one of the
/// legs the scenario fuzzer compares with it bit for bit. Only the
/// reference run reaches the installed trace recorder; the other legs
/// run untraced, so their comparison with it also checks traced ≡
/// untraced, and a trace holds every event once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// Fluid window on; events go to the installed recorder, if any.
    Reference,
    /// Fluid window on, no recorder.
    Untraced,
    /// Fluid window off, no recorder.
    PerEvent,
}

/// [`run_specs`] with an optional per-cell simulated-time budget, run as
/// `leg`.
///
/// Each `(spec, tool, seed)` cell gets `budget` of *simulated* time
/// measured from the end of its warm-up; a round that is still probing
/// at the deadline is abandoned via [`Session::drive_until`] and
/// recorded as a [`SpecTimeout`] instead of a verdict (the cell's
/// remaining rounds are skipped). The budget is part of the run's
/// identity: the same spec under a different budget may yield a
/// different outcome list.
///
/// [`Leg::PerEvent`] switches every cell's fluid fast-forward window
/// ([`abw_netsim::Simulator::set_fluid`]) off from the start of its
/// warm-up. The window is an optimisation whose output is bit-identical
/// either way, so this is no public option: the scenario fuzzer uses it
/// to check that claim.
///
/// [`Session::drive_until`]: crate::probe::Session::drive_until
pub(crate) fn run_cells(
    specs: &[ScenarioSpec],
    exec: &Executor,
    budget: Option<SimDuration>,
    leg: Leg,
) -> BoundedRun {
    let cells: Vec<(&ScenarioSpec, &'static ToolEntry, u64)> = specs
        .iter()
        .flat_map(|spec| {
            spec.tool_entries()
                .into_iter()
                .flat_map(move |entry| spec.seeds.iter().map(move |&seed| (spec, entry, seed)))
        })
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(spec, entry, seed)| move || run_cell(spec, entry, seed, budget, leg))
        .collect();
    let verdicts = exec.run(jobs);

    let mut run = BoundedRun::default();
    for ((spec, entry, seed), verdicts) in cells.into_iter().zip(verdicts) {
        let finished = verdicts.len() as u32;
        for (round, verdict) in (0..).zip(verdicts) {
            run.outcomes.push(SpecOutcome {
                tool: entry.name,
                seed,
                round,
                verdict,
            });
        }
        if finished < spec.rounds {
            run.timeouts.push(SpecTimeout {
                tool: entry.name,
                seed,
                round: finished,
            });
        }
    }
    run
}

/// One `(spec, tool, seed)` cell: the verdicts of the rounds that
/// finished before the deadline (all of them without a budget).
fn run_cell(
    spec: &ScenarioSpec,
    entry: &ToolEntry,
    seed: u64,
    budget: Option<SimDuration>,
    leg: Leg,
) -> Vec<Verdict> {
    let mut s = Scenario::from_hops(spec.hops.clone(), seed);
    s.sim.set_fluid(leg != Leg::PerEvent);
    if leg != Leg::Reference {
        s.sim.clear_recorder();
    }
    s.warm_up(spec.warmup);
    let deadline = budget.map(|d| s.sim.now() + d);
    let tool_config = spec.tool_config();
    let mut session = s.session();
    let mut verdicts = Vec::with_capacity(spec.rounds as usize);
    for _ in 0..spec.rounds {
        let mut tool = entry.build(&tool_config);
        let verdict = match deadline {
            Some(t) => session.drive_until(&mut s.sim, tool.as_mut(), t),
            None => Some(session.drive(&mut s.sim, tool.as_mut())),
        };
        match verdict {
            Some(v) => verdicts.push(v),
            None => break,
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ScenarioSpec {
        ScenarioSpec::parse(src, "test.scn").unwrap_or_else(|e| panic!("{e}"))
    }

    fn parse_err(src: &str) -> ParseError {
        ScenarioSpec::parse(src, "test.scn").expect_err("spec must be rejected")
    }

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = parse("scenario tiny\nhop capacity=50000000\n");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.seeds, vec![0xD0C5]);
        assert_eq!(spec.warmup, SimDuration::from_millis(500));
        assert_eq!(spec.rounds, 1);
        assert!(spec.quick);
        assert!(spec.tools.is_empty());
        assert_eq!(spec.hops.len(), 1);
        let hop = &spec.hops[0];
        assert_eq!(hop.capacity_bps, 50e6);
        assert_eq!(hop.cross_rate_bps, 0.0);
        assert_eq!(hop.cross, CrossKind::Poisson);
        assert_eq!(hop.prop_delay, SimDuration::from_millis(1));
        assert_eq!(hop.queue_bytes, None);
        assert!(hop.impairment.is_none());
    }

    #[test]
    fn full_spec_parses() {
        let spec = parse(
            "# the tight!=narrow path\n\
             scenario tight-not-narrow\n\
             seeds = 11, 0x16, 33\n\
             warmup = 250ms\n\
             rounds = 2\n\
             quick = false\n\
             tools = pathload, spruce\n\
             \n\
             hop capacity=100000000 cross-rate=0\n\
             hop capacity=155520000 latency=2ms cross=cbr cross-rate=100000000 \
             cross-sizes=internet-mix queue=64000 impair=\"loss=0.01, jitter=500us\"\n",
        );
        assert_eq!(spec.seeds, vec![11, 22, 33]);
        assert_eq!(spec.warmup, SimDuration::from_millis(250));
        assert_eq!(spec.rounds, 2);
        assert!(!spec.quick);
        assert_eq!(spec.tools, vec!["pathload", "spruce"]);
        assert_eq!(spec.hops.len(), 2);
        let h = &spec.hops[1];
        assert_eq!(h.cross, CrossKind::Cbr);
        assert_eq!(h.cross_sizes, SizeDist::internet_mix());
        assert_eq!(h.queue_bytes, Some(64000));
        let imp = h.impairment.as_ref().unwrap();
        assert_eq!(imp.jitter, Some(SimDuration::from_micros(500)));
    }

    #[test]
    fn round_trip_is_exact() {
        let spec = parse(
            "scenario rt\n\
             seeds = 7\n\
             warmup = 123us\n\
             tools = delphi\n\
             hop capacity=51300000.5 latency=1536ns cross=pareto-on-off \
             cross-rate=12345678.25 cross-sizes=40:0.5;576:0.25;1500:0.25 \
             queue=3000 impair=\"ge-loss=0.05:0.4:0.5, reorder=0.1:2ms, flap=1s:20000000\"\n",
        );
        let rendered = spec.to_spec();
        let reparsed = ScenarioSpec::parse(&rendered, "test.scn")
            .unwrap_or_else(|e| panic!("canonical form does not re-parse: {e}\n{rendered}"));
        assert_eq!(spec, reparsed, "canonical form:\n{rendered}");
        // and the canonical form is a fixpoint
        assert_eq!(rendered, reparsed.to_spec());
    }

    #[test]
    fn errors_carry_file_line_col() {
        let e = parse_err("scenario x\nhop capacity=50000000\nwat = 1\n");
        assert_eq!((e.line, e.col), (3, 1));
        assert_eq!(e.file, "test.scn");
        assert!(e.message.contains("unknown key `wat`"), "{e}");
        assert_eq!(
            e.to_string(),
            "test.scn:3:1: unknown key `wat` (expected seeds, warmup, rounds, quick, tools, \
             or a `hop` line)"
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse_err("scenario x\nseeds = 1\nseeds = 2\nhop capacity=1000000\n");
        assert_eq!((e.line, e.col), (3, 1));
        assert!(e.message.contains("duplicate key `seeds`"), "{e}");

        let e = parse_err("scenario x\nhop capacity=1000000 capacity=2000000\n");
        assert_eq!((e.line, e.col), (2, 22));
        assert!(e.message.contains("duplicate hop key `capacity`"), "{e}");
    }

    #[test]
    fn bad_values_point_at_the_value() {
        let e = parse_err("scenario x\nhop capacity=fast\n");
        assert_eq!((e.line, e.col), (2, 14));
        assert!(e.message.contains("not a rate"), "{e}");

        let e = parse_err("scenario x\nhop capacity=1000000 impair=\"loss=1.5\"\n");
        assert_eq!((e.line, e.col), (2, 29));
        assert!(e.message.contains("out of [0, 1]"), "{e}");

        let e = parse_err("scenario x\ntools = pathload, warp-drive\nhop capacity=1000000\n");
        assert_eq!((e.line, e.col), (2, 9));
        assert!(e.message.contains("not a registered tool"), "{e}");
    }

    #[test]
    fn structural_errors_are_rejected() {
        assert!(parse_err("").message.contains("empty spec"));
        assert!(parse_err("hop capacity=1\n")
            .message
            .contains("first line must be"));
        assert!(parse_err("scenario x\n").message.contains("no `hop` lines"));
        assert!(parse_err("scenario x\nhop latency=1ms\n")
            .message
            .contains("needs `capacity"));
        // saturated hop
        let e = parse_err("scenario x\nhop capacity=1000000 cross-rate=1000000\n");
        assert!(e.message.contains("below capacity"), "{e}");
        // unterminated quote
        let e = parse_err("scenario x\nhop capacity=1000000 impair=\"loss=0.1\n");
        assert!(e.message.contains("unterminated quote"), "{e}");
    }

    #[test]
    fn bounded_run_times_out_and_unbounded_matches_run_specs() {
        let spec = parse(
            "scenario bounded\nseeds = 11\ntools = spruce\n\
             hop capacity=50000000 cross-rate=25000000\n",
        );
        let specs = std::slice::from_ref(&spec);
        // a 1 ms simulated budget cannot fit a spruce round: the cell
        // must come back as a timeout, not a verdict (and not a panic)
        let tight = run_cells(
            specs,
            &Executor::serial(),
            Some(SimDuration::from_millis(1)),
            Leg::Reference,
        );
        assert!(tight.outcomes.is_empty(), "no round fits 1 ms");
        assert_eq!(
            tight.timeouts,
            vec![SpecTimeout {
                tool: "spruce",
                seed: 11,
                round: 0
            }]
        );

        // a generous budget changes nothing: bit-identical verdicts
        let unbounded = run_specs(specs, &Executor::serial());
        let generous = run_cells(
            specs,
            &Executor::serial(),
            Some(SimDuration::from_secs(600)),
            Leg::Reference,
        );
        assert!(generous.timeouts.is_empty());
        assert_same_outcomes(&unbounded, &generous.outcomes);
    }

    #[test]
    fn timed_out_session_can_start_a_fresh_round() {
        // rounds = 2 with a budget that cuts round 0: the timeout must
        // leave the session reusable and skip the remaining round
        let spec = parse(
            "scenario two-rounds\nseeds = 7\nrounds = 2\ntools = spruce\n\
             hop capacity=50000000 cross-rate=25000000\n",
        );
        let run = run_cells(
            std::slice::from_ref(&spec),
            &Executor::serial(),
            Some(SimDuration::from_millis(1)),
            Leg::Reference,
        );
        assert!(run.outcomes.is_empty());
        assert_eq!(run.timeouts.len(), 1, "one timeout per cell, not per round");
        assert_eq!(run.timeouts[0].round, 0);
    }

    /// Asserts two outcome lists are the same cells with bit-identical
    /// verdicts, in the same order.
    fn assert_same_outcomes(a: &[SpecOutcome], b: &[SpecOutcome]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.tool, x.seed, x.round), (y.tool, y.seed, y.round));
            assert_eq!(
                x.verdict.avail_bps().to_bits(),
                y.verdict.avail_bps().to_bits(),
                "{}/{}",
                x.tool,
                x.seed
            );
            assert_eq!(x.verdict.probe_packets(), y.verdict.probe_packets());
        }
    }

    #[test]
    fn run_spec_is_executor_invariant() {
        let a = parse(
            "scenario inv\nseeds = 11, 22\ntools = spruce, ptr\n\
             hop capacity=50000000 cross-rate=25000000\n",
        );
        let serial = run_specs(std::slice::from_ref(&a), &Executor::serial());
        assert_eq!(serial.len(), 4);
        assert_same_outcomes(
            &serial,
            &run_specs(std::slice::from_ref(&a), &Executor::new(4)),
        );

        // a two-spec batch is the two runs one after the other, at any
        // worker count: no cell of one spec leaks into the other's
        let b = parse(
            "scenario inv-lossy\nseeds = 33\ntools = ptr, spruce\n\
             hop capacity=50000000 cross-rate=20000000 impair=\"loss=0.01\"\n",
        );
        let mut one_by_one = serial;
        one_by_one.extend(run_specs(std::slice::from_ref(&b), &Executor::serial()));
        for workers in [1, 4] {
            let batch = run_specs(&[a.clone(), b.clone()], &Executor::new(workers));
            assert_same_outcomes(&one_by_one, &batch);
        }
    }
}
