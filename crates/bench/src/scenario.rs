//! `--scenario <file>` support: run a declarative `.scn` spec instead
//! of a binary's built-in experiment.
//!
//! The experiment entry [`crate::experiment`], `all` and the dedicated
//! `scenario` binary accept `--scenario FILE` and hand their parsed
//! [`Args`] to [`run_scenario`]: the spec is loaded, validated and
//! driven through the tool registry, and the binary's own run never
//! starts. `scenario` also takes the file as a bare argument: `scenario
//! FILE` is `scenario --scenario FILE`. A spec sets its own size, so
//! `--quick` does not change a spec run.
//!
//! Parse errors print the `file:line:col:` diagnostic from
//! [`abw_core::scenario::dsl::ScenarioSpec::parse`] and exit with
//! status 2, like `abw-lint` does for its findings.

use std::path::Path;

use abw_core::scenario::dsl::{run_specs, ScenarioSpec, SpecOutcome};
use abw_exec::Executor;

use crate::{f, Args, Format, Session, Table};

/// Loads and parses a spec file; the error is the rendered
/// `file:line:col:` diagnostic (or the I/O error).
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    ScenarioSpec::parse(&src, &path.display().to_string()).map_err(|e| e.to_string())
}

/// The outcome table: one row per `(tool, seed, round)` verdict.
pub fn outcome_table(outcomes: &[SpecOutcome]) -> Table {
    let mut t = Table::new(vec![
        "tool",
        "seed",
        "round",
        "est_mbps",
        "lo_mbps",
        "hi_mbps",
        "packets",
        "elapsed_s",
    ]);
    for o in outcomes {
        let (lo, hi) = match o.verdict.range_bps() {
            Some((lo, hi)) => (f(lo / 1e6, 2), f(hi / 1e6, 2)),
            None => ("-".to_string(), "-".to_string()),
        };
        t.row(vec![
            o.tool.to_string(),
            o.seed.to_string(),
            o.round.to_string(),
            f(o.verdict.avail_bps() / 1e6, 2),
            lo,
            hi,
            o.verdict.probe_packets().to_string(),
            f(o.verdict.elapsed_secs(), 3),
        ]);
    }
    t
}

/// Runs the spec file `args` name with `--scenario FILE` end to end
/// under its own [`Session`], printing the outcome table in the format
/// `args` select, and returns true; without `--scenario` it runs
/// nothing and returns false. `bin` names the binary the run was
/// launched from (recorded in the manifest).
pub fn run_scenario(bin: &str, args: &Args) -> bool {
    let Some(path) = args.value("--scenario") else {
        return false;
    };
    let path = Path::new(path);
    let spec = match load_spec(path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut session = Session::start("scenario");
    session
        .manifest()
        .param_str("bin", bin)
        .param_str("spec", &path.display().to_string())
        .param_str("scenario", &spec.name)
        .param_u64("hops", spec.hops.len() as u64)
        .param_u64("rounds", u64::from(spec.rounds))
        .param_bool("quick", spec.quick)
        .param_f64("narrow_capacity_bps", spec.narrow_capacity_bps())
        .param_f64("tight_capacity_bps", spec.tight_capacity_bps());
    for &seed in &spec.seeds {
        session.manifest().push_seed(seed);
    }

    let outcomes = run_specs(std::slice::from_ref(&spec), &Executor::from_env());
    session
        .manifest()
        .counter("scenario.outcomes", outcomes.len() as u64);

    let format = args.format();
    if format == Format::Text {
        let tools: Vec<&str> = spec.tool_entries().iter().map(|entry| entry.name).collect();
        println!(
            "Scenario `{}`: {} hop(s), narrow {} Mb/s, tight {} Mb/s, \
             configured avail {} Mb/s",
            spec.name,
            spec.hops.len(),
            f(spec.narrow_capacity_bps() / 1e6, 2),
            f(spec.tight_capacity_bps() / 1e6, 2),
            f(
                spec.hops
                    .iter()
                    .map(|h| h.avail_bps())
                    .fold(f64::INFINITY, f64::min)
                    / 1e6,
                2
            ),
        );
        println!(
            "{} seed(s) x {} tool(s) x {} round(s)\n",
            spec.seeds.len(),
            tools.len(),
            spec.rounds
        );
    }
    outcome_table(&outcomes).print(format);
    session.finish();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use abw_core::tools::{Estimate, Verdict};

    #[test]
    fn outcome_table_renders_points_and_ranges() {
        let outcomes = vec![SpecOutcome {
            tool: "spruce",
            seed: 11,
            round: 0,
            verdict: Verdict::Point(Estimate {
                avail_bps: 25e6,
                samples: abw_stats::Running::new().summary(),
                probe_packets: 200,
                elapsed_secs: 1.5,
            }),
        }];
        let csv = outcome_table(&outcomes).render(Format::Csv);
        assert_eq!(
            csv,
            "tool,seed,round,est_mbps,lo_mbps,hi_mbps,packets,elapsed_s\n\
             spruce,11,0,25.00,-,-,200,1.500\n"
        );
    }

    #[test]
    fn load_spec_reports_missing_file() {
        let err = load_spec(Path::new("/nonexistent/x.scn")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
