//! The scenario fuzzer: random valid specs driven through armed
//! `ABW_CHECK` invariants and tool-level sanity checks, failures shrunk
//! to minimal committed-format reproducer specs.
//!
//! Usage: `fuzz_scenarios [--seed S] [--count N] [--jobs J]
//!                        [--repro-dir DIR] [--shrink-budget B]
//!                        [--max-scenario-ms MS] [--quick] [--csv]`
//!
//! `--quick` pins the CI smoke configuration: seed `0xF522`, 25
//! scenarios, a 30 s simulated-time budget per `(tool, seed)` cell.
//! Exits non-zero when any scenario fails a check; shrunk reproducers
//! are written to `--repro-dir` (default `target/fuzz-repros`) so CI
//! can upload them as artifacts.
//!
//! `--max-scenario-ms` bounds each cell's *simulated* probing time: a
//! cell still running at the deadline is counted as a timeout, not a
//! failure (the 99 %-utilisation multi-hop palette corners legitimately
//! probe for minutes). The budget is mixed into the report fingerprint,
//! so bounded and unbounded runs never compare equal by accident.
//!
//! The run is bit-reproducible: same `--seed` and `--count` produce the
//! same specs, the same verdicts and the same report fingerprint for
//! any `--jobs` value or `ABW_JOBS` setting. A flag value that does not
//! parse prints the usage and exits 2.

use std::path::PathBuf;

use abw_bench::{format_from_args, Format, Session, Table};
use abw_core::scenario::fuzz::{self, FuzzConfig};

const USAGE: &str = "usage: fuzz_scenarios [--seed S] [--count N] [--jobs J] \
                     [--repro-dir DIR] [--shrink-budget B] [--max-scenario-ms MS] \
                     [--quick] [--csv]";

/// The value after `flag` run through `parse`: `Ok(None)` when the flag
/// is absent, an error when its value is missing or does not parse.
fn arg_value<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
    parse(value)
        .map(Some)
        .ok_or(format!("{flag}: cannot parse `{value}`"))
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The campaign `args` ask for, and whether it is the `--quick` one.
fn config_from_args(args: &[String]) -> Result<(FuzzConfig, bool), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = FuzzConfig::new(if quick { 0xF522 } else { 1 }, if quick { 25 } else { 50 });
    if quick {
        // keep the CI smoke leg bounded: no single palette corner may
        // eat the whole job's wall clock
        config.max_scenario_ms = Some(30_000);
    }
    if let Some(ms) = arg_value(args, "--max-scenario-ms", |s| s.parse().ok())? {
        config.max_scenario_ms = Some(ms);
    }
    if let Some(seed) = arg_value(args, "--seed", parse_seed)? {
        config.seed = seed;
    }
    if let Some(count) = arg_value(args, "--count", |s| s.parse().ok())? {
        config.count = count;
    }
    if let Some(jobs) = arg_value(args, "--jobs", |s| s.parse().ok())? {
        config.jobs = jobs;
    }
    if let Some(budget) = arg_value(args, "--shrink-budget", |s| s.parse().ok())? {
        config.shrink_budget = budget;
    }
    let repro_dir = arg_value(args, "--repro-dir", |s| Some(PathBuf::from(s)))?;
    config.repro_dir = Some(repro_dir.unwrap_or_else(|| PathBuf::from("target/fuzz-repros")));
    Ok((config, quick))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (config, quick) = config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("fuzz_scenarios: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut session = Session::start("fuzz_scenarios");
    let format = format_from_args();

    session
        .manifest()
        .param_str("mode", if quick { "quick" } else { "full" })
        .param_u64("seed", config.seed)
        .param_u64("count", u64::from(config.count))
        .param_u64("jobs", config.jobs as u64)
        .param_u64("shrink_budget", u64::from(config.shrink_budget))
        .param_u64("max_scenario_ms", config.max_scenario_ms.unwrap_or(0));

    // a failing scenario panics (by design: armed invariants report by
    // panicking) up to shrink_budget times while shrinking — silence
    // the default hook's per-panic backtrace spam for the run
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = fuzz::run(&config);
    std::panic::set_hook(default_hook);

    session
        .manifest()
        .param_bool("invariants_active", report.invariants_active)
        .param_str("fingerprint", &format!("{:016x}", report.fingerprint))
        .counter("fuzz.scenarios", u64::from(report.scenarios))
        .counter("fuzz.outcomes", report.outcomes)
        .counter("fuzz.timeouts", report.timeouts)
        .counter("fuzz.failures", report.failures.len() as u64);

    if !report.invariants_active {
        eprintln!(
            "warning: ABW_CHECK invariants are compiled out of this build \
             (release profile) — rerun with a debug build for full checking"
        );
    }

    if format == Format::Text {
        println!(
            "Scenario fuzz: seed 0x{:X}, {} scenarios, {} verdicts checked \
             ({} cell(s) timed out), fingerprint {:016x}, invariants {}",
            report.seed,
            report.scenarios,
            report.outcomes,
            report.timeouts,
            report.fingerprint,
            if report.invariants_active {
                "active"
            } else {
                "COMPILED OUT"
            },
        );
        println!();
    }

    let mut table = Table::new(vec!["scenario", "status", "detail"]);
    if report.failures.is_empty() {
        table.row(vec![
            format!("{} specs", report.scenarios),
            "ok".to_string(),
            "all checks passed".to_string(),
        ]);
    }
    for failure in &report.failures {
        let repro = failure
            .repro_path
            .as_ref()
            .map(|p| format!(" (repro: {})", p.display()))
            .unwrap_or_default();
        table.row(vec![
            failure.spec.name.clone(),
            "FAIL".to_string(),
            format!(
                "{} [shrunk to {} hop(s)/{} tool(s) in {} evals]{}",
                failure.message,
                failure.shrunk.hops.len(),
                failure.shrunk.tools.len().max(1),
                failure.shrink_evals,
                repro,
            ),
        ]);
    }
    table.print(format);

    let failed = !report.failures.is_empty();
    session.finish();
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(FuzzConfig, bool), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        config_from_args(&args)
    }

    #[test]
    fn unparseable_values_are_errors_not_the_default_campaign() {
        let (config, quick) =
            parse("fuzz_scenarios --quick --seed 0x10 --count 3 --max-scenario-ms 500").unwrap();
        assert!(quick);
        let parsed = (config.seed, config.count, config.max_scenario_ms);
        assert_eq!(parsed, (16, 3, Some(500)));
        for bad in [
            "fuzz_scenarios --count 1O",
            "fuzz_scenarios --seed zz",
            "fuzz_scenarios --max-scenario-ms 30s",
            "fuzz_scenarios --jobs -1",
            "fuzz_scenarios --shrink-budget",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
