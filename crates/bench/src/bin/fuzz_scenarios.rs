//! The scenario fuzzer: random valid specs driven through armed
//! `ABW_CHECK` invariants and tool-level sanity checks, failures shrunk
//! to minimal committed-format reproducer specs.
//!
//! Usage: `fuzz_scenarios [--csv] [--quick] [--seed S] [--count N]
//!                        [--jobs J] [--repro-dir DIR]
//!                        [--shrink-budget B] [--max-scenario-ms MS]`
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
//! any `--jobs` value or `ABW_JOBS` setting. An unknown argument, or a
//! flag value that is missing or does not parse, prints the usage line
//! and exits 2.

use std::path::PathBuf;

use abw_bench::{Args, Format, Session, Table};
use abw_core::scenario::fuzz::{self, FuzzConfig};

/// The fuzzer's own value flags, next to the shared `--csv` and
/// `--quick`.
const FLAGS: &[&str] = &[
    "--seed S",
    "--count N",
    "--jobs J",
    "--repro-dir DIR",
    "--shrink-budget B",
    "--max-scenario-ms MS",
];

/// `flag`'s value run through `parse`: `Ok(None)` when the flag is
/// absent, an error when its value does not parse.
fn parsed<T>(
    args: &Args,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    args.value(flag)
        .map(|v| parse(v).ok_or(format!("{flag}: cannot parse `{v}`")))
        .transpose()
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The campaign `args` ask for.
fn config_from_args(args: &Args) -> Result<FuzzConfig, String> {
    let quick = args.has("--quick");
    let mut config = FuzzConfig::new(if quick { 0xF522 } else { 1 }, if quick { 25 } else { 50 });
    if quick {
        // keep the CI smoke leg bounded: no single palette corner may
        // eat the whole job's wall clock
        config.max_scenario_ms = Some(30_000);
    }
    if let Some(ms) = parsed(args, "--max-scenario-ms", |s| s.parse().ok())? {
        config.max_scenario_ms = Some(ms);
    }
    if let Some(seed) = parsed(args, "--seed", parse_seed)? {
        config.seed = seed;
    }
    if let Some(count) = parsed(args, "--count", |s| s.parse().ok())? {
        config.count = count;
    }
    if let Some(jobs) = parsed(args, "--jobs", |s| s.parse().ok())? {
        config.jobs = jobs;
    }
    if let Some(budget) = parsed(args, "--shrink-budget", |s| s.parse().ok())? {
        config.shrink_budget = budget;
    }
    let repro_dir = args.value("--repro-dir").unwrap_or("target/fuzz-repros");
    config.repro_dir = Some(PathBuf::from(repro_dir));
    Ok(config)
}

fn main() {
    let args = Args::from_env("fuzz_scenarios", FLAGS);
    let config = config_from_args(&args).unwrap_or_else(|e| args.usage_error(&e));
    let quick = args.has("--quick");
    let mut session = Session::start("fuzz_scenarios");
    let format = args.format();

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

    fn parse(line: &str) -> Result<FuzzConfig, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        config_from_args(&Args::parse("fuzz_scenarios", FLAGS, &argv)?)
    }

    #[test]
    fn unparseable_values_are_errors_not_the_default_campaign() {
        let campaign = |c: FuzzConfig| (c.seed, c.count, c.max_scenario_ms);
        assert_eq!(
            campaign(parse("--quick").unwrap()),
            (0xF522, 25, Some(30_000))
        );
        let config = parse("--quick --seed 0x10 --count 3 --max-scenario-ms 500").unwrap();
        assert_eq!(campaign(config), (16, 3, Some(500)));
        for bad in [
            "--count 1O",
            "--seed zz",
            "--max-scenario-ms 30s",
            "--jobs -1",
            "--shrink-budget",
            "--bogus --count 0 --csv",
            "--count 0 tests/golden/scenarios/tracking.scn",
            "--scenario tests/golden/scenarios/tracking.scn",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
