//! The §4 comparison: every tool under identical reproducible
//! conditions (same scenario, same seeds), reporting estimate, bias,
//! spread, overhead and latency side by side.
//!
//! Usage: `shootout [--csv] [--quick] [--cross MODEL]`; `MODEL` is a
//! `.scn` `cross=` name, or `pareto` for `pareto-on-off`.

use abw_bench::reports::shootout_table;
use abw_bench::{format_from_args, Format, Session};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::scenario::dsl::parse_cross_kind;
use abw_core::scenario::CrossKind;

const USAGE: &str = "usage: shootout [--csv] [--quick] \
                     [--cross cbr|poisson|pareto|pareto-on-off|pareto-interarrival]";

/// The cross model `--cross` names; Poisson when the flag is absent.
fn cross_from_args(args: &[String]) -> Result<CrossKind, String> {
    let Some(i) = args.iter().position(|a| a == "--cross") else {
        return Ok(CrossKind::Poisson);
    };
    match args.get(i + 1).map(String::as_str) {
        Some("pareto") => Ok(CrossKind::ParetoOnOff),
        Some(name) => parse_cross_kind(name),
        None => Err("--cross needs a value".to_string()),
    }
}

fn main() {
    if abw_bench::scenario::maybe_run_scenario("shootout") {
        return;
    }
    let args: Vec<String> = std::env::args().collect();
    let cross = cross_from_args(&args).unwrap_or_else(|e| {
        eprintln!("shootout: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut session = Session::start("shootout");
    let format = format_from_args();
    let quick = args.iter().any(|a| a == "--quick");
    session
        .manifest()
        .param_str("mode", if quick { "quick" } else { "full" });
    let config = ShootoutConfig {
        cross,
        ..if quick {
            ShootoutConfig::quick()
        } else {
            ShootoutConfig::default()
        }
    };
    let result = shootout::run(&config);

    if format == Format::Text {
        println!(
            "Tool shootout: {:?} cross traffic, {} seeds, truth A = {} Mb/s\n",
            config.cross,
            config.seeds.len(),
            result.truth_mbps,
        );
    }
    shootout_table(&result).print(format);

    if format == Format::Text {
        println!(
            "\nThe overhead column spans orders of magnitude and the tools \
             report different things (sample mean, range midpoint, turning \
             point) at different averaging timescales — the paper's warning \
             is that a naive accuracy ranking of this table would be \
             meaningless without holding those knobs fixed."
        );
    }
    session.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross(line: &str) -> Result<CrossKind, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        cross_from_args(&args)
    }

    #[test]
    fn cross_takes_the_dsl_model_names_and_rejects_others() {
        assert_eq!(cross("shootout --quick"), Ok(CrossKind::Poisson));
        assert_eq!(cross("shootout --cross pareto"), Ok(CrossKind::ParetoOnOff));
        let dsl_name = cross("shootout --cross pareto-on-off");
        assert_eq!(dsl_name, Ok(CrossKind::ParetoOnOff));
        assert!(cross("shootout --cross weibull").is_err());
        assert!(cross("shootout --cross").is_err());
    }
}
