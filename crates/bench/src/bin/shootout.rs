//! The §4 comparison: every tool under identical reproducible
//! conditions (same scenario, same seeds), reporting estimate, bias,
//! spread, overhead and latency side by side.
//!
//! Usage: `shootout [--csv] [--quick] [--cross MODEL]`; `MODEL` is a
//! `.scn` `cross=` name, or `pareto` for `pareto-on-off`.

use abw_bench::reports::shootout_table;
use abw_bench::{experiment, Args, Format, RunManifest};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::scenario::dsl::parse_cross_kind;
use abw_core::scenario::CrossKind;

/// The binary's own value flag.
const FLAGS: &[&str] = &["--cross cbr|poisson|pareto|pareto-on-off|pareto-interarrival"];

/// The cross model `--cross` names; Poisson when the flag is absent.
fn cross_from_args(args: &Args) -> Result<CrossKind, String> {
    match args.value("--cross") {
        None => Ok(CrossKind::Poisson),
        Some("pareto") => Ok(CrossKind::ParetoOnOff),
        Some(name) => parse_cross_kind(name),
    }
}

fn main() {
    experiment("shootout", FLAGS, ShootoutConfig::quick, report);
}

/// Runs the shootout with `config` over the `--cross` model and prints
/// its table.
fn report(args: &Args, _: &mut RunManifest, config: ShootoutConfig) {
    let cross = cross_from_args(args).unwrap_or_else(|e| args.usage_error(&e));
    let format = args.format();
    let config = ShootoutConfig { cross, ..config };
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross(line: &str) -> Result<CrossKind, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        cross_from_args(&Args::parse("shootout", FLAGS, &argv)?)
    }

    #[test]
    fn cross_takes_the_dsl_model_names_and_rejects_others() {
        assert_eq!(cross("--quick"), Ok(CrossKind::Poisson));
        assert_eq!(cross("--cross pareto"), Ok(CrossKind::ParetoOnOff));
        let dsl_name = cross("--quick --csv --cross pareto-on-off");
        assert_eq!(dsl_name, Ok(CrossKind::ParetoOnOff));
        assert!(cross("--cross weibull").is_err());
        let missing = cross("--cross").unwrap_err();
        assert!(
            missing.starts_with("shootout: --cross needs a value\n"),
            "{missing}"
        );
        assert!(cross("--quick --crosss pareto").is_err());
    }
}
