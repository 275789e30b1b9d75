//! Ablation — PCT/PDT threshold operating points: detection rate vs
//! false positives vs abstention for three threshold settings on bursty
//! cross traffic.
//!
//! Usage: `exp_trend [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::trend_thresholds::{self, TrendThresholdsConfig};

fn main() {
    experiment("exp_trend", &[], TrendThresholdsConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: TrendThresholdsConfig) {
    let format = args.format();
    let result = trend_thresholds::run(&config);

    if format == Format::Text {
        println!(
            "Trend-threshold ablation: {} streams per rate, Pareto ON-OFF cross \
             traffic; rates {} (below A) and {} Mb/s (above A)\n",
            config.streams,
            config.rate_below_bps / 1e6,
            config.rate_above_bps / 1e6,
        );
    }
    let mut t = Table::new(vec!["setting", "detection", "false_positive", "ambiguous"]);
    for p in &result.points {
        t.row(vec![
            p.name.to_string(),
            f(p.detection, 3),
            f(p.false_positive, 3),
            f(p.ambiguous, 3),
        ]);
    }
    t.print(format);

    if format == Format::Text {
        println!(
            "\nLower thresholds detect overload sooner but misread bursts as \
             trends; higher thresholds abstain more (costing probing fleets). \
             Pathload's published 0.66/0.54 + 0.55/0.45 sit between the \
             extremes."
        );
    }
}
