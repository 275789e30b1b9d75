//! Ablation — train length under a fixed packet budget (Fallacy 4,
//! continued): per-sample quantisation noise vs sample count.
//!
//! Usage: `exp_trains [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::train_length::{self, TrainLengthConfig};

fn main() {
    experiment("exp_trains", &[], TrainLengthConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: TrainLengthConfig) {
    let format = args.format();
    let result = train_length::run(&config);

    if format == Format::Text {
        println!(
            "Train-length ablation: {}-packet budget per estimate, {} B cross \
             packets, probing at {} Mb/s (A = 25 Mb/s)\n",
            config.packet_budget,
            config.cross_size,
            config.rate_bps / 1e6,
        );
    }
    let mut t = Table::new(vec![
        "train_len",
        "samples/estimate",
        "mean_abs_error",
        "per_sample_sd_Mbps",
    ]);
    for r in &result.rows {
        t.row(vec![
            r.train_length.to_string(),
            r.samples_per_estimate.to_string(),
            format!("{}%", f(r.mean_abs_error * 100.0, 1)),
            f(r.per_sample_sd_mbps, 1),
        ]);
    }
    t.print(format);

    if format == Format::Text {
        println!(
            "\nUnder a fixed budget, longer trains trade sample count for \
             much lower per-sample quantisation noise — the reason the \
             train-based tools (IGI/PTR, Pathload) resist coarse cross \
             traffic that defeats packet pairs (Table 1)."
        );
    }
}
