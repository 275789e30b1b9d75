//! Estimate bias and convergence cost under injected packet loss:
//! every registry tool × i.i.d. loss rate ∈ {0, 0.1%, 1%, 5%} on the
//! single-hop scenario, with the per-tool truth corrected for the
//! cross traffic the impairment itself thins away.
//!
//! Usage: `loss_sweep [--csv] [--quick]`

use abw_bench::reports::loss_sweep_table;
use abw_bench::{experiment, Args, Format, RunManifest};
use abw_core::experiments::loss_sweep::{self, LossSweepConfig};

fn main() {
    experiment("loss_sweep", &[], LossSweepConfig::quick, report);
}

/// Runs the sweep with `config` and prints its table.
fn report(args: &Args, manifest: &mut RunManifest, config: LossSweepConfig) {
    let format = args.format();
    manifest.param_str(
        "loss_rates",
        &config
            .loss_rates
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );

    let result = loss_sweep::run(&config);

    if format == Format::Text {
        println!(
            "Loss sweep: {:?} cross traffic, {} seed(s) per cell, \
             i.i.d. ingress loss on the single hop\n",
            config.cross,
            config.seeds.len(),
        );
    }
    loss_sweep_table(&result).print(format);

    if format == Format::Text {
        println!(
            "\nLoss thins the cross traffic too, so the truth column rises \
             with the loss rate; bias is measured against that corrected \
             truth. Tools that resend whole streams on a gap pay in the \
             packets and latency columns instead of the bias column."
        );
    }
}
