//! Fallacy 3 — "faster estimation is better": the latency-accuracy
//! trade-off of stream count × stream duration (no figure in the paper;
//! the sweep quantifies the argument).
//!
//! Usage: `exp_faster [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::latency_accuracy::{self, LatencyAccuracyConfig};

fn main() {
    experiment("exp_faster", &[], LatencyAccuracyConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: LatencyAccuracyConfig) {
    let format = args.format();
    let result = latency_accuracy::run(&config);

    if format == Format::Text {
        println!(
            "Fallacy 3: latency vs accuracy of direct probing on the 50/25 \
             Poisson link ({} repetitions per cell)\n",
            config.repetitions
        );
    }
    let mut t = Table::new(vec![
        "streams",
        "duration_ms",
        "latency_secs",
        "mean_abs_error",
        "estimate_sd_Mbps",
    ]);
    for c in &result.cells {
        t.row(vec![
            c.streams.to_string(),
            c.duration_ms.to_string(),
            f(c.latency_secs, 3),
            format!("{}%", f(c.mean_abs_error * 100.0, 1)),
            f(c.estimate_sd_mbps, 2),
        ]);
    }
    t.print(format);

    if format == Format::Text {
        println!(
            "\nPaper shape: shorter/fewer streams cut latency but inflate the \
             estimate variance (shorter streams also shrink the averaging \
             timescale, which raises Var[A_tau]); stream count and duration \
             are accuracy/overhead knobs, not implementation details — \
             comparisons between tools must hold them fixed."
        );
    }
}
