//! **Figure 6** — the avail-bw sample path at tau = 10 ms on the
//! synthetic NLANR-substitute trace, with Pathload's variation range
//! (Fallacy 9: iterative probing converges to a range, not a point).
//!
//! Usage: `fig6 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::variation_range::{self, VariationRangeConfig};

fn main() {
    experiment("fig6", &[], VariationRangeConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: VariationRangeConfig) {
    let format = args.format();
    let result = variation_range::run(&config);

    if format == Format::Text {
        println!(
            "Figure 6: A_tau(t) sample path, tau = {} ms, OC-3 substitute trace\n",
            config.tau_ns / 1_000_000
        );
    }
    let mut t = Table::new(vec!["t_secs", "avail_bw_Mbps"]);
    // decimate for the text table; --csv gets every point
    let stride = if format == Format::Text { 20 } else { 1 };
    for (i, &(ts, a)) in result.sample_path.iter().enumerate() {
        if i % stride == 0 {
            t.row(vec![f(ts, 2), f(a, 1)]);
        }
    }
    t.print(format);

    if format == Format::Text {
        println!("\nmean avail-bw:        {} Mb/s", f(result.mean_mbps, 1));
        println!(
            "true variation range:  {} .. {} Mb/s  (5th..95th percentile of A_10ms)",
            f(result.true_range_mbps.0, 1),
            f(result.true_range_mbps.1, 1),
        );
        println!(
            "Pathload range:        {} .. {} Mb/s  (R_L .. R_H)",
            f(result.pathload_range_mbps.0, 1),
            f(result.pathload_range_mbps.1, 1),
        );
        println!(
            "\nPaper shape: the 10 ms sample path swings over tens of Mb/s \
             (60–110 on the NLANR trace); iterative probing brackets that \
             variation — the Pathload range is not a confidence interval for \
             the mean."
        );
    }
}
