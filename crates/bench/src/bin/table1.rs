//! **Table 1** — relative error of packet-pair probing vs the cross
//! traffic packet size `Lc` and the sample count `k` (Fallacy 4: packet
//! pairs are as good as packet trains).
//!
//! Usage: `table1 [--csv] [--quick]`

use abw_bench::reports::table1_table;
use abw_bench::{experiment, Args, Format, RunManifest};
use abw_core::experiments::pairs_vs_trains::{self, PairsVsTrainsConfig};

fn main() {
    experiment("table1", &[], PairsVsTrainsConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: PairsVsTrainsConfig) {
    let format = args.format();
    let result = pairs_vs_trains::run(&config);

    if format == Format::Text {
        println!(
            "Table 1: mean |relative error| of the k-sample packet-pair mean; \
             probing packets {} B at {} Mb/s, avail-bw 25 Mb/s\n",
            config.probe_size,
            config.pair_rate_bps / 1e6,
        );
    }
    table1_table(&result).print(format);

    if format == Format::Text {
        println!(
            "\nPaper shape (Table 1): ~0% error for 40 B cross packets at any \
             k; tens of percent at k = 10 for 1500 B cross packets, decaying \
             roughly as 1/sqrt(k) — pair accuracy depends on the cross \
             traffic's packet-size granularity, trains average it out."
        );
    }
}
