//! **Figure 2** — the probing stream duration controls the averaging
//! timescale: sample vs population standard deviation of the avail-bw at
//! stream durations 25–200 ms (Pitfall 2).
//!
//! Usage: `fig2 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::timescale_knob::{self, TimescaleConfig};

fn main() {
    experiment("fig2", &[], TimescaleConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: TimescaleConfig) {
    let format = args.format();
    let result = timescale_knob::run(&config);

    if format == Format::Text {
        println!(
            "Figure 2: direct probing on the 50/25 Mb/s Poisson link, Ri = {} Mb/s, \
             {} streams per duration\n",
            config.input_rate_bps / 1e6,
            config.streams,
        );
    }
    let mut t = Table::new(vec![
        "duration_ms",
        "sample_sd_Mbps",
        "population_sd_Mbps",
        "sample_mean_Mbps",
    ]);
    for row in &result.rows {
        t.row(vec![
            row.duration_ms.to_string(),
            f(row.sample_sd_mbps, 2),
            f(row.population_sd_mbps, 2),
            f(row.sample_mean_mbps, 2),
        ]);
    }
    t.print(format);
    if format == Format::Text {
        println!(
            "\nPaper shape: the two standard deviations nearly coincide and both \
             fall as the stream (= averaging window) lengthens — the probing \
             duration is the timescale knob, not an implementation detail."
        );
    }
}
