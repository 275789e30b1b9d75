//! Pitfall 5 — estimating the tight-link capacity with end-to-end
//! capacity tools: a 100 Mb/s narrow link in front of a loaded OC-3
//! tight link (no figure in the paper; the table quantifies the
//! argument).
//!
//! Usage: `exp_capacity [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::tight_vs_narrow::{self, TightVsNarrowConfig};

fn main() {
    experiment("exp_capacity", &[], TightVsNarrowConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: TightVsNarrowConfig) {
    let format = args.format();
    let result = tight_vs_narrow::run(&config);

    if format == Format::Text {
        println!(
            "Pitfall 5: narrow 100 Mb/s (idle) -> tight OC-3 155.52 Mb/s \
             carrying {} Mb/s\n",
            config.oc3_cross_bps / 1e6
        );
    }
    let mut t = Table::new(vec!["quantity", "Mbps"]);
    t.row(vec![
        "true tight capacity Ct".to_string(),
        f(result.true_ct_mbps, 2),
    ]);
    t.row(vec![
        "true narrow capacity Cn".to_string(),
        f(result.true_cn_mbps, 2),
    ]);
    t.row(vec![
        "true path avail-bw".to_string(),
        f(result.true_avail_mbps, 2),
    ]);
    t.row(vec![
        "capacity tool estimate".to_string(),
        f(result.measured_capacity_mbps, 2),
    ]);
    t.row(vec![
        "direct probing with Cn".to_string(),
        f(result.avail_with_cn_mbps, 2),
    ]);
    t.row(vec![
        "direct probing with Ct".to_string(),
        f(result.avail_with_true_ct_mbps, 2),
    ]);
    t.print(format);

    if format == Format::Text {
        println!(
            "\nPaper shape: dispersion-based capacity estimation reports the \
             narrow link (or less), never the tight link's capacity; feeding \
             that value into the Equation 9 inversion biases the avail-bw \
             estimate, while the true Ct recovers it."
        );
    }
}
