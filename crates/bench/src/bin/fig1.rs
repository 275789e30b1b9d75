//! **Figure 1** — CDF of the relative error of the 20-sample Poisson
//! sample mean of the avail-bw, at averaging timescales 1/10/100 ms
//! (Pitfall 1: ignoring the variability of the avail-bw process).
//!
//! Usage: `fig1 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::variability::{self, VariabilityConfig};

fn main() {
    experiment("fig1", &[], VariabilityConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: VariabilityConfig) {
    let format = args.format();
    let result = variability::run(&config);

    if format == Format::Text {
        println!(
            "Figure 1: relative error of the {}-sample Poisson mean (trace mean {} Mb/s)\n",
            config.samples_per_trial,
            f(result.trace_mean_mbps, 1),
        );
    }

    // the CDF curves, on a fixed grid of error values
    let mut curve = Table::new(
        vec!["rel_error".to_string()]
            .into_iter()
            .chain(
                result
                    .curves
                    .iter()
                    .map(|c| format!("cdf_tau_{}ms", c.tau_ms)),
            )
            .collect::<Vec<_>>(),
    );
    let grid: Vec<f64> = (-25..=25).map(|i| i as f64 / 100.0).collect();
    for x in grid {
        let mut cells = vec![f(x, 2)];
        for c in &result.curves {
            cells.push(f(c.error_cdf.cdf(x), 3));
        }
        curve.row(cells);
    }
    curve.print(format);

    if format == Format::Text {
        println!();
        let mut summary = Table::new(vec![
            "tau_ms",
            "pop_sd_Mbps",
            "P(|err|>5%)",
            "err_p5",
            "err_p95",
        ]);
        for c in &result.curves {
            summary.row(vec![
                c.tau_ms.to_string(),
                f(c.population_sd_mbps, 2),
                f(c.frac_above_5pct, 3),
                f(c.error_cdf.quantile(0.05).unwrap_or(f64::NAN), 3),
                f(c.error_cdf.quantile(0.95).unwrap_or(f64::NAN), 3),
            ]);
        }
        summary.print(format);
        println!(
            "\nPaper shape: the error CDF widens as tau shrinks; at tau = 1 ms, \
             20 samples routinely miss by more than 5%."
        );
    }
}
