//! **Figure 4** — mean `Ro/Ri` vs `Ri` for paths of 1, 3 and 5 tight
//! links with one-hop persistent Poisson cross traffic (Pitfall 7:
//! multiple bottlenecks cause underestimation).
//!
//! Usage: `fig4 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::multi_bottleneck::{self, MultiBottleneckConfig};

fn main() {
    experiment("fig4", &[], MultiBottleneckConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: MultiBottleneckConfig) {
    let format = args.format();
    let result = multi_bottleneck::run(&config);

    if format == Format::Text {
        println!(
            "Figure 4: mean Ro/Ri over {} streams per point; every hop is a \
             50/25 Mb/s Poisson tight link\n",
            config.streams_per_point
        );
    }
    let mut header = vec!["Ri_Mbps".to_string()];
    header.extend(
        result
            .curves
            .iter()
            .map(|c| format!("tight_links_{}", c.tight_links)),
    );
    let mut t = Table::new(header);
    for (i, &(ri, _)) in result.curves[0].points.iter().enumerate() {
        let mut cells = vec![f(ri, 0)];
        for c in &result.curves {
            cells.push(f(c.points[i].1, 4));
        }
        t.row(cells);
    }
    t.print(format);

    if format == Format::Text {
        println!();
        for c in &result.curves {
            if let Some(r) = c.ratio_at(25.0) {
                println!(
                    "{} tight links: Ro/Ri at Ri = A is {}",
                    c.tight_links,
                    f(r, 4)
                );
            }
        }
        println!(
            "\nPaper shape: at Ri = A the ratio falls as the number of tight \
             links grows — each extra bottleneck adds its own interaction with \
             cross traffic."
        );
    }
}
