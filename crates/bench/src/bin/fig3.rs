//! **Figure 3** — mean `Ro/Ri` vs `Ri` for CBR, Poisson and Pareto
//! ON-OFF cross traffic on the 50/25 Mb/s link (Pitfall 6: cross-traffic
//! burstiness causes underestimation).
//!
//! Usage: `fig3 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::burstiness::{self, BurstinessConfig};

fn main() {
    experiment("fig3", &[], BurstinessConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: BurstinessConfig) {
    let format = args.format();
    let result = burstiness::run(&config);

    if format == Format::Text {
        println!(
            "Figure 3: mean Ro/Ri over {} streams per point; avail-bw = 25 Mb/s\n",
            config.streams_per_point
        );
    }
    let mut header = vec!["Ri_Mbps".to_string()];
    header.extend(result.curves.iter().map(|c| format!("{:?}", c.model)));
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
            match c.first_rate_below(0.99) {
                Some(rate) => println!(
                    "{:?}: Ro/Ri first drops below 0.99 at Ri = {} Mb/s",
                    c.model, rate
                ),
                None => println!("{:?}: Ro/Ri never drops below 0.99", c.model),
            }
        }
        println!(
            "\nPaper shape: CBR stays at Ro/Ri = 1 until Ri > A; Poisson and \
             Pareto ON-OFF dip below 1 well before Ri reaches the avail-bw, \
             Pareto earlier and deeper — thresholds on Ro/Ri are \
             cross-traffic-dependent."
        );
    }
}
