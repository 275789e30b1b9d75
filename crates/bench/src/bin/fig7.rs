//! **Figure 7** — bulk TCP throughput vs the receiver advertised window
//! under three cross-traffic types, against a 15 Mb/s avail-bw path
//! (Pitfall 10: avail-bw ≠ bulk TCP throughput).
//!
//! Usage: `fig7 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::tcp_throughput::{self, TcpThroughputConfig};

fn main() {
    experiment("fig7", &[], TcpThroughputConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: TcpThroughputConfig) {
    let format = args.format();
    let result = tcp_throughput::run(&config);

    if format == Format::Text {
        println!(
            "Figure 7: bulk TCP goodput vs receiver window; capacity {} Mb/s, \
             nominal cross load {} Mb/s, avail-bw {} Mb/s\n",
            config.capacity_bps / 1e6,
            config.cross_rate_bps / 1e6,
            f(result.avail_mbps, 0),
        );
    }
    let mut header = vec!["Wr_packets".to_string()];
    header.extend(result.curves.iter().map(|c| format!("{:?}_Mbps", c.cross)));
    let mut t = Table::new(header);
    for (i, &(wr, _)) in result.curves[0].points.iter().enumerate() {
        let mut cells = vec![wr.to_string()];
        for c in &result.curves {
            cells.push(f(c.points[i].1, 2));
        }
        t.row(cells);
    }
    t.print(format);

    if format == Format::Text {
        println!(
            "\navail-bw reference line: {} Mb/s",
            f(result.avail_mbps, 1)
        );
        for c in &result.curves {
            println!(
                "{:?}: saturates at {} Mb/s ({})",
                c.cross,
                f(c.saturated_mbps(), 2),
                if c.saturated_mbps() > result.avail_mbps {
                    "ABOVE the avail-bw"
                } else {
                    "below the avail-bw"
                }
            );
        }
        println!(
            "\nPaper shape: small windows always under-utilise; at large \
             windows the gap between TCP throughput and avail-bw is positive \
             or negative depending on the cross traffic's congestion \
             responsiveness — so bulk TCP throughput must not be used to \
             validate avail-bw estimates."
        );
    }
}
