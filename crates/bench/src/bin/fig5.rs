//! **Figure 5** — one-way delays of two 160-packet probing streams on
//! bursty cross traffic (Fallacy 8: increasing OWDs ≢ `Ro < Ri`).
//!
//! The lower stream has `Ro < Ri` although `Ri < A` (a trailing burst);
//! trend analysis of the same OWDs correctly reports "no trend".
//!
//! Usage: `fig5 [--csv] [--quick]`

use abw_bench::{experiment, f, Args, Format, RunManifest, Table};
use abw_core::experiments::owd_vs_rate::{self, OwdVsRateConfig};

fn main() {
    experiment("fig5", &[], OwdVsRateConfig::quick, report);
}

/// Runs the experiment with `config` and prints its report.
fn report(args: &Args, _: &mut RunManifest, config: OwdVsRateConfig) {
    let format = args.format();
    let result = owd_vs_rate::run(&config);

    let below = result
        .series_below_misleading
        .as_ref()
        .unwrap_or(&result.series_below);

    if format == Format::Text {
        println!(
            "Figure 5: relative OWDs of two {}-packet streams\n",
            config.packets_per_stream
        );
        println!(
            "stream A: Ri = {} Mb/s (> A)  Ro = {} Mb/s  trend = {:?}",
            f(result.series_above.ri_mbps, 1),
            f(result.series_above.ro_mbps, 1),
            result.series_above.trend,
        );
        println!(
            "stream B: Ri = {} Mb/s (< A)  Ro = {} Mb/s  trend = {:?}{}\n",
            f(below.ri_mbps, 1),
            f(below.ro_mbps, 1),
            below.trend,
            if result.series_below_misleading.is_some() {
                "   <-- Ro < Ri despite Ri < A"
            } else {
                ""
            },
        );
    }

    let mut t = Table::new(vec!["packet", "owd_above_ms", "owd_below_ms"]);
    for (i, (a, b)) in result.series_above.owds.iter().zip(&below.owds).enumerate() {
        t.row(vec![i.to_string(), f(a * 1e3, 3), f(b * 1e3, 3)]);
    }
    t.print(format);

    if format == Format::Text {
        println!(
            "\nInference error rates over {} streams per rate:",
            config.streams
        );
        let mut s = Table::new(vec![
            "Ri_Mbps",
            "truly_above",
            "rate_rule_says_above",
            "trend_says_above",
            "trend_ambiguous",
        ]);
        for st in &result.stats {
            s.row(vec![
                f(st.ri_mbps, 0),
                st.truly_above.to_string(),
                f(st.rate_rule_says_above, 3),
                f(st.trend_says_above, 3),
                f(st.trend_ambiguous, 3),
            ]);
        }
        s.print(format);
        println!(
            "\nPaper shape: below the avail-bw the Ro/Ri rule fires false \
             positives on cross-traffic bursts, while OWD trend analysis stays \
             correct — the OWD series carries more information than one ratio."
        );
    }
}
