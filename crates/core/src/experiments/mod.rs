//! One module per fallacy/pitfall — the code behind every figure and
//! table in the paper's §3 (see DESIGN.md §5 for the index).
//!
//! Each experiment is a pure function of its configuration (including
//! seeds) returning a typed result table; the `abw-bench` binaries print
//! them, and the integration tests assert their shapes.

pub mod burstiness;
pub mod latency_accuracy;
pub mod loss_sweep;
pub mod multi_bottleneck;
pub mod owd_vs_rate;
pub mod pairs_vs_trains;
pub mod shootout;
pub mod tcp_throughput;
pub mod tight_vs_narrow;
pub mod timescale_knob;
pub mod tracking;
pub mod train_length;
pub mod trend_thresholds;
pub mod variability;
pub mod variation_range;

use abw_stats::running::Running;

use crate::scenario::dsl::SpecOutcome;

/// Folds one tool's cells, in seed order, into the running moments of
/// their estimate, probe packets and latency: `[estimates, packets,
/// latency]`. `Running`'s incremental moments depend on push order, so
/// folding in submission order keeps a table identical for any worker
/// count.
pub(crate) fn seed_moments(outcomes: &[SpecOutcome]) -> [Running; 3] {
    let mut moments = <[Running; 3]>::default();
    for o in outcomes {
        moments[0].push(o.verdict.avail_bps());
        moments[1].push(o.verdict.probe_packets() as f64);
        moments[2].push(o.verdict.elapsed_secs());
    }
    moments
}
