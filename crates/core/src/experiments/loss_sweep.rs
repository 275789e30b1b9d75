//! How injected packet loss distorts every tool's estimate.
//!
//! The paper's pitfalls assume probe streams survive the path intact;
//! real paths lose packets, and each tool reacts differently — some
//! discard the stream and retry (paying convergence cost), some fold
//! the gap into a rate and bias low. This experiment sweeps an i.i.d.
//! ingress loss rate over the single-hop scenario and reports, per
//! (tool, loss-rate) cell, the mean estimate, its signed bias against
//! the analytic truth, the across-seed spread, and the convergence
//! cost in probe packets and simulated seconds.
//!
//! Each (tool, loss-rate) cell is one [`ScenarioSpec`] over the
//! canonical hop, lossy when `p > 0`, and the whole sweep is one batch
//! of the one spec runner ([`dsl::run_specs`]), in tool-major order.
//!
//! Unlike the shootout this sweep is registry-driven over *all* tools,
//! capacity prober included: loss corrupts a capacity estimate just as
//! much as an avail-bw one, so each tool's bias is computed against its
//! own target (link capacity for `capacity`, avail-bw for the rest).
//!
//! Truth under loss: impairment loss is applied at link ingress to
//! every flow, cross traffic included, so a loss rate `p` thins the
//! offered cross load to `(1 - p)` of its configured rate and the true
//! avail-bw *rises* to `C - (1 - p) * R_cross`. The bias column uses
//! that corrected truth — without it a perfectly loss-tolerant tool
//! would appear biased high at 5% loss.

use abw_exec::Executor;
use abw_netsim::ImpairmentConfig;

use super::seed_moments;
use crate::scenario::dsl::{self, ScenarioSpec};
use crate::scenario::{CrossKind, HopSpec};
use crate::tools::registry::{self, ToolEntry};

/// Configuration of the loss sweep.
#[derive(Debug, Clone)]
pub struct LossSweepConfig {
    /// Injected i.i.d. loss probabilities to sweep (0 ⇒ pristine link).
    pub loss_rates: Vec<f64>,
    /// Cross-traffic model all tools face.
    pub cross: CrossKind,
    /// Independent repetitions (seeds) per (tool, loss) cell.
    pub seeds: Vec<u64>,
    /// Use quick tool settings (for tests and CI).
    pub quick: bool,
}

impl Default for LossSweepConfig {
    fn default() -> Self {
        LossSweepConfig {
            loss_rates: vec![0.0, 0.001, 0.01, 0.05],
            cross: CrossKind::Poisson,
            seeds: vec![11, 22, 33],
            quick: false,
        }
    }
}

impl LossSweepConfig {
    /// Scaled-down configuration for tests: every loss rate is kept
    /// (the sweep *is* the experiment) but only one seed runs and the
    /// tools use their quick settings.
    pub fn quick() -> Self {
        LossSweepConfig {
            seeds: vec![11],
            quick: true,
            ..LossSweepConfig::default()
        }
    }
}

/// Aggregate result of one (tool, loss-rate) cell across the seeds.
#[derive(Debug, Clone)]
pub struct LossSweepRow {
    /// Tool name.
    pub tool: &'static str,
    /// Injected i.i.d. loss probability.
    pub loss: f64,
    /// The tool's own target at this loss rate, Mb/s (link capacity
    /// for the capacity prober, thinned avail-bw for everything else).
    pub truth_mbps: f64,
    /// Mean estimate across seeds, Mb/s.
    pub mean_mbps: f64,
    /// Signed bias vs `truth_mbps`, Mb/s.
    pub bias_mbps: f64,
    /// Across-seed standard deviation, Mb/s.
    pub sd_mbps: f64,
    /// Mean probing packets per estimate (convergence cost).
    pub mean_packets: f64,
    /// Mean simulated latency per estimate, seconds.
    pub mean_latency_secs: f64,
}

/// The loss-sweep result.
#[derive(Debug, Clone)]
pub struct LossSweepResult {
    /// One row per (tool, loss rate), tool-major in registry order.
    pub rows: Vec<LossSweepRow>,
}

/// The spec of one (tool, loss-rate) cell: the canonical hop, with an
/// i.i.d. loss impairment only when `loss > 0`, so the `p = 0` column
/// reproduces the pristine scenario bit-for-bit.
fn cell_spec(config: &LossSweepConfig, tool: &str, loss: f64) -> ScenarioSpec {
    let hop = HopSpec {
        impairment: (loss > 0.0).then(|| ImpairmentConfig::iid_loss(loss)),
        ..HopSpec::canonical(config.cross)
    };
    ScenarioSpec {
        seeds: config.seeds.clone(),
        tools: vec![tool.to_string()],
        quick: config.quick,
        hops: vec![hop],
        ..ScenarioSpec::default()
    }
}

/// The per-tool truth at loss rate `p`: ingress loss thins cross
/// traffic to `(1 - p)` of its offered rate, so the true avail-bw
/// rises with `p`; the capacity prober's target is the (unimpaired)
/// link capacity regardless of loss.
fn truth_bps(tool: &str, hop: &HopSpec, p: f64) -> f64 {
    if tool == "capacity" {
        hop.capacity_bps
    } else {
        hop.capacity_bps - (1.0 - p) * hop.cross_rate_bps
    }
}

/// Runs the sweep with the executor configured from `ABW_JOBS`.
pub fn run(config: &LossSweepConfig) -> LossSweepResult {
    run_with(config, &Executor::from_env())
}

/// Runs the sweep, fanning the independent `(tool, loss, seed)` cells
/// across `exec`. Cells are aggregated in submission order, so the
/// table is byte-identical for any worker count.
pub fn run_with(config: &LossSweepConfig, exec: &Executor) -> LossSweepResult {
    let cells: Vec<(&'static ToolEntry, f64)> = registry::all()
        .iter()
        .flat_map(|entry| config.loss_rates.iter().map(move |&loss| (entry, loss)))
        .collect();
    let specs: Vec<ScenarioSpec> = cells
        .iter()
        .map(|&(entry, loss)| cell_spec(config, entry.name, loss))
        .collect();
    let outcomes = dsl::run_specs(&specs, exec);

    let rows = cells
        .iter()
        .zip(&specs)
        .zip(outcomes.chunks(config.seeds.len()))
        .map(|((&(entry, loss), spec), per_seed)| {
            let [estimates, packets, latency] = seed_moments(per_seed);
            let truth = truth_bps(entry.name, &spec.hops[0], loss);
            LossSweepRow {
                tool: entry.name,
                loss,
                truth_mbps: truth / 1e6,
                mean_mbps: estimates.mean() / 1e6,
                bias_mbps: (estimates.mean() - truth) / 1e6,
                sd_mbps: estimates.stddev() / 1e6,
                mean_packets: packets.mean(),
                mean_latency_secs: latency.mean(),
            }
        })
        .collect();

    LossSweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LossSweepConfig {
        LossSweepConfig {
            loss_rates: vec![0.0, 0.05],
            seeds: vec![11],
            quick: true,
            ..LossSweepConfig::default()
        }
    }

    #[test]
    fn sweep_covers_every_registry_tool_at_every_loss_rate() {
        let config = tiny();
        let r = run(&config);
        assert_eq!(
            r.rows.len(),
            registry::all().len() * config.loss_rates.len()
        );
        for entry in registry::all() {
            let tool_rows: Vec<_> = r.rows.iter().filter(|x| x.tool == entry.name).collect();
            assert_eq!(tool_rows.len(), config.loss_rates.len(), "{}", entry.name);
            for row in tool_rows {
                assert!(row.mean_packets > 0.0, "{}: no packets", row.tool);
            }
        }
    }

    #[test]
    fn zero_loss_column_matches_the_pristine_scenario() {
        // The p = 0 column must not install an impairment at all, so
        // its cells reproduce the unimpaired scenario bit-for-bit.
        let config = LossSweepConfig::quick();
        let spec = cell_spec(&config, "spruce", 0.0);
        assert_eq!(spec.hops, vec![HopSpec::canonical(config.cross)]);
        let lossy = cell_spec(&config, "spruce", 0.01);
        assert!(lossy.hops[0].impairment.is_some());
    }

    #[test]
    fn truth_rises_as_loss_thins_cross_traffic() {
        let hop = HopSpec::canonical(CrossKind::Poisson);
        let t0 = truth_bps("pathload", &hop, 0.0);
        let t5 = truth_bps("pathload", &hop, 0.05);
        assert!((t0 - 25e6).abs() < 1.0);
        assert!((t5 - 26.25e6).abs() < 1.0);
        // The capacity prober's target ignores loss entirely.
        assert!((truth_bps("capacity", &hop, 0.05) - 50e6).abs() < 1.0);
    }
}
