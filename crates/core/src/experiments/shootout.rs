//! The comparison the paper's summary asks for: every tool, identical
//! reproducible conditions, same configuration knobs reported.
//!
//! §4: *"compare and evaluate the existing estimation techniques under
//! reproducible and controllable conditions, and with the same
//! configuration parameters."* The shootout is one [`ScenarioSpec`] over
//! the canonical hop, run by the one spec runner
//! ([`dsl::run_specs`]): each tool comes from the [`registry`] and runs
//! against its own fresh replica of the same scenario (same seed ⇒
//! identical cross traffic), over several seeds; the table reports mean
//! estimate, bias, spread, probing overhead and latency.
//!
//! The capacity prober is excluded: it estimates `Cn`, not avail-bw, so
//! a bias column would be meaningless (that contrast is the
//! `tight_vs_narrow` experiment).

use abw_exec::Executor;

use super::seed_moments;
use crate::scenario::dsl::{self, ScenarioSpec};
use crate::scenario::{CrossKind, HopSpec};
use crate::tools::registry::{self, ToolEntry};

/// Configuration of the shootout.
#[derive(Debug, Clone)]
pub struct ShootoutConfig {
    /// Cross-traffic model all tools face.
    pub cross: CrossKind,
    /// Independent repetitions (seeds) per tool.
    pub seeds: Vec<u64>,
    /// Use quick tool settings (for tests).
    pub quick: bool,
}

impl Default for ShootoutConfig {
    fn default() -> Self {
        ShootoutConfig {
            cross: CrossKind::Poisson,
            seeds: vec![11, 22, 33, 44, 55],
            quick: false,
        }
    }
}

impl ShootoutConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        ShootoutConfig {
            seeds: vec![11, 22],
            quick: true,
            ..ShootoutConfig::default()
        }
    }
}

/// Aggregate result of one tool across the seeds.
#[derive(Debug, Clone)]
pub struct ShootoutRow {
    /// Tool name.
    pub tool: &'static str,
    /// Mean estimate across seeds, Mb/s.
    pub mean_mbps: f64,
    /// Signed bias vs the true 25 Mb/s, Mb/s.
    pub bias_mbps: f64,
    /// Across-seed standard deviation, Mb/s.
    pub sd_mbps: f64,
    /// Mean probing packets per estimate.
    pub mean_packets: f64,
    /// Mean simulated latency per estimate, seconds (0 when the tool
    /// does not report it).
    pub mean_latency_secs: f64,
}

/// The shootout result.
#[derive(Debug, Clone)]
pub struct ShootoutResult {
    /// The true avail-bw, Mb/s.
    pub truth_mbps: f64,
    /// One row per tool.
    pub rows: Vec<ShootoutRow>,
}

/// The registry tools the shootout compares (everything that estimates
/// avail-bw; the capacity prober is excluded by design).
pub fn shootout_tools() -> impl Iterator<Item = &'static ToolEntry> {
    registry::all().iter().filter(|t| t.name != "capacity")
}

/// Runs the shootout with the executor configured from `ABW_JOBS`.
pub fn run(config: &ShootoutConfig) -> ShootoutResult {
    run_with(config, &Executor::from_env())
}

/// Runs the shootout, fanning the independent `(tool, seed)` cells
/// across `exec`. Results are aggregated in submission order, so the
/// table is identical for any worker count.
pub fn run_with(config: &ShootoutConfig, exec: &Executor) -> ShootoutResult {
    let hop = HopSpec::canonical(config.cross);
    let truth = hop.avail_bps();
    let spec = ScenarioSpec {
        seeds: config.seeds.clone(),
        tools: shootout_tools().map(|t| t.name.to_string()).collect(),
        quick: config.quick,
        hops: vec![hop],
        ..ScenarioSpec::default()
    };
    let outcomes = dsl::run_specs(std::slice::from_ref(&spec), exec);

    let rows = shootout_tools()
        .zip(outcomes.chunks(config.seeds.len()))
        .map(|(entry, per_seed)| {
            let [estimates, packets, latency] = seed_moments(per_seed);
            ShootoutRow {
                tool: entry.name,
                mean_mbps: estimates.mean() / 1e6,
                bias_mbps: (estimates.mean() - truth) / 1e6,
                sd_mbps: estimates.stddev() / 1e6,
                mean_packets: packets.mean(),
                mean_latency_secs: latency.mean(),
            }
        })
        .collect();

    ShootoutResult {
        truth_mbps: truth / 1e6,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tool_lands_in_the_ballpark() {
        let r = run(&ShootoutConfig::quick());
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            // generous band: this is a smoke test that the harness wires
            // every tool correctly, not an accuracy claim
            assert!(
                (row.mean_mbps - r.truth_mbps).abs() < 15.0,
                "{}: mean {:.1} Mb/s",
                row.tool,
                row.mean_mbps
            );
            assert!(row.mean_packets > 0.0, "{}: no packets", row.tool);
        }
    }

    #[test]
    fn overheads_differ_by_orders_of_magnitude() {
        let r = run(&ShootoutConfig::quick());
        let max = r
            .rows
            .iter()
            .map(|x| x.mean_packets)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = r
            .rows
            .iter()
            .map(|x| x.mean_packets)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 10.0,
            "overhead spread {min}..{max} should span an order of magnitude"
        );
    }
}
