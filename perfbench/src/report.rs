//! Turns repetitions into named metrics.

use abw_core::tools::registry;
use abw_obs::prof::Cost;

use crate::stats::{quantile, spread, tail, Spread};
use crate::workload::{Rep, ToolTally, Workload, FIGURES};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`wall_s`, `netsim.fluid_share`, …).
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Median value (over repetitions for end-to-end metrics).
    pub value: f64,
    /// End-to-end metrics: quartiles over the repetitions, and their
    /// count (of ops for latency metrics).
    pub spread: Option<Spread>,
}

/// The end-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_pkts_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Ascending op latencies in ms.
fn sorted_ms(op_ns: &[u64]) -> Vec<f64> {
    let mut ms: Vec<f64> = op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// The `permille` op latency over `reps`: the median over repetitions of
/// each repetition's percentile, so a repetition slowed by outside
/// interference moves it no more than it moves `wall_s`. Refused (an
/// error) when a repetition has fewer than ten samples beyond it. The
/// quartiles are those of the per-repetition values; `n` counts the ops.
fn op_latency(reps: &[Rep], permille: u32) -> Result<Spread, String> {
    let values = reps
        .iter()
        .map(|r| {
            tail(&sorted_ms(&r.tally.op_ns), permille).ok_or_else(|| {
                format!(
                    "{} ops per repetition leave fewer than ten beyond p{}",
                    r.tally.op_ns.len(),
                    f64::from(permille) / 10.0
                )
            })
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Spread {
        n: reps.iter().map(|r| r.tally.op_ns.len() as u64).sum(),
        ..spread(&values)
    })
}

/// End-to-end metrics over the untraced repetitions of `workload`: the
/// median over repetitions of each; the latency percentiles as
/// [`op_latency`] takes them, the tail being the workload's fixed
/// [`Workload::tail_permille`].
pub fn end_to_end(workload: Workload, reps: &[Rep]) -> Result<Vec<Metric>, String> {
    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| -> Spread { spread(&reps.iter().map(f).collect::<Vec<_>>()) };
    let values = [
        per_rep(&|r| secs(r.tally.setup_ns)),
        per_rep(&|r| secs(r.wall_ns)),
        per_rep(&|r| ratio(r.tally.ops as f64, secs(r.wall_ns))),
        op_latency(reps, 500)?,
        op_latency(reps, workload.tail_permille())?,
        per_rep(&|r| ratio(r.costs.get(Cost::PacketsSimulated) as f64, secs(r.wall_ns))),
        per_rep(&|r| r.peak_heap_bytes as f64 / 1e6),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), s)| Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            spread: Some(s),
        })
        .collect())
}

/// Per-layer metrics of the traced repetitions. Counts are per
/// repetition; times are means over every traced repetition; layers a
/// workload never reaches report 0. `untraced` supplies the baseline for
/// `harness.trace_overhead_frac`.
pub fn per_layer(workload: Workload, traced: &[Rep], untraced: &[Rep]) -> Vec<Metric> {
    let reps = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Rep) -> u64| -> f64 { traced.iter().map(f).sum::<u64>() as f64 };
    let cost = |c: Cost| sum(&|r| r.costs.get(c));
    let wall =
        |set: &[Rep]| spread(&set.iter().map(|r| secs(r.wall_ns)).collect::<Vec<_>>()).median;

    let ops = sum(&|r| r.tally.ops);
    let pkts = cost(Cost::PacketsSimulated);
    let events = cost(Cost::EventsPopped);
    let steps = sum(&|r| r.tally.steps);
    let streams = sum(&|r| r.tally.streams);
    let next_ns = sum(&|r| r.tally.next_ns);
    let step_ns = sum(&|r| r.tally.step_ns);
    let warmup_ns = sum(&|r| r.tally.warmup_ns);
    let stream_ns = match workload {
        Workload::Multihop => sum(&|r| r.tally.stream_ns),
        _ => step_ns,
    };
    // wall time spent driving simulators
    let sim_ns = warmup_ns
        + match workload {
            Workload::Figures => sum(&|r| r.tally.figure_ns.iter().sum()),
            _ => stream_ns,
        };
    let worker_ns = sum(&|r| r.tally.workers * r.wall_ns);
    let mut abs_err: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.tally.abs_err_bps.iter().map(|e| e / 1e6))
        .collect();
    abs_err.sort_by(f64::total_cmp);

    let mut out = Vec::new();
    let mut put = |name: String, unit: &'static str, value: f64| {
        out.push(Metric {
            name,
            unit,
            value,
            spread: None,
        });
    };
    let idle = if worker_ns > 0.0 {
        1.0 - sum(&|r| r.tally.job_ns) / worker_ns
    } else {
        0.0
    };
    for (name, unit, value) in [
        ("exec.idle_frac", "ratio", idle),
        ("exec.jobs", "count", sum(&|r| r.tally.jobs) / reps),
        (
            "scenario.build_us",
            "us",
            ratio(sum(&|r| r.tally.build_ns), sum(&|r| r.tally.builds)) / 1e3,
        ),
        (
            "scenario.warmup_us",
            "us",
            ratio(warmup_ns, sum(&|r| r.tally.warmups)) / 1e3,
        ),
        (
            "scenario.warmup_ns_per_pkt",
            "ns/pkt",
            ratio(warmup_ns, sum(&|r| r.tally.warmup_pkts)),
        ),
        ("probe.step_us", "us", ratio(step_ns, steps) / 1e3),
        ("probe.stream_us", "us", ratio(stream_ns, streams) / 1e3),
        ("probe.streams", "count", streams / reps),
        ("probe.pkts", "count", sum(&|r| r.tally.probe_pkts) / reps),
        (
            "probe.recv_frac",
            "ratio",
            ratio(sum(&|r| r.tally.received), sum(&|r| r.tally.sent)),
        ),
        ("tools.next_ns", "ns", ratio(next_ns, steps)),
        ("tools.steps", "count", steps / reps),
        (
            "tools.share",
            "ratio",
            ratio(next_ns, sum(&|r| r.tally.round_ns)),
        ),
        (
            "tools.abs_err_mbps",
            "Mb/s",
            quantile(&abs_err, 0.5).unwrap_or(0.0),
        ),
        ("netsim.pkts", "count", pkts / reps),
        ("netsim.events", "count", events / reps),
        ("netsim.events_per_pkt", "ratio", ratio(events, pkts)),
        ("netsim.queue_ops", "count", cost(Cost::QueueOps) / reps),
        ("netsim.ff_skips", "count", cost(Cost::FfSkips) / reps),
        (
            "netsim.fluid_share",
            "ratio",
            ratio(cost(Cost::FluidPackets), pkts),
        ),
        ("netsim.ns_per_pkt", "ns/pkt", ratio(sim_ns, pkts)),
        ("impair.rng_draws", "count", cost(Cost::RngDraws) / reps),
        (
            "impair.drop_frac",
            "ratio",
            ratio(sum(&|r| r.tally.impaired), sum(&|r| r.tally.injected)),
        ),
        (
            "alloc.count",
            "count/op",
            ratio(cost(Cost::HeapAllocs), ops),
        ),
        ("alloc.bytes", "B/op", ratio(cost(Cost::HeapBytes), ops)),
        (
            "harness.trace_overhead_frac",
            "ratio",
            ratio(wall(traced), wall(untraced)) - 1.0,
        ),
    ] {
        put(name.to_string(), unit, value);
    }
    for (i, t) in registry::all().iter().enumerate() {
        let tool = |f: &dyn Fn(&ToolTally) -> u64| sum(&|r| r.tally.tools.get(i).map_or(0, f));
        let rounds = tool(&|t| t.rounds);
        put(
            format!("tools.{}.round_ms", t.name),
            "ms",
            ratio(tool(&|t| t.round_ns), rounds) / 1e6,
        );
        put(
            format!("tools.{}.probe_pkts", t.name),
            "count",
            ratio(tool(&|t| t.probe_pkts), rounds),
        );
    }
    for (i, f) in FIGURES.iter().enumerate() {
        put(
            format!("figures.{f}_s"),
            "s",
            sum(&|r| r.tally.figure_ns[i]) / reps / 1e9,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Tally;

    /// An untraced repetition whose ops took `op_ms` ms each.
    fn rep(op_ms: impl Iterator<Item = u64>) -> Rep {
        Rep {
            traced: false,
            wall_ns: 1,
            costs: Default::default(),
            peak_heap_bytes: 0,
            tally: Tally {
                op_ns: op_ms.map(|ms| ms * 1_000_000).collect(),
                ..Tally::default()
            },
        }
    }

    #[test]
    fn one_slow_repetition_does_not_move_the_latency_percentiles() {
        // 200 ops leave ten beyond p95, so each repetition has its own
        let fast = || rep(1..=200);
        let reps = [fast(), rep((1..=200).map(|ms| 2 * ms)), fast()];
        let alone = sorted_ms(&fast().tally.op_ns);
        for permille in [500, 950] {
            let s = op_latency(&reps, permille).expect("enough samples");
            assert_eq!(Some(s.median), tail(&alone, permille), "p{permille}");
            assert_eq!(s.n, 600);
        }
    }

    #[test]
    fn a_tail_with_too_few_samples_in_a_repetition_is_refused() {
        // figures: 55 experiments leave 13 beyond p75 but 5 beyond p90
        let reps = [rep(1..=55), rep(1..=55), rep(1..=55)];
        assert!(op_latency(&reps, 750).is_ok());
        assert!(op_latency(&reps, 900).is_err());
        assert!(op_latency(&[rep(1..=5)], 500).is_ok(), "never the median");
    }
}
