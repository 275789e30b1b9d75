//! `perfbench` — the repository's end-to-end benchmark.
//!
//! It runs four workloads through the library's public entry points,
//! reports end-to-end metrics from untraced repetitions, and, with
//! `--trace 1`, per-layer metrics timed around the calls into each
//! layer from this harness (the program itself carries no new
//! instrumentation; the existing cost counters are read as well).
//!
//! # Running it
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! * **Untraced pass** (end-to-end metrics): `--workload shootout --seed 1
//!   --seconds 20 --trace 0`. Without `--workload` every workload runs in
//!   turn.
//! * **Traced pass** (per-layer metrics): the same with `--trace 1`. It
//!   alternates untraced and traced repetitions, so its
//!   `harness.trace_overhead_frac` compares like with like.
//! * **Parent vs change**: build each commit's `perfbench` into its own
//!   target directory (`CARGO_TARGET_DIR`), run the two binaries at
//!   least ten times per workload, alternating which goes first, with
//!   `--seed` varied across pairs and equal within a pair, and compare
//!   each metric's medians against its bound in `BENCHMARK.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`
//! holding the end-to-end metrics (untraced) or the per-layer metrics
//! (traced). Every line before it reads `workload/metric value unit`;
//! quartiles and sample counts go to standard error. Nothing is written
//! to disk. The exit code is 0 only when every output passed its check
//! and every repetition produced the same fingerprint; it is 1 when one
//! did not, or when a tail percentile has fewer than ten samples beyond
//! it, and 2 on a bad command line.
//!
//! # Repetitions and load
//!
//! Each workload runs one discarded warm repetition, then timed ones:
//! `max(3, seconds / nominal)` of them, where the nominal repetition
//! time is a per-workload constant, so a given `--seconds` always means
//! the same work. A repetition is a fixed number of rounds, streams or
//! experiments. On a 2-vCPU VM of a shared host, interference slows
//! repetitions in bursts of 5–15 s, so runs are 20 s long (`run_seconds`
//! in `BENCHMARK.json`, 5 to 8 repetitions) and report medians over
//! repetitions, which pass over a burst shorter than half the run. Load
//! comes from one process, closed-loop: an `abw_exec::Executor` of
//! `min(2, cores)` workers takes the next cell only when its previous
//! one finished (`figures` has one worker and `multihop` runs on the
//! calling thread). Every cell seed is `splitmix64(seed + index)`; the
//! default `--seed` is [`DEFAULT_SEED`].
//!
//! # Workloads
//!
//! * `shootout` — the paper's tool comparison at full tool settings: 10
//!   avail-bw tools × 100 seeds = 1000 rounds, each a fresh 50/25 Mb/s
//!   Poisson single hop warmed for 500 ms and driven by
//!   `Session::drive`. *Why:* many short simulations on pristine links,
//!   where set-up, the executor and the fluid fast path do most of the
//!   work, and where the tools layer is largest.
//! * `impaired` — all 11 registry tools × i.i.d. ingress loss {0.1 %,
//!   1 %, 5 %} × 10 seeds = 330 rounds. *Why:* impairment shuts the
//!   fluid gate, so the per-event path (calendar queue, arena, link) and
//!   the impairment RNG do the work; a fluid-window change must show no
//!   change here.
//! * `multihop` — Figure 4's shape: one `Scenario::multi_tight(5,
//!   Poisson)` path probed with 100-packet periodic streams at 5–30
//!   Mb/s via `ProbeRunner::run_stream`, 26 rates × 300 = 7800 streams,
//!   serially. *Why:* one long steady-state simulation with a growing
//!   busy log forwarding probes through five queues; set-up, the
//!   executor and the tools barely matter.
//! * `figures` — the figure and table experiments through their library
//!   `run`/`run_with`: variability, timescale_knob, burstiness,
//!   owd_vs_rate, variation_range, tcp_throughput, pairs_vs_trains,
//!   latency_accuracy, tight_vs_narrow, trend_thresholds, train_length
//!   (Figure 4 is `multihop`), each in its quick configuration with 5
//!   seeds: 55 experiments, one at a time. *Why:* what `--quick` users of
//!   the experiment binaries wait for, and the only workload where
//!   `abw-stats`, `abw-trace` and `abw-tcp` do real work. Not at paper
//!   scale: 11 experiments per repetition make the median op one
//!   experiment on one seed, whose quartiles over ten seeds spread by
//!   18–29 % of the median on a 2-vCPU VM.
//!
//! # Correctness
//!
//! Every operation is checked with the scenario fuzzer's rules: a
//! round's verdict is finite (or a documented clamped range), reports at
//! least one probe packet and stays within twice the narrow capacity
//! (every path here is loss-only); a stream yields a `rate_ratio`; an
//! experiment's result holds only finite floats. A failed check counts in
//! `failed`. Each workload folds its outputs, in submission order, into
//! an FNV-1a fingerprint that every repetition, traced or not, must
//! reproduce.
//!
//! # End-to-end metrics
//!
//! Every workload reports all of them. An *op* is a round (`shootout`,
//! `impaired`), a stream (`multihop`) or an experiment (`figures`).
//!
//! | metric | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | per repetition, summed wall time of scenario construction, `Scenario::warm_up` and `ToolEntry::build` before each round's first probe; `multihop`: building and warming its path; `figures`: the set-up calls each experiment's run begins with (first path built and warmed, or trace synthesised), replayed for its first seed before the timed part of the repetition — `tcp_throughput`'s set-up is private to the library and not replayed. Median over repetitions. |
//! | `wall_s` | s | repetition wall time (on `figures`, without the set-up replay), median |
//! | `ops_per_s` | 1/s | ops per repetition wall second, median |
//! | `op_p50_ms` | ms | median op latency of each repetition, median over repetitions; a round is timed around `Session::drive`, a stream around `run_stream`, an experiment around its `run` |
//! | `op_tail_ms` | ms | a fixed percentile of each repetition's op latencies, median over repetitions: p95, or p75 on `figures` (see [`workload::Workload::tail_permille`]); the run fails rather than report a percentile with fewer than ten samples beyond it in a repetition |
//! | `sim_pkts_per_s` | 1/s | `Cost::PacketsSimulated` per repetition wall second, median |
//! | `peak_heap_mb` | MB | high-water mark of live heap during a repetition (10⁶ bytes), from this binary's allocator, median |
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Counts are per repetition, times are means over the traced
//! repetitions, and a layer a workload never reaches reports 0. The
//! arrow names the end-to-end metric (and workload) each should move.
//!
//! * `exec` — `exec.idle_frac` = 1 − Σ job wall / (workers × repetition
//!   wall), jobs timed inside each closure → `ops_per_s` on shootout and
//!   impaired (no effect on multihop or the one-worker figures);
//!   `exec.jobs`.
//! * `core::scenario` — `scenario.build_us`, `scenario.warmup_us` →
//!   `setup_s` on shootout; `scenario.warmup_ns_per_pkt`, warm-up wall
//!   per injected packet, the pristine cross-traffic-only simulator cost
//!   → `sim_pkts_per_s` on shootout.
//! * `core::probe` — `probe.step_us`, `Session::step` minus the time in
//!   `Estimator::next` → `op_p50_ms` on shootout and impaired;
//!   `probe.stream_us`, probe-layer wall per stream → `op_p50_ms` on
//!   multihop; `probe.streams`; `probe.pkts`, the probe packets the
//!   verdicts report (packets sent on multihop); `probe.recv_frac`,
//!   received / sent probe packets → `tools.abs_err_mbps` on impaired.
//! * `core::tools` — a harness-side wrapper around the boxed estimator
//!   times `next`: `tools.next_ns`, `tools.steps`, `tools.share` of round
//!   wall (expected < 1 %, so a tools-only change should not move
//!   `op_p50_ms` on shootout); `tools.<name>.round_ms` and
//!   `tools.<name>.probe_pkts` for each of the 11 tools;
//!   `tools.abs_err_mbps`, the median |estimate − truth|, with truth
//!   corrected for thinned cross traffic on lossy paths.
//! * `netsim` — cost-counter totals after every worker retired:
//!   `netsim.pkts`, `netsim.events`, `netsim.events_per_pkt`,
//!   `netsim.queue_ops`, `netsim.ff_skips`, `netsim.fluid_share`
//!   (`FluidPackets / PacketsSimulated`; high on shootout and multihop,
//!   ≈ 0 on impaired) and `netsim.ns_per_pkt` (simulator-driving wall
//!   per packet) → `sim_pkts_per_s` on every workload.
//! * `netsim::impair` — `impair.rng_draws`, `impair.drop_frac`
//!   (impaired / injected packets) → `op_p50_ms` on impaired.
//! * `alloc` — `alloc.count`, `alloc.bytes` per op, from the
//!   `HeapAllocs` / `HeapBytes` cost counters → `peak_heap_mb` and
//!   `setup_s` on shootout.
//! * `figures` — `figures.<experiment>_s`, each experiment's wall time
//!   over its seeds → `wall_s` on figures.
//! * `harness.trace_overhead_frac` — median traced / median untraced
//!   repetition wall − 1.

mod alloc;
mod report;
mod stats;
mod workload;

use abw_exec::available_workers;
use abw_obs::json::{push_str_escaped, ObjectWriter};

use crate::report::Metric;
use crate::workload::{run_rep, workers_for, Plan, Rep, Size, Workload};

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

/// The run seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xABE5;

const USAGE: &str = "\
usage: perfbench [--workload shootout|impaired|multihop|figures] [--seed N]
                 [--seconds S] [--trace 0|1]

  --workload  run one workload (default: all four in turn)
  --seed      run seed, decimal or 0x-hex; every input derives from it
  --seconds   measuring time to fill: max(3, S / nominal) timed
              repetitions of fixed work
  --trace 1   per-layer metrics from alternating untraced and traced
              repetitions instead of the end-to-end metrics
";

/// A measuring run's options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag}: `{v}` is not a non-negative integer"))
}

/// The options `args` ask for, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = parse_u64(flag, &value()?)?,
            "--seconds" => o.seconds = Some(parse_u64(flag, &value()?)?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(o))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Some(o)) => measure(&o),
        Ok(None) => {
            print!("{USAGE}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Fewest timed repetitions a run makes: enough for a median.
const MIN_TIMED_REPS: usize = 3;

/// Timed repetitions for a run of `seconds` (the minimum when unset).
fn timed_reps(workload: Workload, seconds: Option<u64>) -> usize {
    let fit = seconds.map_or(0.0, |s| s as f64 / workload.nominal_rep_s());
    (fit.round() as usize).max(MIN_TIMED_REPS)
}

/// One workload's results.
struct Outcome {
    workload: Workload,
    /// The metrics the run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    consistent: bool,
}

fn describe(workload: Workload, label: &str, rep: &Rep) {
    eprintln!(
        "{} {label}: {:.3} s, peak heap {:.3} MB, {} ops, {} failed, fingerprint {:016x}",
        workload.name(),
        rep.wall_ns as f64 / 1e9,
        rep.peak_heap_bytes as f64 / 1e6,
        rep.tally.ops,
        rep.tally.failed,
        rep.tally.fingerprint.value(),
    );
}

/// Runs `workload` as `o` asks: a warm repetition, then the timed ones.
fn run_workload(workload: Workload, plan: &Plan, o: &Options) -> Result<Outcome, String> {
    let timed = timed_reps(workload, o.seconds);
    let warm = run_rep(workload, plan, false);
    describe(workload, "warm", &warm);
    // traced runs alternate untraced and traced repetitions, so the
    // trace overhead compares repetitions that saw the same machine
    let schedule: Vec<bool> = if o.trace {
        (0..timed.div_ceil(2).max(2))
            .flat_map(|_| [false, true])
            .collect()
    } else {
        vec![false; timed]
    };
    let mut reps = Vec::with_capacity(schedule.len());
    for (i, &traced) in schedule.iter().enumerate() {
        let rep = run_rep(workload, plan, traced);
        let label = format!(
            "{} {}/{}",
            if traced { "traced" } else { "timed" },
            i + 1,
            schedule.len()
        );
        describe(workload, &label, &rep);
        reps.push(rep);
    }
    let (traced, untraced): (Vec<Rep>, Vec<Rep>) = reps.into_iter().partition(|r| r.traced);
    let all = std::iter::once(&warm).chain(&untraced).chain(&traced);
    let fingerprints: Vec<u64> = all.clone().map(|r| r.tally.fingerprint.value()).collect();
    let consistent = fingerprints.windows(2).all(|w| w[0] == w[1]);
    if !consistent {
        eprintln!(
            "{}: repetitions disagree on the fingerprint: {fingerprints:016x?}",
            workload.name()
        );
    }
    let metrics = if o.trace {
        report::per_layer(workload, &traced, &untraced)
    } else {
        report::end_to_end(workload, &untraced).map_err(|e| format!("{}: {e}", workload.name()))?
    };
    eprintln!(
        "{}: op_tail_ms is p{}; {} worker(s) on {} core(s)",
        workload.name(),
        f64::from(workload.tail_permille()) / 10.0,
        plan.workers,
        available_workers(),
    );
    Ok(Outcome {
        workload,
        metrics,
        attempted: all.clone().map(|r| r.tally.ops).sum(),
        failed: all.map(|r| r.tally.failed).sum(),
        consistent,
    })
}

fn measure(o: &Options) -> i32 {
    let plan = Plan {
        seed: o.seed,
        size: Size::Full,
        workers: workers_for(available_workers()),
    };
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut outcomes = Vec::with_capacity(workloads.len());
    for w in workloads {
        match run_workload(w, &plan, o) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return 1;
            }
        }
    }

    // a single workload keys its metrics by bare name, as BENCHMARK.json
    // declares them; a run of all four prefixes the workload
    let single = outcomes.len() == 1;
    let mut metrics_json = String::from("{");
    for oc in &outcomes {
        let w = oc.workload.name();
        for x in &oc.metrics {
            println!("{w}/{} {} {}", x.name, x.value, x.unit);
            if let Some(s) = &x.spread {
                eprintln!(
                    "{w}/{}: p25 {} p75 {} n {} {}",
                    x.name, s.p25, s.p75, s.n, x.unit
                );
            }
            if metrics_json.len() > 1 {
                metrics_json.push(',');
            }
            let key = if single {
                x.name.clone()
            } else {
                format!("{w}/{}", x.name)
            };
            push_str_escaped(&mut metrics_json, &key);
            metrics_json.push(':');
            let mut obj = ObjectWriter::new(&mut metrics_json);
            obj.f64("value", x.value).str("unit", x.unit);
            obj.finish();
        }
    }
    metrics_json.push('}');

    let correct = outcomes.iter().all(|oc| oc.consistent && oc.failed == 0);
    let mut last = String::new();
    let mut obj = ObjectWriter::new(&mut last);
    obj.bool("correct", correct)
        .u64("attempted", outcomes.iter().map(|oc| oc.attempted).sum())
        .u64("failed", outcomes.iter().map(|oc| oc.failed).sum())
        .raw("metrics", &metrics_json);
    obj.finish();
    println!("{last}");
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_invocation() {
        assert_eq!(
            parse_args(&args(
                "--workload multihop --seed 0x10 --seconds 10 --trace 1"
            )),
            Ok(Some(Options {
                workload: Some(Workload::Multihop),
                seed: 16,
                seconds: Some(10),
                trace: true,
            }))
        );
        assert_eq!(
            parse_args(&args("--trace 0")),
            Ok(Some(Options {
                workload: None,
                seed: DEFAULT_SEED,
                seconds: None,
                trace: false,
            }))
        );
        assert_eq!(parse_args(&args("--help")), Ok(None));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload microloop",
            "--seed -1",
            "--trace 2",
            "--seconds",
            "--out r.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn repetitions_fill_the_requested_seconds_with_fixed_work() {
        let w = Workload::Shootout;
        assert_eq!(timed_reps(w, None), 3);
        assert_eq!(timed_reps(w, Some(1)), 3, "never fewer than 3");
        let long = timed_reps(w, Some(600));
        assert_eq!(long, (600.0 / w.nominal_rep_s()).round() as usize);
    }

    /// `(name, unit)` of every entry of the `key` list in
    /// `BENCHMARK.json` (the unit is empty for workloads). A scan, not a
    /// JSON parser: the file keeps one entry per line.
    fn declared(key: &str) -> Vec<(String, String)> {
        let body = include_str!("../../BENCHMARK.json");
        let start = body.find(&format!("\"{key}\":")).expect(key);
        let list = &body[start..];
        let list = &list[..list.find(']').expect("the list ends")];
        let field = |line: &str, k: &str| -> Option<String> {
            let open = format!("\"{k}\": \"");
            let rest = &line[line.find(&open)? + open.len()..];
            Some(rest[..rest.find('"')?].to_string())
        };
        list.lines()
            .filter_map(|line| {
                Some((
                    field(line, "name")?,
                    field(line, "unit").unwrap_or_default(),
                ))
            })
            .collect()
    }

    /// The names BENCHMARK.json declares are exactly the ones the
    /// harness emits, untraced and traced.
    #[test]
    fn benchmark_json_names_match_what_perfbench_emits() {
        let workloads: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), String::new()))
            .collect();
        assert_eq!(declared("workloads"), workloads);
        let plan = Plan {
            seed: 1,
            size: Size::Tiny,
            workers: 1,
        };
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = Options {
                workload: Some(Workload::Multihop),
                seed: 1,
                seconds: None,
                trace,
            };
            let outcome = run_workload(Workload::Multihop, &plan, &o).expect("a tiny run");
            assert!(outcome.consistent && outcome.failed == 0);
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|x| (x.name.clone(), x.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(key), "trace={trace}");
        }
    }
}
