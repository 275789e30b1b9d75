//! The four workloads, and one repetition of each.
//!
//! A repetition is a fixed amount of work: the same cells, built from
//! the same seeds, on every commit. Cells run closed-loop on an
//! [`Executor`]: a worker takes the next cell only when its previous
//! one has finished; `figures` has one worker. `multihop` is one long
//! simulation and runs on the calling thread.

use std::fmt::Debug;
use std::time::Instant;

use abw_core::experiments::{
    burstiness, latency_accuracy, owd_vs_rate, pairs_vs_trains, tcp_throughput, tight_vs_narrow,
    timescale_knob, train_length, trend_thresholds, variability, variation_range,
};
use abw_core::scenario::{CrossKind, Scenario, SingleHopConfig};
use abw_core::stream::StreamSpec;
use abw_core::tools::registry::{self, ToolConfig};
use abw_core::tools::{Action, Estimator, Observation, ToolEvent, Verdict};
use abw_exec::Executor;
use abw_netsim::{ImpairmentConfig, SimDuration};
use abw_obs::prof::{self, CostSnapshot};
use abw_trace::{SyntheticTrace, SyntheticTraceConfig};
use abw_traffic::SizeDist;

use crate::alloc;
use crate::stats::{cell_seed, DebugFold, Fnv};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The tool comparison on pristine single hops.
    Shootout,
    /// Every tool on lossy single hops.
    Impaired,
    /// Raw probe streams through one long-lived five-hop path.
    Multihop,
    /// The paper's figure and table experiments, in-process, at their
    /// quick size over several seeds.
    Figures,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Shootout,
        Workload::Impaired,
        Workload::Multihop,
        Workload::Figures,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Shootout => "shootout",
            Workload::Impaired => "impaired",
            Workload::Multihop => "multihop",
            Workload::Figures => "figures",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall time of one full-size repetition on a 2-core x86-64 VM,
    /// with the set-up replay on `figures`, rounded. Only sets how many
    /// repetitions fit in `--seconds`; the work inside a repetition never
    /// depends on it.
    pub fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::Shootout => 2.5,
            Workload::Impaired => 3.5,
            Workload::Multihop => 4.0,
            Workload::Figures => 4.0,
        }
    }

    /// The percentile `op_tail_ms` reports, per mille, taken within each
    /// repetition: p95, or p75 on `figures`, whose 55 experiments per
    /// repetition leave 13 beyond p75 and 5 beyond p90. p99 was measured
    /// and dropped: over ten seeds on a 2-core VM it moved 19–33 %
    /// between runs, against about 7 % for p95.
    pub fn tail_permille(self) -> u32 {
        match self {
            Workload::Figures => 750,
            _ => 950,
        }
    }
}

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Smallest meaningful size, for the harness's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    /// `shootout` seeds per tool.
    fn shootout_seeds(self) -> u64 {
        match self {
            Size::Full => 100,
            Size::Tiny => 1,
        }
    }

    /// `impaired` seeds per (tool, loss) cell.
    fn impaired_seeds(self) -> u64 {
        match self {
            Size::Full => 10,
            Size::Tiny => 1,
        }
    }

    /// `multihop` streams per probed rate.
    fn streams_per_rate(self) -> u32 {
        match self {
            Size::Full => 300,
            // 8 × 26 rates = 208 streams: ten beyond p95 in a repetition
            Size::Tiny => 8,
        }
    }

    /// `figures` seeds per experiment.
    fn figure_seeds(self) -> u64 {
        match self {
            Size::Full => 5,
            Size::Tiny => 1,
        }
    }
}

/// What a repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The run seed every cell seed derives from.
    pub seed: u64,
    /// Work per repetition.
    pub size: Size,
    /// Executor workers.
    pub workers: usize,
}

/// Executor workers on a machine with `cores` cores: two where there
/// are two, never more workers than cores, so a 1-core machine runs
/// (and reports) a serial loop.
pub fn workers_for(cores: usize) -> usize {
    cores.clamp(1, 2)
}

/// Warm-up before the first probe, as in the shootout and loss sweep.
const WARM_UP: SimDuration = SimDuration::from_millis(500);
/// The `impaired` loss rates.
const LOSSES: [f64; 3] = [0.001, 0.01, 0.05];
/// Hops of the `multihop` path.
const MULTIHOP_HOPS: usize = 5;
/// Probed rates of `multihop`, Mb/s.
const MULTIHOP_RATES_MBPS: std::ops::RangeInclusive<u32> = 5..=30;
/// Packets per `multihop` stream.
const MULTIHOP_PACKETS: u32 = 100;
/// The figure and table experiments of `figures`.
pub const FIGURES: [&str; 11] = [
    "burstiness",
    "tcp_throughput",
    "variation_range",
    "variability",
    "latency_accuracy",
    "timescale_knob",
    "pairs_vs_trains",
    "tight_vs_narrow",
    "train_length",
    "owd_vs_rate",
    "trend_thresholds",
];

/// The single place the harness reads the wall clock.
fn now() -> Instant {
    // the benchmark measures wall time by definition
    // lint: allow(wall_clock)
    Instant::now()
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-tool sums.
#[derive(Debug, Default, Clone, Copy)]
pub struct ToolTally {
    /// Rounds driven.
    pub rounds: u64,
    /// Wall time of those rounds.
    pub round_ns: u64,
    /// Probe packets the verdicts report.
    pub probe_pkts: u64,
}

/// Everything one repetition measured. Sums unless noted; fields a
/// workload never reaches stay zero, and fields that need the traced
/// run stay zero in an untraced one.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (rounds, streams or experiments).
    pub ops: u64,
    /// Operations whose output failed its sanity check.
    pub failed: u64,
    /// FNV-1a over every output, in submission order.
    pub fingerprint: Fnv,
    /// Wall time of each operation.
    pub op_ns: Vec<u64>,
    /// Set-up wall time (see the module docs of `main`).
    pub setup_ns: u64,
    /// Executor workers (0 when the workload runs on the caller).
    pub workers: u64,
    /// Executor jobs.
    pub jobs: u64,
    /// Job wall time, timed inside each job.
    pub job_ns: u64,
    /// Scenario constructions.
    pub builds: u64,
    /// Their wall time.
    pub build_ns: u64,
    /// Scenario warm-ups.
    pub warmups: u64,
    /// Their wall time.
    pub warmup_ns: u64,
    /// Packets injected during warm-ups.
    pub warmup_pkts: u64,
    /// `Session::step` calls (traced).
    pub steps: u64,
    /// Wall time in `Session::step` outside `Estimator::next` (traced).
    pub step_ns: u64,
    /// Wall time inside `Estimator::next` (traced).
    pub next_ns: u64,
    /// Wall time of rounds (`Session::drive`).
    pub round_ns: u64,
    /// Probe streams observed.
    pub streams: u64,
    /// Wall time of `ProbeRunner::run_stream` (multihop).
    pub stream_ns: u64,
    /// Probe packets sent in observed streams.
    pub sent: u64,
    /// Probe packets received in observed streams.
    pub received: u64,
    /// Probe packets the verdicts report (multihop: packets sent).
    pub probe_pkts: u64,
    /// Per-tool sums, indexed like [`registry::all`].
    pub tools: Vec<ToolTally>,
    /// |estimate − truth| per round, b/s.
    pub abs_err_bps: Vec<f64>,
    /// Packets injected into the per-round simulators.
    pub injected: u64,
    /// Packets those simulators lost to impairments.
    pub impaired: u64,
    /// Wall time of each experiment over all its seeds, indexed like
    /// [`FIGURES`].
    pub figure_ns: [u64; 11],
}

/// One repetition's tally plus the process-level deltas around it.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Whether this repetition ran traced.
    pub traced: bool,
    /// Repetition wall time.
    pub wall_ns: u64,
    /// Cost-counter deltas (every worker flushes before it retires).
    pub costs: CostSnapshot,
    /// Live-heap high-water mark during the repetition.
    pub peak_heap_bytes: u64,
    /// The workload's own measurements.
    pub tally: Tally,
}

/// Runs one repetition of `workload`.
pub fn run_rep(workload: Workload, plan: &Plan, traced: bool) -> Rep {
    // the figure experiments set up inside their runs, out of the
    // harness's sight; their set-up is replayed before the timed part of
    // the repetition, so it shows in `setup_s` and in no other metric
    let (experiments, replay_ns) = match workload {
        Workload::Figures => set_up_figures(plan),
        _ => (Vec::new(), 0),
    };
    alloc::reset_peak();
    let costs0 = prof::snapshot();
    let started = now();
    let mut tally = match workload {
        Workload::Shootout | Workload::Impaired => rounds(workload, plan, traced),
        Workload::Multihop => multihop(plan),
        Workload::Figures => figures(experiments, plan),
    };
    let wall_ns = nanos_since(started);
    let costs = prof::snapshot().delta(&costs0);
    tally.setup_ns += replay_ns;
    Rep {
        traced,
        wall_ns,
        costs,
        peak_heap_bytes: alloc::peak_bytes(),
        tally,
    }
}

// ---------------------------------------------------------------------
// shootout / impaired
// ---------------------------------------------------------------------

/// One estimation round.
#[derive(Debug, Clone, Copy)]
struct Round {
    tool: usize,
    loss: f64,
    seed: u64,
}

/// What one round returns to the main thread.
struct RoundOut {
    cell: Round,
    verdict: Verdict,
    job_ns: u64,
    build_ns: u64,
    warmup_ns: u64,
    warmup_pkts: u64,
    tool_build_ns: u64,
    round_ns: u64,
    probe: ProbeTally,
    injected: u64,
    impaired: u64,
}

/// Harness-side `Session` observations of one traced round.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeTally {
    steps: u64,
    next_ns: u64,
    streams: u64,
    sent: u64,
    received: u64,
}

/// Wraps the registry's boxed estimator: times every `next` call and
/// reads the observations the session feeds back, leaving the decisions
/// untouched.
struct Timed<'t> {
    inner: &'t mut dyn Estimator,
    tally: ProbeTally,
}

impl Estimator for Timed<'_> {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(r) = last.and_then(Observation::stream) {
            self.tally.streams += 1;
            self.tally.sent += u64::from(r.spec.count());
            self.tally.received += r.received() as u64;
        }
        let t = now();
        let action = self.inner.next(last);
        self.tally.next_ns += nanos_since(t);
        self.tally.steps += 1;
        action
    }

    fn take_events(&mut self) -> Vec<ToolEvent> {
        self.inner.take_events()
    }
}

fn hop_config(seed: u64, loss: f64) -> SingleHopConfig {
    SingleHopConfig {
        seed,
        impairment: (loss > 0.0).then(|| ImpairmentConfig::iid_loss(loss)),
        ..SingleHopConfig::default()
    }
}

fn run_round(cell: Round, traced: bool) -> RoundOut {
    let job_started = now();
    let entry = &registry::all()[cell.tool];
    let t = now();
    let mut s = Scenario::single_hop(&hop_config(cell.seed, cell.loss));
    let build_ns = nanos_since(t);
    let injected0 = s.sim.counters().injected;
    let t = now();
    s.warm_up(WARM_UP);
    let warmup_ns = nanos_since(t);
    let warmup_pkts = s.sim.counters().injected - injected0;
    let t = now();
    let mut tool = entry.build(&ToolConfig::default());
    let tool_build_ns = nanos_since(t);

    let mut session = s.session();
    let t = now();
    let (verdict, probe) = if traced {
        let mut timed = Timed {
            inner: tool.as_mut(),
            tally: ProbeTally::default(),
        };
        let verdict = loop {
            if let Some(v) = session.step(&mut s.sim, &mut timed) {
                break v;
            }
        };
        (verdict, timed.tally)
    } else {
        (
            session.drive(&mut s.sim, tool.as_mut()),
            ProbeTally::default(),
        )
    };
    let round_ns = nanos_since(t);
    RoundOut {
        cell,
        verdict,
        build_ns,
        warmup_ns,
        warmup_pkts,
        tool_build_ns,
        round_ns,
        probe,
        injected: s.sim.counters().injected,
        impaired: s.sim.total_impaired(),
        job_ns: nanos_since(job_started),
    }
}

/// The round's target: the link capacity for the capacity prober, else
/// the avail-bw with the cross traffic thinned by ingress loss (as the
/// loss sweep computes it).
fn truth_bps(tool: &str, hop: &SingleHopConfig, loss: f64) -> f64 {
    if tool == "capacity" {
        hop.capacity_bps
    } else {
        hop.capacity_bps - (1.0 - loss) * hop.cross_rate_bps
    }
}

/// The scenario fuzzer's verdict rules for loss-only paths: a finite
/// estimate (or a documented clamped range), at least one probe packet,
/// and at most twice the narrow-link capacity.
fn verdict_is_sane(verdict: &Verdict, narrow_bps: f64) -> bool {
    if matches!(verdict, Verdict::Range(r) if r.clamped) {
        return true;
    }
    let est = verdict.avail_bps();
    est.is_finite() && verdict.probe_packets() >= 1 && est <= 2.0 * narrow_bps
}

fn rounds(workload: Workload, plan: &Plan, traced: bool) -> Tally {
    let (losses, seeds): (&[f64], u64) = match workload {
        Workload::Shootout => (&[0.0], plan.size.shootout_seeds()),
        _ => (&LOSSES, plan.size.impaired_seeds()),
    };
    let cells: Vec<Round> = registry::all()
        .iter()
        .enumerate()
        // the shootout compares avail-bw tools; the capacity prober
        // measures Cn (it runs in `impaired`, against its own truth)
        .filter(|(_, t)| workload != Workload::Shootout || t.name != "capacity")
        .flat_map(|(tool, _)| {
            losses.iter().flat_map(move |&loss| {
                (0..seeds).map(move |k| Round {
                    tool,
                    loss,
                    seed: cell_seed(plan.seed, k),
                })
            })
        })
        .collect();
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|cell| move || run_round(cell, traced))
        .collect();
    let outs = Executor::new(plan.workers).run(jobs);

    let mut t = Tally {
        workers: plan.workers as u64,
        tools: vec![ToolTally::default(); registry::all().len()],
        ..Tally::default()
    };
    for out in outs {
        let Round { tool, loss, seed } = out.cell;
        let v = &out.verdict;
        let hop = hop_config(seed, loss);
        let ok = verdict_is_sane(v, hop.capacity_bps);
        let (lo, hi) = v.range_bps().unwrap_or((0.0, 0.0));
        for x in [tool as u64, seed, loss.to_bits(), v.probe_packets()] {
            t.fingerprint.u64(x);
        }
        for x in [v.avail_bps(), lo, hi, v.elapsed_secs()] {
            t.fingerprint.f64(x);
        }
        t.ops += 1;
        t.failed += u64::from(!ok);
        t.op_ns.push(out.round_ns);
        t.setup_ns += out.build_ns + out.warmup_ns + out.tool_build_ns;
        t.jobs += 1;
        t.job_ns += out.job_ns;
        t.builds += 1;
        t.build_ns += out.build_ns;
        t.warmups += 1;
        t.warmup_ns += out.warmup_ns;
        t.warmup_pkts += out.warmup_pkts;
        t.round_ns += out.round_ns;
        t.steps += out.probe.steps;
        t.next_ns += out.probe.next_ns;
        t.step_ns += out.round_ns.saturating_sub(out.probe.next_ns);
        t.streams += out.probe.streams;
        t.sent += out.probe.sent;
        t.received += out.probe.received;
        t.probe_pkts += v.probe_packets();
        t.injected += out.injected;
        t.impaired += out.impaired;
        let per_tool = &mut t.tools[tool];
        per_tool.rounds += 1;
        per_tool.round_ns += out.round_ns;
        per_tool.probe_pkts += v.probe_packets();
        t.abs_err_bps
            .push((v.avail_bps() - truth_bps(registry::all()[tool].name, &hop, loss)).abs());
    }
    t
}

// ---------------------------------------------------------------------
// multihop
// ---------------------------------------------------------------------

fn multihop(plan: &Plan) -> Tally {
    let mut t = Tally::default();
    let started = now();
    let mut s = Scenario::multi_tight(MULTIHOP_HOPS, CrossKind::Poisson, cell_seed(plan.seed, 0));
    t.build_ns = nanos_since(started);
    let t_warm = now();
    s.warm_up(WARM_UP);
    t.warmup_ns = nanos_since(t_warm);
    t.warmup_pkts = s.sim.counters().injected;
    t.builds = 1;
    t.warmups = 1;
    t.setup_ns = t.build_ns + t.warmup_ns;

    let mut runner = s.runner();
    // Figure 4's spacing: enough for the queues to drain between streams
    runner.stream_gap = SimDuration::from_millis(10);
    for _ in 0..plan.size.streams_per_rate() {
        for mbps in MULTIHOP_RATES_MBPS {
            let spec = StreamSpec::Periodic {
                rate_bps: f64::from(mbps) * 1e6,
                size: 1500,
                count: MULTIHOP_PACKETS,
            };
            let ts = now();
            let r = runner.run_stream(&mut s.sim, &spec);
            let ns = nanos_since(ts);
            let ratio = r.rate_ratio();
            t.fingerprint.f64(ratio.unwrap_or(f64::NAN));
            t.fingerprint.u64(r.received() as u64);
            t.ops += 1;
            t.failed += u64::from(ratio.is_none());
            t.op_ns.push(ns);
            t.streams += 1;
            t.stream_ns += ns;
            t.sent += u64::from(spec.count());
            t.probe_pkts += u64::from(spec.count());
            t.received += r.received() as u64;
        }
    }
    t.injected = s.sim.counters().injected;
    t.impaired = s.sim.total_impaired();
    t
}

// ---------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------

/// One configured experiment.
struct Experiment {
    /// Replays the set-up the experiment's run begins with; `None` where
    /// that set-up is private to the library (`tcp_throughput` assembles
    /// its simulators inside its cells).
    setup: Option<Box<dyn FnOnce()>>,
    /// Runs the experiment.
    run: Box<dyn FnOnce() -> Box<dyn Debug> + Send>,
}

impl Experiment {
    fn new<R: Debug + 'static>(
        setup: Option<Box<dyn FnOnce()>>,
        run: impl FnOnce() -> R + Send + 'static,
    ) -> Experiment {
        Experiment {
            setup,
            run: Box::new(move || Box::new(run()) as Box<dyn Debug>),
        }
    }
}

/// Builds and warms the single hop `hop` for `warm_ms`, as the
/// single-hop experiments do before their first probe.
fn warmed_hop(hop: SingleHopConfig, warm_ms: u64) -> Option<Box<dyn FnOnce()>> {
    Some(Box::new(move || {
        let mut s = Scenario::single_hop(&hop);
        s.warm_up(SimDuration::from_millis(warm_ms));
        std::hint::black_box(s);
    }))
}

/// Experiment `name` in its quick configuration with every seed field
/// set to `seed`. Its set-up replay makes the calls its run begins with
/// — `Scenario` construction and warm-up of its first path, or
/// `SyntheticTrace::generate` — on the same configuration fields, seeded
/// with `seed`.
fn experiment(name: &str, seed: u64) -> Experiment {
    // experiments that take an executor get a serial one: the cell
    // already occupies one of the harness's workers
    let serial = Executor::serial;
    let hop = |cross, cross_size, seed| SingleHopConfig {
        cross,
        cross_sizes: SizeDist::Constant(cross_size),
        seed,
        ..SingleHopConfig::default()
    };
    let trace = |config: &SyntheticTraceConfig| -> Option<Box<dyn FnOnce()>> {
        let config = config.clone();
        Some(Box::new(move || {
            std::hint::black_box(SyntheticTrace::generate(&config));
        }))
    };
    match name {
        "variability" => {
            let mut c = variability::VariabilityConfig::quick();
            c.seed = seed;
            c.trace.seed = seed;
            Experiment::new(trace(&c.trace), move || {
                variability::run_with(&c, &serial())
            })
        }
        "timescale_knob" => {
            let mut c = timescale_knob::TimescaleConfig::quick();
            c.seed = seed;
            let first = hop(CrossKind::Poisson, 1500, seed);
            Experiment::new(warmed_hop(first, 500), move || timescale_knob::run(&c))
        }
        "burstiness" => {
            let mut c = burstiness::BurstinessConfig::quick();
            c.seed = seed;
            let first = hop(c.models[0], 1500, seed);
            Experiment::new(warmed_hop(first, 500), move || burstiness::run(&c))
        }
        "owd_vs_rate" => {
            let mut c = owd_vs_rate::OwdVsRateConfig::quick();
            c.seed = seed;
            let first = hop(CrossKind::ParetoOnOff, 1500, seed);
            Experiment::new(warmed_hop(first, 500), move || owd_vs_rate::run(&c))
        }
        "variation_range" => {
            let mut c = variation_range::VariationRangeConfig::quick();
            c.trace.seed = seed;
            Experiment::new(trace(&c.trace), move || variation_range::run(&c))
        }
        "tcp_throughput" => {
            let mut c = tcp_throughput::TcpThroughputConfig::quick();
            c.seed = seed;
            Experiment::new(None, move || tcp_throughput::run_with(&c, &serial()))
        }
        "pairs_vs_trains" => {
            let mut c = pairs_vs_trains::PairsVsTrainsConfig::quick();
            c.seed = seed;
            let first = hop(CrossKind::Poisson, c.cross_sizes[0], seed);
            Experiment::new(warmed_hop(first, 500), move || {
                pairs_vs_trains::run_with(&c, &serial())
            })
        }
        "latency_accuracy" => {
            let mut c = latency_accuracy::LatencyAccuracyConfig::quick();
            c.seed = seed;
            let first = hop(CrossKind::Poisson, 1500, seed);
            Experiment::new(warmed_hop(first, 300), move || latency_accuracy::run(&c))
        }
        "tight_vs_narrow" => {
            let mut c = tight_vs_narrow::TightVsNarrowConfig::quick();
            c.seed = seed;
            let oc3_cross_bps = c.oc3_cross_bps;
            let setup: Box<dyn FnOnce()> = Box::new(move || {
                let mut s = Scenario::tight_not_narrow(oc3_cross_bps, seed);
                s.warm_up(SimDuration::from_millis(500));
                std::hint::black_box(s);
            });
            Experiment::new(Some(setup), move || tight_vs_narrow::run(&c))
        }
        "trend_thresholds" => {
            let mut c = trend_thresholds::TrendThresholdsConfig::quick();
            c.seed = seed;
            let first = hop(c.cross, 1500, seed);
            Experiment::new(warmed_hop(first, 500), move || {
                trend_thresholds::run_with(&c, &serial())
            })
        }
        "train_length" => {
            let mut c = train_length::TrainLengthConfig::quick();
            c.seed = seed;
            let first = hop(CrossKind::Poisson, c.cross_size, seed);
            Experiment::new(warmed_hop(first, 300), move || {
                train_length::run_with(&c, &serial())
            })
        }
        other => unreachable!("`{other}` is not in FIGURES"),
    }
}

/// Configures the experiments of one repetition, every seed of
/// [`FIGURES`]' first experiment first, and replays the set-up of each
/// experiment's first seed, serially (replaying every seed's would add
/// about 2.5 s to each repetition on a 2-vCPU VM, mostly 20 trace
/// syntheses); returns them with the summed replay wall time.
fn set_up_figures(plan: &Plan) -> (Vec<Experiment>, u64) {
    let seeds = plan.size.figure_seeds();
    let mut experiments: Vec<Experiment> = (0..FIGURES.len() as u64 * seeds)
        .map(|j| experiment(FIGURES[(j / seeds) as usize], cell_seed(plan.seed, j)))
        .collect();
    let mut setup_ns = 0;
    for e in experiments.iter_mut().step_by(seeds as usize) {
        if let Some(setup) = e.setup.take() {
            let t = now();
            setup();
            setup_ns += nanos_since(t);
        }
    }
    (experiments, setup_ns)
}

/// What one experiment returns to the main thread.
struct FigureOut {
    job_ns: u64,
    run_ns: u64,
    fold: DebugFold,
}

fn figures(experiments: Vec<Experiment>, plan: &Plan) -> Tally {
    let jobs: Vec<_> = experiments
        .into_iter()
        .map(|e| {
            let run = e.run;
            move || {
                let t = now();
                let result = run();
                let run_ns = nanos_since(t);
                let fold = DebugFold::of(&result);
                FigureOut {
                    job_ns: nanos_since(t),
                    run_ns,
                    fold,
                }
            }
        })
        .collect();
    // one experiment at a time: which two run together varies with
    // timing, and on a 2-vCPU VM two workers moved op_p50_ms 20–30 %
    // between runs and peak_heap_mb 18–28 MB between repetitions
    // (serially: under 10 % and 0 %)
    let workers = 1;
    let outs = Executor::new(workers).run(jobs);
    let seeds = plan.size.figure_seeds() as usize;
    let mut t = Tally {
        workers: workers as u64,
        ..Tally::default()
    };
    for (j, out) in outs.into_iter().enumerate() {
        t.fingerprint.u64(out.fold.fingerprint());
        t.ops += 1;
        t.failed += u64::from(!out.fold.all_finite());
        t.op_ns.push(out.run_ns);
        t.figure_ns[j / seeds] += out.run_ns;
        t.jobs += 1;
        t.job_ns += out.job_ns;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_never_exceed_cores_or_two() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1, "a 1-core machine runs a serial loop");
        assert_eq!(workers_for(2), 2);
        assert_eq!(workers_for(64), 2);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("microloop"), None);
    }

    /// Traced ≡ untraced and 1 worker ≡ 2 workers, per workload: the
    /// fingerprint folds every output, so equal fingerprints mean the
    /// harness's instrumentation and scheduling changed no result.
    #[test]
    fn fingerprint_is_independent_of_tracing_and_worker_count() {
        for w in Workload::ALL {
            let plan = |workers| Plan {
                seed: 0x5EED,
                size: Size::Tiny,
                workers,
            };
            let reference = run_rep(w, &plan(1), false);
            assert!(reference.tally.ops > 0, "{}", w.name());
            assert_eq!(reference.tally.failed, 0, "{}", w.name());
            for (workers, traced) in [(1, true), (2, false), (2, true)] {
                let rep = run_rep(w, &plan(workers), traced);
                assert_eq!(
                    rep.tally.fingerprint,
                    reference.tally.fingerprint,
                    "{} with {workers} workers, traced={traced}",
                    w.name()
                );
                assert_eq!(rep.tally.ops, reference.tally.ops);
            }
        }
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let plan = |seed| Plan {
            seed,
            size: Size::Tiny,
            workers: 1,
        };
        let a = run_rep(Workload::Multihop, &plan(1), false);
        let b = run_rep(Workload::Multihop, &plan(2), false);
        assert_ne!(a.tally.fingerprint, b.tally.fingerprint);
    }
}
