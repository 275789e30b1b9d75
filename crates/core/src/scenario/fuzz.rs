//! Seeded scenario fuzzing: random valid specs driven through the
//! armed invariant machinery and tool-level sanity checks, with greedy
//! shrinking of failures to minimal reproducer specs.
//!
//! The DSL ([`super::dsl`]) makes a scenario a value; this module makes
//! it a *test case*. A [`FuzzConfig`] names a seed and a count; the
//! fuzzer deterministically generates that many valid specs from fixed
//! palettes, runs each through every check, and — when one fails —
//! shrinks it by deleting hops, seeds, tools, impairments and queue
//! bounds until no single deletion still reproduces the failure. The
//! shrunk spec is rendered with [`ScenarioSpec::to_spec`] and written
//! as a committed-format `.scn` reproducer.
//!
//! # Checks
//!
//! 1. **Round trip** — `parse(to_spec(s)) == s`, the DSL's own
//!    contract.
//! 2. **No panics** — the spec runs through the one spec runner
//!    ([`dsl::run_specs`], here under the per-cell simulated-time
//!    budget) inside `catch_unwind`; with `ABW_CHECK` armed (the fuzzer
//!    arms it) a panic is usually an `ABW_CHECK invariant violated:`
//!    report from the simulator.
//! 3. **Serial ≡ parallel, traced ≡ untraced** — the outcome list is
//!    compared bit-for-bit between [`Executor::serial`] and a
//!    multi-worker executor. The serial leg runs under a thread capture
//!    of the trace, so its simulators run traced even when no
//!    `ABW_TRACE` recorder is installed, and the untraced legs must
//!    match it; a serial leg with outcomes but no trace event fails.
//!    Only the serial leg's events reach an installed trace: the other
//!    legs run without a recorder, so the trace holds each event once.
//! 4. **Fluid ≡ per-event** — the spec runs once more with every
//!    simulator's fluid fast-forward window off, and its outcomes and
//!    timeouts must match the serial leg's bit for bit. The palette's
//!    multi-hop paths and its loss, jitter and reorder impairments
//!    decide which links the window may run, so this checks the
//!    window's gate as well as the window.
//! 5. **Verdict sanity** — every verdict is finite (or a documented
//!    clamped [`crate::tools::RangeEstimate`]), claims at least one
//!    probe packet, and — on scenarios without timing impairments —
//!    stays below `2 ×` the narrow-link capacity. The slack is not
//!    arbitrary: pathChirp on a near-idle path detects its own
//!    self-congestion a couple of `gamma` steps late and legitimately
//!    reports up to ~1.6 × capacity (pinned by its
//!    `idle_path_reports_top_of_chirp` unit test). Scenarios with
//!    jitter, reordering or capacity flaps are exempt from the upper
//!    bound: compressed packet gaps legitimately inflate dispersion
//!    estimates past the narrow capacity. Negative estimates are
//!    tolerated everywhere (known tool bias under extreme load, not a
//!    harness bug).
//!
//! Release builds compile the invariant checks out
//! ([`abw_netsim::invariants::checks_compiled_in`]); the report records
//! whether they were live so a harness never mistakes a check-free run
//! for a clean one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use abw_exec::Executor;
use abw_netsim::{invariants, ImpairmentConfig, SimDuration};
use abw_traffic::SizeDist;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::scenario::dsl::{self, BoundedRun, Leg, ScenarioSpec, SpecOutcome};
use crate::scenario::{CrossKind, HopSpec};
use crate::tools::registry;
use crate::tools::Verdict;

/// An extra per-scenario check, e.g. an injected violation for testing
/// the fuzzer itself. Gets the spec and the (serial) outcomes; an `Err`
/// is a failure with that message.
pub type SpecCheck = fn(&ScenarioSpec, &[SpecOutcome]) -> Result<(), String>;

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: same seed, same specs, same outcomes — bit for bit.
    pub seed: u64,
    /// How many scenarios to generate and check.
    pub count: u32,
    /// Worker count of the parallel leg of the serial≡parallel check.
    pub jobs: usize,
    /// Where to write shrunk reproducer `.scn` files (`None` = don't).
    pub repro_dir: Option<PathBuf>,
    /// Extra check run on every scenario.
    pub extra_check: Option<SpecCheck>,
    /// Maximum spec evaluations spent shrinking one failure.
    pub shrink_budget: u32,
    /// Per-cell *simulated*-time budget, in milliseconds (`None` =
    /// unbounded). A `(tool, seed)` cell still probing at the deadline
    /// is recorded as a timeout, not a failure — the palette's
    /// 99 %-utilisation multi-hop corners legitimately run long, and
    /// the CI smoke leg must not stall on them. The budget feeds the
    /// report fingerprint: bounded and unbounded runs are different
    /// experiments and must not compare equal.
    pub max_scenario_ms: Option<u64>,
}

impl FuzzConfig {
    /// A config with the default jobs (4) and shrink budget (48).
    pub fn new(seed: u64, count: u32) -> Self {
        FuzzConfig {
            seed,
            count,
            jobs: 4,
            repro_dir: None,
            extra_check: None,
            shrink_budget: 48,
            max_scenario_ms: None,
        }
    }
}

/// One failing scenario, original and shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// 0-based index of the scenario in the run.
    pub index: u32,
    /// The failing check's message (from the *original* spec; shrinking
    /// keeps any-check-fails, so the minimal spec may fail differently).
    pub message: String,
    /// The generated spec that first failed.
    pub spec: ScenarioSpec,
    /// The minimal spec that still fails some check.
    pub shrunk: ScenarioSpec,
    /// Spec evaluations the shrinker spent.
    pub shrink_evals: u32,
    /// Where the reproducer was written, when a `repro_dir` was set and
    /// the write succeeded.
    pub repro_path: Option<PathBuf>,
}

/// The result of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The master seed the run used.
    pub seed: u64,
    /// Scenarios generated and checked.
    pub scenarios: u32,
    /// Total verdicts produced across all passing scenarios.
    pub outcomes: u64,
    /// FNV-1a fingerprint over every passing scenario's outcome list —
    /// equal fingerprints mean bit-identical verdicts (the
    /// reproducibility tests compare this across runs and job counts).
    pub fingerprint: u64,
    /// Cells cut short by the simulated-time budget across all passing
    /// scenarios (always 0 when `max_scenario_ms` is `None`).
    pub timeouts: u64,
    /// Failures found, in generation order.
    pub failures: Vec<FuzzFailure>,
    /// Whether the `ABW_CHECK` invariants were actually live (they
    /// compile out of release builds — a run without them checks less).
    pub invariants_active: bool,
}

/// Runs the fuzzer: generates `config.count` specs from `config.seed`
/// and checks each one. Scenarios are iterated sequentially so the
/// serial≡parallel comparison inside each check runs with real workers
/// (nested executor runs degrade to serial).
pub fn run(config: &FuzzConfig) -> FuzzReport {
    invariants::arm();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report = FuzzReport {
        seed: config.seed,
        scenarios: 0,
        outcomes: 0,
        fingerprint: 0xcbf29ce484222325, // FNV-1a offset basis
        timeouts: 0,
        failures: Vec::new(),
        invariants_active: invariants::checks_compiled_in(),
    };
    // the budget is part of the run's identity: a timed-out cell's
    // verdicts are missing from the outcome stream, so runs under
    // different budgets must never fingerprint equal
    match config.max_scenario_ms {
        Some(ms) => fnv_mix(
            &mut report.fingerprint,
            format!("max-scenario-ms={ms}").as_bytes(),
        ),
        None => fnv_mix(&mut report.fingerprint, b"max-scenario-ms=none"),
    }
    for index in 0..config.count {
        let spec = gen_spec(&mut rng, config.seed, index);
        report.scenarios += 1;
        match evaluate(
            &spec,
            config.jobs,
            config.extra_check,
            config.max_scenario_ms,
        ) {
            Ok(run) => {
                report.outcomes += run.outcomes.len() as u64;
                report.timeouts += run.timeouts.len() as u64;
                for o in &run.outcomes {
                    fnv_mix(&mut report.fingerprint, outcome_line(o).as_bytes());
                }
                for t in &run.timeouts {
                    fnv_mix(
                        &mut report.fingerprint,
                        format!("timeout,{},{},{}", t.tool, t.seed, t.round).as_bytes(),
                    );
                }
            }
            Err(message) => {
                let (mut shrunk, shrink_evals) = shrink(
                    &spec,
                    config.jobs,
                    config.extra_check,
                    config.shrink_budget,
                    config.max_scenario_ms,
                );
                shrunk.name = format!("{}-min", spec.name);
                let repro_path = config
                    .repro_dir
                    .as_ref()
                    .and_then(|dir| write_repro(dir, &shrunk));
                report.failures.push(FuzzFailure {
                    index,
                    message,
                    spec,
                    shrunk,
                    shrink_evals,
                    repro_path,
                });
            }
        }
    }
    report
}

/// Generates one random valid spec. Values come from fixed palettes so
/// every spec round-trips exactly and stays inside the validated range
/// (cross rate strictly below capacity, probabilities exactly
/// representable).
pub fn gen_spec(rng: &mut StdRng, run_seed: u64, index: u32) -> ScenarioSpec {
    const CAPS: [f64; 4] = [10e6, 50e6, 100e6, 155.52e6];
    // utilisations up to 0.99: the "extreme but valid" end of the space
    const UTILS: [f64; 6] = [0.0, 0.25, 0.5, 0.8, 0.95, 0.99];
    const SIZES: [u32; 3] = [200, 576, 1500];
    // 3000 B bounds a 1500 B-packet queue at two packets — one queued
    const QUEUES: [u64; 3] = [3000, 15_000, 64_000];
    // no `flap` entries: a flap to a near-zero rate can stall a probing
    // session indefinitely, which the fuzzer would misread as a hang
    const IMPAIRMENTS: [&str; 6] = [
        "loss=0.01",
        "loss=0.05",
        "ge-loss=0.05:0.3:0.5",
        "jitter=200us",
        "reorder=0.05:1ms",
        "loss=0.01, jitter=100us",
    ];
    const WARMUPS_MS: [u64; 3] = [100, 200, 500];

    let n_hops = rng.random_range(1..4u32);
    let hops = (0..n_hops)
        .map(|_| {
            let capacity_bps = CAPS[rng.random_range(0..CAPS.len())];
            let util = UTILS[rng.random_range(0..UTILS.len())];
            let cross = match rng.random_range(0..4u32) {
                0 => CrossKind::Cbr,
                1 => CrossKind::Poisson,
                2 => CrossKind::ParetoOnOff,
                _ => CrossKind::ParetoInterarrival,
            };
            let cross_sizes = match rng.random_range(0..3u32) {
                0 => SizeDist::Constant(SIZES[rng.random_range(0..SIZES.len())]),
                1 => SizeDist::internet_mix(),
                // probabilities exactly representable in binary
                _ => SizeDist::Empirical(vec![(40, 0.5), (1500, 0.5)]),
            };
            let queue_bytes = rng
                .random_bool(0.2)
                .then(|| QUEUES[rng.random_range(0..QUEUES.len())]);
            let impairment = rng.random_bool(0.3).then(|| {
                let spec = IMPAIRMENTS[rng.random_range(0..IMPAIRMENTS.len())];
                ImpairmentConfig::parse(spec).expect("palette specs are valid")
            });
            HopSpec {
                capacity_bps,
                cross_rate_bps: capacity_bps * util,
                cross,
                cross_sizes,
                prop_delay: SimDuration::from_millis(rng.random_range(1..3u64)),
                queue_bytes,
                impairment,
            }
        })
        .collect();

    let n_seeds = rng.random_range(1..3u32);
    let seeds = (0..n_seeds)
        .map(|_| rng.random_range(1..10_000u64))
        .collect();

    let all = registry::all();
    let n_tools = rng.random_range(1..3usize);
    let mut tools: Vec<String> = Vec::new();
    while tools.len() < n_tools {
        let name = all[rng.random_range(0..all.len())].name.to_string();
        if !tools.contains(&name) {
            tools.push(name);
        }
    }

    ScenarioSpec {
        name: format!("fuzz-{run_seed:x}-{index}"),
        seeds,
        warmup: SimDuration::from_millis(WARMUPS_MS[rng.random_range(0..WARMUPS_MS.len())]),
        tools,
        rounds: if rng.random_bool(0.1) { 2 } else { 1 },
        quick: true,
        hops,
    }
}

/// Runs every check against one spec. `Ok` carries the (serial)
/// outcomes and timeouts for fingerprinting; `Err` carries the first
/// failure. A cell hitting the `max_scenario_ms` simulated-time budget
/// is a timeout, never a failure — but serial and parallel legs must
/// still agree on *which* cells timed out.
pub fn evaluate(
    spec: &ScenarioSpec,
    jobs: usize,
    extra_check: Option<SpecCheck>,
    max_scenario_ms: Option<u64>,
) -> Result<BoundedRun, String> {
    // 1. round trip (cheap: no simulation)
    let rendered = spec.to_spec();
    match ScenarioSpec::parse(&rendered, "<canonical>") {
        Err(e) => return Err(format!("round-trip: canonical form fails to parse: {e}")),
        Ok(reparsed) if reparsed != *spec => {
            return Err("round-trip: parse(to_spec(s)) differs from s".to_string())
        }
        Ok(_) => {}
    }

    let budget = max_scenario_ms.map(SimDuration::from_millis);
    let specs = std::slice::from_ref(spec);

    // 2. serial run, traced: every simulator adopts the capture buffer,
    // so the comparisons below also check traced ≡ untraced. The
    // capture ends before the result is looked at, panic or not, and
    // its events go on to the process-global trace, if any. A panic
    // here is usually an armed ABW_CHECK report
    abw_obs::global::begin_thread_capture(true);
    let serial = catch_unwind(AssertUnwindSafe(|| {
        dsl::run_cells(specs, &Executor::serial(), budget, Leg::Reference)
    }));
    let events = abw_obs::global::take_thread_capture();
    abw_obs::global::replay_into_global(&events);
    let serial = serial.map_err(|p| format!("panic during serial run: {}", panic_message(&p)))?;
    if !serial.outcomes.is_empty() && events.is_empty() {
        return Err("traced serial run recorded no trace event".to_string());
    }

    // 3. parallel run must agree bit-for-bit; it and the fluid-off run
    // are compared with the serial run, not recorded
    let exec = Executor::new(jobs.max(2));
    let parallel = catch_unwind(AssertUnwindSafe(|| {
        dsl::run_cells(specs, &exec, budget, Leg::Untraced)
    }))
    .map_err(|p| format!("panic during parallel run: {}", panic_message(&p)))?;
    same_run("serial/parallel", &serial, &parallel)?;

    // 4. so must a run with the fluid window off
    let per_event = catch_unwind(AssertUnwindSafe(|| {
        dsl::run_cells(specs, &exec, budget, Leg::PerEvent)
    }))
    .map_err(|p| format!("panic during fluid-off run: {}", panic_message(&p)))?;
    same_run("serial/fluid-off", &serial, &per_event)?;

    // 5. verdict sanity
    let timing_impaired = has_timing_impairment(spec);
    // 2x, not tighter: pathChirp's excursion analysis spots its own
    // self-congestion a few gamma steps late on a near-idle path and
    // honestly reports up to ~1.6x capacity (see its
    // `idle_path_reports_top_of_chirp` test)
    let cap = 2.0 * spec.narrow_capacity_bps();
    for o in &serial.outcomes {
        let avail = o.verdict.avail_bps();
        let clamped = matches!(&o.verdict, Verdict::Range(r) if r.clamped);
        if clamped {
            continue; // documented degenerate measurement
        }
        if !avail.is_finite() {
            return Err(format!(
                "{} (seed {}) returned a non-finite estimate {avail}",
                o.tool, o.seed
            ));
        }
        if o.verdict.probe_packets() == 0 {
            return Err(format!(
                "{} (seed {}) claims a verdict without sending any probe",
                o.tool, o.seed
            ));
        }
        if !timing_impaired && avail > cap {
            return Err(format!(
                "{} (seed {}) estimated {avail} b/s, above 2x the narrow capacity {} b/s \
                 on a scenario without timing impairments",
                o.tool,
                o.seed,
                spec.narrow_capacity_bps()
            ));
        }
    }

    // 6. injected checks (on the cells that finished)
    if let Some(check) = extra_check {
        check(spec, &serial.outcomes)?;
    }
    Ok(serial)
}

/// Bit-compares two runs of one spec: outcome lines, then timeouts.
/// `legs` names the pair in the failure message.
fn same_run(legs: &str, a: &BoundedRun, b: &BoundedRun) -> Result<(), String> {
    if a.outcomes.len() != b.outcomes.len() {
        return Err(format!(
            "{legs} outcome counts differ: {} vs {}",
            a.outcomes.len(),
            b.outcomes.len()
        ));
    }
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        let (lx, ly) = (outcome_line(x), outcome_line(y));
        if lx != ly {
            return Err(format!("{legs} divergence: `{lx}` vs `{ly}`"));
        }
    }
    if a.timeouts != b.timeouts {
        return Err(format!(
            "{legs} timeout divergence: {:?} vs {:?}",
            a.timeouts, b.timeouts
        ));
    }
    Ok(())
}

/// True when any hop carries a jitter, reorder or flap impairment —
/// those legitimately push dispersion-based estimates past the narrow
/// capacity, so the upper-bound check exempts them.
fn has_timing_impairment(spec: &ScenarioSpec) -> bool {
    spec.hops.iter().any(|h| {
        h.impairment.as_ref().is_some_and(|cfg| {
            cfg.jitter.is_some_and(|j| j > SimDuration::ZERO)
                || cfg.reorder.is_some_and(|r| r.prob > 0.0)
                || !cfg.flaps.is_empty()
        })
    })
}

/// Greedy shrink: repeatedly tries single simplifications (drop a hop,
/// a seed, restrict to one tool, drop an impairment, zero a cross rate,
/// simplify sizes, drop a queue bound, one round) and keeps any that
/// still fails *some* check, until a full pass makes no progress or the
/// evaluation budget runs out. Returns the smallest failing spec found
/// and the evaluations spent.
pub fn shrink(
    spec: &ScenarioSpec,
    jobs: usize,
    extra_check: Option<SpecCheck>,
    budget: u32,
    max_scenario_ms: Option<u64>,
) -> (ScenarioSpec, u32) {
    let mut best = spec.clone();
    let mut evals = 0u32;
    let still_fails = |cand: &ScenarioSpec, evals: &mut u32| -> bool {
        if *evals >= budget {
            return false;
        }
        *evals += 1;
        evaluate(cand, jobs, extra_check, max_scenario_ms).is_err()
    };

    loop {
        let mut improved = false;

        // drop one hop at a time (paths keep at least one hop)
        if best.hops.len() > 1 {
            for i in 0..best.hops.len() {
                let mut cand = best.clone();
                cand.hops.remove(i);
                if still_fails(&cand, &mut evals) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // one seed
        if !improved && best.seeds.len() > 1 {
            for &seed in &best.seeds {
                let mut cand = best.clone();
                cand.seeds = vec![seed];
                if still_fails(&cand, &mut evals) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // one tool (an empty list means the whole registry, so try each
        // registry tool as a singleton)
        if !improved && best.tools.len() != 1 {
            let candidates: Vec<String> = if best.tools.is_empty() {
                registry::all().iter().map(|t| t.name.to_string()).collect()
            } else {
                best.tools.clone()
            };
            for tool in candidates {
                let mut cand = best.clone();
                cand.tools = vec![tool];
                if still_fails(&cand, &mut evals) {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }

        // one round
        if !improved && best.rounds > 1 {
            let mut cand = best.clone();
            cand.rounds = 1;
            if still_fails(&cand, &mut evals) {
                best = cand;
                improved = true;
            }
        }

        // per-hop simplifications
        if !improved {
            'hops: for i in 0..best.hops.len() {
                let mut attempts: Vec<ScenarioSpec> = Vec::new();
                if best.hops[i].impairment.is_some() {
                    let mut cand = best.clone();
                    cand.hops[i].impairment = None;
                    attempts.push(cand);
                }
                if best.hops[i].cross_rate_bps > 0.0 {
                    let mut cand = best.clone();
                    cand.hops[i].cross_rate_bps = 0.0;
                    attempts.push(cand);
                }
                if best.hops[i].cross_sizes != SizeDist::Constant(1500) {
                    let mut cand = best.clone();
                    cand.hops[i].cross_sizes = SizeDist::Constant(1500);
                    attempts.push(cand);
                }
                if best.hops[i].queue_bytes.is_some() {
                    let mut cand = best.clone();
                    cand.hops[i].queue_bytes = None;
                    attempts.push(cand);
                }
                for cand in attempts {
                    if still_fails(&cand, &mut evals) {
                        best = cand;
                        improved = true;
                        break 'hops;
                    }
                }
            }
        }

        if !improved || evals >= budget {
            return (best, evals);
        }
    }
}

/// A canonical one-line rendering of an outcome: equal lines mean
/// bit-identical verdicts (float fields are compared via `to_bits`).
pub fn outcome_line(o: &SpecOutcome) -> String {
    let (lo, hi) = o.verdict.range_bps().unwrap_or((0.0, 0.0));
    format!(
        "{},{},{},{:016x},{:016x},{:016x},{:016x},{}",
        o.tool,
        o.seed,
        o.round,
        o.verdict.avail_bps().to_bits(),
        lo.to_bits(),
        hi.to_bits(),
        o.verdict.elapsed_secs().to_bits(),
        o.verdict.probe_packets(),
    )
}

fn fnv_mix(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        // a panic rethrown across the executor's worker boundary
        // arrives double-boxed; unwrap one level and retry
        .or_else(|| {
            payload
                .downcast_ref::<Box<dyn std::any::Any + Send>>()
                .map(|inner| panic_message(inner.as_ref()))
        })
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Writes `spec` as `<dir>/<name>.scn`; `None` when the write fails
/// (the failure still carries the shrunk spec itself).
fn write_repro(dir: &std::path::Path, spec: &ScenarioSpec) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{}.scn", spec.name));
    std::fs::write(&path, spec.to_spec()).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_valid_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..50 {
            let spec = gen_spec(&mut rng, 7, i);
            let rendered = spec.to_spec();
            let reparsed = ScenarioSpec::parse(&rendered, "<gen>")
                .unwrap_or_else(|e| panic!("generated spec does not parse: {e}\n{rendered}"));
            assert_eq!(spec, reparsed, "spec {i} does not round-trip:\n{rendered}");
            assert!(!spec.hops.is_empty());
            for hop in &spec.hops {
                assert!(hop.cross_rate_bps < hop.capacity_bps);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<ScenarioSpec> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|i| gen_spec(&mut rng, 42, i)).collect()
        };
        let b: Vec<ScenarioSpec> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..10).map(|i| gen_spec(&mut rng, 42, i)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn shrink_finds_a_minimal_failing_spec() {
        // an injected "violation": any impaired hop fails
        fn impaired_fails(spec: &ScenarioSpec, _: &[SpecOutcome]) -> Result<(), String> {
            if spec.hops.iter().any(|h| h.impairment.is_some()) {
                Err("injected: impaired hop".to_string())
            } else {
                Ok(())
            }
        }
        let spec = ScenarioSpec {
            name: "shrink-me".to_string(),
            seeds: vec![11, 22],
            tools: vec!["spruce".to_string(), "ptr".to_string()],
            hops: vec![
                HopSpec {
                    impairment: Some(ImpairmentConfig::iid_loss(0.01)),
                    queue_bytes: Some(64_000),
                    ..HopSpec::canonical(CrossKind::Poisson)
                },
                HopSpec::canonical(CrossKind::Cbr),
            ],
            ..ScenarioSpec::default()
        };
        assert!(evaluate(&spec, 2, Some(impaired_fails), None).is_err());
        let (shrunk, evals) = shrink(&spec, 2, Some(impaired_fails), 24, None);
        assert!(evals > 0 && evals <= 24);
        assert!(
            evaluate(&shrunk, 2, Some(impaired_fails), None).is_err(),
            "shrunk spec must still fail"
        );
        assert_eq!(shrunk.hops.len(), 1, "the clean hop should be dropped");
        assert_eq!(shrunk.seeds.len(), 1);
        assert_eq!(shrunk.tools.len(), 1);
        assert!(
            shrunk.hops[0].impairment.is_some(),
            "the failure-carrying impairment must survive shrinking"
        );
        assert!(shrunk.hops[0].queue_bytes.is_none());
    }

    #[test]
    fn timing_impairments_are_recognised() {
        let mut spec = ScenarioSpec {
            hops: vec![HopSpec::canonical(CrossKind::Poisson)],
            ..ScenarioSpec::default()
        };
        assert!(!has_timing_impairment(&spec));
        spec.hops[0].impairment = Some(ImpairmentConfig::iid_loss(0.1));
        assert!(!has_timing_impairment(&spec), "pure loss keeps the bound");
        spec.hops[0].impairment =
            Some(ImpairmentConfig::none().with_jitter(SimDuration::from_micros(100)));
        assert!(has_timing_impairment(&spec));
    }
}
