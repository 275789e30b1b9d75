//! JSONL trace **byte** identity across worker counts, and cost-counter
//! identity between traced and untraced runs.
//!
//! `ABW_TRACE` artifacts are part of the executor's determinism
//! contract: a parallel run must produce the exact same bytes as a
//! serial run, because workers buffer their events thread-locally and
//! the executor replays the buffers in job-index order through the same
//! JSONL formatter. These tests install an in-memory process-global
//! recorder, run an experiment at 1 and 4 workers, and diff the raw
//! bytes. A recorder must not change what runs either, so a traced run
//! counts exactly the events, packets and fluid windows of an untraced
//! one.
//!
//! The process-global recorder and the cost-counter totals are shared
//! state, so every test here holds `GLOBAL_LOCK` — and trace tests live
//! in this separate integration binary so they cannot interleave with
//! other tests' simulators.

use std::io;
use std::sync::{Arc, Mutex, OnceLock};

use abw_core::experiments::loss_sweep::{self, LossSweepConfig};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::experiments::train_length::{self, TrainLengthConfig};
use abw_exec::Executor;
use abw_obs::prof::{self, Cost};
use abw_obs::JsonlRecorder;

static GLOBAL_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK
        .get_or_init(Mutex::default)
        .lock()
        .expect("global test lock poisoned")
}

/// A cloneable in-memory sink: the recorder writes through one handle
/// while the test keeps another to read the bytes back out.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("buffer poisoned").clone()
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `work` with an in-memory global JSONL recorder installed and
/// returns the trace bytes it produced.
fn traced<F: FnOnce()>(work: F) -> Vec<u8> {
    let buf = SharedBuf::default();
    abw_obs::global::set_global(JsonlRecorder::new(buf.clone()));
    work();
    abw_obs::global::clear_global();
    buf.bytes()
}

#[test]
fn shootout_trace_bytes_are_identical_across_worker_counts() {
    let _guard = global_lock();
    let config = ShootoutConfig {
        seeds: vec![7, 11],
        ..ShootoutConfig::quick()
    };
    let serial = traced(|| {
        shootout::run_with(&config, &Executor::new(1));
    });
    let parallel = traced(|| {
        shootout::run_with(&config, &Executor::new(4));
    });
    assert!(!serial.is_empty(), "trace must not be empty");
    assert_eq!(
        serial, parallel,
        "JSONL trace bytes diverged between 1 and 4 workers"
    );
}

#[test]
fn loss_sweep_trace_bytes_are_identical_across_worker_counts() {
    let _guard = global_lock();
    // one lossy rate and one seed: eleven cells whose lossy streams'
    // `probe.stream` lines go through the executor's replay
    let config = LossSweepConfig {
        loss_rates: vec![0.01],
        ..LossSweepConfig::quick()
    };
    let serial = traced(|| {
        loss_sweep::run_with(&config, &Executor::new(1));
    });
    let parallel = traced(|| {
        loss_sweep::run_with(&config, &Executor::new(4));
    });
    assert!(
        serial.windows(12).any(|w| w == b"probe.stream"),
        "trace must carry the stream events"
    );
    assert_eq!(
        serial, parallel,
        "JSONL trace bytes diverged between 1 and 4 workers"
    );
}

#[test]
fn train_length_trace_bytes_are_identical_across_worker_counts() {
    let _guard = global_lock();
    let config = TrainLengthConfig {
        repetitions: 3,
        packet_budget: 120,
        ..TrainLengthConfig::quick()
    };
    let serial = traced(|| {
        train_length::run_with(&config, &Executor::new(1));
    });
    let parallel = traced(|| {
        train_length::run_with(&config, &Executor::new(4));
    });
    assert!(!serial.is_empty(), "trace must not be empty");
    assert_eq!(
        serial, parallel,
        "JSONL trace bytes diverged between 1 and 4 workers"
    );
}

#[test]
fn cost_totals_are_identical_across_worker_counts() {
    let _guard = global_lock();
    let config = TrainLengthConfig {
        repetitions: 2,
        packet_budget: 120,
        ..TrainLengthConfig::quick()
    };
    // the counts a run manifest reports: every simulator adds its
    // totals as it is dropped, and every worker flushes as it retires
    let totals = |workers: usize| {
        let before = prof::snapshot();
        train_length::run_with(&config, &Executor::new(workers));
        prof::snapshot().delta(&before)
    };
    let serial = totals(1);
    let parallel = totals(4);
    assert!(serial.get(Cost::Injected) > 0, "the runs simulate packets");
    assert!(serial.get(Cost::SimTimeNs) > 0);
    assert_eq!(serial.entries(), parallel.entries());
}

#[test]
fn traced_and_untraced_runs_have_identical_cost_counters() {
    let _guard = global_lock();
    let config = ShootoutConfig {
        seeds: vec![7, 11],
        ..ShootoutConfig::quick()
    };
    // watching a run must not change what runs: the same events, RNG
    // draws and fluid windows with a recorder installed as without
    let totals = || {
        let before = prof::snapshot();
        shootout::run_with(&config, &Executor::new(1));
        prof::snapshot().delta(&before)
    };
    let untraced = totals();
    let mut traced_totals = None;
    let trace = traced(|| traced_totals = Some(totals()));
    let traced_totals = traced_totals.expect("the traced run ran");
    assert!(!trace.is_empty(), "the traced run wrote a trace");
    assert!(untraced.get(Cost::FluidPackets) > 0, "the fluid window ran");
    for ((name, a), (_, b)) in untraced.entries().into_iter().zip(traced_totals.entries()) {
        assert_eq!(a, b, "cost counter `{name}`: untraced {a} != traced {b}");
    }
}

#[test]
fn fuzz_trace_holds_the_serial_leg_once() {
    use abw_core::scenario::dsl;
    use abw_core::scenario::fuzz::{self, FuzzConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let _guard = global_lock();
    // seed 3 generates light scenarios; two workers make the parallel
    // leg run on real worker threads
    let mut config = FuzzConfig::new(3, 1);
    config.jobs = 2;
    let mut report = None;
    let fuzzed = traced(|| report = Some(fuzz::run(&config)));
    let report = report.expect("the fuzz run ran");
    assert!(report.failures.is_empty(), "seed 3 must pass");
    // the parallel and fluid-off legs are compared with the serial one,
    // not recorded: the trace is one serial traced run of the spec
    let spec = fuzz::gen_spec(&mut StdRng::seed_from_u64(3), 3, 0);
    let serial = traced(|| {
        dsl::run_specs(std::slice::from_ref(&spec), &Executor::serial());
    });
    assert!(!serial.is_empty(), "the serial run wrote a trace");
    assert_eq!(
        String::from_utf8_lossy(&fuzzed),
        String::from_utf8_lossy(&serial)
    );
}
