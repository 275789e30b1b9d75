//! JSONL trace **byte** identity across worker counts.
//!
//! `ABW_TRACE` artifacts are part of the executor's determinism
//! contract: a parallel run must produce the exact same bytes as a
//! serial run, because workers buffer their events thread-locally and
//! the executor replays the buffers in job-index order through the same
//! JSONL formatter. These tests install an in-memory process-global
//! recorder, run an experiment at 1 and 4 workers, and diff the raw
//! bytes.
//!
//! The process-global recorder is shared state, so every test here
//! holds `GLOBAL_LOCK` — and trace tests live in this separate
//! integration binary so they cannot interleave with other tests'
//! simulators.

use std::io;
use std::sync::{Arc, Mutex, OnceLock};

use abw_core::experiments::loss_sweep::{self, LossSweepConfig};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::experiments::train_length::{self, TrainLengthConfig};
use abw_exec::Executor;
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
    // one lossy rate and one seed: eleven cells, about the shootout
    // case's trace size, and the only case whose trace carries
    // impairment events through the executor's replay
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
        serial.windows(16).any(|w| w == b"link.impair_loss"),
        "trace must carry impairment events"
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
fn manifest_totals_are_identical_across_worker_counts() {
    let _guard = global_lock();
    let config = TrainLengthConfig {
        repetitions: 2,
        packet_budget: 120,
        ..TrainLengthConfig::quick()
    };
    let totals = |workers: usize| {
        abw_obs::global::begin_manifest_capture();
        train_length::run_with(&config, &Executor::new(workers));
        abw_obs::global::take_manifest().expect("manifest capture active")
    };
    let serial = totals(1);
    let parallel = totals(4);
    assert!(!serial.counters.is_empty(), "manifest must have counters");
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.sim_time_ns, parallel.sim_time_ns);
    assert_eq!(serial.links, parallel.links);
}
