//! # abw-exec
//!
//! A zero-dependency, std-only parallel executor for independent
//! simulation jobs.
//!
//! Every experiment in this workspace is a set of **embarrassingly
//! parallel** `(scenario, seed)` replications: each job builds its own
//! simulator, owns its own RNG stream (derived from the job's seed), and
//! never shares mutable state with its siblings. [`Executor::run`] fans
//! such jobs across a scoped thread pool and returns results **in
//! submission order**, regardless of completion order — so tables,
//! aggregate statistics and JSONL trace artifacts are byte-identical to
//! a serial run.
//!
//! ## Determinism contract
//!
//! 1. Jobs must be independent: no shared mutable state, no global RNG.
//! 2. Each worker runs its jobs under a thread-local `abw-obs` capture
//!    ([`abw_obs::global::begin_thread_capture`]): events a job's
//!    simulators emit are buffered per job instead of interleaving in
//!    the process-global recorder.
//! 3. At join time the event buffers replay into the process-global
//!    recorder **by job index**, in submission order. The cost counters
//!    (`abw_obs::prof`), which a run manifest reports, need no replay:
//!    each worker flushes its tallies as it retires, and their sums do
//!    not depend on order. The result is indistinguishable from having
//!    run the jobs serially.
//!
//! ## Worker count
//!
//! [`Executor::from_env`] reads `ABW_JOBS`: a positive integer fixes the
//! worker count (`ABW_JOBS=1` forces the fully serial in-thread path —
//! no worker threads, no capture buffering); `0`, garbage, or an unset
//! variable fall back to [`std::thread::available_parallelism`].
//!
//! ## Panics
//!
//! A panicking job does not hang or poison the run: the executor joins
//! all workers, then re-panics on the calling thread with the **lowest
//! panicking job index** in the message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use abw_obs::global;
use abw_obs::prof::{self, Cost};
use abw_obs::{OwnedEvent, Recorder as _, Value};

/// Environment variable selecting the worker count.
pub const JOBS_ENV: &str = "ABW_JOBS";

/// Parses an `ABW_JOBS`-style value: a positive integer is taken as-is;
/// `0`, garbage, or `None` yield `None` (caller falls back to the
/// available parallelism).
pub fn parse_jobs(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The number of hardware threads, with a serial fallback when the
/// platform cannot say.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A parallel executor with a fixed worker count.
///
/// Cheap to construct; experiments typically build one per run via
/// [`Executor::from_env`], or accept one from the caller for explicit
/// control (the serial-equivalence tests pin worker counts this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor with `workers` threads; `0` means "use the available
    /// parallelism".
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: if workers == 0 {
                available_workers()
            } else {
                workers
            },
        }
    }

    /// An executor configured from `ABW_JOBS` (see the module docs).
    ///
    /// A **set but unusable** `ABW_JOBS` (`0`, garbage) keeps the
    /// documented all-cores fallback, but is no longer silent: the
    /// first occurrence per process emits an `exec.jobs_fallback` obs
    /// event and a stderr warning, so a misconfigured CI leg that
    /// thinks it pinned the worker count is visible.
    pub fn from_env() -> Self {
        let raw = std::env::var(JOBS_ENV).ok();
        let parsed = raw.as_deref().and_then(|v| parse_jobs(Some(v)));
        if parsed.is_none() {
            if let Some(raw) = raw.as_deref() {
                warn_jobs_fallback(raw);
            }
        }
        Executor {
            workers: parsed.unwrap_or_else(available_workers),
        }
    }

    /// The strictly serial executor (`ABW_JOBS=1` equivalent).
    pub fn serial() -> Self {
        Executor { workers: 1 }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `jobs` and returns their results in submission order.
    ///
    /// With one worker (or one job, or when called from inside another
    /// executor's job) the jobs run serially on the calling thread with
    /// no buffering — the reference behaviour. Otherwise jobs are pulled
    /// by a scoped worker pool; each runs under a thread-local obs
    /// capture, and the captured events are replayed in job-index order
    /// at join time.
    ///
    /// Panics if any job panicked, naming the lowest panicking job
    /// index.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        prof::count_n(Cost::ExecJobs, n as u64);
        // Nested use (a job spawning its own executor) degrades to
        // serial: the enclosing capture already owns this thread's
        // event routing, and in-order inline execution keeps its
        // buffer identical to a serial run.
        if self.workers <= 1 || n == 1 || global::thread_capture_active() {
            return self.run_serial(jobs);
        }
        self.run_parallel(jobs)
    }

    /// The reference path: in-order, on the calling thread, events
    /// flowing straight to wherever they are routed.
    fn run_serial<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T,
    {
        jobs.into_iter()
            .map(|job| {
                let _span = prof::span("exec.job");
                job()
            })
            .collect()
    }

    fn run_parallel<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        let workers = self.workers.min(n);
        // Buffer events only when a recorder will replay them: buffering
        // events nobody reads wastes memory on the hot path. An untraced
        // job still runs under a capture, which keeps nested runs serial.
        let capture_events = global::global().is_some();

        struct Slot<T> {
            outcome: std::thread::Result<T>,
            events: Vec<OwnedEvent>,
        }

        let pending: Vec<Mutex<Option<F>>> =
            jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let slots: Vec<Mutex<Option<Slot<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let worker_started = Instant::now();
                    let mut busy_ns = 0u64;
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let job = pending[index]
                            .lock()
                            .expect("pending-job mutex poisoned")
                            .take()
                            .expect("each job is taken exactly once");
                        global::begin_thread_capture(capture_events);
                        let span = prof::span("exec.job");
                        let started = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(job));
                        busy_ns = busy_ns.saturating_add(started.elapsed().as_nanos() as u64);
                        drop(span);
                        let events = global::take_thread_capture();
                        if outcome.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        *slots[index].lock().expect("result-slot mutex poisoned") =
                            Some(Slot { outcome, events });
                    }
                    // worker retires: report its idle time (lifetime
                    // minus time in jobs) and fold this thread's
                    // profile/cost tallies into the process totals (span
                    // merge is name-keyed and counts sum, so the
                    // nondeterministic retire order cannot show)
                    let lifetime_ns = worker_started.elapsed().as_nanos() as u64;
                    prof::record("exec.worker.idle", 1, lifetime_ns.saturating_sub(busy_ns));
                    prof::flush_thread();
                });
            }
        });

        // Join in submission order. Surface the lowest-index panic
        // first (a `None` slot is a job that never started because a
        // panic elsewhere aborted the run — never the culprit), then
        // replay traces and collect results.
        let slots: Vec<Option<Slot<T>>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result-slot mutex poisoned"))
            .collect();
        if let Some((index, payload)) =
            slots
                .iter()
                .enumerate()
                .find_map(|(i, s)| match s.as_ref().map(|s| &s.outcome) {
                    Some(Err(payload)) => Some((i, payload)),
                    _ => None,
                })
        {
            panic!("job {index} panicked: {}", panic_message(payload.as_ref()));
        }
        let mut results = Vec::with_capacity(n);
        for slot in slots {
            let slot = slot.expect("no panic occurred, so every job ran");
            global::replay_into_global(&slot.events);
            results.push(match slot.outcome {
                Ok(value) => value,
                Err(_) => unreachable!("panics surfaced above"),
            });
        }
        results
    }
}

/// One-time guard for the `ABW_JOBS` fallback warning.
static JOBS_FALLBACK_WARNED: Once = Once::new();

/// Announces (once per process) that a set `ABW_JOBS` value could not
/// be used and the executor fell back to every core: a point event for
/// traces and a stderr line for humans.
fn warn_jobs_fallback(raw: &str) {
    JOBS_FALLBACK_WARNED.call_once(|| {
        let workers = available_workers();
        // deliberate operator-facing warning, not library chatter;
        // lint: allow(print)
        eprintln!(
            "warning: {JOBS_ENV}={raw:?} is not a positive integer; \
             falling back to all {workers} cores"
        );
        if let Some(mut recorder) = global::global() {
            recorder.instant(
                0,
                "exec.jobs_fallback",
                &[("value", Value::Str(raw)), ("workers", workers.into())],
            );
        }
    });
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order_under_adversarial_durations() {
        // earlier jobs sleep longer, so completion order is the exact
        // reverse of submission order
        let exec = Executor::new(4);
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(8 * (8 - i)));
                    i * 100
                }
            })
            .collect();
        let results = exec.run(jobs);
        assert_eq!(results, (0..8).map(|i| i * 100).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make_jobs = || {
            (0..20u64)
                .map(|i| move || i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            Executor::serial().run(make_jobs()),
            Executor::new(4).run(make_jobs())
        );
    }

    #[test]
    fn panicking_job_fails_the_run_with_its_index() {
        let exec = Executor::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("deliberate failure")),
                Box::new(|| 3),
            ];
            exec.run(jobs);
        }));
        let payload = caught.expect_err("run must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("job 1 panicked"),
            "message should name job 1: {message:?}"
        );
        assert!(
            message.contains("deliberate failure"),
            "message should carry the original payload: {message:?}"
        );
    }

    #[test]
    fn serial_executor_spawns_no_threads() {
        // thread identity proves the serial path stays on the caller
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..2)
            .map(|_| move || std::thread::current().id() == caller)
            .collect();
        let results = Executor::serial().run(jobs);
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn nested_runs_degrade_to_serial_without_deadlock() {
        let outer = Executor::new(4);
        let hits = AtomicU64::new(0);
        let results = outer.run(
            (0..4)
                .map(|_| {
                    let hits = &hits;
                    move || {
                        // inner executor inside a worker job: must inline
                        let inner = Executor::new(4);
                        let inner_results = inner.run(vec![|| 1u64, || 2u64]);
                        hits.fetch_add(1, Ordering::Relaxed);
                        inner_results.iter().sum::<u64>()
                    }
                })
                .collect(),
        );
        assert_eq!(results, vec![3, 3, 3, 3]);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn jobs_env_parsing_falls_back_on_zero_and_garbage() {
        assert_eq!(parse_jobs(Some("4")), Some(4));
        assert_eq!(parse_jobs(Some(" 2 ")), Some(2));
        assert_eq!(parse_jobs(Some("1")), Some(1));
        assert_eq!(parse_jobs(Some("0")), None, "0 falls back");
        assert_eq!(parse_jobs(Some("-3")), None, "negative falls back");
        assert_eq!(parse_jobs(Some("lots")), None, "garbage falls back");
        assert_eq!(parse_jobs(Some("")), None, "empty falls back");
        assert_eq!(parse_jobs(None), None, "unset falls back");
    }

    #[test]
    fn from_env_with_garbage_falls_back_to_all_cores() {
        let prev = std::env::var(JOBS_ENV).ok();
        std::env::set_var(JOBS_ENV, "lots");
        let exec = Executor::from_env();
        match prev {
            Some(v) => std::env::set_var(JOBS_ENV, v),
            None => std::env::remove_var(JOBS_ENV),
        }
        assert_eq!(exec.workers(), available_workers());
    }

    #[test]
    fn executor_new_zero_means_available_parallelism() {
        assert_eq!(Executor::new(0).workers(), available_workers());
        assert_eq!(Executor::new(7).workers(), 7);
        assert!(Executor::from_env().workers() >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<u8> = Executor::new(4).run(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
    }
}
