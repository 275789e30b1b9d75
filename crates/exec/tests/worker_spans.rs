//! The executor's span report: one `exec.job` span per job and one
//! `exec.worker.idle` leaf per worker, and no second copy of job time.
//!
//! Profiling is process-global, so this check has a test binary of its
//! own.

use std::sync::atomic::{AtomicU64, Ordering};

use abw_exec::Executor;
use abw_obs::prof;

/// Deterministic fake clock: each read advances 100 ns.
fn fake_clock() -> u64 {
    static TICK: AtomicU64 = AtomicU64::new(0);
    TICK.fetch_add(100, Ordering::Relaxed)
}

#[test]
fn parallel_run_reports_job_spans_and_worker_idle_time() {
    prof::enable(fake_clock);
    let results = Executor::new(3).run((0..6u64).map(|i| move || i * 2).collect::<Vec<_>>());
    prof::disable();
    assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    let profile = prof::take_profile();
    let calls = |name: &str| profile.node_stats(&[name]).map(|(count, _)| count);
    assert_eq!(calls("exec.job"), Some(6), "one span per job");
    assert_eq!(calls("exec.worker.idle"), Some(3), "one leaf per worker");
    // the whole tree: a worker's busy time is the sum of its job spans,
    // so no other node reports it a second time
    let report = profile.render();
    let mut nodes: Vec<&str> = report
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    nodes.sort_unstable();
    assert_eq!(nodes, ["exec.job", "exec.worker.idle"], "{report}");
}
