//! Runs every figure/table experiment (quick mode by default; pass
//! `--full` for the paper-scale parameters).
//!
//! The children are independent processes, so they fan out across the
//! `abw-exec` worker pool (`ABW_JOBS`, defaulting to all cores); their
//! output is captured and printed in submission order, so the combined
//! report reads identically at any worker count. When the parent runs
//! children concurrently, each child is pinned to `ABW_JOBS=1` — the
//! parallelism budget is spent once, between processes, not squared.
//!
//! Children inherit `ABW_MANIFEST` unchanged (each writes its own
//! `<name>.manifest.json`), but a shared `ABW_TRACE` path would be
//! truncated by every child in turn — so when it is set, each child
//! gets its own `<stem>-<bin>.jsonl` variant instead.
//!
//! Usage: `all [--full]` (`--quick`, the default, is accepted too, and
//! `--scenario FILE [--csv]` runs a spec instead, like every experiment
//! binary).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use abw_bench::Args;
use abw_exec::Executor;

/// `traces/run.jsonl` + `fig1` → `traces/run-fig1.jsonl`.
fn per_child_trace(base: &Path, bin: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let ext = base
        .extension()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "jsonl".to_string());
    base.with_file_name(format!("{stem}-{bin}.{ext}"))
}

fn main() {
    let args = Args::from_env("all", &["--full"]);
    if let Some(spec) = args.value("--scenario") {
        abw_bench::scenario::run_scenario_file("all", Path::new(spec));
        return;
    }
    let full = args.has("--full");
    let trace_base = std::env::var_os("ABW_TRACE").map(PathBuf::from);
    let bins = [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "table1",
        "exp_faster",
        "exp_capacity",
        "exp_trend",
        "exp_trains",
        "shootout",
    ];
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe directory");
    let exec = Executor::from_env();
    let concurrent = exec.workers() > 1;
    let jobs: Vec<_> = bins
        .iter()
        .map(|&bin| {
            let dir = dir.to_path_buf();
            let trace_base = trace_base.clone();
            move || {
                let mut cmd = Command::new(dir.join(bin));
                if !full {
                    cmd.arg("--quick");
                }
                if concurrent {
                    cmd.env("ABW_JOBS", "1");
                }
                if let Some(base) = &trace_base {
                    cmd.env("ABW_TRACE", per_child_trace(base, bin));
                }
                let output = cmd.output().unwrap_or_else(|e| {
                    panic!("failed to launch {bin}: {e} (build the workspace first)")
                });
                (bin, output)
            }
        })
        .collect();

    for (bin, output) in exec.run(jobs) {
        println!("==============================================================");
        println!("== {bin}");
        println!("==============================================================");
        std::io::stdout()
            .write_all(&output.stdout)
            .expect("write child stdout");
        std::io::stderr()
            .write_all(&output.stderr)
            .expect("write child stderr");
        assert!(
            output.status.success(),
            "{bin} exited with {}",
            output.status
        );
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_takes_full_and_the_shared_flags_only() {
        let parse = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            Args::parse("all", &["--full"], &argv)
        };
        assert!(parse("--full").unwrap().has("--full"));
        assert!(!parse("--quick").unwrap().has("--full"));
        let spec = parse("--scenario x.scn --csv").unwrap();
        assert_eq!(spec.value("--scenario"), Some("x.scn"));
        for bad in ["--ful", "--full --bogus", "--scenario"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
