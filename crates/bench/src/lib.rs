//! # abw-bench
//!
//! The experiment harness: one binary per figure/table of the paper
//! (`fig1` … `fig7`, `table1`, `exp_faster`, `exp_capacity`, and the
//! `all` runner). Performance is measured end to end by the separate
//! `perfbench` package (see the root `BENCHMARK.json`).
//!
//! Binaries print the same rows/series the paper reports, as aligned
//! text tables; pass `--csv` to any binary to get comma-separated output
//! instead (for plotting).
//!
//! ## Observability
//!
//! Every binary opens a [`Session`], which reads two environment
//! variables:
//!
//! * `ABW_TRACE=path.jsonl` — installs a process-global JSONL recorder;
//!   every simulator the run creates streams its events there
//!   (byte-identical across runs with the same seeds);
//! * `ABW_MANIFEST=dir` — writes `dir/<name>.manifest.json` describing
//!   the run (version, parameters, wall-clock time) when the session
//!   finishes;
//! * `ABW_PROF=1` — enables span profiling: when the session finishes,
//!   a merged span tree (inclusive wall time across all workers) and
//!   the hot-path cost counters are printed to stderr.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use abw_obs::{JsonlRecorder, RunManifest};

pub mod reports;
pub mod scenario;

/// Monotonic nanoseconds since the first call, for
/// [`abw_obs::prof::enable`]. Lives here (not in `abw-obs`) because the
/// observability crate is wall-clock-free by lint rule D1; the harness
/// is where time is allowed to exist.
pub fn prof_clock_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// True when `ABW_PROF` asks for profiling (set and not `0`/empty).
fn prof_requested() -> bool {
    std::env::var("ABW_PROF").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One experiment-binary run: wires `ABW_TRACE` / `ABW_MANIFEST` into
/// the observability layer and owns the run's [`RunManifest`].
///
/// Call [`Session::start`] first thing in `main` and
/// [`Session::finish`] last; everything in between is optional.
pub struct Session {
    manifest: RunManifest,
    manifest_dir: Option<PathBuf>,
    tracing: bool,
    profiling: bool,
    started: Instant,
}

impl Session {
    /// Starts a session for the binary `name`, reading `ABW_TRACE` and
    /// `ABW_MANIFEST` from the environment. Trace-file errors are
    /// reported to stderr and disable tracing rather than aborting the
    /// experiment.
    pub fn start(name: &str) -> Session {
        Session::start_with(
            name,
            std::env::var_os("ABW_TRACE").map(PathBuf::from),
            std::env::var_os("ABW_MANIFEST").map(PathBuf::from),
        )
    }

    /// [`Session::start`] with explicit destinations (testable without
    /// touching the process environment).
    pub fn start_with(
        name: &str,
        trace_path: Option<PathBuf>,
        manifest_dir: Option<PathBuf>,
    ) -> Session {
        let mut tracing = false;
        if let Some(path) = trace_path {
            match JsonlRecorder::create(&path) {
                Ok(recorder) => {
                    abw_obs::global::set_global(recorder);
                    tracing = true;
                }
                Err(e) => eprintln!("ABW_TRACE: cannot create {}: {e}", path.display()),
            }
        }
        if manifest_dir.is_some() {
            // every simulator the run creates folds its totals in on drop
            abw_obs::global::begin_manifest_capture();
        }
        let profiling = prof_requested();
        if profiling {
            abw_obs::prof::enable(prof_clock_nanos);
        }
        let mut manifest = RunManifest::new(name);
        // the worker count the executor will use (ABW_JOBS or the
        // available parallelism) — per-job wall times land in the
        // manifest's exec.run* extras at executor join time
        manifest.param_u64("workers", abw_exec::Executor::from_env().workers() as u64);
        Session {
            manifest,
            manifest_dir,
            tracing,
            profiling,
            started: Instant::now(),
        }
    }

    /// The run manifest, for recording seeds and parameters.
    pub fn manifest(&mut self) -> &mut RunManifest {
        &mut self.manifest
    }

    /// True when `ABW_TRACE` installed a recorder.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Finishes the session: flushes and uninstalls the global
    /// recorder, absorbs the simulation totals captured while the run
    /// executed, stamps the wall-clock time, and writes the manifest
    /// when `ABW_MANIFEST` was set.
    pub fn finish(mut self) {
        if self.profiling {
            // the main thread's open tally plus every retired worker's
            abw_obs::prof::flush_thread();
            let profile = abw_obs::prof::take_profile();
            eprintln!("{}", profile.render());
            let costs = abw_obs::prof::snapshot();
            eprintln!("hot-path cost counters (process totals):");
            for (name, value) in costs.entries() {
                eprintln!("  {name:<20} {value:>14}");
            }
        }
        if self.tracing {
            abw_obs::global::clear_global();
        }
        if let Some(captured) = abw_obs::global::take_manifest() {
            self.manifest.absorb(captured);
        }
        self.manifest.wall_time_secs = self.started.elapsed().as_secs_f64();
        if let Some(dir) = self.manifest_dir.take() {
            if let Err(e) = self.manifest.write_to(&dir) {
                eprintln!("ABW_MANIFEST: cannot write to {}: {e}", dir.display());
            }
        }
    }
}

/// Output format selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned columns.
    Text,
    /// Comma-separated values.
    Csv,
}

/// Parses the standard binary arguments (`--csv`).
pub fn format_from_args() -> Format {
    if std::env::args().any(|a| a == "--csv") {
        Format::Csv
    } else {
        Format::Text
    }
}

/// A simple column-aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders in the requested format.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Csv => {
                let mut out = String::new();
                let _ = writeln!(out, "{}", self.header.join(","));
                for r in &self.rows {
                    let _ = writeln!(out, "{}", r.join(","));
                }
                out
            }
            Format::Text => {
                let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
                for r in &self.rows {
                    for (w, c) in widths.iter_mut().zip(r) {
                        *w = (*w).max(c.len());
                    }
                }
                let mut out = String::new();
                let fmt_row = |cells: &[String], widths: &[usize]| {
                    cells
                        .iter()
                        .zip(widths)
                        .map(|(c, w)| format!("{c:>w$}"))
                        .collect::<Vec<_>>()
                        .join("  ")
                };
                let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
                let _ = writeln!(
                    out,
                    "{}",
                    widths
                        .iter()
                        .map(|w| "-".repeat(*w))
                        .collect::<Vec<_>>()
                        .join("  ")
                );
                for r in &self.rows {
                    let _ = writeln!(out, "{}", fmt_row(r, &widths));
                }
                out
            }
        }
    }

    /// Prints to stdout.
    pub fn print(&self, format: Format) {
        print!("{}", self.render(format));
    }
}

/// Formats a float with the given precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_render_aligns() {
        let mut t = Table::new(vec!["a", "long_column"]);
        t.row(vec!["1", "2"]);
        let s = t.render(Format::Text);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long_column"));
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn csv_render() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.render(Format::Csv), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn session_captures_sim_totals_on_drop() {
        let dir = std::env::temp_dir().join(format!("abw-session-test-{}", std::process::id()));
        let mut session = Session::start_with("session-test", None, Some(dir.clone()));
        session.manifest().param_str("mode", "test");
        {
            let mut sim = abw_netsim::Simulator::new();
            let _ = sim.add_link(abw_netsim::LinkConfig::new(
                1e6,
                abw_netsim::SimDuration::ZERO,
            ));
            sim.run_until(abw_netsim::SimTime::from_nanos(5));
        } // dropped here → folds into the session's global capture
        session.finish();
        let json = std::fs::read_to_string(dir.join("session-test.manifest.json"))
            .expect("manifest written");
        assert!(json.contains("\"injected\":0"), "{json}");
        assert!(json.contains("\"link\":\"0\""), "{json}");
        assert!(json.contains("\"mode\":\"test\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
