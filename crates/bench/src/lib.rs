//! # abw-bench
//!
//! The experiment harness: one binary per figure/table of the paper
//! (`fig1` … `fig7`, `table1`, `exp_*`), the tool studies (`shootout`,
//! `loss_sweep`, `tracking`), the `all` runner, and the `scenario` and
//! `fuzz_scenarios` drivers of `.scn` specs. Performance is measured end
//! to end by the separate `perfbench` package (see the root
//! `BENCHMARK.json`).
//!
//! Binaries print the same rows/series the paper reports, as aligned
//! text tables; pass `--csv` to any binary to get comma-separated output
//! instead (for plotting). Each experiment binary's `main` is one call
//! to [`experiment`].
//!
//! ## Observability
//!
//! Every binary opens a [`Session`], which reads three environment
//! variables:
//!
//! * `ABW_TRACE=path.jsonl` — installs a process-global JSONL recorder;
//!   every simulator the run creates streams its events there
//!   (byte-identical across runs with the same seeds);
//! * `ABW_MANIFEST=dir` — writes `dir/<name>.manifest.json` describing
//!   the run when the session finishes: name, version (`git describe`
//!   of the source tree), seeds, parameters, wall-clock time, and the
//!   binary's own counters followed by the cost counters
//!   (`abw_obs::prof`), simulated time among them;
//! * `ABW_PROF=1` — enables span profiling: when the session finishes,
//!   a merged span tree (inclusive wall time across all workers) and
//!   the same cost counters are printed to stderr.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use abw_obs::JsonlRecorder;
pub use abw_obs::RunManifest;

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

/// The `ABW_TRACE` recorder: the process global writes through one
/// handle, and [`Session::finish`] reads the first write error back
/// through the other.
type TraceSink = Arc<Mutex<JsonlRecorder<BufWriter<File>>>>;

/// One experiment-binary run: wires `ABW_TRACE` / `ABW_MANIFEST` into
/// the observability layer and owns the run's [`RunManifest`].
///
/// Call [`Session::start`] first thing in `main` and
/// [`Session::finish`] last; everything in between is optional.
pub struct Session {
    manifest: RunManifest,
    manifest_dir: Option<PathBuf>,
    trace: Option<(PathBuf, TraceSink)>,
    profiling: bool,
    started: Instant,
}

impl Session {
    /// Starts a session for the binary `name`, reading `ABW_TRACE` and
    /// `ABW_MANIFEST` from the environment. Trace-file errors are
    /// reported to stderr rather than aborting the experiment: one that
    /// prevents creating the file disables tracing, and one hit while
    /// writing is reported by [`Session::finish`].
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
        let mut trace = None;
        if let Some(path) = trace_path {
            match JsonlRecorder::create(&path) {
                Ok(recorder) => {
                    let sink = Arc::new(Mutex::new(recorder));
                    abw_obs::global::set_global(Arc::clone(&sink));
                    trace = Some((path, sink));
                }
                Err(e) => eprintln!("ABW_TRACE: cannot create {}: {e}", path.display()),
            }
        }
        let profiling = prof_requested();
        if profiling {
            abw_obs::prof::enable(prof_clock_nanos);
        }
        let mut manifest = RunManifest::new(name);
        // the worker count the executor will use (ABW_JOBS or the
        // available parallelism)
        manifest.param_u64("workers", abw_exec::Executor::from_env().workers() as u64);
        Session {
            manifest,
            manifest_dir,
            trace,
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
        self.trace.is_some()
    }

    /// Finishes the session: reads the cost counters once, flushes and
    /// uninstalls the global recorder (reporting on stderr the first
    /// error hit while writing the trace), stamps the wall-clock time,
    /// and, when `ABW_MANIFEST` was set, detects the version and writes
    /// the manifest with the cost counters after the binary's own.
    pub fn finish(mut self) {
        // the main thread's open tally plus every retired worker's
        let costs = abw_obs::prof::snapshot();
        if self.profiling {
            let profile = abw_obs::prof::take_profile();
            eprintln!("{}", profile.render());
            eprintln!("cost counters (process totals):");
            for (name, value) in costs.entries() {
                eprintln!("  {name:<20} {value:>14}");
            }
        }
        if let Some((path, sink)) = self.trace.take() {
            abw_obs::global::clear_global(); // flushes first
            let recorder = sink.lock().expect("trace recorder mutex poisoned");
            if let Some(e) = recorder.io_error() {
                eprintln!("ABW_TRACE: cannot write {}: {e}", path.display());
            }
        }
        self.manifest.wall_time_secs = self.started.elapsed().as_secs_f64();
        if let Some(dir) = self.manifest_dir.take() {
            self.manifest.version = abw_obs::manifest::detect_version();
            for (name, value) in costs.entries() {
                self.manifest.counter(name, value);
            }
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

/// A binary's parsed command line.
#[derive(Debug)]
pub struct Args {
    name: String,
    usage: String,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `argv` (the program name excluded) for the binary `name`.
    /// Every binary accepts `--csv` and `--quick`; `flags` are its own,
    /// a value flag written with its metavar (`"--tools NAME,..."`) and
    /// taking the next argument as its value. An unknown argument, or a
    /// value flag with nothing after it, is an error ending with the
    /// usage line.
    pub fn parse(name: &str, flags: &[&str], argv: &[String]) -> Result<Args, String> {
        let flags = [["--csv", "--quick"].as_slice(), flags].concat();
        let usage: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        let usage = format!("usage: {name}{usage}");
        let fail = |msg: String| Err(format!("{name}: {msg}\n{usage}"));
        let mut given = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(flag) = flags
                .iter()
                .find(|f| f.split(' ').next() == Some(arg.as_str()))
            else {
                return fail(format!("unknown argument `{arg}`"));
            };
            let value = if !flag.contains(' ') {
                None
            } else if let Some(value) = argv.next() {
                Some(value.clone())
            } else {
                return fail(format!("{arg} needs a value"));
            };
            given.push((arg.clone(), value));
        }
        let name = name.to_string();
        Ok(Args { name, usage, given })
    }

    /// [`Args::parse_or_exit`] over the process's command line.
    pub fn from_env(name: &str, flags: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_or_exit(name, flags, &argv)
    }

    /// [`Args::parse`]; on an error it prints the message on stderr and
    /// exits with status 2.
    pub fn parse_or_exit(name: &str, flags: &[&str], argv: &[String]) -> Args {
        Args::parse(name, flags, argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// True when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value given to the first `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f == flag)?.1.as_deref()
    }

    /// The output format `--csv` selects.
    pub fn format(&self) -> Format {
        if self.has("--csv") {
            Format::Csv
        } else {
            Format::Text
        }
    }

    /// Prints `msg` and the usage line on stderr and exits with status
    /// 2, for a flag value the binary cannot use.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        std::process::exit(2)
    }
}

/// The `main` of every experiment binary. It parses the command line
/// with `--scenario FILE` and the binary's own `flags`, and runs the
/// spec instead of the experiment when one is given. Otherwise it opens
/// a [`Session`] named `name`, records the `mode` param, and hands the
/// `quick` config (under `--quick`) or `C::default()` to `body`, which
/// runs the experiment, prints it and may add params to the manifest.
pub fn experiment<C: Default>(
    name: &str,
    flags: &[&str],
    quick: fn() -> C,
    body: impl FnOnce(&Args, &mut RunManifest, C),
) {
    let args = Args::from_env(name, &[["--scenario FILE"].as_slice(), flags].concat());
    if scenario::run_scenario(name, &args) {
        return;
    }
    let mut session = Session::start(name);
    let quick_mode = args.has("--quick");
    session
        .manifest()
        .param_str("mode", if quick_mode { "quick" } else { "full" });
    let config = if quick_mode { quick() } else { C::default() };
    body(&args, session.manifest(), config);
    session.finish();
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

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse("bin", &["--scenario FILE", "--full", "--tools T"], &argv)
    }

    #[test]
    fn args_take_the_shared_and_the_binarys_own_flags() {
        let args = parse("--quick --csv --scenario x.scn --full --tools a,b --tools c").unwrap();
        assert!(args.has("--quick") && args.has("--full"));
        assert_eq!(args.format(), Format::Csv);
        assert_eq!(args.value("--scenario"), Some("x.scn"));
        assert_eq!(args.value("--tools"), Some("a,b"), "the first value wins");
        let args = parse("").unwrap();
        assert!(!args.has("--quick"));
        assert_eq!(
            (args.format(), args.value("--scenario")),
            (Format::Text, None)
        );
    }

    #[test]
    fn args_reject_unknown_flags_and_missing_values() {
        let usage = "usage: bin [--csv] [--quick] [--scenario FILE] [--full] [--tools T]";
        for (line, msg) in [
            ("--quik --csv", "unknown argument `--quik`"),
            ("--bogus", "unknown argument `--bogus`"),
            ("results.csv", "unknown argument `results.csv`"),
            ("--quick --csv --scenario", "--scenario needs a value"),
            ("--tools", "--tools needs a value"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, format!("bin: {msg}\n{usage}"), "{line}");
        }
    }

    #[test]
    fn session_manifest_reports_cost_totals() {
        let dir = std::env::temp_dir().join(format!("abw-session-test-{}", std::process::id()));
        let mut session = Session::start_with("session-test", None, Some(dir.clone()));
        session
            .manifest()
            .param_str("mode", "test")
            .counter("own.count", 3);
        {
            let mut sim = abw_netsim::Simulator::new();
            let _ = sim.add_link(abw_netsim::LinkConfig::new(
                1e6,
                abw_netsim::SimDuration::ZERO,
            ));
            sim.run_until(abw_netsim::SimTime::from_nanos(5));
        } // dropped here → adds its totals to the cost counters
        session.finish();
        let json = std::fs::read_to_string(dir.join("session-test.manifest.json"))
            .expect("manifest written");
        assert!(json.contains("\"mode\":\"test\""), "{json}");
        assert!(
            json.contains("\"counters\":{\"own.count\":3,\"events_popped\":"),
            "the binary's own counters come first: {json}"
        );
        for name in ["sim_time_ns", "injected", "link_impaired", "exec.jobs"] {
            assert!(json.contains(&format!("\"{name}\":")), "{name}: {json}");
        }
        assert!(!json.contains("\"links\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
