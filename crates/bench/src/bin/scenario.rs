//! Runs a declarative `.scn` scenario spec through the tool registry.
//!
//! Usage: `scenario <file.scn> [--csv]`, shorthand for the flag form
//! `scenario --scenario <file.scn> [--csv]`: without `--scenario`, the
//! first bare argument is the spec file, wherever it stands. Any other
//! argument prints the usage line and exits 2.
//!
//! See `tests/golden/scenarios/` for committed example specs and the
//! README's "Describing scenarios" section for the grammar.

use abw_bench::scenario::run_scenario;
use abw_bench::Args;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.iter().any(|a| a == "--scenario") {
        if let Some(file) = argv.iter().position(|a| !a.starts_with('-')) {
            argv.insert(file, "--scenario".to_string());
        }
    }
    let args = Args::parse_or_exit("scenario", &["--scenario FILE"], &argv);
    if !run_scenario("scenario", &args) {
        args.usage_error("needs a spec file: `scenario FILE`")
    }
}
