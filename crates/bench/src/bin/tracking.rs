//! Tracking a time-varying avail-bw: the cross source steps the single
//! hop 25 → 10 → 40 Mb/s while registry tools keep re-estimating over
//! one long-lived session, and the table reports how quickly each tool's
//! estimate followed the step.
//!
//! Usage: `tracking [--csv] [--quick] [--tools name,name,...]`

use abw_bench::reports::tracking_table;
use abw_bench::{experiment, f, Args, Format, RunManifest};
use abw_core::experiments::tracking::{self, TrackingConfig};
use abw_core::tools::registry;

/// The binary's own value flag.
const FLAGS: &[&str] = &["--tools NAME,NAME,..."];

/// The registry names a `--tools` list names, in order.
fn tools_from_list(list: &str) -> Result<Vec<&'static str>, String> {
    list.split(',')
        .map(|name| {
            registry::find(name)
                .map(|entry| entry.name)
                .ok_or_else(|| format!("`{name}` is not a registered tool"))
        })
        .collect()
}

fn main() {
    experiment("tracking", FLAGS, TrackingConfig::quick, report);
}

/// Runs the tracking experiment with `config`, its tools replaced by a
/// `--tools` list, and prints its table.
fn report(args: &Args, manifest: &mut RunManifest, mut config: TrackingConfig) {
    if let Some(list) = args.value("--tools") {
        config.tools = tools_from_list(list).unwrap_or_else(|e| args.usage_error(&e));
    }
    let format = args.format();
    manifest.param_str("tools", &config.tools.join(","));

    let result = tracking::run(&config);

    if format == Format::Text {
        let steps: Vec<String> = config.steps_bps.iter().map(|&b| f(b / 1e6, 0)).collect();
        println!(
            "Avail-bw tracking: steps {} Mb/s, {} rounds per step, \
             one session per tool (no simulator rebuild)\n",
            steps.join(" -> "),
            config.rounds_per_step,
        );
    }
    tracking_table(&result).print(format);

    if format == Format::Text {
        println!(
            "\nA `-` lag means no estimate of that phase landed within \
             {}% of the new truth — the avail-bw moved faster than the \
             tool's measurement latency, the paper's core argument for \
             treating A_tau(t) as a process rather than a number.",
            (TrackingConfig::default().in_band_fraction * 100.0) as u32
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tools(line: &str) -> Result<Option<Vec<&'static str>>, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let args = Args::parse("tracking", FLAGS, &argv)?;
        args.value("--tools").map(tools_from_list).transpose()
    }

    #[test]
    fn tools_take_registry_names_and_reject_others() {
        assert_eq!(tools("--quick --csv"), Ok(None));
        let pair = tools("--quick --tools spruce,pathload");
        assert_eq!(pair, Ok(Some(vec!["spruce", "pathload"])));
        let unknown = tools("--tools nosuch");
        assert_eq!(
            unknown,
            Err("`nosuch` is not a registered tool".to_string())
        );
        assert!(tools("--tools spruce,").is_err());
        let missing = tools("--quick --tools").unwrap_err();
        assert!(
            missing.starts_with("tracking: --tools needs a value\n"),
            "{missing}"
        );
    }
}
