//! Golden regression tests for the `--quick` CSV artifacts.
//!
//! `shootout --quick --csv`, `table1 --quick --csv` and
//! `loss_sweep --quick --csv` must keep producing the exact bytes
//! checked in under `tests/golden/`, and so must the raw quick-config
//! results of the four experiments that drive tools one by one
//! (Figures 2 and 6, Pitfall 5, Fallacy 3) — the
//! tables are deterministic (seeded simulations, fixed rounding), so
//! any diff is a behaviour change: an estimator edit, a scenario edit,
//! an RNG change, or an executor ordering bug. The tests render through
//! the same `abw_bench::reports` code path the binaries use.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! ABW_UPDATE_GOLDEN=1 cargo test --test golden_quick
//! ```
//! then commit the diff under `tests/golden/` with the reason.

use std::path::Path;

use abw_bench::reports::{loss_sweep_table, shootout_table, table1_table};
use abw_bench::Format;
use abw_core::experiments::latency_accuracy::{self, LatencyAccuracyConfig};
use abw_core::experiments::loss_sweep::{self, LossSweepConfig};
use abw_core::experiments::pairs_vs_trains::{self, PairsVsTrainsConfig};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::experiments::tight_vs_narrow::{self, TightVsNarrowConfig};
use abw_core::experiments::timescale_knob::{self, TimescaleConfig};
use abw_core::experiments::variation_range::{self, VariationRangeConfig};

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("ABW_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run with ABW_UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the checked-in golden output;\n\
         if the change is intentional, regenerate with \
         ABW_UPDATE_GOLDEN=1 and commit the diff"
    );
}

#[test]
fn shootout_quick_csv_matches_golden() {
    let result = shootout::run(&ShootoutConfig::quick());
    check_golden(
        "shootout_quick.csv",
        &shootout_table(&result).render(Format::Csv),
    );
}

#[test]
fn table1_quick_csv_matches_golden() {
    let result = pairs_vs_trains::run(&PairsVsTrainsConfig::quick());
    check_golden(
        "table1_quick.csv",
        &table1_table(&result).render(Format::Csv),
    );
}

/// The only golden over impaired links: every tool on the single-hop
/// path at 0, 0.1, 1 and 5 % i.i.d. ingress loss.
#[test]
fn loss_sweep_quick_csv_matches_golden() {
    let result = loss_sweep::run(&LossSweepConfig::quick());
    check_golden(
        "loss_sweep_quick.csv",
        &loss_sweep_table(&result).render(Format::Csv),
    );
}

/// The experiments that drive one estimator at a time through a
/// `Session`: each quick result's `Debug` text, one line per experiment.
/// `f64`'s `Debug` output round-trips, so the file pins every bit.
#[test]
fn session_driven_experiments_match_golden() {
    let fig2 = timescale_knob::run(&TimescaleConfig::quick());
    let fig6 = variation_range::run(&VariationRangeConfig::quick());
    let capacity = tight_vs_narrow::run(&TightVsNarrowConfig::quick());
    let faster = latency_accuracy::run(&LatencyAccuracyConfig::quick());
    let text =
        format!("fig2 {fig2:?}\nfig6 {fig6:?}\nexp_capacity {capacity:?}\nexp_faster {faster:?}\n");
    check_golden("session_experiments_quick.txt", &text);
}
