//! Golden pins for the scenario DSL.
//!
//! The `.scn` files under `tests/golden/scenarios/` are the canonical
//! renderings of the shootout, loss-sweep and tracking configurations.
//! Each test (a) builds the same spec programmatically and asserts
//! `to_spec` reproduces the committed bytes exactly, (b) reparses the
//! file and asserts structural equality, and (c) proves a DSL-built
//! scenario is bit-identical to the hand-built Rust one by comparing
//! the verdict CSV both sides produce over three seeds.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! ABW_UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! ```
//! then commit the diff under `tests/golden/scenarios/` with the reason.

use std::path::Path;

use abw_exec::Executor;
use abw_netsim::impair::ImpairmentConfig;
use abw_netsim::SimDuration;
use abwe::core::experiments::shootout::shootout_tools;
use abwe::core::scenario::dsl::{run_specs, ScenarioSpec};
use abwe::core::scenario::fuzz::outcome_line;
use abwe::core::scenario::{CrossKind, HopSpec, Scenario, SingleHopConfig};
use abwe::core::tools::registry::{self, ToolConfig};

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/scenarios")
        .join(name)
}

fn check_golden(name: &str, spec: &ScenarioSpec) {
    let path = golden_path(name);
    let rendered = spec.to_spec();
    if std::env::var_os("ABW_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/scenarios");
        std::fs::write(&path, &rendered).expect("write golden spec");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run with ABW_UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "{name}: to_spec drifted from the committed golden spec;\n\
         if the change is intentional, regenerate with ABW_UPDATE_GOLDEN=1"
    );
    let reparsed = ScenarioSpec::parse(&committed, path.to_str().unwrap())
        .expect("committed golden spec must parse");
    assert_eq!(
        spec, &reparsed,
        "{name}: parse is not the inverse of to_spec"
    );
}

/// The shootout configuration: canonical Poisson hop, the first three
/// default seeds, every avail-bw tool (capacity excluded, as in the
/// experiment).
fn shootout_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "shootout-quick".to_string(),
        seeds: vec![11, 22, 33],
        tools: shootout_tools().map(|t| t.name.to_string()).collect(),
        hops: vec![HopSpec::canonical(CrossKind::Poisson)],
        ..ScenarioSpec::default()
    }
}

/// One cell of the loss sweep: canonical hop with 1% i.i.d. loss, the
/// whole registry (no `tools` line = every tool, as in the experiment).
fn loss_sweep_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "loss-sweep-quick".to_string(),
        seeds: vec![11, 22, 33],
        hops: vec![HopSpec::canonical(CrossKind::Poisson)
            .with_impairment(ImpairmentConfig::iid_loss(0.01))],
        ..ScenarioSpec::default()
    }
}

/// The tracking configuration's first phase: delphi and ptr re-estimate
/// over one live session (three rounds, no simulator rebuild).
fn tracking_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "tracking-quick".to_string(),
        seeds: vec![0x77AC],
        tools: vec!["delphi".to_string(), "ptr".to_string()],
        rounds: 3,
        hops: vec![HopSpec::canonical(CrossKind::Poisson)],
        ..ScenarioSpec::default()
    }
}

#[test]
fn shootout_spec_matches_golden() {
    check_golden("shootout.scn", &shootout_spec());
}

#[test]
fn loss_sweep_spec_matches_golden() {
    check_golden("loss_sweep.scn", &loss_sweep_spec());
}

#[test]
fn tracking_spec_matches_golden() {
    check_golden("tracking.scn", &tracking_spec());
}

/// Renders the verdict CSV a hand-built Rust scenario produces for the
/// given tools × seeds, driving `rounds` fresh estimators over one live
/// session per cell — the construction every experiment binary uses.
fn rust_built_csv(
    build: &dyn Fn(u64) -> Scenario,
    tools: &[&str],
    seeds: &[u64],
    rounds: u32,
    tool_config: &ToolConfig,
) -> String {
    let mut lines = Vec::new();
    for tool_name in tools {
        let entry = registry::find(tool_name).expect("registered tool");
        for &seed in seeds {
            let mut s = build(seed);
            let mut session = s.session();
            for round in 0..rounds {
                let mut tool = entry.build(tool_config);
                let verdict = session.drive(&mut s.sim, tool.as_mut());
                lines.push(outcome_line(&abwe::core::scenario::dsl::SpecOutcome {
                    tool: entry.name,
                    seed,
                    round,
                    verdict,
                }));
            }
        }
    }
    lines.join("\n")
}

fn dsl_csv(spec: &ScenarioSpec) -> String {
    run_specs(std::slice::from_ref(spec), &Executor::new(1))
        .iter()
        .map(outcome_line)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn dsl_built_shootout_matches_rust_built() {
    // trim to the two cheapest tools: the equality claim is about the
    // construction path, not the tool set (pinned by the golden above)
    let mut spec = shootout_spec();
    spec.tools = vec!["spruce".to_string(), "ptr".to_string()];

    let rust = rust_built_csv(
        &|seed| {
            let mut s = Scenario::single_hop(&SingleHopConfig {
                cross: CrossKind::Poisson,
                seed,
                ..SingleHopConfig::default()
            });
            s.warm_up(SimDuration::from_millis(500));
            s
        },
        &["spruce", "ptr"],
        &[11, 22, 33],
        1,
        &ToolConfig {
            tight_capacity_bps: 50e6,
            quick: true,
        },
    );
    assert_eq!(dsl_csv(&spec), rust);
}

#[test]
fn dsl_built_loss_sweep_matches_rust_built() {
    let mut spec = loss_sweep_spec();
    spec.tools = vec!["spruce".to_string(), "ptr".to_string()];

    let rust = rust_built_csv(
        &|seed| {
            let mut s = Scenario::single_hop(&SingleHopConfig {
                cross: CrossKind::Poisson,
                impairment: Some(ImpairmentConfig::iid_loss(0.01)),
                seed,
                ..SingleHopConfig::default()
            });
            s.warm_up(SimDuration::from_millis(500));
            s
        },
        &["spruce", "ptr"],
        &[11, 22, 33],
        1,
        &ToolConfig {
            tight_capacity_bps: 50e6,
            quick: true,
        },
    );
    assert_eq!(dsl_csv(&spec), rust);
}

#[test]
fn dsl_built_tracking_matches_rust_built() {
    let spec = tracking_spec();

    let rust = rust_built_csv(
        &|seed| {
            let mut s = Scenario::from_hops(vec![HopSpec::canonical(CrossKind::Poisson)], seed);
            s.warm_up(SimDuration::from_millis(500));
            s
        },
        &["delphi", "ptr"],
        &[0x77AC],
        3,
        &ToolConfig {
            tight_capacity_bps: 50e6,
            quick: true,
        },
    );
    assert_eq!(dsl_csv(&spec), rust);
}
