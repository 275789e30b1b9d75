//! Scenario DSL round-trip properties and deny-fixtures.
//!
//! The round-trip property leans on the fuzzer's own generator: every
//! spec `gen_spec` can produce must render with `to_spec` and reparse
//! to an identical `ScenarioSpec`, and the canonical form must be a
//! fixpoint. The deny-fixtures pin exact `file:line:col` diagnostics
//! for committed malformed specs, so error positions cannot drift
//! silently.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use abwe::core::scenario::dsl::ScenarioSpec;
use abwe::core::scenario::fuzz;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(to_spec(s)) == s for every generated spec.
    #[test]
    fn round_trip_is_exact(seed in 0u64..1 << 48, index in 0u32..64) {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let spec = fuzz::gen_spec(&mut rng, seed, index);
        let rendered = spec.to_spec();
        let reparsed = ScenarioSpec::parse(&rendered, "round-trip.scn")
            .expect("generated spec must reparse");
        prop_assert_eq!(&spec, &reparsed, "canonical form:\n{}", rendered);
        // canonical form is a fixpoint
        prop_assert_eq!(rendered, reparsed.to_spec());
    }
}

fn parse_fixture(
    name: &str,
) -> (
    String,
    Result<ScenarioSpec, abwe::core::scenario::dsl::ParseError>,
) {
    let path = format!("tests/fixtures/scn/{name}");
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let result = ScenarioSpec::parse(&src, &path);
    (path, result)
}

#[test]
fn deny_fixture_unknown_key() {
    let (path, result) = parse_fixture("unknown_key.scn");
    let e = result.expect_err("unknown key must be rejected");
    assert_eq!(
        e.to_string(),
        format!(
            "{path}:4:1: unknown key `wat` (expected seeds, warmup, rounds, quick, tools, \
             or a `hop` line)"
        ),
    );
}

#[test]
fn deny_fixture_loss_out_of_range() {
    let (path, result) = parse_fixture("loss_out_of_range.scn");
    let e = result.expect_err("loss above 1 must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 30), "{e}");
    assert!(e.message.contains("out of [0, 1]"), "{e}");
}

#[test]
fn deny_fixture_latency_overflow() {
    // past 2^53 ns a duration would saturate and overflow simulated time
    let (path, result) = parse_fixture("latency_overflow.scn");
    let e = result.expect_err("a latency past 2^53 ns must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 31), "{e}");
    assert!(e.message.contains("exceeds 2^53 ns"), "{e}");
}

#[test]
fn deny_fixture_duplicate_hop_key() {
    let (path, result) = parse_fixture("dup_hop_key.scn");
    let e = result.expect_err("duplicate hop key must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 35), "{e}");
    assert_eq!(
        e.message,
        "duplicate hop key `capacity` (each key may appear once)"
    );
}
