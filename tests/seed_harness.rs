//! The replay contract of `tests/common`, tested once for every seeded
//! battery: parsing `BTRACE_SEED`, and replay lines that re-run the
//! failing seed first under the failing stripe count or shape.

use common::{cases, failures, parse, Base, SUITE, SUITES, VAR};
use std::fmt::Debug;

mod common;

const BASE: u64 = 0x5EED_BA5E;

#[test]
fn parse_accepts_decimal_and_hex_and_ignores_other_suites() {
    assert_eq!(parse("query", "query:42"), Some(42));
    assert_eq!(parse("query", "query:0x2a"), Some(42));
    assert_eq!(parse("query", "query:0xFFFFFFFFFFFFFFFF"), Some(u64::MAX));
    assert_eq!(parse("query", "controller:not-a-seed"), None);
    assert_eq!(Base::from_value(None, 9), Base::pinned(9));
}

#[test]
fn parse_panics_on_garbage_naming_the_variable() {
    for value in ["", "42", "query", "query:", "query:0x", "query:-1", "query:4x2", "qurey:42"] {
        let panic = std::panic::catch_unwind(|| parse("query", value)).expect_err(value);
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains(VAR), "the panic for {value:?} must name {VAR}: {msg}");
    }
}

/// Fails the case at each batch index in turn (index 3 among them): its
/// one replay line must parse back to the failing seed, and the batch
/// `replay` builds from the line's base must run that seed first, under
/// the failing parameter.
fn assert_replays<P: Copy + Debug + PartialEq>(
    failing: &[(u64, P)],
    replay: impl Fn(Base) -> Vec<(u64, P)>,
) {
    for (index, &bad) in failing.iter().enumerate() {
        let lines = failures("batch", failing, |seed, p| assert!((seed, p) != bad, "at {index}"));
        assert_eq!(lines.len(), 1, "one replay line per failure");
        let line = lines[0].strip_prefix(&format!("{VAR}=")).expect("line sets the variable");
        let (value, command) = line.split_once(' ').expect("line runs a command");
        assert_eq!(command, format!("cargo test --test {SUITE} batch"));
        let base = Base::from_value(Some(value), !bad.0);
        assert_eq!(base, Base { seed: bad.0, replay: true });
        let rerun = replay(base);
        assert!(
            rerun.iter().take_while(|case| case.0 == bad.0).any(|&case| case == bad),
            "index {index}: {bad:?} is not among the first cases of {rerun:?}"
        );
    }
}

#[test]
fn replay_line_reruns_a_plain_seed_first() {
    let batch = |base| cases(base, 8, &[()], |_, _| ());
    assert_replays(&batch(Base::pinned(BASE)), batch);
}

#[test]
fn replay_line_reruns_a_seed_under_its_stripe_count() {
    // The sharded differential: the pinned batches run every seed at one
    // K, the fresh batch picks K by parity, and all replay through it.
    let fresh = |base| cases(base, 24, &[2, 4], |_, seed| [2, 4][(seed % 2) as usize]);
    for k in [2, 4] {
        assert_replays(&cases(Base::pinned(BASE), 8, &[k], |_, _| k), fresh);
    }
    assert_replays(&fresh(Base::pinned(BASE)), fresh);
}

#[test]
fn replay_line_reruns_a_seed_under_its_shape() {
    // The controller: case i runs shape i mod 3.
    let batch = |base| cases(base, 6, &[0, 1, 2], |i, _| i % 3);
    assert_replays(&batch(Base::pinned(BASE)), batch);
}

#[test]
fn every_suite_runs_on_the_harness() {
    for suite in SUITES {
        let path = format!("{}/tests/{suite}.rs", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(source.contains("\nmod common;\n"), "{path} must include the harness");
    }
}
