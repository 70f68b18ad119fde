//! Hostile matrix shapes in stored snapshots: a snapshot written through
//! `SessionStore` whose model payload declares a matrix shape that does not
//! match its data must be refused by `resume` with a typed error, where it
//! used to resume and then panic inside the first `step`.

use std::path::PathBuf;

use nnbo_core::problems::OpAmpProblem;
use nnbo_core::{BayesOpt, BoConfig, BoError, BoSnapshot, EnsembleConfig};
use nnbo_serve::SessionStore;

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("nnbo-serve-shapes-{}", std::process::id()))
}

/// Replaces the first occurrence of `from` in `text`, which must exist.
fn mutate(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "snapshot holds no `{from}`");
    text.replacen(from, to, 1)
}

#[test]
fn stored_snapshot_with_a_mutated_matrix_shape_is_a_typed_error() {
    let problem = OpAmpProblem::new();
    let bo = BayesOpt::neural_with(BoConfig::fast(6, 14).with_seed(5), EnsembleConfig::fast());
    let mut state = bo.start(&problem).expect("start");
    for _ in 0..2 {
        assert!(bo.step(&problem, &mut state).expect("step"));
    }
    let store = SessionStore::open(scratch_dir()).expect("store opens");
    store
        .persist("s", &bo.snapshot(&state).to_json())
        .expect("persist");
    let stored = store
        .load("s")
        .expect("load")
        .expect("session exists")
        .snapshot_json;
    let _ = std::fs::remove_dir_all(store.dir());

    // `"rows":32` is a neural-GP feature matrix (M = 32), `"cols":10` a
    // first-layer weight matrix over the op-amp's 10 design variables.
    for (from, to) in [
        ("\"rows\":32", "\"rows\":31"),
        ("\"cols\":10", "\"cols\":3"),
    ] {
        let mutated = mutate(&stored, from, to);
        let snapshot = BoSnapshot::from_json(&mutated).expect("the JSON itself is well formed");
        match bo.resume(&snapshot) {
            Err(BoError::SnapshotMismatch { details }) => {
                assert!(details.contains("Matrix of shape"), "{from}: {details}");
            }
            Err(other) => panic!("{from} → {to}: unexpected error {other}"),
            Ok(_) => panic!("{from} → {to}: resumed a snapshot whose shapes do not match"),
        }
    }

    // The unmutated bytes still resume, and the resumed run finishes
    // bit-identically to the uninterrupted one.
    let mut resumed = bo
        .resume(&BoSnapshot::from_json(&stored).expect("parse"))
        .expect("resume");
    while bo.step(&problem, &mut state).expect("step") {}
    while bo.step(&problem, &mut resumed).expect("resumed step") {}
    let (reference, result) = (bo.finish(state), bo.finish(resumed));
    assert_eq!(result.evaluations(), reference.evaluations());
    assert_eq!(result.full_refits(), reference.full_refits());
    assert_eq!(result.recovery(), reference.recovery());
}
