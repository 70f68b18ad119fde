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

/// The value under the first `key` met depth-first in `value`.
fn first_mut<'a>(value: &'a mut serde::Value, key: &str) -> Option<&'a mut serde::Value> {
    match value {
        serde::Value::Map(entries) => {
            for (k, v) in entries.iter_mut() {
                if k == key {
                    return Some(v);
                }
                if let Some(found) = first_mut(v, key) {
                    return Some(found);
                }
            }
            None
        }
        serde::Value::Seq(items) => items.iter_mut().find_map(|item| first_mut(item, key)),
        _ => None,
    }
}

/// Damages a snapshot's model payloads in place.
type Mutation = fn(&mut serde::Value);

/// Drops the last element of the sequence under the first `key`.
fn shorten(models: &mut serde::Value, key: &str) {
    match first_mut(models, key) {
        Some(serde::Value::Seq(items)) => {
            items.pop();
        }
        other => panic!("`{key}` is not a sequence: {other:?}"),
    }
}

#[test]
fn model_payloads_whose_parts_disagree_in_width_are_a_typed_error() {
    let problem = OpAmpProblem::new();
    let config = BoConfig::fast(6, 14)
        .with_seed(5)
        .with_refit_policy(nnbo_core::RefitPolicy::nll_drift(0.5));
    let bo = BayesOpt::neural_with(config, EnsembleConfig::fast());
    let mut state = bo.start(&problem).expect("start");
    for _ in 0..3 {
        assert!(bo.step(&problem, &mut state).expect("step"));
    }
    let stored = serde::json::from_str(&bo.snapshot(&state).to_json()).expect("parse");

    let mutations: [(&str, Mutation, &str); 5] = [
        ("a bias one short", |m| shorten(m, "bias"), "DenseLayer"),
        ("v one short", |m| shorten(m, "v"), "NeuralGp"),
        (
            "weights with rows and cols swapped",
            |m| {
                let weights = first_mut(m, "weights").expect("a layer's weights");
                let rows = first_mut(weights, "rows").expect("rows").clone();
                let cols = std::mem::replace(first_mut(weights, "cols").expect("cols"), rows);
                *first_mut(weights, "rows").expect("rows") = cols;
            },
            "DenseLayer",
        ),
        ("alpha one short", |m| shorten(m, "alpha"), "NeuralGp"),
        ("a network one layer short", |m| shorten(m, "layers"), "Mlp"),
    ];
    for (what, mutate, names) in mutations {
        let mut snapshot = stored.clone();
        let models = first_mut(&mut snapshot, "models").expect("the snapshot holds models");
        mutate(models);
        let text = serde::json::to_string(&snapshot);
        let snapshot = BoSnapshot::from_json(&text).expect("the JSON itself is well formed");
        match bo.resume(&snapshot) {
            Err(BoError::SnapshotMismatch { details }) => {
                assert!(details.contains(names), "{what}: {details}");
            }
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(_) => panic!("{what}: resumed a model payload whose widths disagree"),
        }
    }

    // The unmutated payload still resumes and steps.
    let text = serde::json::to_string(&stored);
    let mut resumed = bo
        .resume(&BoSnapshot::from_json(&text).expect("parse"))
        .expect("resume");
    assert!(bo.step(&problem, &mut resumed).expect("resumed step"));
}
