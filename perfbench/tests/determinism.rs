//! Seed determinism: one seed gives the same input stream and the same
//! counts twice; another seed gives another stream. Runs the workloads
//! at small scale.

use std::path::PathBuf;

use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{run, Scale, WORKLOADS};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn small(workload: &str, seed: u64) -> Outcome {
    let dir = scratch(&format!("{workload}-{seed}"));
    let (out, trace) = run(workload, seed, 0.3, true, Scale::Small, &dir).expect("workload runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.correct(), "{workload} seed {seed}: {out:?}");
    assert!(
        !trace.is_empty(),
        "{workload}: the traced run recorded no spans"
    );
    out
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.get(name)
        .unwrap_or_else(|| panic!("{name} not measured"))
        .value
}

fn assert_same_counts(a: &Outcome, b: &Outcome, names: &[&str]) {
    assert_eq!(a.digest, b.digest, "same seed, different input stream");
    for name in names {
        assert_eq!(
            value(a, name),
            value(b, name),
            "{name} differs between runs of one seed"
        );
    }
}

#[test]
fn serve_city_repeats_for_a_seed() {
    let (a, b) = (small("serve_city", 7), small("serve_city", 7));
    assert_same_counts(
        &a,
        &b,
        &[
            "core.nodes_visited_per_q",
            "core.list_scans_per_q",
            "core.pivot_scans_per_q",
            "core.reported_per_q",
            "index_bytes_per_point",
            "persist.snapshot_bytes_per_point",
        ],
    );
    assert_ne!(
        small("serve_city", 8).digest,
        a.digest,
        "another seed, same input stream"
    );
    // The request path's layers account for the served time.
    assert!(value(&a, "self_us.serve") > 0.0 && value(&a, "self_us.core") > 0.0);
}

#[test]
fn serve_sensors3d_runs_the_dimension_reduction_tree() {
    let (a, b) = (small("serve_sensors3d", 7), small("serve_sensors3d", 7));
    assert_same_counts(
        &a,
        &b,
        &[
            "core.nodes_visited_per_q",
            "core.type2_nodes_per_q",
            "index_bytes_per_point",
        ],
    );
    assert!(value(&a, "core.type2_nodes_per_q") > 0.0);
}

#[test]
fn durable_ingest_repeats_for_a_seed() {
    let (a, b) = (small("durable_ingest", 7), small("durable_ingest", 7));
    assert_same_counts(
        &a,
        &b,
        &[
            "wal.bytes_per_op",
            "recover.replayed",
            "index_bytes_per_point",
            "dynamic.rebuilds",
            "dynamic.blocks",
        ],
    );
    assert!(value(&a, "recover.replayed") > 0.0);
    assert!(value(&a, "self_us.wal") > 0.0 && value(&a, "self_us.dynamic") > 0.0);
    assert_ne!(
        small("durable_ingest", 8).digest,
        a.digest,
        "another seed, same op stream"
    );
}

#[test]
fn benchmark_json_lists_what_the_runs_print() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} missing"
        );
    }
    for m in END_TO_END {
        assert!(
            text.contains(&format!("\"name\": \"{m}\"")),
            "end-to-end metric {m} missing"
        );
    }
    for (m, unit) in PER_LAYER {
        assert!(
            text.contains(&format!("\"name\": \"{m}\", \"unit\": \"{unit}\"")),
            "per-layer metric {m} ({unit}) missing"
        );
    }
    let listed = text.matches("\"better\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "metric count");
}
