//! End-to-end benchmark of the structured keyword search system:
//! served queries, cold start and durable ingest, with a traced run
//! that times each layer's public calls from outside.
//!
//! Workloads (one per process):
//!
//! * `serve_city` — [`serve::Scenario::City`]: 2-D city, suite built,
//!   saved through `FileBackend`, loaded back and served.
//! * `serve_sensors3d` — [`serve::Scenario::Sensors3d`]: 3-D sensor
//!   net on the dimension-reduction tree, rebuilt at set-up.
//! * `durable_ingest` — [`ingest`]: one writer on a `DurableDynamic`.

#![forbid(unsafe_code)]

pub mod ingest;
pub mod mix;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use report::Outcome;
use skq_core::persist::Persist;
use skq_core::SkqError;
use skq_store::{FileBackend, IndexBackend};
use stats::median;
use trace::Trace;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: &[&str] = &["serve_city", "serve_sensors3d", "durable_ingest"];

/// Seed of the generated corpus (the indexed objects): `--seed` varies
/// the request and op streams over this fixed corpus, so seed-to-seed
/// spread measures the system, not how heavy a corpus's most frequent
/// keywords happen to be.
pub const CORPUS_SEED: u64 = 1;

/// Input size: `Full` is the benchmark, `Small` the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few thousand objects, for tests.
    Small,
}

/// Runs one workload on the corpus from [`CORPUS_SEED`] with request /
/// op streams from `seed`; scratch files go under `dir`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    dir: &Path,
) -> Result<(Outcome, Trace), String> {
    let small = scale == Scale::Small;
    let serve_spec = |scenario| {
        let mut spec = serve::ServeSpec::full(scenario);
        if small {
            spec.n = 4_000;
            spec.pool = 256;
            spec.setups = 2;
            spec.warmup = 32;
            spec.loads = 2;
        }
        spec
    };
    match workload {
        "serve_city" => serve::run(
            serve_spec(serve::Scenario::City),
            seed,
            seconds,
            traced,
            dir,
        ),
        "serve_sensors3d" => serve::run(
            serve_spec(serve::Scenario::Sensors3d),
            seed,
            seconds,
            traced,
            dir,
        ),
        "durable_ingest" => {
            let mut spec = ingest::IngestSpec::full();
            if small {
                spec.n = 3_000;
                spec.checkpoint_every = 1_000;
            }
            ingest::run(spec, seed, seconds, traced, dir)
        }
        other => Err(format!(
            "unknown workload {other} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Times a snapshot's four steps on `value` three times each —
/// `Persist::to_bytes`, `FileBackend::put`, `FileBackend::get`,
/// `decode` — and records `persist.encode_s`, `store.put_s`,
/// `store.get_s`, `persist.decode_s` (medians) and
/// `persist.snapshot_bytes_per_point` over `points`. A round trip whose
/// bytes or decoded value (by `same`) differ counts as a failure.
pub(crate) fn persist_round_trip<T: Persist>(
    out: &mut Outcome,
    backend: &FileBackend,
    value: &T,
    points: usize,
    decode: impl Fn(&[u8]) -> Result<T, SkqError>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(), String> {
    let err = |e: SkqError| e.to_string();
    let (mut enc, mut put, mut get, mut dec) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut size = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let bytes = value.to_bytes().map_err(err)?;
        enc.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        backend.put("round-trip", &bytes).map_err(err)?;
        put.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let raw = backend.get("round-trip").map_err(err)?;
        get.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let loaded = decode(&raw).map_err(err)?;
        dec.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if raw != bytes || !same(&loaded, value) {
            out.mismatches += 1;
            out.failed += 1;
        }
        size = bytes.len();
    }
    out.set_n("persist.encode_s", median(&enc), "s", enc.len());
    out.set_n("store.put_s", median(&put), "s", put.len());
    out.set_n("store.get_s", median(&get), "s", get.len());
    out.set_n("persist.decode_s", median(&dec), "s", dec.len());
    out.set(
        "persist.snapshot_bytes_per_point",
        size as f64 / points.max(1) as f64,
        "bytes/point",
    );
    Ok(())
}
