//! `durable_ingest`: one writer applying a seeded city insert stream
//! with deletes and live-index reads to a `DurableDynamic`, then
//! reopening it.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use skq_core::dynamic::{DynamicOrpKw, ObjectHandle};
use skq_core::persist::Persist;
use skq_core::Dataset;
use skq_geom::Point;
use skq_invidx::Keyword;
use skq_store::durable::{CheckpointPolicy, DurabilityConfig, DurableDynamic};
use skq_store::wal::{SyncPolicy, Wal, WalConfig, WalOp};
use skq_store::FileBackend;
use skq_workload::queries::QueryGen;
use skq_workload::scenarios;

use crate::mix::{self, Query};
use crate::report::{Outcome, ACCOUNTING_TOLERANCE_PCT};
use crate::stats::{answer_digest, median, Dist, Fnv, Rng};
use crate::trace::{Trace, Tracer};
use crate::CORPUS_SEED;

/// Dimensionality of the ingested points.
const DIM: usize = 2;
/// Keywords per live-index read (the dynamic index's `k`).
const K: usize = 3;
/// One delete of a random live object after every this-many inserts.
const DELETE_EVERY: usize = 8;
/// One live-index read after every this-many inserts.
const READ_EVERY: usize = 4;
/// Every this-many reads is checked against the brute-force oracle.
const CHECK_EVERY: usize = 32;
/// WAL fsync cadence: `SyncPolicy::EveryN(SYNC_EVERY)`.
const SYNC_EVERY: u64 = 64;
/// Reopens timed for `cold_start_s` after each pass.
const REOPENS: usize = 2;

/// Sizes and policies of the ingest workload.
#[derive(Clone, Copy, Debug)]
pub struct IngestSpec {
    /// Inserted objects per stream.
    pub n: usize,
    /// Checkpoint after this many logged ops.
    pub checkpoint_every: u64,
}

impl IngestSpec {
    /// The full-size workload.
    pub fn full() -> Self {
        Self {
            n: 50_000,
            checkpoint_every: 10_000,
        }
    }

    /// Inserts applied at set-up, before the timed stream: the first
    /// fifth of the objects (a multiple of 8 at both scales, so the
    /// delete and read cadence is unchanged).
    fn preload(&self) -> usize {
        self.n / 5
    }

    fn config(&self) -> DurabilityConfig {
        DurabilityConfig {
            wal: WalConfig {
                sync: SyncPolicy::EveryN(SYNC_EVERY),
                ..WalConfig::default()
            },
            checkpoint: CheckpointPolicy {
                every_ops: self.checkpoint_every,
                every_bytes: u64::MAX,
            },
        }
    }
}

/// One op of the stream. Object ids equal insert ordinals, which are
/// also the objects' indices in the generated dataset.
enum Op {
    Insert(u32),
    Delete(u32),
    Read { query: Query, check: bool },
}

fn stream(dataset: &Dataset, spec: &IngestSpec, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut gen = QueryGen::new(dataset, seed ^ 0x1a9e57);
    let ext = mix::extent(dataset);
    let mut live: Vec<u32> = Vec::new();
    let mut ops = Vec::new();
    let mut reads = 0usize;
    for id in 0..spec.n as u32 {
        ops.push(Op::Insert(id));
        live.push(id);
        let done = id as usize + 1;
        if done <= spec.preload() {
            continue;
        }
        if done.is_multiple_of(DELETE_EVERY) {
            let victim = live.swap_remove(rng.below(live.len()));
            ops.push(Op::Delete(victim));
        }
        if done.is_multiple_of(READ_EVERY) {
            let sel = [0.01, 0.05][reads % 2];
            let query = if (reads / 2).is_multiple_of(2) {
                loop {
                    let o = live[rng.below(live.len())] as usize;
                    if let Some(keywords) =
                        mix::pick_keywords(dataset.doc(o).keywords(), K, &mut rng)
                    {
                        break Query {
                            rect: mix::centred_rect(dataset.point(o), &ext, sel),
                            keywords,
                        };
                    }
                }
            } else {
                Query {
                    keywords: mix::band_keywords(&mut gen, K, reads / 4),
                    rect: gen.rect(sel),
                }
            };
            ops.push(Op::Read {
                query,
                check: reads.is_multiple_of(CHECK_EVERY),
            });
            reads += 1;
        }
    }
    ops
}

fn digest(ops: &[Op]) -> u64 {
    let mut h = Fnv::default();
    let mut reads = Vec::new();
    for op in ops {
        match op {
            Op::Insert(id) => h.word(u64::from(*id) << 2 | 1),
            Op::Delete(id) => h.word(u64::from(*id) << 2 | 2),
            Op::Read { query, .. } => {
                h.word(3);
                reads.push(query.clone());
                h.word(mix::digest(&reads[reads.len() - 1..]));
            }
        }
    }
    h.finish()
}

/// What one pass over the stream saw.
#[derive(Default)]
struct Round {
    insert_ns: Vec<u64>,
    /// Latency of every write (insert or delete), by write ordinal.
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    read_answers: Vec<u64>,
    writes: u64,
    /// Stream time outside reads (and their checks), seconds.
    write_s: f64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    live: BTreeSet<u32>,
    index_bytes_per_point: f64,
    /// Opening the fresh index and applying the preload, seconds.
    setup_s: f64,
    /// Each reopen, seconds.
    reopen_s: Vec<f64>,
    /// WAL records the reopen replayed.
    replayed: u64,
    /// Size of the newest checkpoint file.
    checkpoint_bytes: u64,
}

/// One pass in a fresh directory: the stream (set-up included), then
/// reopening — recovery must give back exactly the acknowledged ops.
fn pass(
    spec: &IngestSpec,
    dataset: &Dataset,
    ops: &[Op],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let mut r = run_stream(spec, dataset, ops, dir, tracer)?;
    r.checkpoint_bytes = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len());
    let want = expected_live(dataset, &r.live);
    for _ in 0..REOPENS {
        let t = Instant::now();
        let (durable, report) =
            DurableDynamic::open(dir, DIM, K, spec.config()).map_err(|e| e.to_string())?;
        r.reopen_s.push(t.elapsed().as_secs_f64());
        r.replayed = report.replayed;
        r.attempted += 1;
        if live_digest(&durable.index().live_objects()) != want {
            r.mismatches += 1;
            r.failed += 1;
        }
    }
    Ok(r)
}

/// Set-up — opening a fresh index in `dir` and applying the preload
/// inserts at the head of `ops`, timed as a whole — then the rest of
/// `ops`, each op timed.
fn run_stream(
    spec: &IngestSpec,
    dataset: &Dataset,
    ops: &[Op],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let mut r = Round::default();
    let preload = spec.preload();
    let setup = Instant::now();
    let (mut durable, _) =
        DurableDynamic::open(dir, DIM, K, spec.config()).map_err(|e| e.to_string())?;
    let mut handles: Vec<Option<ObjectHandle>> = vec![None; dataset.len()];
    let mut out = Vec::new();
    let mut reading = Duration::ZERO;
    let mut start = setup;
    for (oi, op) in ops.iter().enumerate() {
        if oi == preload {
            r.setup_s = setup.elapsed().as_secs_f64();
            start = Instant::now();
        }
        r.attempted += 1;
        let span = tracer.id();
        match op {
            Op::Insert(id) => {
                let i = *id as usize;
                let (point, keywords) = (*dataset.point(i), dataset.doc(i).keywords().to_vec());
                let t0 = Instant::now();
                let res = durable.insert(point, keywords);
                let t1 = Instant::now();
                if oi >= preload {
                    tracer.record(span, 0, oi as u64, "durable.insert", t0, t1);
                    let ns = (t1 - t0).as_nanos() as u64;
                    r.insert_ns.push(ns);
                    r.write_ns.push(ns);
                    r.writes += 1;
                }
                match res {
                    Ok(h) if h.id() == u64::from(*id) => {
                        handles[i] = Some(h);
                        r.live.insert(*id);
                    }
                    _ => r.failed += 1,
                }
            }
            Op::Delete(id) => {
                let Some(h) = handles[*id as usize] else {
                    r.failed += 1;
                    continue;
                };
                let t0 = Instant::now();
                let res = durable.delete(h);
                let t1 = Instant::now();
                tracer.record(span, 0, oi as u64, "durable.delete", t0, t1);
                r.write_ns.push((t1 - t0).as_nanos() as u64);
                r.writes += 1;
                r.live.remove(id);
                if !matches!(res, Ok(true)) {
                    r.failed += 1;
                }
            }
            Op::Read { query, check } => {
                out.clear();
                let t0 = Instant::now();
                let res = durable
                    .index()
                    .try_query_into(&query.rect, &query.keywords, &mut out);
                let t1 = Instant::now();
                tracer.record(span, 0, oi as u64, "dynamic.query", t0, t1);
                r.read_ns.push((t1 - t0).as_nanos() as u64);
                if res.is_ok() {
                    let mut ids: Vec<u32> = out.iter().map(|h| h.id() as u32).collect();
                    ids.sort_unstable();
                    let got = answer_digest(&ids);
                    r.read_answers.push(got);
                    if *check && got != mix::oracle(dataset, query, |id| r.live.contains(&id)) {
                        r.mismatches += 1;
                        r.failed += 1;
                    }
                } else {
                    r.failed += 1;
                }
                reading += t0.elapsed();
            }
        }
    }
    r.write_s = (start.elapsed() - reading).as_secs_f64();
    let index = durable.index();
    r.index_bytes_per_point = index.space_words() as f64 * 8.0 / index.len().max(1) as f64;
    Ok(r)
}

fn live_digest(objects: &[(u64, Point, Vec<Keyword>)]) -> u64 {
    let mut h = Fnv::default();
    for (id, p, kws) in objects {
        h.word(*id);
        for d in 0..p.dim() {
            h.word(p.get(d).to_bits());
        }
        h.word(kws.len() as u64);
        for &w in kws {
            h.word(u64::from(w));
        }
    }
    h.finish()
}

fn expected_live(dataset: &Dataset, live: &BTreeSet<u32>) -> u64 {
    let objects: Vec<(u64, Point, Vec<Keyword>)> = live
        .iter()
        .map(|&id| {
            let i = id as usize;
            (
                u64::from(id),
                *dataset.point(i),
                dataset.doc(i).keywords().to_vec(),
            )
        })
        .collect();
    live_digest(&objects)
}

fn fresh(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Runs the ingest workload.
pub fn run(
    spec: IngestSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<(Outcome, Trace), String> {
    let dataset = scenarios::city(spec.n, CORPUS_SEED);
    let ops = stream(&dataset, &spec, seed);
    // Passes (each with its own set-up and reopen) until `seconds` have
    // passed, so every figure is a median over samples spread across
    // the run; the traced run makes one untraced and one traced pass.
    let origin = Instant::now();
    let mut trace = Trace::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    while rounds.is_empty()
        || (traced && rounds.len() < 2)
        || (!traced && started.elapsed().as_secs_f64() < seconds)
    {
        let mut tracer = Tracer::new(traced && rounds.len() == 1, origin, trace.reserve(1));
        let pass_dir = fresh(&dir.join(format!("pass-{}", rounds.len())))?;
        let round = pass(&spec, &dataset, &ops, &pass_dir, &mut tracer)?;
        let _ = std::fs::remove_dir_all(&pass_dir);
        trace.absorb(tracer.into_spans());
        rounds.push(round);
        if rounds.len() == 1 {
            // After one pass, so the figure does not grow with the
            // passes' samples a run keeps.
            peak_rss_mb = crate::sys::peak_rss_mb()?;
        }
    }
    let last = rounds.last().ok_or("no ingest pass ran")?;
    let mut out = Outcome {
        digest: digest(&ops),
        ..Outcome::default()
    };
    let writes = ops.iter().filter(|o| !matches!(o, Op::Read { .. })).count();
    out.note(format!(
        "sizes: corpus_seed={CORPUS_SEED} inserts={} (the first {} at set-up) writes={writes} reads={} (every {READ_EVERY} inserts past set-up, 1 in {CHECK_EVERY} checked) deletes every {DELETE_EVERY} inserts past set-up; flush SyncPolicy::EveryN({SYNC_EVERY}); checkpoint every {} ops; one writer thread",
        spec.n,
        spec.preload(),
        ops.len() - writes,
        spec.checkpoint_every
    ));
    for r in &rounds {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.mismatches += r.mismatches;
        if r.read_answers != rounds[0].read_answers {
            out.mismatches += 1;
            out.failed += 1;
        }
    }
    out.set_n(
        "setup_s",
        median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "s",
        rounds.len(),
    );
    let reopens: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reopen_s.iter().copied())
        .collect();
    let recover_s = median(&reopens);
    out.set_n("cold_start_s", recover_s, "s", reopens.len());
    out.note(format!(
        "set-up = DurableDynamic::open on a fresh directory + {} preload inserts (generating the corpus and op stream is not timed); cold start = DurableDynamic::open after a pass: checkpoint load + {} WAL records replayed",
        spec.preload(),
        last.replayed
    ));

    // End-to-end figures from the untraced passes. Every pass runs the
    // same reads: each read's latency is its median over the passes, so
    // a burst of interference during one pass moves no read's figure,
    // and p50/p99 are taken over the stream's reads. The write rate is
    // the median over passes.
    let untraced: &[Round] = if traced { &rounds[..1] } else { &rounds };
    let reads = Dist::new(
        (0..untraced[0].read_ns.len())
            .map(|i| {
                median(
                    &untraced
                        .iter()
                        .map(|r| r.read_ns[i] as f64 / 1e3)
                        .collect::<Vec<_>>(),
                )
            })
            .collect(),
    );
    let ops_per_s = median(
        &untraced
            .iter()
            .map(|r| r.writes as f64 / r.write_s)
            .collect::<Vec<_>>(),
    );
    let ins = Dist::new(
        untraced
            .iter()
            .flat_map(|r| &r.insert_ns)
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    out.set_n("latency_p50_us", reads.median(), "us", reads.len());
    out.set_n("latency_p99_us", reads.pct(99.0), "us", reads.len());
    out.set_n("ops_per_s", ops_per_s, "1/s", untraced.len());
    out.set("peak_rss_mb", peak_rss_mb, "MB");
    out.set(
        "index_bytes_per_point",
        last.index_bytes_per_point,
        "bytes/point",
    );
    out.note(format!(
        "ingest: {} untraced passes; latency = live-index read, p50/p99 over the stream's {} reads of each read's median over passes ({} beyond p99); ops_per_s = acknowledged durable writes per second of stream time outside reads, median over passes",
        untraced.len(),
        reads.len(),
        reads.beyond(99.0)
    ));
    out.note(format!(
        "also: insert_p50_us={:.2} insert_p99_us={:.2} (n={}, {} beyond p99) write_ops_per_s={ops_per_s:.1} recover_s={recover_s:.4}",
        ins.median(),
        ins.pct(99.0),
        ins.len(),
        ins.beyond(99.0)
    ));

    if traced {
        let traced_round = &rounds[1];
        per_layer(
            &mut out,
            &mut trace,
            &dataset,
            &ops,
            &spec,
            dir,
            traced_round,
            &rounds[0],
        )?;
        out.set("recover.replayed", traced_round.replayed as f64, "count");
        // Replayed records per second of a whole reopen (checkpoint
        // load, WAL scan and replay): replay is not timed on its own.
        out.set(
            "recover.records_per_s",
            traced_round.replayed as f64 / recover_s,
            "1/s",
        );
    }
    Ok((out, trace))
}

/// The traced run's per-layer measurements.
// Every argument is a distinct input of the traced run's analysis.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    trace: &mut Trace,
    dataset: &Dataset,
    ops: &[Op],
    spec: &IngestSpec,
    dir: &Path,
    traced: &Round,
    untraced: &Round,
) -> Result<(), String> {
    let us = |ns: u64| ns as f64 / 1e3;
    let reads = Dist::new(traced.read_ns.iter().map(|&ns| us(ns)).collect());
    out.set_p50_p99("durable.read_us", &reads, "us");
    let inserts = Dist::new(traced.insert_ns.iter().map(|&ns| us(ns)).collect());
    out.set_p50_p99("durable.insert_us", &inserts, "us");

    // The dynamic layer alone: an in-memory replica fed the same ops.
    let mut replica = DynamicOrpKw::new(DIM, K);
    let mut dyn_ns: HashMap<usize, u64> = HashMap::new();
    let (mut ins, mut qry) = (Vec::new(), Vec::new());
    let mut answers = traced.read_answers.iter();
    let mut out_ids = Vec::new();
    for (oi, op) in ops.iter().enumerate() {
        let t = Instant::now();
        match op {
            Op::Insert(id) => {
                let i = *id as usize;
                let (point, keywords) = (*dataset.point(i), dataset.doc(i).keywords().to_vec());
                let t = Instant::now();
                let res = replica.try_insert(point, keywords);
                let ns = t.elapsed().as_nanos() as u64;
                if !matches!(res, Ok(h) if h.id() == u64::from(*id)) {
                    out.failed += 1;
                }
                ins.push(us(ns));
                dyn_ns.insert(oi, ns);
            }
            Op::Delete(id) => {
                replica.delete_by_id(u64::from(*id));
                dyn_ns.insert(oi, t.elapsed().as_nanos() as u64);
            }
            Op::Read { query, .. } => {
                out_ids.clear();
                let t = Instant::now();
                let res = replica.try_query_into(&query.rect, &query.keywords, &mut out_ids);
                qry.push(us(t.elapsed().as_nanos() as u64));
                let mut ids: Vec<u32> = out_ids.iter().map(|h| h.id() as u32).collect();
                ids.sort_unstable();
                if res.is_err() || answers.next() != Some(&answer_digest(&ids)) {
                    out.mismatches += 1;
                    out.failed += 1;
                }
            }
        }
    }
    // A second replica finds the writes that rebuilt a block: they
    // change the block structure, not just the buffer and live set.
    // (`space_words` walks every block, so it stays out of the timed
    // pass above.)
    let mut probe = DynamicOrpKw::new(DIM, K);
    let (mut rebuild_ns, mut rebuilds) = (0u64, 0u64);
    for op in ops {
        let (words, blocks) = (probe.space_words() as i64, probe.num_blocks());
        let t = Instant::now();
        let plain = match op {
            Op::Insert(id) => {
                let i = *id as usize;
                let _ = probe.try_insert(*dataset.point(i), dataset.doc(i).keywords().to_vec());
                DIM as i64 + 6
            }
            Op::Delete(id) => {
                probe.delete_by_id(u64::from(*id));
                -2
            }
            Op::Read { .. } => continue,
        };
        let ns = t.elapsed().as_nanos() as u64;
        if probe.num_blocks() != blocks || probe.space_words() as i64 - words != plain {
            rebuild_ns += ns;
            rebuilds += 1;
        }
    }
    drop(probe);
    let ins = Dist::new(ins);
    out.set_p50_p99("dynamic.insert_us", &ins, "us");
    out.set("dynamic.rebuild_ms", rebuild_ns as f64 / 1e6, "ms");
    out.set("dynamic.rebuilds", rebuilds as f64, "count");
    out.set("dynamic.blocks", replica.num_blocks() as f64, "count");
    let qry = Dist::new(qry);
    out.set_n("dynamic.query_us.p50", qry.median(), "us", qry.len());

    // The WAL alone, in a directory of its own, same ops and policy.
    let wal_dir = fresh(&dir.join("wal-replica"))?;
    let (mut wal, _) = Wal::open(&wal_dir, spec.config().wal).map_err(|e| e.to_string())?;
    let mut wal_ns: HashMap<usize, u64> = HashMap::new();
    let mut syncs = Vec::new();
    let mut appended = 0u64;
    for (oi, op) in ops.iter().enumerate() {
        let rec = match op {
            Op::Insert(id) => {
                let i = *id as usize;
                WalOp::Insert {
                    id: u64::from(*id),
                    point: *dataset.point(i),
                    keywords: dataset.doc(i).keywords().to_vec(),
                }
            }
            Op::Delete(id) => WalOp::Delete { id: u64::from(*id) },
            Op::Read { .. } => continue,
        };
        let t = Instant::now();
        wal.append(&rec).map_err(|e| e.to_string())?;
        wal_ns.insert(oi, t.elapsed().as_nanos() as u64);
        appended += 1;
        if appended.is_multiple_of(1024) {
            let t = Instant::now();
            wal.sync().map_err(|e| e.to_string())?;
            syncs.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let app = Dist::new(wal_ns.values().map(|&ns| us(ns)).collect());
    out.set_p50_p99("wal.append_us", &app, "us");
    out.set_n("wal.sync_us", median(&syncs), "us", syncs.len());
    out.set(
        "wal.bytes_per_op",
        wal.bytes_appended() as f64 / appended.max(1) as f64,
        "bytes",
    );
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Checkpoints: the writes that crossed the cadence.
    let ckpt: Vec<f64> = traced
        .write_ns
        .iter()
        .enumerate()
        .filter(|(w, _)| ((spec.preload() + w + 1) as u64).is_multiple_of(spec.checkpoint_every))
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    out.set_n("durable.checkpoint_ms", median(&ckpt), "ms", ckpt.len());
    out.set(
        "durable.checkpoint_bytes",
        traced.checkpoint_bytes as f64,
        "bytes",
    );

    // The checkpoint codec on the final live set: encode, put, get, decode.
    let backend = FileBackend::new(fresh(&dir.join("persist"))?).map_err(|e| e.to_string())?;
    crate::persist_round_trip(
        out,
        &backend,
        &replica,
        replica.len(),
        DynamicOrpKw::try_from_bytes,
        |a, b| live_digest(&a.live_objects()) == live_digest(&b.live_objects()),
    )?;

    // Self time along the insert path: the replicas' dynamic and WAL
    // times are attributed under the durable insert of the same op.
    trace.attribute("wal.append", |s| wal_ns.get(&(s.req as usize)).copied());
    trace.attribute("dynamic.insert", |s| {
        (s.name == "durable.insert")
            .then(|| dyn_ns.get(&(s.req as usize)).copied())
            .flatten()
    });
    trace.attribute("dynamic.delete", |s| {
        (s.name == "durable.delete")
            .then(|| dyn_ns.get(&(s.req as usize)).copied())
            .flatten()
    });
    let layers = trace.self_us_by_layer("durable.insert");
    let mut sum = 0.0;
    for layer in ["durable", "dynamic", "wal"] {
        let m = Dist::new(layers.get(layer).cloned().unwrap_or_default()).median();
        sum += m;
        out.set_n(&format!("self_us.{layer}"), m, "us", traced.insert_ns.len());
    }
    let e2e = Dist::new(untraced.insert_ns.iter().map(|&ns| us(ns)).collect()).median();
    let pct = (sum - e2e) / e2e * 100.0;
    out.note(format!(
        "accounting: durable insert (durable + dynamic + wal self time): layers {sum:.3} us vs end-to-end {e2e:.3} us, gap {pct:+.1}% ({} {ACCOUNTING_TOLERANCE_PCT}%, informational)",
        if pct.abs() <= ACCOUNTING_TOLERANCE_PCT { "within" } else { "OUTSIDE" }
    ));
    out.set("accounting.latency_gap_pct", pct, "%");
    let rate = |r: &Round| r.writes as f64 / r.write_s;
    out.set(
        "trace.overhead_pct",
        (rate(untraced) - rate(traced)) / rate(untraced) * 100.0,
        "%",
    );
    Ok(())
}
