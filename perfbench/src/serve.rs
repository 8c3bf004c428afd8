//! `serve_city` and `serve_sensors3d`: a suite built, (for 2-D) saved
//! and loaded back, then served by a worker pool to closed-loop
//! clients.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use skq_core::naive::{KeywordsFirst, StructuredFirst};
use skq_core::orp::OrpKwIndex;
use skq_core::suite::OrpKwSuite;
use skq_core::{Dataset, QueryGuard, QueryStats, SkqError};
use skq_invidx::InvertedIndex;
use skq_serve::{Request, Server, ServerConfig};
use skq_store::{FileBackend, IndexBackend};
use skq_workload::scenarios;

use crate::mix::{self, Query};
use crate::report::{Outcome, ACCOUNTING_TOLERANCE_PCT};
use crate::stats::{answer_digest, median, windowed, Dist, Windows};
use crate::trace::{Trace, Tracer};
use crate::CORPUS_SEED;

/// Largest keyword count with a dedicated index.
pub const K_MAX: usize = 3;
/// Worker threads in the pool.
pub const WORKERS: usize = 2;
/// Closed-loop clients (each waits for its reply before the next).
pub const CLIENTS: usize = 2;
/// Times each pooled request is replayed directly in the traced run.
const REPLAYS: usize = 3;
/// Every this-many pooled request is also run on the naive baselines.
const NAIVE_EVERY: usize = 8;

/// Which dataset a serve workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// `scenarios::city`, 2-D: kd framework, snapshot save and load.
    City,
    /// `scenarios::sensor_net`, 3-D: dimension-reduction tree, no
    /// snapshot codec, so cold start rebuilds.
    Sensors3d,
}

/// Sizes of a serve workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Scenario.
    pub scenario: Scenario,
    /// Objects.
    pub n: usize,
    /// Distinct requests, cycled by the clients.
    pub pool: usize,
    /// Set-ups per run, each followed by a serving segment (setup
    /// metrics are their medians).
    pub setups: usize,
    /// Requests served after each set-up before timing starts.
    pub warmup: usize,
    /// Extra cold starts timed for `cold_start_s` before each set-up
    /// but the first: a snapshot load (2-D) or a rebuild (3-D).
    pub loads: usize,
}

impl ServeSpec {
    /// The full-size workload.
    pub fn full(scenario: Scenario) -> Self {
        Self {
            scenario,
            n: 100_000,
            pool: 8192,
            setups: 3,
            warmup: 512,
            // A 3-D rebuild takes seconds, a 2-D load a fifth of one.
            loads: match scenario {
                Scenario::City => 3,
                Scenario::Sensors3d => 1,
            },
        }
    }
}

/// One served request as the client saw it.
struct Sample {
    pool_idx: usize,
    /// Seconds from the phase start to the reply.
    done_s: f64,
    latency_ns: u64,
    submit_ns: u64,
    wait_ns: u64,
    answer: u64,
    /// Id of the traced `serve.wait` span (0 untraced).
    wait_span: u64,
}

/// What the clients of one served phase saw. A run serves in several
/// segments, one after each set-up, so its figures span the whole run.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Latencies (µs) per time window, over every segment.
    windows: Vec<Dist>,
    /// Length of one window, seconds.
    window_s: f64,
    attempted: u64,
    shed: u64,
    errors: u64,
    seconds: f64,
}

impl Phase {
    /// Adds one segment, cut into windows of about a second.
    fn absorb(&mut self, seg: Phase) {
        let n = (seg.seconds.round() as usize).max(1);
        self.windows.extend(windowed(
            seg.samples
                .iter()
                .map(|s| (s.done_s, s.latency_ns as f64 / 1e3)),
            seg.seconds,
            n,
        ));
        self.window_s = seg.seconds / n as f64;
        self.samples.extend(seg.samples);
        self.attempted += seg.attempted;
        self.shed += seg.shed;
        self.errors += seg.errors;
        self.seconds += seg.seconds;
    }

    /// Latency (µs) and rate, as medians over the windows.
    fn windows(&self) -> Windows {
        Windows::of(&self.windows, self.window_s)
    }
}

/// What one set-up took.
struct Setup {
    total: f64,
    build: f64,
    save: f64,
    load: f64,
    snapshot_bytes: u64,
}

/// Runs a serve workload.
pub fn run(
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<(Outcome, Trace), String> {
    let dataset = match spec.scenario {
        Scenario::City => scenarios::city(spec.n, CORPUS_SEED),
        Scenario::Sensors3d => scenarios::sensor_net(spec.n, CORPUS_SEED),
    };
    let pool = mix::serve_pool(&dataset, seed, spec.pool);
    let mut out = Outcome {
        digest: mix::digest(&pool),
        ..Outcome::default()
    };
    out.note(format!(
        "sizes: n={} corpus_seed={CORPUS_SEED} dim={} k_max={K_MAX} requests_pool={} clients={CLIENTS} workers={WORKERS} setups={} warmup={} closed loop",
        spec.n,
        dataset.dim(),
        spec.pool,
        spec.setups,
        spec.warmup
    ));

    // Set-up and a serving segment, repeated: each figure is a median
    // over samples spread across the whole run. From the second round
    // on, extra cold starts are timed first, with no server running
    // (2-D: the previous round's snapshot). The traced run serves half
    // of each segment untraced (the baseline for the tracing overhead)
    // and half traced.
    let backend = FileBackend::new(dir.join("snapshots")).map_err(|e| e.to_string())?;
    let segments = spec.setups.max(1);
    let seg_s = seconds / segments as f64;
    let origin = Instant::now();
    let mut trace = Trace::default();
    let (mut untraced, mut traced_phase) = (Phase::default(), Phase::default());
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut server = None;
    for round in 0..segments {
        drop(server.take());
        for _ in 0..if round > 0 { spec.loads } else { 0 } {
            let t = Instant::now();
            let suite = match spec.scenario {
                Scenario::City => {
                    let raw = backend.get("suite").map_err(|e| e.to_string())?;
                    OrpKwSuite::try_load(&raw)
                }
                Scenario::Sensors3d => OrpKwSuite::try_build(&dataset, K_MAX),
            }
            .map_err(|e| e.to_string())?;
            loads.push(t.elapsed().as_secs_f64());
            drop(suite);
        }
        let (srv, s) = set_up(&spec, &dataset, &pool, &backend)?;
        loads.push(match spec.scenario {
            Scenario::City => s.load,
            Scenario::Sensors3d => s.build,
        });
        setups.push(s);
        let untraced_s = if traced { seg_s / 2.0 } else { seg_s };
        untraced.absorb(serve_phase(&srv, &pool, untraced_s, None, &mut trace));
        if traced {
            traced_phase.absorb(serve_phase(
                &srv,
                &pool,
                seg_s / 2.0,
                Some(origin),
                &mut trace,
            ));
        }
        server = Some(srv);
        if round == 0 {
            // After one round of fixed work, so the figure does not grow
            // with the rounds' samples a run keeps.
            out.set("peak_rss_mb", crate::sys::peak_rss_mb()?, "MB");
        }
    }
    let server = server.ok_or("no set-up ran")?;
    let snapshot = server.snapshot();
    server.shutdown();
    let suite = &snapshot.value;

    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let (setup_s, build_s, save_s) = (med(|s| s.total), med(|s| s.build), med(|s| s.save));
    out.set_n("setup_s", setup_s, "s", setups.len());
    out.set_n("core.build_s.suite", build_s, "s", setups.len());
    out.set(
        "index_bytes_per_point",
        suite.space_words() as f64 * 8.0 / spec.n as f64,
        "bytes/point",
    );
    let load_s = median(&loads);
    out.set_n("cold_start_s", load_s, "s", loads.len());
    out.note(match spec.scenario {
        Scenario::City => format!(
            "cold start = FileBackend::get + OrpKwSuite::try_load of a {} byte snapshot",
            setups[0].snapshot_bytes
        ),
        Scenario::Sensors3d => {
            "cold start = rebuild (the dimension-reduction tree has no snapshot codec)".into()
        }
    });

    // Answers: every served reply against the brute-force oracle.
    let phases = [&untraced, &traced_phase];
    let mut served = vec![false; pool.len()];
    for p in &phases {
        for s in &p.samples {
            served[s.pool_idx] = true;
        }
    }
    let expected = oracle(&dataset, &pool, &served);
    for p in &phases {
        out.attempted += p.attempted;
        out.failed += p.shed + p.errors;
        for s in &p.samples {
            if Some(s.answer) != expected[s.pool_idx] {
                out.mismatches += 1;
                out.failed += 1;
            }
        }
    }

    let win = untraced.windows();
    out.set_n("latency_p50_us", win.p50, "us", win.samples);
    out.set_n("latency_p99_us", win.p99, "us", win.samples);
    let qps = win.rate;
    out.set_n("ops_per_s", qps, "1/s", win.samples);
    out.note(format!(
        "served: {} requests in {:.2} s, {} shed, {} errors; latency and rate are medians over {} one-second windows, each with >= {} samples beyond its p99{}",
        untraced.samples.len(),
        untraced.seconds,
        untraced.shed,
        untraced.errors,
        win.windows,
        win.min_beyond_p99,
        if win.min_beyond_p99 < 10 { " (fewer than 10: p99 not resolved)" } else { "" }
    ));
    out.note(format!(
        "per-window rate (1/s): {}; per-window p50 (us): {}",
        win.rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
        win.p50s
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note("riskiest metric: latency_p99_us (the queue parks idle workers for up to 2 ms; see serve.overhead_us.p99)".into());
    out.note(format!(
        "also: qps={qps:.1} 1/s  build_s={build_s:.4} s  load_s={}  snapshot_bytes_per_point={}",
        if spec.scenario == Scenario::City {
            format!("{load_s:.4} s")
        } else {
            "n/a (no codec)".into()
        },
        if spec.scenario == Scenario::City {
            format!("{:.2}", setups[0].snapshot_bytes as f64 / spec.n as f64)
        } else {
            "n/a".into()
        }
    ));

    if traced {
        per_layer(
            &mut out,
            &mut trace,
            &spec,
            &dataset,
            &pool,
            suite,
            &expected,
            &untraced,
            &traced_phase,
            &backend,
        )?;
        let setup_gap = match spec.scenario {
            Scenario::City => {
                let parts = [
                    "persist.encode_s",
                    "store.put_s",
                    "store.get_s",
                    "persist.decode_s",
                ]
                .iter()
                .map(|m| out.get(m).map_or(0.0, |m| m.value))
                .sum::<f64>();
                gap(&mut out, "save+load part of setup", parts, save_s + load_s)
            }
            Scenario::Sensors3d => 0.0,
        };
        out.set("accounting.setup_gap_pct", setup_gap, "%");
        let parts = ["core.build_s.k2", "core.build_s.k3", "invidx.build_s"]
            .iter()
            .map(|m| out.get(m).map_or(0.0, |m| m.value))
            .sum::<f64>();
        let g = gap(
            &mut out,
            "suite build (k2 + k3 + inverted index)",
            parts,
            build_s,
        );
        out.set("accounting.build_gap_pct", g, "%");
    }
    Ok((out, trace))
}

/// Builds, saves and reloads (2-D), starts the pool and warms it up.
fn set_up(
    spec: &ServeSpec,
    dataset: &Dataset,
    pool: &[Query],
    backend: &FileBackend,
) -> Result<(Server, Setup), String> {
    let start = Instant::now();
    let built = OrpKwSuite::try_build(dataset, K_MAX).map_err(|e| e.to_string())?;
    let build = start.elapsed().as_secs_f64();
    let (suite, save, load, snapshot_bytes) = match spec.scenario {
        Scenario::City => {
            let t = Instant::now();
            let bytes = backend.save("suite", &built).map_err(|e| e.to_string())?;
            let save = t.elapsed().as_secs_f64();
            drop(built);
            let t = Instant::now();
            let raw = backend.get("suite").map_err(|e| e.to_string())?;
            let suite = OrpKwSuite::try_load(&raw).map_err(|e| e.to_string())?;
            (suite, save, t.elapsed().as_secs_f64(), bytes)
        }
        Scenario::Sensors3d => (built, 0.0, 0.0, 0),
    };
    let server = Server::start(suite, server_config());
    for q in pool.iter().cycle().take(spec.warmup) {
        server
            .query(Request::new(q.rect, q.keywords.clone()))
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    let total = start.elapsed().as_secs_f64();
    Ok((
        server,
        Setup {
            total,
            build,
            save,
            load,
            snapshot_bytes,
        },
    ))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_capacity: 1024,
        queue_stripes: 0,
        default_deadline: None,
        default_max_results: None,
        brownout: None,
    }
}

/// Closed-loop clients for `seconds`; spans recorded when `origin` is
/// given.
fn serve_phase(
    server: &Server,
    pool: &[Query],
    seconds: f64,
    origin: Option<Instant>,
    trace: &mut Trace,
) -> Phase {
    let first_tid = trace.reserve(CLIENTS as u32);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Phase, Vec<crate::trace::Span>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tid = first_tid + c as u32;
                s.spawn(move || client(server, pool, c, tid, start, deadline, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    (
                        Phase {
                            errors: 1,
                            ..Phase::default()
                        },
                        Vec::new(),
                    )
                })
            })
            .collect()
    });
    let mut phase = Phase {
        seconds: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (p, spans) in results {
        phase.samples.extend(p.samples);
        phase.attempted += p.attempted;
        phase.shed += p.shed;
        phase.errors += p.errors;
        trace.absorb(spans);
    }
    phase
}

fn client(
    server: &Server,
    pool: &[Query],
    c: usize,
    tid: u32,
    start: Instant,
    deadline: Instant,
    origin: Option<Instant>,
) -> (Phase, Vec<crate::trace::Span>) {
    let mut tr = Tracer::new(origin.is_some(), origin.unwrap_or_else(Instant::now), tid);
    let mut phase = Phase::default();
    let mut i = c * pool.len() / CLIENTS;
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let pool_idx = i % pool.len();
        i += 1;
        seq += 1;
        let req_id = (c as u64) << 32 | seq;
        let q = &pool[pool_idx];
        let request = Request::new(q.rect, q.keywords.clone());
        phase.attempted += 1;
        let root = tr.id();
        let t0 = Instant::now();
        let submitted = server.submit(request);
        let t1 = Instant::now();
        let submit_span = tr.id();
        tr.record(submit_span, root, req_id, "serve.submit", t0, t1);
        let pending = match submitted {
            Ok(p) => p,
            Err(SkqError::Overloaded { .. }) => {
                phase.shed += 1;
                continue;
            }
            Err(_) => {
                phase.errors += 1;
                continue;
            }
        };
        let replied = pending.wait();
        let t2 = Instant::now();
        let wait_span = tr.id();
        tr.record(wait_span, root, req_id, "serve.wait", t1, t2);
        tr.record(root, 0, req_id, "bench.request", t0, t2);
        match replied {
            Ok(reply) => phase.samples.push(Sample {
                pool_idx,
                done_s: (t2 - start).as_secs_f64(),
                latency_ns: (t2 - t0).as_nanos() as u64,
                submit_ns: (t1 - t0).as_nanos() as u64,
                wait_ns: (t2 - t1).as_nanos() as u64,
                answer: answer_digest(&reply.ids),
                wait_span,
            }),
            Err(_) => phase.errors += 1,
        }
    }
    (phase, tr.into_spans())
}

/// The brute-force answer digest of every served pooled request.
fn oracle(dataset: &Dataset, pool: &[Query], served: &[bool]) -> Vec<Option<u64>> {
    let mut expected = vec![None; pool.len()];
    let chunk = pool.len().div_ceil(WORKERS).max(1);
    thread::scope(|s| {
        for (part, (queries, flags)) in expected
            .chunks_mut(chunk)
            .zip(pool.chunks(chunk).zip(served.chunks(chunk)))
        {
            s.spawn(move || {
                for ((slot, q), &used) in part.iter_mut().zip(queries).zip(flags) {
                    if used {
                        *slot = Some(mix::oracle(dataset, q, |_| true));
                    }
                }
            });
        }
    });
    expected
}

/// Prints and returns the accounting gap of `parts` against `whole`,
/// as a percentage of `whole`.
fn gap(out: &mut Outcome, what: &str, parts: f64, whole: f64) -> f64 {
    let pct = if whole > 0.0 {
        (parts - whole) / whole * 100.0
    } else {
        0.0
    };
    out.note(format!(
        "accounting: {what}: layers {parts:.6} vs end-to-end {whole:.6}, gap {pct:+.1}% ({} {ACCOUNTING_TOLERANCE_PCT}%, informational)",
        if pct.abs() <= ACCOUNTING_TOLERANCE_PCT { "within" } else { "OUTSIDE" }
    ));
    pct
}

/// The traced run's per-layer measurements.
// Every argument is a distinct input of the traced run's analysis.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    trace: &mut Trace,
    spec: &ServeSpec,
    dataset: &Dataset,
    pool: &[Query],
    suite: &OrpKwSuite,
    expected: &[Option<u64>],
    untraced: &Phase,
    traced: &Phase,
    backend: &FileBackend,
) -> Result<(), String> {
    let us = |ns: u64| ns as f64 / 1e3;
    let guard = QueryGuard::new();

    // Direct suite calls on the served snapshot, single-threaded.
    let mut direct_us = vec![0.0; pool.len()];
    let mut route_us: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut totals = QueryStats::new();
    let mut type2 = 0u64;
    for (i, q) in pool.iter().enumerate() {
        let mut times = Vec::with_capacity(REPLAYS);
        for rep in 0..REPLAYS {
            let t = Instant::now();
            let (ids, stats) = suite
                .try_query_guarded(&q.rect, &q.keywords, &guard)
                .map_err(|e| format!("direct query failed: {e}"))?;
            let dt = t.elapsed().as_secs_f64() * 1e6;
            times.push(dt);
            if rep == 0 {
                if expected[i].is_some_and(|e| e != answer_digest(&ids)) {
                    out.mismatches += 1;
                    out.failed += 1;
                }
                totals.nodes_visited += stats.nodes_visited;
                totals.list_scans += stats.list_scans;
                totals.pivot_scans += stats.pivot_scans;
                totals.reported += stats.reported;
                type2 += stats.type2_by_level.iter().sum::<u64>();
            }
        }
        route_us.entry(q.route(K_MAX)).or_default().extend(&times);
        direct_us[i] = median(&times);
    }
    for route in ["postings_filter", "framework", "post_filter"] {
        let d = Dist::new(route_us.remove(route).unwrap_or_default());
        out.set_p50_p99(&format!("core.query_us.{route}"), &d, "us");
    }
    let nq = pool.len() as f64;
    out.set(
        "core.nodes_visited_per_q",
        totals.nodes_visited as f64 / nq,
        "count",
    );
    out.set(
        "core.list_scans_per_q",
        totals.list_scans as f64 / nq,
        "count",
    );
    out.set(
        "core.pivot_scans_per_q",
        totals.pivot_scans as f64 / nq,
        "count",
    );
    out.set("core.reported_per_q", totals.reported as f64 / nq, "count");
    out.set("core.type2_nodes_per_q", type2 as f64 / nq, "count");
    let examined = totals.objects_examined().max(1) as f64;
    out.set(
        "core.useful_ratio",
        totals.reported as f64 / examined,
        "ratio",
    );
    out.set(
        "core.ns_per_scan",
        direct_us.iter().sum::<f64>() * 1e3 / examined,
        "ns",
    );

    // The serve layer, from the traced half.
    let submit = Dist::new(traced.samples.iter().map(|s| us(s.submit_ns)).collect());
    let wait = Dist::new(traced.samples.iter().map(|s| us(s.wait_ns)).collect());
    let overhead = Dist::new(
        traced
            .samples
            .iter()
            .map(|s| us(s.latency_ns) - direct_us[s.pool_idx])
            .collect(),
    );
    out.set_p50_p99("serve.submit_us", &submit, "us");
    out.set_p50_p99("serve.wait_us", &wait, "us");
    out.set_p50_p99("serve.overhead_us", &overhead, "us");
    out.set("serve.shed", (untraced.shed + traced.shed) as f64, "count");

    // Self time per layer along the request path: the worker's suite
    // query is attributed under the wait that contained it.
    let direct_ns: std::collections::HashMap<u64, u64> = traced
        .samples
        .iter()
        .map(|s| (s.wait_span, (direct_us[s.pool_idx] * 1e3) as u64))
        .collect();
    trace.attribute("core.query", |s| direct_ns.get(&s.id).copied());
    let layers = trace.self_us_by_layer("bench.request");
    let mut sum = 0.0;
    for layer in ["serve", "core"] {
        let m = Dist::new(layers.get(layer).cloned().unwrap_or_default()).median();
        sum += m;
        out.set_n(&format!("self_us.{layer}"), m, "us", traced.samples.len());
    }
    let e2e = untraced.windows().p50;
    let g = gap(out, "served request (serve + core self time)", sum, e2e);
    out.set("accounting.latency_gap_pct", g, "%");
    let (qps_u, qps_t) = (untraced.windows().rate, traced.windows().rate);
    out.set("trace.overhead_pct", (qps_u - qps_t) / qps_u * 100.0, "%");

    // The inverted index on the workload's documents and requests.
    let mut builds = Vec::new();
    let mut inv = None;
    for _ in 0..3 {
        let t = Instant::now();
        inv = Some(InvertedIndex::build(dataset.docs()));
        builds.push(t.elapsed().as_secs_f64());
    }
    let inv = inv.ok_or("inverted index not built")?;
    out.set_n("invidx.build_s", median(&builds), "s", builds.len());
    let inter = Dist::new(
        pool.iter()
            .map(|q| {
                let t = Instant::now();
                std::hint::black_box(inv.intersect(&q.keywords));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );
    out.set_n("invidx.intersect_us.p50", inter.median(), "us", inter.len());

    // The paper's naive baselines on a fixed sample of the same requests.
    let kf = KeywordsFirst::build(dataset);
    let sf = StructuredFirst::build(dataset);
    let (mut kf_us, mut sf_us, mut best_ratio) = (Vec::new(), Vec::new(), Vec::new());
    for (i, q) in pool.iter().enumerate().step_by(NAIVE_EVERY) {
        let mut ids = Vec::new();
        let t = Instant::now();
        let _ = kf.query_rect_sink(&q.rect, &q.keywords, &mut ids);
        let a = t.elapsed().as_secs_f64() * 1e6;
        ids.sort_unstable();
        let kf_ok = expected[i].is_none_or(|e| e == answer_digest(&ids));
        ids.clear();
        let t = Instant::now();
        let _ = sf.query_rect_sink(&q.rect, &q.keywords, &mut ids);
        let b = t.elapsed().as_secs_f64() * 1e6;
        ids.sort_unstable();
        let sf_ok = expected[i].is_none_or(|e| e == answer_digest(&ids));
        if !(kf_ok && sf_ok) {
            out.mismatches += 1;
            out.failed += 1;
        }
        out.attempted += 2;
        kf_us.push(a);
        sf_us.push(b);
        best_ratio.push(a.min(b) / direct_us[i].max(1e-3));
    }
    out.set_n(
        "naive.keywords_first_us.p50",
        Dist::new(kf_us).median(),
        "us",
        best_ratio.len(),
    );
    out.set_n(
        "naive.structured_first_us.p50",
        Dist::new(sf_us).median(),
        "us",
        best_ratio.len(),
    );
    out.set_n(
        "naive.best_over_framework",
        Dist::new(best_ratio).median(),
        "ratio",
        pool.len().div_ceil(NAIVE_EVERY),
    );

    // Per-k framework builds.
    for k in [2usize, 3] {
        let t = Instant::now();
        let index = OrpKwIndex::try_build(dataset, k).map_err(|e| e.to_string())?;
        out.set(
            &format!("core.build_s.k{k}"),
            t.elapsed().as_secs_f64(),
            "s",
        );
        drop(index);
    }

    // Snapshot encode / put / get / decode, each timed on its own.
    if spec.scenario == Scenario::City {
        crate::persist_round_trip(out, backend, suite, spec.n, OrpKwSuite::try_load, |a, b| {
            a.space_words() == b.space_words()
        })?;
    }
    Ok(())
}
