//! What one run measured, and the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::Dist;

/// The end-to-end metrics, in `BENCHMARK.json` order: printed with
/// `--trace 0` on every workload.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "cold_start_s",
    "latency_p50_us",
    "latency_p99_us",
    "ops_per_s",
    "peak_rss_mb",
    "index_bytes_per_point",
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order:
/// printed with `--trace 1` on every workload. A layer the workload
/// does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.wait_us.p50", "us"),
    ("serve.wait_us.p99", "us"),
    ("serve.overhead_us.p50", "us"),
    ("serve.overhead_us.p99", "us"),
    ("serve.shed", "count"),
    ("core.query_us.postings_filter.p50", "us"),
    ("core.query_us.postings_filter.p99", "us"),
    ("core.query_us.framework.p50", "us"),
    ("core.query_us.framework.p99", "us"),
    ("core.query_us.post_filter.p50", "us"),
    ("core.query_us.post_filter.p99", "us"),
    ("core.nodes_visited_per_q", "count"),
    ("core.list_scans_per_q", "count"),
    ("core.pivot_scans_per_q", "count"),
    ("core.reported_per_q", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.ns_per_scan", "ns"),
    ("core.type2_nodes_per_q", "count"),
    ("core.build_s.k2", "s"),
    ("core.build_s.k3", "s"),
    ("core.build_s.suite", "s"),
    ("invidx.intersect_us.p50", "us"),
    ("invidx.build_s", "s"),
    ("naive.keywords_first_us.p50", "us"),
    ("naive.structured_first_us.p50", "us"),
    ("naive.best_over_framework", "ratio"),
    ("persist.encode_s", "s"),
    ("store.put_s", "s"),
    ("store.get_s", "s"),
    ("persist.decode_s", "s"),
    ("persist.snapshot_bytes_per_point", "bytes/point"),
    ("dynamic.insert_us.p50", "us"),
    ("dynamic.insert_us.p99", "us"),
    ("dynamic.rebuild_ms", "ms"),
    ("dynamic.rebuilds", "count"),
    ("dynamic.blocks", "count"),
    ("dynamic.query_us.p50", "us"),
    ("durable.insert_us.p50", "us"),
    ("durable.insert_us.p99", "us"),
    ("durable.read_us.p50", "us"),
    ("durable.read_us.p99", "us"),
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_op", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoint_bytes", "bytes"),
    ("recover.replayed", "count"),
    ("recover.records_per_s", "1/s"),
    ("self_us.serve", "us"),
    ("self_us.core", "us"),
    ("self_us.durable", "us"),
    ("self_us.dynamic", "us"),
    ("self_us.wal", "us"),
    ("accounting.latency_gap_pct", "%"),
    ("accounting.setup_gap_pct", "%"),
    ("accounting.build_gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// How far the sum of per-layer self times may sit from the end-to-end
/// median it decomposes before the run flags the accounting as off.
/// The flag is informational: it is printed, not counted as a failure.
pub const ACCOUNTING_TOLERANCE_PCT: f64 = 25.0;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a percentile or median, when there are many.
    pub samples: Option<usize>,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of the generated request / op stream.
    pub digest: u64,
    /// Operations attempted (requests served, ops applied, recovery
    /// checks).
    pub attempted: u64,
    /// Failed, shed or wrong operations.
    pub failed: u64,
    /// Wrong answers among `failed` (any makes the run incorrect).
    pub mismatches: u64,
    /// Measurements, in the order taken.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a plain value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, None);
    }

    /// Records a value with the number of samples behind it.
    pub fn set_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit, Some(samples));
    }

    /// Records `<name>.p50` and `<name>.p99` of `d`.
    pub fn set_p50_p99(&mut self, name: &str, d: &Dist, unit: &'static str) {
        self.set_n(&format!("{name}.p50"), d.median(), unit, d.len());
        self.set_n(&format!("{name}.p99"), d.pct(99.0), unit, d.len());
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every answer checked out and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    /// Every recorded metric, one per line, with unit and sample count.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        out
    }

    /// The result line: `names` selected, in order, each of which must
    /// have been measured.
    pub fn result_json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
