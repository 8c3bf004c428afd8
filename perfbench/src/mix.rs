//! Seeded request mixes. The program under test only ever sees these
//! generated inputs.

use skq_core::naive::brute_rect;
use skq_core::Dataset;
use skq_geom::{Point, Rect};
use skq_invidx::Keyword;
use skq_workload::queries::QueryGen;

use crate::stats::{answer_digest, Fnv, Rng};

/// Keyword counts of the served mix, cycled: routes `postings_filter`
/// (k = 1), `framework` (k = 2, 3) and `post_filter` (k = 4 > k_max).
pub const SERVE_KS: [usize; 6] = [1, 2, 2, 3, 3, 4];
/// Rectangle selectivities of the served mix, cycled.
pub const SERVE_SELECTIVITY: [f64; 3] = [0.01, 0.05, 0.20];

/// One rectangle-and-keywords query.
#[derive(Clone, Debug)]
pub struct Query {
    /// The rectangle.
    pub rect: Rect,
    /// Distinct keywords.
    pub keywords: Vec<Keyword>,
}

impl Query {
    /// The suite route this query takes (by its distinct keyword count).
    pub fn route(&self, k_max: usize) -> &'static str {
        match self.keywords.len() {
            0 => "range_scan",
            1 => "postings_filter",
            k if k <= k_max => "framework",
            _ => "post_filter",
        }
    }

    fn digest_into(&self, h: &mut Fnv) {
        for d in 0..self.rect.dim() {
            h.word(self.rect.lo(d).to_bits());
            h.word(self.rect.hi(d).to_bits());
        }
        h.word(self.keywords.len() as u64);
        for &w in &self.keywords {
            h.word(u64::from(w));
        }
    }
}

/// Digest of the brute-force answer to `q` over the objects of
/// `dataset` whose ids `live` keeps (`naive::brute_rect`'s predicate is
/// per object, so filtering its answer equals asking the live subset).
pub fn oracle(dataset: &Dataset, q: &Query, live: impl Fn(u32) -> bool) -> u64 {
    let mut ids = brute_rect(dataset, &q.rect, &q.keywords);
    ids.retain(|&id| live(id));
    answer_digest(&ids)
}

/// Per-dimension `(min, max)` of the dataset's points.
pub fn extent(dataset: &Dataset) -> Vec<(f64, f64)> {
    (0..dataset.dim())
        .map(|d| {
            dataset
                .points()
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                    (lo.min(p.get(d)), hi.max(p.get(d)))
                })
        })
        .collect()
}

/// A rectangle centred on `p` whose side on each dimension is
/// `selectivity^(1/d)` of the extent.
pub fn centred_rect(p: &Point, extent: &[(f64, f64)], selectivity: f64) -> Rect {
    let frac = selectivity.powf(1.0 / extent.len() as f64);
    let half: Vec<f64> = extent
        .iter()
        .map(|(lo, hi)| (hi - lo) * frac / 2.0)
        .collect();
    let lo: Vec<f64> = (0..extent.len()).map(|d| p.get(d) - half[d]).collect();
    let hi: Vec<f64> = (0..extent.len()).map(|d| p.get(d) + half[d]).collect();
    Rect::new(&lo, &hi)
}

/// `k` distinct keywords of `doc`, chosen by `rng`; `None` if the
/// document is shorter than `k`.
pub fn pick_keywords(doc: &[Keyword], k: usize, rng: &mut Rng) -> Option<Vec<Keyword>> {
    if doc.len() < k {
        return None;
    }
    let mut pool = doc.to_vec();
    for i in 0..k {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    Some(pool)
}

/// Frequency bands of the vocabulary the non-anchored keyword sets are
/// drawn from, cycled (`0.0` = most frequent quarter, `1.0` = rarest).
pub const BANDS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Keywords from frequency band `BANDS[stratum % 5]` of the vocabulary
/// (`QueryGen::keywords`).
pub fn band_keywords(gen: &mut QueryGen, k: usize, stratum: usize) -> Vec<Keyword> {
    gen.keywords(k, BANDS[stratum % BANDS.len()])
        .or_else(|| gen.top_keywords(k))
        .unwrap_or_default()
}

/// The served request pool: `size` queries cycling through
/// [`SERVE_KS`] × [`SERVE_SELECTIVITY`], half anchored on an object
/// (rectangle centred on it, keywords from its document) and half drawn
/// from the [`BANDS`] in turn with a random rectangle.
pub fn serve_pool(dataset: &Dataset, seed: u64, size: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    let mut gen = QueryGen::new(dataset, seed ^ 0x5eed);
    let ext = extent(dataset);
    (0..size)
        .map(|i| {
            let k = SERVE_KS[i % SERVE_KS.len()];
            let sel = SERVE_SELECTIVITY[(i / SERVE_KS.len()) % SERVE_SELECTIVITY.len()];
            let block = i / (SERVE_KS.len() * SERVE_SELECTIVITY.len());
            if block.is_multiple_of(2) {
                loop {
                    let o = rng.below(dataset.len());
                    if let Some(keywords) = pick_keywords(dataset.doc(o).keywords(), k, &mut rng) {
                        break Query {
                            rect: centred_rect(dataset.point(o), &ext, sel),
                            keywords,
                        };
                    }
                }
            } else {
                let keywords = band_keywords(&mut gen, k, block / 2);
                Query {
                    rect: gen.rect(sel),
                    keywords,
                }
            }
        })
        .collect()
}

/// Digest of a query stream.
pub fn digest(queries: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for q in queries {
        q.digest_into(&mut h);
    }
    h.finish()
}
