//! Pure `k`-set intersection (k-SI; §1.2).
//!
//! "Pure" keyword search — computing `D(w₁, …, w_k)` with no geometric
//! predicate — is exactly the `k`-set intersection problem: keyword `w`
//! names the set `S_w` of object ids containing it. §1.2 shows the two
//! problems are interreducible, and the paper's framework (with the
//! geometry ignored) matches the best known bound
//! `O(N^{1−1/k}(1 + OUT^{1/k}))` of Cohen–Porat (k = 2) generalized to
//! any constant `k`.
//!
//! [`KsiIndex`] realizes the reduction of §1.2 in the forward direction:
//! it builds the 1-dimensional kd-tree framework over object ids, and a
//! reporting query is a full-space ORP-KW query — demonstrating that the
//! framework's geometry machinery collapses gracefully when no geometry
//! is present.

use std::ops::ControlFlow;

use skq_geom::{FlatPoints, Region};
use skq_invidx::{Document, Keyword};

use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::framework::{FrameworkConfig, KdPartitioner, TransformedIndex};
use crate::invariants::InvariantViolation;
use crate::query::KeywordIndex;
use crate::sink::ResultSink;
use crate::stats::QueryStats;

/// The k-SI index over a family of sets given as documents.
///
/// # Example
///
/// ```
/// use skq_core::ksi::KsiIndex;
///
/// // S0 = {0, 1}, S1 = {1, 2}: elements carry their set memberships.
/// let index = KsiIndex::from_sets(&[vec![0, 1], vec![1, 2]], 3, 2);
/// assert_eq!(index.intersect(&[0, 1]), vec![1]);
/// assert!(!index.intersection_is_empty(&[0, 1]));
/// ```
pub struct KsiIndex {
    tree: TransformedIndex<KdPartitioner>,
}

impl KsiIndex {
    /// Builds the index: element `i` belongs to set `w` iff
    /// `docs[i]` contains `w` (the inverted-view of `m` sets as
    /// per-element membership documents, per §1.2).
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty or `k < 2`.
    pub fn build(docs: &[Document], k: usize) -> Self {
        Self::try_build(docs, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` if `docs` is empty;
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(docs: &[Document], k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("ksi::build")?;
        if docs.is_empty() {
            return Err(SkqError::InvalidDataset(
                "cannot index an empty set family".into(),
            ));
        }
        let ids: Vec<f64> = (0..docs.len()).map(|i| i as f64).collect();
        let points = FlatPoints::try_from_coords(ids, 1).map_err(SkqError::InvalidDataset)?;
        let weights: Vec<u64> = docs.iter().map(|d| d.len() as u64).collect();
        let partitioner = KdPartitioner::over(points, weights);
        let tree = TransformedIndex::try_build(partitioner, docs, k, FrameworkConfig::default())?;
        Ok(Self { tree })
    }

    /// Builds from explicit sets `S₁, …, S_m` over elements `0..n` —
    /// the reverse reduction of §1.2 (`e.Doc := {i | e ∈ Sᵢ}`).
    ///
    /// # Panics
    ///
    /// Panics if some element belongs to no set (documents must be
    /// non-empty), or on out-of-range elements.
    pub fn from_sets(sets: &[Vec<u32>], n: usize, k: usize) -> Self {
        let mut kws: Vec<Vec<Keyword>> = vec![Vec::new(); n];
        for (si, set) in sets.iter().enumerate() {
            for &e in set {
                kws[e as usize].push(si as Keyword);
            }
        }
        let docs: Vec<Document> = kws.into_iter().map(Document::new).collect();
        Self::build(&docs, k)
    }

    /// The number of query keywords `k`.
    pub fn k(&self) -> usize {
        self.tree.k()
    }

    /// The input size `N = Σ |Sᵢ| = Σ |Doc|`.
    pub fn input_size(&self) -> u64 {
        self.tree.input_size()
    }

    /// Reports `⋂ᵢ S_{wᵢ}` (a reporting query).
    pub fn intersect(&self, keywords: &[Keyword]) -> Vec<u32> {
        self.query(&(), keywords)
    }

    /// An emptiness query: whether `⋂ᵢ S_{wᵢ} = ∅`
    /// (`O(N^{1−1/k})` — a reporting query cut off at the first result,
    /// exactly the footnote-4 argument of §1.2). Allocation-free on the
    /// result side.
    pub fn intersection_is_empty(&self, keywords: &[Keyword]) -> bool {
        !self.count_at_least(&(), keywords, 1)
    }
}

/// No geometry: the query is its keywords alone.
impl KeywordIndex for KsiIndex {
    type Query = ();

    fn check_query(&self, _: &(), keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::distinct_keywords(keywords, self.k())
    }

    /// Each element of `⋂ᵢ S_{wᵢ}` is emitted into `sink` as it is
    /// found (a full-space ORP-KW traversal).
    fn query_sink<S: ResultSink>(
        &self,
        _: &(),
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        self.tree
            .query_sink(keywords, &|_| Region::Covered, &|_| true, sink, stats)
    }

    fn space_words(&self) -> usize {
        self.tree.space_words(3)
    }

    /// Delegates to the underlying framework tree.
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.tree.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_invidx::InvertedIndex;

    fn random_docs(n: usize, vocab: u32, seed: u64) -> Vec<Document> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..7);
                Document::new((0..len).map(|_| rng.gen_range(0..vocab)).collect())
            })
            .collect()
    }

    #[test]
    fn matches_inverted_index_k2() {
        let docs = random_docs(400, 12, 1);
        let ksi = KsiIndex::build(&docs, 2);
        ksi.validate().unwrap();
        let inv = InvertedIndex::build(&docs);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let w1 = rng.gen_range(0..12);
            let w2 = (w1 + 1 + rng.gen_range(0..11)) % 12;
            let mut got = ksi.intersect(&[w1, w2]);
            got.sort_unstable();
            assert_eq!(got, inv.intersect(&[w1, w2]), "[{w1},{w2}]");
            assert_eq!(ksi.intersection_is_empty(&[w1, w2]), got.is_empty());
        }
    }

    #[test]
    fn matches_inverted_index_k4() {
        let docs = random_docs(300, 6, 11);
        let ksi = KsiIndex::build(&docs, 4);
        let inv = InvertedIndex::build(&docs);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let mut ws: Vec<u32> = Vec::new();
            while ws.len() < 4 {
                let w = rng.gen_range(0..6);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            let mut got = ksi.intersect(&ws);
            got.sort_unstable();
            assert_eq!(got, inv.intersect(&ws));
        }
    }

    #[test]
    fn from_sets_reduction() {
        // S0 = {0,1,2}, S1 = {1,2,3}, S2 = {2,3,4}.
        let sets = vec![vec![0, 1, 2], vec![1, 2, 3], vec![2, 3, 4]];
        let ksi = KsiIndex::from_sets(&sets, 5, 2);
        let mut got = ksi.intersect(&[0, 1]);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        let mut got = ksi.intersect(&[1, 2]);
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        assert!(!ksi.intersection_is_empty(&[0, 2]));
        assert_eq!(ksi.intersect(&[0, 2]), vec![2]);
    }

    #[test]
    fn try_surfaces_round_trip_and_validate() {
        let docs = random_docs(200, 8, 41);
        let ksi = KsiIndex::try_build(&docs, 2).unwrap();
        let legacy = KsiIndex::build(&docs, 2);
        let mut out = Vec::new();
        let stats = ksi.try_query_into(&(), &[0, 1], &mut out).unwrap();
        let mut expected = legacy.intersect(&[0, 1]);
        out.sort_unstable();
        expected.sort_unstable();
        assert_eq!(out, expected);
        assert_eq!(stats.emitted, out.len() as u64);
        assert!(matches!(
            KsiIndex::try_build(&[], 2),
            Err(SkqError::InvalidDataset(_))
        ));
        assert!(matches!(
            KsiIndex::try_build(&docs, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        let mut scratch = Vec::new();
        assert!(matches!(
            ksi.try_query_into(&(), &[0, 0], &mut scratch),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn count_at_least_thresholds() {
        let docs = random_docs(200, 3, 21);
        let ksi = KsiIndex::build(&docs, 2);
        let inv = InvertedIndex::build(&docs);
        let truth = inv.intersect(&[0, 1]).len();
        assert!(ksi.count_at_least(&(), &[0, 1], truth));
        assert!(!ksi.count_at_least(&(), &[0, 1], truth + 1));
        assert!(ksi.count_at_least(&(), &[0, 1], 0));
        assert_eq!(ksi.count(&(), &[0, 1]), truth as u64);
    }
}
