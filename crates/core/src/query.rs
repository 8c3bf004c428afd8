//! The one query contract every problem index implements.
//!
//! The paper poses every problem the same way: `k` keywords plus a
//! structured predicate, reporting the matching objects. [`KeywordIndex`]
//! is that contract in code. An index supplies four things — its query
//! shape ([`KeywordIndex::Query`]), the validation of a query
//! ([`check_query`](KeywordIndex::check_query)), the streaming traversal
//! ([`query_sink`](KeywordIndex::query_sink)) and its structural checks
//! ([`space_words`](KeywordIndex::space_words),
//! [`validate`](KeywordIndex::validate)) — and gets every other query
//! surface (collect, count, limit, threshold, the fallible form) as a
//! provided method. Dispatch is static: the provided methods are
//! monomorphised per index and sink type, so they cost exactly what the
//! hand-written wrappers they replace cost.

use std::ops::ControlFlow;

use skq_geom::Point;
use skq_invidx::Keyword;

use crate::error::SkqError;
use crate::invariants::InvariantViolation;
use crate::sink::{CountSink, LimitSink, ResultSink};
use crate::stats::QueryStats;

/// A nearest-neighbour query (Corollaries 4 and 7): the `t` matching
/// objects closest to `point`, reported in `(distance, id)` order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NnQuery {
    /// The query point.
    pub point: Point,
    /// How many neighbours to report.
    pub t: usize,
}

impl NnQuery {
    /// The `t` nearest neighbours of `point`.
    pub fn new(point: Point, t: usize) -> Self {
        Self { point, t }
    }
}

/// A keyword-search index with a structured constraint.
///
/// Implementors supply the required items; everything else is provided
/// on top of [`query_sink`](Self::query_sink). Every provided query
/// method sets [`QueryStats::emitted`] and [`QueryStats::truncated`]
/// from the sink it owns; `query_sink` itself leaves them alone, so
/// absorbing the statistics of inner queries never double-counts.
pub trait KeywordIndex {
    /// The structured part of a query: `Rect`, `[Halfspace]`,
    /// `ConvexPolytope`, `Ball`, [`NnQuery`], or `()` for pure `k`-set
    /// intersection.
    type Query: ?Sized;

    /// Checks a query against the index: dimensionality, finite or
    /// NaN-free coordinates, and the keyword count the index serves.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` describing the first problem found.
    fn check_query(&self, q: &Self::Query, keywords: &[Keyword]) -> Result<(), SkqError>;

    /// Streaming query: every matching object id is emitted into `sink`,
    /// which decides whether to store, count, or stop. Work counters are
    /// added to `stats`.
    ///
    /// # Panics
    ///
    /// May panic on input [`check_query`](Self::check_query) rejects.
    fn query_sink<S: ResultSink>(
        &self,
        q: &Self::Query,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()>;

    /// Index space in 64-bit words.
    fn space_words(&self) -> usize;

    /// Deep structural validation (DESIGN.md §12): re-derives the
    /// paper's invariants from the built structure.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    fn validate(&self) -> Result<(), InvariantViolation>;

    /// Appends at most `limit` results to `out` (the threshold queries
    /// of Corollary 4: a query cut short certifies at least `limit`
    /// matches within the `O(N^{1−1/k}·limit^{1/k})` budget).
    fn query_limited(
        &self,
        q: &Self::Query,
        keywords: &[Keyword],
        limit: usize,
        out: &mut Vec<u32>,
        stats: &mut QueryStats,
    ) {
        let mut sink = LimitSink::new(&mut *out, limit);
        let _ = self.query_sink(q, keywords, &mut sink, stats);
        stats.emitted += sink.emitted();
        stats.truncated |= sink.truncated();
    }

    /// Every match, with the execution statistics.
    fn query_with_stats(&self, q: &Self::Query, keywords: &[Keyword]) -> (Vec<u32>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        self.query_limited(q, keywords, usize::MAX, &mut out, &mut stats);
        (out, stats)
    }

    /// Every match.
    ///
    /// # Panics
    ///
    /// May panic on input [`check_query`](Self::check_query) rejects;
    /// [`try_query_into`](Self::try_query_into) is the fallible form.
    fn query(&self, q: &Self::Query, keywords: &[Keyword]) -> Vec<u32> {
        self.query_with_stats(q, keywords).0
    }

    /// Fallible query: checks the query, then appends every match to
    /// `out` and returns the execution statistics.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` from [`check_query`](Self::check_query);
    /// nothing is appended then.
    fn try_query_into(
        &self,
        q: &Self::Query,
        keywords: &[Keyword],
        out: &mut Vec<u32>,
    ) -> Result<QueryStats, SkqError> {
        self.check_query(q, keywords)?;
        let mut stats = QueryStats::new();
        self.query_limited(q, keywords, usize::MAX, out, &mut stats);
        Ok(stats)
    }

    /// The number of matches, with no result materialization.
    fn count(&self, q: &Self::Query, keywords: &[Keyword]) -> u64 {
        let mut sink = CountSink::new();
        let _ = self.query_sink(q, keywords, &mut sink, &mut QueryStats::new());
        sink.count()
    }

    /// Whether at least `t` objects match, by early termination
    /// (`O(N^{1−1/k}·t^{1/k})` for the framework indexes — the proof of
    /// Corollary 4). Allocation-free on the result side.
    fn count_at_least(&self, q: &Self::Query, keywords: &[Keyword], t: usize) -> bool {
        if t == 0 {
            return true;
        }
        let mut sink = LimitSink::new(CountSink::new(), t);
        let _ = self.query_sink(q, keywords, &mut sink, &mut QueryStats::new());
        sink.emitted() >= t as u64
    }
}
