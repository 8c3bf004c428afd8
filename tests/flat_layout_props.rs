//! Property tests for the flat scan layout: the dim-strided rank and
//! raw coordinates and the CSR documents must answer every membership
//! test exactly like the `Point` / `Document` forms they replace, for
//! `d ∈ {1, 2, 3}`.

use proptest::prelude::*;
use structured_keyword_search::core::naive::brute_rect;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::geom::{FlatPoints, RankSpace};
use structured_keyword_search::invidx::CsrDocs;
use structured_keyword_search::prelude::*;

const VOCAB: u32 = 9;

/// Raw objects: up to 3 grid coordinates (truncated to the drawn
/// dimension; the small grid forces rank-space ties) and 1–4 keywords.
fn objects() -> impl Strategy<Value = Vec<(Vec<i32>, Vec<Keyword>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(-6i32..6, 3),
            prop::collection::vec(0u32..VOCAB, 1..5),
        ),
        1..120,
    )
}

fn dataset(raw: &[(Vec<i32>, Vec<Keyword>)], dim: usize) -> Dataset {
    Dataset::from_parts(
        raw.iter()
            .map(|(c, kws)| {
                let coords: Vec<f64> = c[..dim].iter().map(|&x| f64::from(x)).collect();
                (Point::new(&coords), kws.clone())
            })
            .collect(),
    )
}

/// Per dimension `(a, b, sides)`: the interval `[min(a,b), max(a,b)]`,
/// with the low side opened to −∞ when `sides & 1` and the high side
/// to +∞ when `sides & 2`.
fn rect_parts() -> impl Strategy<Value = Vec<(i32, i32, u8)>> {
    prop::collection::vec((-8i32..8, -8i32..8, 0u8..4), 3)
}

fn rect(parts: &[(i32, i32, u8)], dim: usize) -> Rect {
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for &(a, b, sides) in &parts[..dim] {
        let (l, h) = (f64::from(a.min(b)), f64::from(a.max(b)));
        lo.push(if sides & 1 == 1 { f64::NEG_INFINITY } else { l });
        hi.push(if sides & 2 == 2 { f64::INFINITY } else { h });
    }
    Rect::new(&lo, &hi)
}

/// Canonical (ascending, distinct) keyword sets of size 0..=4.
fn keyword_set() -> impl Strategy<Value = Vec<Keyword>> {
    prop::collection::vec(0u32..VOCAB, 0..5).prop_map(|mut ws| {
        ws.sort_unstable();
        ws.dedup();
        ws
    })
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `CsrDocs::has_all` ≡ `Document::contains_all` on every document
    /// for canonical keyword sets; the packed rows are the documents.
    #[test]
    fn csr_has_all_matches_document(raw in objects(), ws in keyword_set()) {
        let docs: Vec<Document> = raw.iter().map(|(_, k)| Document::new(k.clone())).collect();
        let csr = CsrDocs::from_docs(&docs);
        prop_assert!(csr.check().is_ok());
        prop_assert_eq!(csr.len(), docs.len());
        for (i, d) in docs.iter().enumerate() {
            prop_assert_eq!(csr.doc(i), d.keywords());
            prop_assert_eq!(csr.has_all(i, &ws), d.contains_all(&ws), "doc {} ws {:?}", i, ws);
        }
    }

    /// `RankSpace::contains` ≡ `rank_rect.contains(&rank.point(i))`,
    /// including queries with infinite sides, and the rank rectangle
    /// selects what the original rectangle selects.
    #[test]
    fn rank_contains_matches_point_test(
        raw in objects(),
        dim in 1usize..4,
        parts in rect_parts(),
    ) {
        let data = dataset(&raw, dim);
        let rank = RankSpace::build(data.points());
        prop_assert_eq!(rank.ranks().len(), data.len());
        let q = rect(&parts, dim);
        match rank.rect(&q) {
            Some(rq) => {
                for i in 0..data.len() {
                    let by_point = rq.contains(&rank.point(i));
                    prop_assert_eq!(rank.contains(&rq, i), by_point, "object {}", i);
                    prop_assert_eq!(by_point, q.contains(data.point(i)), "object {}", i);
                }
            }
            None => {
                for i in 0..data.len() {
                    prop_assert!(!q.contains(data.point(i)), "object {} in a provably empty query", i);
                }
            }
        }
        // The raw flat copy agrees with the points it packs.
        let flat = FlatPoints::from_points(data.points());
        for i in 0..data.len() {
            prop_assert_eq!(flat.contains(&q, i), q.contains(data.point(i)), "object {}", i);
        }
    }

    /// The suite's `k = 0` (range scan) and `k = 1` (postings filter)
    /// routes read flat coordinates; their answers equal the brute
    /// force, in every dimension.
    #[test]
    fn suite_flat_routes_match_brute_force(
        raw in objects(),
        dim in 1usize..4,
        parts in rect_parts(),
        w in 0u32..VOCAB,
    ) {
        let data = dataset(&raw, dim);
        let suite = OrpKwSuite::build(&data, 2);
        let q = rect(&parts, dim);
        prop_assert_eq!(sorted(suite.query(&q, &[])), brute_rect(&data, &q, &[]));
        prop_assert_eq!(sorted(suite.query(&q, &[w])), brute_rect(&data, &q, &[w]));
    }
}
