//! Property tests for the fallible API surface: on valid inputs,
//! `try_build` + `try_query_into` must be observationally identical to
//! the legacy panicking `build` + `query` — the robustness layer adds
//! error reporting, never different answers.

use proptest::prelude::*;
use structured_keyword_search::prelude::*;

const VOCAB: u32 = 7;

/// Dataset strategy: `n` points on a small integer grid (forcing ties),
/// docs of 1–4 keywords from a small vocabulary (forcing dense
/// co-occurrence).
fn dataset_strategy(dim: usize, n: core::ops::Range<usize>) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::collection::vec(-8i32..8, dim),
            prop::collection::vec(0u32..VOCAB, 1..4),
        ),
        n,
    )
    .prop_map(|raw| {
        Dataset::from_parts(
            raw.into_iter()
                .map(|(coords, kws)| {
                    let coords: Vec<f64> = coords.into_iter().map(f64::from).collect();
                    (Point::new(&coords), kws)
                })
                .collect(),
        )
    })
}

/// Rectangle dataset for RR-KW: integer corner + extent per axis.
fn rect_dataset_strategy(
    n: core::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(Rect, Vec<Keyword>)>> {
    prop::collection::vec(
        (
            prop::collection::vec((-8i32..8, 0i32..6), 2),
            prop::collection::vec(0u32..VOCAB, 1..4),
        ),
        n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(iv, kws)| {
                let lo: Vec<f64> = iv.iter().map(|&(a, _)| f64::from(a)).collect();
                let hi: Vec<f64> = iv.iter().map(|&(a, l)| f64::from(a + l)).collect();
                (Rect::new(&lo, &hi), kws)
            })
            .collect()
    })
}

/// Two distinct keywords.
fn two_keywords() -> impl Strategy<Value = Vec<Keyword>> {
    (0u32..VOCAB, 1u32..VOCAB).prop_map(|(a, d)| vec![a, (a + d) % VOCAB])
}

fn rect_strategy(dim: usize) -> impl Strategy<Value = Rect> {
    prop::collection::vec((-10i32..10, 0i32..12), dim).prop_map(|iv| {
        let lo: Vec<f64> = iv.iter().map(|&(a, _)| f64::from(a)).collect();
        let hi: Vec<f64> = iv.iter().map(|&(a, l)| f64::from(a + l)).collect();
        Rect::new(&lo, &hi)
    })
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orp_try_surface_equals_legacy(
        d in dataset_strategy(2, 4..60),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let legacy = OrpKwIndex::build(&d, 2);
        let fallible = OrpKwIndex::try_build(&d, 2).expect("valid dataset must build");
        let mut out = Vec::new();
        let stats = fallible.try_query_into(&q, &kws, &mut out).expect("valid query");
        prop_assert_eq!(sorted(out.clone()), sorted(legacy.query(&q, &kws)));
        prop_assert_eq!(stats.emitted, out.len() as u64);
        prop_assert!(stats.truncated_reason.is_none());
    }

    #[test]
    fn rr_try_surface_equals_legacy(
        rects in rect_dataset_strategy(4..40),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let legacy = RrKwIndex::build(&rects, 2);
        let fallible = RrKwIndex::try_build(&rects, 2).expect("valid rectangles must build");
        let mut out = Vec::new();
        fallible.try_query_into(&q, &kws, &mut out).expect("valid query");
        prop_assert_eq!(sorted(out), sorted(legacy.query(&q, &kws)));
    }

    #[test]
    fn nn_linf_try_surface_equals_legacy(
        d in dataset_strategy(2, 4..60),
        at in prop::collection::vec(-9i32..9, 2),
        t in 1usize..6,
        kws in two_keywords(),
    ) {
        let at = Point::new(&at.into_iter().map(f64::from).collect::<Vec<_>>());
        let legacy = LinfNnIndex::build(&d, 2);
        let fallible = LinfNnIndex::try_build(&d, 2).expect("valid dataset must build");
        let mut out = Vec::new();
        fallible.try_query_into(&NnQuery::new(at, t), &kws, &mut out).expect("valid query");
        prop_assert_eq!(sorted(out), sorted(legacy.query(&NnQuery::new(at, t), &kws)));
    }
}
