//! Postings lists and `k`-way intersection.
//!
//! This is the classical inverted index of §1.2: for each keyword `w`, the
//! set `S_w` of ids of objects whose documents contain `w`, so that
//! `D(w₁, …, w_k) = ⋂ᵢ S_{wᵢ}`. Intersection runs in
//! `O(min|S| · k · log(max|S| / min|S|))` via galloping search — the
//! "keywords only" naive solution whose query time can degenerate to
//! `Θ(N)` even when `OUT = 0`, which is precisely the drawback the
//! paper's indexes remove.

use std::collections::HashMap;

use crate::{Document, Keyword, ObjectId};

/// An inverted index over a fixed collection of documents.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    postings: HashMap<Keyword, Vec<ObjectId>>,
    /// Total input size `N = Σ |Doc|`.
    input_size: usize,
    num_objects: usize,
}

impl InvertedIndex {
    /// Builds the index; object `i` has document `docs[i]`.
    pub fn build(docs: &[Document]) -> Self {
        let mut postings: HashMap<Keyword, Vec<ObjectId>> = HashMap::new();
        let mut input_size = 0usize;
        for (i, doc) in docs.iter().enumerate() {
            input_size += doc.len();
            for &w in doc.keywords() {
                postings.entry(w).or_default().push(i as ObjectId);
            }
        }
        // Ids are pushed in increasing object order, so lists are sorted.
        Self {
            postings,
            input_size,
            num_objects: docs.len(),
        }
    }

    /// The input size `N = Σ |Doc|`.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// The number of objects indexed.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The number of distinct keywords with non-empty postings.
    pub fn num_keywords(&self) -> usize {
        self.postings.len()
    }

    /// The postings list `S_w` (sorted by object id), empty if `w` is
    /// unknown.
    pub fn postings(&self, w: Keyword) -> &[ObjectId] {
        self.postings.get(&w).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The document frequency `|S_w|`.
    pub fn len_of(&self, w: Keyword) -> usize {
        self.postings(w).len()
    }

    /// Computes `D(w₁, …, w_k) = ⋂ᵢ S_{wᵢ}` by galloping intersection,
    /// seeded from the shortest list. Duplicated query keywords are
    /// harmless. Returns ids in ascending order.
    pub fn intersect(&self, keywords: &[Keyword]) -> Vec<ObjectId> {
        if keywords.is_empty() {
            return (0..self.num_objects as ObjectId).collect();
        }
        let mut lists: Vec<&[ObjectId]> = keywords.iter().map(|&w| self.postings(w)).collect();
        lists.sort_by_key(|l| l.len());
        if lists[0].is_empty() {
            return Vec::new();
        }
        let mut result: Vec<ObjectId> = lists[0].to_vec();
        for list in &lists[1..] {
            result = gallop_intersect(&result, list);
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// Deep structural validation: every postings list must be non-empty
    /// (empty lists are never materialized), strictly ascending (the
    /// galloping intersection assumes it), in range, and the list
    /// lengths must sum to the recorded input size `N` (documents are
    /// deduplicated on construction, so each keyword contributes one
    /// posting). `skq-core`'s suite validation calls it.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0usize;
        for (&w, list) in &self.postings {
            if list.is_empty() {
                return Err(format!("keyword {w}: empty postings list materialized"));
            }
            if let Some(pair) = list.windows(2).find(|pair| pair[0] >= pair[1]) {
                return Err(format!(
                    "keyword {w}: postings not strictly ascending at {} >= {}",
                    pair[0], pair[1]
                ));
            }
            let last = *list.last().expect("non-empty");
            if last as usize >= self.num_objects {
                return Err(format!(
                    "keyword {w}: posting {last} out of range for {} objects",
                    self.num_objects
                ));
            }
            total += list.len();
        }
        if total != self.input_size {
            return Err(format!(
                "postings sum to {total}, recorded input size is {}",
                self.input_size
            ));
        }
        Ok(())
    }

    /// Iterates `(keyword, postings)` pairs in ascending keyword
    /// order — the deterministic traversal the snapshot encoder needs
    /// (hash-map iteration order would not be byte-stable).
    pub fn entries(&self) -> impl Iterator<Item = (Keyword, &[ObjectId])> {
        let mut keys: Vec<Keyword> = self.postings.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(|w| (w, self.postings(w)))
    }

    /// Reassembles an index from decoded postings lists, recomputing
    /// the input size and running [`InvertedIndex::validate`] — the
    /// snapshot-load counterpart of [`InvertedIndex::build`].
    ///
    /// # Errors
    ///
    /// A description of the first structural violation: a duplicate
    /// keyword, or anything `validate` rejects (empty list, unsorted
    /// or out-of-range ids, inconsistent totals).
    pub fn try_from_postings(
        lists: Vec<(Keyword, Vec<ObjectId>)>,
        num_objects: usize,
    ) -> Result<Self, String> {
        let mut postings: HashMap<Keyword, Vec<ObjectId>> = HashMap::with_capacity(lists.len());
        let mut input_size = 0usize;
        for (w, ids) in lists {
            input_size += ids.len();
            if postings.insert(w, ids).is_some() {
                return Err(format!("keyword {w}: duplicate postings list"));
            }
        }
        let index = Self {
            postings,
            input_size,
            num_objects,
        };
        index.validate()?;
        Ok(index)
    }

    /// Whether the intersection is empty, with early exit.
    pub fn intersection_is_empty(&self, keywords: &[Keyword]) -> bool {
        if keywords.is_empty() {
            return self.num_objects == 0;
        }
        let mut lists: Vec<&[ObjectId]> = keywords.iter().map(|&w| self.postings(w)).collect();
        lists.sort_by_key(|l| l.len());
        let (probe, rest) = lists.split_first().expect("non-empty");
        'outer: for &id in probe.iter() {
            for list in rest {
                if !gallop_contains(list, id) {
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }
}

/// Intersects two sorted lists, galloping through the longer one.
///
/// For each probe `x` an exponential search widens a window from the
/// current cursor until it must contain the first element `≥ x`, then a
/// binary search pins it down — `O(|short| · log(|long| / |short|))`.
fn gallop_intersect(short: &[ObjectId], long: &[ObjectId]) -> Vec<ObjectId> {
    let mut out = Vec::new();
    let mut lo = 0usize;
    for &x in short {
        if lo >= long.len() {
            break;
        }
        let mut width = 1usize;
        while lo + width < long.len() && long[lo + width] < x {
            width *= 2;
        }
        let end = (lo + width + 1).min(long.len());
        let idx = lo + long[lo..end].partition_point(|&v| v < x);
        if idx < long.len() && long[idx] == x {
            out.push(x);
            lo = idx + 1;
        } else {
            lo = idx;
        }
    }
    out
}

/// Whether sorted `list` contains `id`.
fn gallop_contains(list: &[ObjectId], id: ObjectId) -> bool {
    list.binary_search(&id).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(raw: &[&[Keyword]]) -> Vec<Document> {
        raw.iter().map(|ws| Document::new(ws.to_vec())).collect()
    }

    #[test]
    fn build_counts() {
        let idx = InvertedIndex::build(&docs(&[&[0, 1], &[1, 2, 3], &[0]]));
        assert_eq!(idx.input_size(), 6);
        assert_eq!(idx.num_objects(), 3);
        assert_eq!(idx.num_keywords(), 4);
        assert_eq!(idx.postings(1), &[0, 1]);
        assert_eq!(idx.postings(9), &[] as &[ObjectId]);
    }

    #[test]
    fn validate_accepts_built_and_rejects_corrupt() {
        let mut idx = InvertedIndex::build(&docs(&[&[0, 1], &[1, 2, 3], &[0]]));
        idx.validate().unwrap();
        // Break the ascending-order invariant on one list.
        idx.postings.get_mut(&1).unwrap().reverse();
        let err = idx.validate().unwrap_err();
        assert!(err.contains("not strictly ascending"), "{err}");
    }

    #[test]
    fn intersection_basic() {
        let idx = InvertedIndex::build(&docs(&[&[0, 1, 2], &[0, 2], &[1, 2], &[0, 1, 2, 3]]));
        assert_eq!(idx.intersect(&[0, 1]), vec![0, 3]);
        assert_eq!(idx.intersect(&[2]), vec![0, 1, 2, 3]);
        assert_eq!(idx.intersect(&[0, 1, 3]), vec![3]);
        assert_eq!(idx.intersect(&[0, 5]), Vec::<ObjectId>::new());
    }

    #[test]
    fn empty_keyword_list_returns_all() {
        let idx = InvertedIndex::build(&docs(&[&[0], &[1]]));
        assert_eq!(idx.intersect(&[]), vec![0, 1]);
    }

    #[test]
    fn emptiness_matches_reporting() {
        let idx = InvertedIndex::build(&docs(&[&[0, 1], &[1, 2], &[2, 0]]));
        for ks in [&[0u32, 1] as &[u32], &[0, 1, 2], &[0], &[7]] {
            assert_eq!(
                idx.intersection_is_empty(ks),
                idx.intersect(ks).is_empty(),
                "{ks:?}"
            );
        }
    }

    #[test]
    fn duplicate_query_keywords() {
        let idx = InvertedIndex::build(&docs(&[&[0, 1], &[0]]));
        assert_eq!(idx.intersect(&[0, 0, 1, 1]), vec![0]);
    }

    #[test]
    fn randomized_intersection_matches_bruteforce() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let vocab = 20u32;
        let documents: Vec<Document> = (0..200)
            .map(|_| {
                let len = rng.gen_range(1..8);
                Document::new((0..len).map(|_| rng.gen_range(0..vocab)).collect())
            })
            .collect();
        let idx = InvertedIndex::build(&documents);
        for _ in 0..200 {
            let k = rng.gen_range(1..4);
            let ks: Vec<Keyword> = (0..k).map(|_| rng.gen_range(0..vocab + 2)).collect();
            let mut expected: Vec<ObjectId> = documents
                .iter()
                .enumerate()
                .filter(|(_, d)| d.contains_all(&ks))
                .map(|(i, _)| i as ObjectId)
                .collect();
            expected.sort_unstable();
            assert_eq!(idx.intersect(&ks), expected, "keywords {ks:?}");
            assert_eq!(idx.intersection_is_empty(&ks), expected.is_empty());
        }
    }
}
