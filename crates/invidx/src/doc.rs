//! Documents: the keyword set attached to each object.
//!
//! In the paper, every object `e ∈ D` carries a non-empty document
//! `e.Doc`, a set of integers; the input size is `N = Σ_e |e.Doc|`.

use crate::Keyword;

/// A non-empty set of keywords, stored sorted and deduplicated so that
/// membership tests are `O(log |Doc|)` and set semantics are canonical.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Document {
    keywords: Vec<Keyword>,
}

impl Document {
    /// Creates a document from keywords (duplicates removed, order
    /// irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `keywords` is empty — the paper requires non-empty
    /// documents.
    pub fn new(mut keywords: Vec<Keyword>) -> Self {
        assert!(!keywords.is_empty(), "documents must be non-empty");
        keywords.sort_unstable();
        keywords.dedup();
        Self { keywords }
    }

    /// The number of distinct keywords `|Doc|` (this object's
    /// contribution to the input size `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Never true: documents are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// The keywords in ascending order.
    #[inline]
    pub fn keywords(&self) -> &[Keyword] {
        &self.keywords
    }

    /// Whether the document contains keyword `w`.
    #[inline]
    pub fn contains(&self, w: Keyword) -> bool {
        self.keywords.binary_search(&w).is_ok()
    }

    /// Whether the document contains *all* the given keywords — the
    /// membership test the query algorithms run per candidate object
    /// (`O(k log |Doc|)`, a constant under the paper's model).
    pub fn contains_all(&self, ws: &[Keyword]) -> bool {
        ws.iter().all(|&w| self.contains(w))
    }
}

/// Many documents in compressed-sparse-row form: one `offsets` array
/// and one `keywords` array, where document `i` is
/// `keywords[offsets[i] .. offsets[i + 1]]` (sorted, deduplicated,
/// non-empty).
///
/// A `Vec<Document>` puts every document behind its own heap pointer,
/// so a scan that tests one document per examined object chases one
/// pointer per object. `CsrDocs` keeps all keywords in one contiguous
/// allocation; the membership test reads a slice next to its
/// neighbours'.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrDocs {
    offsets: Vec<u32>,
    keywords: Vec<Keyword>,
}

impl CsrDocs {
    /// Packs `docs`.
    ///
    /// # Panics
    ///
    /// Panics if the documents hold more than `u32::MAX` keywords in
    /// total.
    pub fn from_docs(docs: &[Document]) -> Self {
        let total: usize = docs.iter().map(Document::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "{total} keywords overflow the u32 document offsets"
        );
        let mut offsets = Vec::with_capacity(docs.len() + 1);
        let mut keywords = Vec::with_capacity(total);
        offsets.push(0);
        for d in docs {
            keywords.extend_from_slice(d.keywords());
            offsets.push(keywords.len() as u32);
        }
        Self { offsets, keywords }
    }

    /// Reassembles decoded parts, validating them with
    /// [`check`](Self::check).
    ///
    /// # Errors
    ///
    /// The first violation [`check`](Self::check) finds.
    pub fn try_from_parts(offsets: Vec<u32>, keywords: Vec<Keyword>) -> Result<Self, String> {
        let docs = Self { offsets, keywords };
        docs.check()?;
        Ok(docs)
    }

    /// The number of documents.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether there are no documents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keywords of document `i`, ascending.
    #[inline]
    pub fn doc(&self, i: usize) -> &[Keyword] {
        &self.keywords[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every document in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Keyword]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.keywords[w[0] as usize..w[1] as usize])
    }

    /// Whether document `i` contains every keyword of `ws` — equal to
    /// [`Document::contains_all`] for ascending, distinct `ws`, the
    /// form every query path canonicalises its keywords into.
    /// `O(k log |Doc|)`; each search starts past the previous match.
    #[inline]
    pub fn has_all(&self, i: usize, ws: &[Keyword]) -> bool {
        debug_assert!(ws.windows(2).all(|p| p[0] < p[1]), "keywords not ascending");
        let mut rest = self.doc(i);
        for w in ws {
            match rest.binary_search(w) {
                Ok(at) => rest = &rest[at + 1..],
                Err(_) => return false,
            }
        }
        true
    }

    /// Verifies the CSR invariants: `offsets` starts at 0, ends at the
    /// keyword count and strictly increases (no empty document), and
    /// every document is strictly ascending (sorted, deduplicated).
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        match (self.offsets.first(), self.offsets.last()) {
            (Some(0), Some(&end)) if end as usize == self.keywords.len() => {}
            _ => {
                return Err(format!(
                    "offsets must run from 0 to the keyword count {}",
                    self.keywords.len()
                ))
            }
        }
        for (i, w) in self.offsets.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(format!(
                    "document {i}: offsets {} -> {} are not increasing (empty document)",
                    w[0], w[1]
                ));
            }
            let doc = &self.keywords[w[0] as usize..w[1] as usize];
            if let Some(p) = doc.windows(2).position(|p| p[0] >= p[1]) {
                return Err(format!(
                    "document {i}: keywords {} and {} are not strictly ascending",
                    doc[p],
                    doc[p + 1]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let d = Document::new(vec![5, 1, 5, 3, 1]);
        assert_eq!(d.keywords(), &[1, 3, 5]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn membership() {
        let d = Document::new(vec![2, 4, 6]);
        assert!(d.contains(4));
        assert!(!d.contains(5));
        assert!(d.contains_all(&[2, 6]));
        assert!(!d.contains_all(&[2, 5]));
        assert!(d.contains_all(&[])); // vacuous
    }

    #[test]
    fn csr_packs_documents() {
        let docs = vec![Document::new(vec![3, 1]), Document::new(vec![7])];
        let csr = CsrDocs::from_docs(&docs);
        assert_eq!(csr.len(), 2);
        assert_eq!(csr.doc(0), &[1, 3]);
        assert_eq!(csr.doc(1), &[7]);
        assert_eq!(csr.iter().collect::<Vec<_>>(), vec![&[1, 3][..], &[7][..]]);
        assert!(csr.has_all(0, &[1, 3]));
        assert!(!csr.has_all(0, &[1, 2]));
        assert!(csr.has_all(1, &[]));
        csr.check().unwrap();
    }

    #[test]
    fn csr_check_names_each_violation() {
        let bad = |offsets: Vec<u32>, kws: Vec<Keyword>| CsrDocs::try_from_parts(offsets, kws);
        assert!(bad(vec![], vec![]).is_err());
        assert!(bad(vec![1, 2], vec![5, 6]).is_err());
        assert!(bad(vec![0, 1], vec![5, 6]).is_err());
        let empty = bad(vec![0, 0, 1], vec![5]).unwrap_err();
        assert!(empty.contains("empty document"), "{empty}");
        let unsorted = bad(vec![0, 2], vec![6, 5]).unwrap_err();
        assert!(unsorted.contains("strictly ascending"), "{unsorted}");
        let dup = bad(vec![0, 2], vec![5, 5]).unwrap_err();
        assert!(dup.contains("strictly ascending"), "{dup}");
        assert!(bad(vec![0, 1, 3], vec![9, 1, 2]).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_document_rejected() {
        let _ = Document::new(vec![]);
    }
}
