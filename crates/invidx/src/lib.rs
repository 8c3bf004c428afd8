//! Inverted-index substrate for keyword search.
//!
//! Keyword search — computing `D(w₁, …, w_k)`, the objects whose
//! documents contain all of `w₁, …, w_k` — is equivalent to `k`-set
//! intersection over an inverted index (paper §1.2). This crate provides:
//!
//! * [`Document`] — a deduplicated, sorted keyword set per object, and
//!   [`CsrDocs`], many of them packed into two flat arrays;
//! * [`Dictionary`] — a string ↔ keyword-id mapping for applications;
//! * [`InvertedIndex`] — postings lists with galloping `k`-way
//!   intersection, the "keywords only" naive solution of the paper's
//!   introduction;
//! * [`Analyzer`] — tokenization/normalization from free-form text to
//!   keyword documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dict;
pub mod doc;
pub mod postings;
pub mod text;

pub use dict::Dictionary;
pub use doc::{CsrDocs, Document};
pub use postings::InvertedIndex;
pub use text::Analyzer;

/// A keyword identifier (the paper treats keywords as integers in
/// `[1, W]`; we use 0-based `u32`).
pub type Keyword = u32;

/// An object identifier: the index of the object in its dataset.
pub type ObjectId = u32;
