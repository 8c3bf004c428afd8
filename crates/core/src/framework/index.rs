//! The transformed index (Steps 2–3 of the framework, §3.2–§3.3).

use std::ops::ControlFlow;

use skq_geom::{FlatPoints, Rect, Region};
use skq_invidx::{CsrDocs, Document, Keyword};

use crate::error::SkqError;
use crate::failpoints;
use crate::fastmap::FxHashMap;
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::sink::{LimitSink, ResultSink};
use crate::stats::QueryStats;

use super::combo::{for_each_k_subset, ComboTable};
use super::kd::KdPartitioner;
use super::partitioner::{Partitioner, SplitOutcome};

/// Build-time knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrameworkConfig {
    /// Nodes whose verbose weight `N_u` is at most this become leaves
    /// whose pivot set is their whole active set. The paper recurses to
    /// single points; a small constant cap only changes constants while
    /// keeping node counts (and build time) reasonable.
    pub leaf_weight: u64,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        Self { leaf_weight: 24 }
    }
}

struct Node<C> {
    cell: C,
    level: u32,
    weight: u64,
    children: Vec<u32>,
    /// Objects stored at this node (boundary objects for internal
    /// nodes; the whole active set for leaves).
    pivots: Vec<u32>,
    /// Large keywords at this node → local id in `0..L` (ids follow
    /// ascending keyword order).
    large: FxHashMap<Keyword, u32>,
    /// One emptiness table per child (parallel to `children`); empty
    /// when `L < k` (then no `k` distinct keywords can all be large).
    combos: Vec<ComboTable>,
    /// Materialized `D_u^act(w)` for keywords small at this node but
    /// large at all proper ancestors. Lists exclude this node's pivots
    /// (those are reported by the visit itself), so reporting never
    /// duplicates. A keyword that qualifies but has an empty list is
    /// simply absent.
    materialized: FxHashMap<Keyword, Vec<u32>>,
}

/// A keyword-transformed space-partitioning index (§3.2).
///
/// Generic over the geometry via [`Partitioner`]; the query side is
/// generic over the query shape via a cell-classification closure and a
/// point-acceptance closure, so a single tree answers rectangles,
/// halfspace conjunctions, simplices, or lifted balls.
pub struct TransformedIndex<P: Partitioner> {
    partitioner: P,
    /// Object documents in CSR form: every pivot and list scan tests
    /// membership against one contiguous keyword array.
    docs: CsrDocs,
    nodes: Vec<Node<P::Cell>>,
    k: usize,
    config: FrameworkConfig,
    total_weight: u64,
}

impl<P: Partitioner> TransformedIndex<P> {
    /// Builds the index for exactly-`k`-keyword queries.
    ///
    /// `docs[i]` is the document of object `i`; the partitioner owns the
    /// matching coordinates. `N = Σ |docs[i]|` is the paper's input
    /// size.
    ///
    /// # Panics
    ///
    /// Panics with the [`try_build`](Self::try_build) error message if
    /// `k < 2` (the paper fixes `k ≥ 2`) or `docs` is empty.
    pub fn build(partitioner: P, docs: &[Document], k: usize, config: FrameworkConfig) -> Self {
        Self::try_build(partitioner, docs, k, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`build`](Self::build): validates the parameters and
    /// returns `Err` instead of panicking.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k < 2` or `k > 16`;
    /// `SkqError::InvalidDataset` if `docs` is empty or holds more than
    /// `u32::MAX` keywords in total. (With the `failpoints` feature, an
    /// armed `framework::build` site also fails here.)
    pub fn try_build(
        partitioner: P,
        docs: &[Document],
        k: usize,
        config: FrameworkConfig,
    ) -> Result<Self, SkqError> {
        if k < 2 {
            return Err(SkqError::InvalidQuery(
                "the framework requires k >= 2 query keywords".into(),
            ));
        }
        if k > 16 {
            return Err(SkqError::InvalidQuery(
                "k > 16 keywords is unsupported (and pointless: the bound degrades to O(N))".into(),
            ));
        }
        if docs.is_empty() {
            return Err(SkqError::InvalidDataset(
                "cannot index an empty dataset".into(),
            ));
        }
        if u32::try_from(docs.iter().map(Document::len).sum::<usize>()).is_err() {
            return Err(SkqError::InvalidDataset(
                "more than u32::MAX keywords in total".into(),
            ));
        }
        failpoints::check("framework::build")?;
        let docs = CsrDocs::from_docs(docs);
        let all: Vec<u32> = (0..docs.len() as u32).collect();
        let total_weight = partitioner.total_weight(&all);
        let mut index = Self {
            partitioner,
            docs,
            nodes: Vec::new(),
            k,
            config,
            total_weight,
        };
        let root_cell = index.partitioner.root_cell();
        // At the root every keyword is trivially "large at all (zero)
        // proper ancestors", i.e. a materialization candidate.
        let candidates: Vec<Keyword> = {
            let mut ws: Vec<Keyword> = index.docs.iter().flatten().copied().collect();
            ws.sort_unstable();
            ws.dedup();
            ws
        };
        index.build_node(root_cell, all, 0, &candidates);
        Ok(index)
    }

    /// Recursively builds the subtree over `objects`; returns the node id.
    fn build_node(
        &mut self,
        cell: P::Cell,
        objects: Vec<u32>,
        level: u32,
        candidates: &[Keyword],
    ) -> u32 {
        let weight = self.partitioner.total_weight(&objects);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            cell,
            level,
            weight,
            children: Vec::new(),
            pivots: Vec::new(),
            large: FxHashMap::default(),
            combos: Vec::new(),
            materialized: FxHashMap::default(),
        });

        // Leaf: store the whole active set as pivots; a visit scans them
        // all, so no keyword machinery is needed.
        let outcome = if weight <= self.config.leaf_weight {
            None
        } else {
            let cell_ref = self.nodes[id as usize].cell.clone();
            self.partitioner.split(&cell_ref, &objects, level as usize)
        };
        let Some(SplitOutcome { pivots, children }) = outcome else {
            self.nodes[id as usize].pivots = objects;
            return id;
        };
        if children.is_empty() {
            // The split degenerated to "everything is a boundary object".
            self.nodes[id as usize].pivots = pivots;
            return id;
        }

        // --- Large/small classification at this node (§3.2). ---
        // Count |D_u^act(w)| for the materialization candidates (keywords
        // large at every proper ancestor — others can never be needed
        // here, because a query only descends while all its keywords
        // stay large).
        let tau = (weight as f64).powf(1.0 - 1.0 / self.k as f64);
        let mut counts: FxHashMap<Keyword, u64> = FxHashMap::default();
        for &o in pivots.iter().chain(children.iter().flat_map(|(_, c)| c)) {
            for &w in self.docs.doc(o as usize) {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut large_list: Vec<Keyword> = Vec::new();
        let mut small_set: Vec<Keyword> = Vec::new();
        for &w in candidates {
            match counts.get(&w) {
                Some(&c) if (c as f64) >= tau => large_list.push(w),
                Some(_) => small_set.push(w),
                None => {} // empty list: absence means empty at query time
            }
        }
        debug_assert!(
            (large_list.len() as f64) <= (weight as f64).powf(1.0 / self.k as f64) + 1.0,
            "more than N_u^(1/k) large keywords"
        );
        let large: FxHashMap<Keyword, u32> = large_list
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, i as u32))
            .collect();

        // --- Materialized lists: small here, large at all ancestors. ---
        // Built over the children's active sets only (pivots are scanned
        // by every visit anyway; excluding them avoids double reports).
        let mut materialized: FxHashMap<Keyword, Vec<u32>> = FxHashMap::default();
        if !small_set.is_empty() {
            small_set.sort_unstable();
            for (_, child_objs) in &children {
                for &o in child_objs {
                    for &w in self.docs.doc(o as usize) {
                        if small_set.binary_search(&w).is_ok() {
                            materialized.entry(w).or_default().push(o);
                        }
                    }
                }
            }
        }

        // --- Per-child emptiness tables over large-keyword k-tuples. ---
        let l = large_list.len();
        let mut combos: Vec<ComboTable> = Vec::new();
        if l >= self.k {
            for (_, child_objs) in &children {
                let mut table = ComboTable::new(l, self.k);
                let mut local: Vec<u32> = Vec::new();
                for &o in child_objs {
                    local.clear();
                    for &w in self.docs.doc(o as usize) {
                        if let Some(&lid) = large.get(&w) {
                            local.push(lid);
                        }
                    }
                    local.sort_unstable();
                    for_each_k_subset(&local, self.k, &mut |subset| table.set(subset));
                }
                combos.push(table);
            }
        }

        {
            let node = &mut self.nodes[id as usize];
            node.pivots = pivots;
            node.large = large;
            node.combos = combos;
            node.materialized = materialized;
        }

        // --- Recurse; children inherit the large keywords as candidates.
        let child_ids: Vec<u32> = children
            .into_iter()
            .map(|(ccell, cobjs)| self.build_node(ccell, cobjs, level + 1, &large_list))
            .collect();
        self.nodes[id as usize].children = child_ids;
        id
    }

    /// The fixed number of query keywords `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The tree height (max level).
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0) as usize
    }

    /// Total verbose weight `N`.
    pub fn input_size(&self) -> u64 {
        self.total_weight
    }

    /// The partitioner (and through it, the indexed coordinates).
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Mutable access to the partitioner, for snapshot loaders that
    /// swap its coordinates for an equal shared copy. The tree is not
    /// rebuilt: changing what the partitioner splits on afterwards
    /// has no effect on it.
    pub(crate) fn partitioner_mut(&mut self) -> &mut P {
        &mut self.partitioner
    }

    /// Index space in 64-bit words: tree skeleton, pivot ids, large
    /// tables, emptiness bit arrays, and materialized lists. Cells are
    /// charged a constant via `cell_words`.
    pub fn space_words(&self, cell_words: usize) -> usize {
        let mut total = 0usize;
        for n in &self.nodes {
            total += 6 + cell_words; // fixed per-node fields
            total += n.children.len();
            total += n.pivots.len();
            total += n.large.len() * 2;
            total += n.combos.iter().map(ComboTable::space_words).sum::<usize>();
            total += n.materialized.values().map(|v| v.len() + 2).sum::<usize>();
        }
        total
    }

    /// Answers a `k`-keyword query, collecting into `out` with a limit.
    ///
    /// * `keywords` — exactly `k` distinct keywords;
    /// * `classify` — cell-vs-query classification (conservative allowed);
    /// * `accept` — exact point-in-query test by object id;
    /// * `limit` — stop after this many results (used by the
    ///   threshold/emptiness queries of Corollaries 4 and 7; pass
    ///   `usize::MAX` to report everything);
    /// * `out` — results are appended (object ids, no duplicates);
    /// * `stats` — execution counters.
    ///
    /// Thin wrapper over [`query_sink`](Self::query_sink) with a
    /// [`LimitSink`] around `out`.
    ///
    /// # Panics
    ///
    /// Panics if `keywords` does not contain exactly `k` distinct
    /// values.
    pub fn query(
        &self,
        keywords: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        limit: usize,
        out: &mut Vec<u32>,
        stats: &mut QueryStats,
    ) {
        let mut sink = LimitSink::new(&mut *out, limit);
        let _ = self.query_sink(keywords, classify, accept, &mut sink, stats);
        stats.emitted += sink.emitted();
        stats.truncated |= sink.truncated();
    }

    /// Streaming form of [`query`](Self::query): every matching object
    /// is emitted into `sink`, which may stop the traversal early (the
    /// returned `ControlFlow::Break` reports that it did).
    ///
    /// The traversal records `reported` (offers to the sink) in `stats`
    /// but leaves `emitted`/`truncated` for the sink's owner, so a sink
    /// threaded through several indexes is accounted exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `keywords` does not contain exactly `k` distinct
    /// values.
    pub fn query_sink<S: ResultSink>(
        &self,
        keywords: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let mut buf = [0; 16];
        let kws = canonical_keywords(keywords, &mut buf);
        assert_eq!(
            kws.map(<[Keyword]>::len),
            Some(self.k),
            "the index was built for exactly {} distinct keywords",
            self.k
        );
        let kws = kws.unwrap_or_default();
        if sink.is_full() {
            return ControlFlow::Break(());
        }
        let root_region = classify(&self.nodes[0].cell);
        if root_region == Region::Disjoint {
            return ControlFlow::Continue(());
        }
        self.visit(0, root_region, kws, classify, accept, sink, stats)
    }

    // The recursion threads every traversal input (region, keyword
    // set, classify/accept callbacks, sink, stats) explicitly instead
    // of a context struct rebuilt per node.
    #[allow(clippy::too_many_arguments)]
    fn visit<S: ResultSink>(
        &self,
        node_id: u32,
        region: Region,
        kws: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let node = &self.nodes[node_id as usize];
        stats.nodes_visited += 1;
        match region {
            Region::Covered => stats.covered_nodes += 1,
            Region::Crossing => {
                stats.crossing_nodes += 1;
                QueryStats::bump(&mut stats.crossing_by_level, node.level as usize);
            }
            Region::Disjoint => unreachable!("disjoint nodes are never visited"),
        }

        // Scan the pivot set (every visit does; §3.3 "to visit a node").
        for &e in &node.pivots {
            stats.pivot_scans += 1;
            if self.docs.has_all(e as usize, kws) && accept(e) {
                stats.reported += 1;
                sink.emit(e)?;
            }
        }
        if node.children.is_empty() {
            return ControlFlow::Continue(());
        }

        // Are all k keywords large at this node?
        let mut local = [0u32; 16];
        debug_assert!(self.k <= 16);
        let mut all_large = true;
        for (slot, &w) in local.iter_mut().zip(kws) {
            match node.large.get(&w) {
                Some(&lid) => *slot = lid,
                None => {
                    all_large = false;
                    break;
                }
            }
        }

        if all_large {
            let ids = &mut local[..self.k];
            ids.sort_unstable();
            debug_assert!(
                !node.combos.is_empty(),
                "k distinct large keywords imply L >= k"
            );
            for (ci, &child) in node.children.iter().enumerate() {
                if !node.combos[ci].get(ids) {
                    continue; // ⋂ D_v^act(w_i) = ∅ — skip the subtree
                }
                let child_region = match region {
                    Region::Covered => Region::Covered,
                    _ => classify(&self.nodes[child as usize].cell),
                };
                if child_region != Region::Disjoint {
                    self.visit(child, child_region, kws, classify, accept, sink, stats)?;
                }
            }
        } else {
            // Small path: some keyword is small here, hence materialized
            // here (it was large at every ancestor, or we would not have
            // descended). Scan the shortest such list.
            stats.small_path_nodes += 1;
            let Some((own, list)) = kws
                .iter()
                .filter(|w| !node.large.contains_key(w))
                .map(|&w| {
                    let list = node.materialized.get(&w).map(Vec::as_slice);
                    (w, list.unwrap_or(&[]))
                })
                .min_by_key(|(_, l)| l.len())
            else {
                return ControlFlow::Continue(());
            };
            // Every entry of `materialized[own]` contains `own` (the
            // deep validator checks it), so only the other k − 1
            // keywords need testing.
            let mut rest_buf = [0; 16];
            let mut rest_len = 0;
            for &w in kws.iter().filter(|&&w| w != own) {
                rest_buf[rest_len] = w;
                rest_len += 1;
            }
            let rest = &rest_buf[..rest_len];
            for &e in list {
                stats.list_scans += 1;
                if self.docs.has_all(e as usize, rest) && accept(e) {
                    stats.reported += 1;
                    sink.emit(e)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Iterates over `(level, weight, num_pivots, num_large)` per node —
    /// diagnostics for the invariants the property tests assert.
    pub fn node_summaries(&self) -> impl Iterator<Item = (u32, u64, usize, usize)> + '_ {
        self.nodes
            .iter()
            .map(|n| (n.level, n.weight, n.pivots.len(), n.large.len()))
    }
}

impl<P: Partitioner> TransformedIndex<P> {
    /// Deep structural validation (DESIGN.md §12): re-derives the §3
    /// invariants from the built structure rather than trusting the
    /// build path's bookkeeping. Requires the weight-halving balance
    /// guarantee; use [`validate_with`](Self::validate_with) for
    /// partitioners without one.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        self.validate_with(true)
    }

    /// Like [`validate`](Self::validate) with the weight-balance check
    /// made optional (the midpoint quadtree halves area, not weight).
    pub fn validate_with(
        &self,
        require_balance: bool,
    ) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        // The §3.2 arithmetic invariants: large-keyword cap L ≤ N_u^(1/k),
        // materialized lists < τ, child weight ≤ half, combo parallelism.
        let section3 = |d: String| Err(V::new("framework::section3", d));
        for (i, n) in self.nodes.iter().enumerate() {
            // Large-keyword bound L ≤ N_u^(1/k) (+1 for float rounding).
            let cap = (n.weight as f64).powf(1.0 / self.k as f64) + 1.0;
            if n.large.len() as f64 > cap {
                return section3(format!(
                    "node {i}: {} large keywords exceeds N_u^(1/k) = {cap}",
                    n.large.len()
                ));
            }
            // Materialized lists must be shorter than the threshold.
            let tau = (n.weight as f64).powf(1.0 - 1.0 / self.k as f64);
            for (w, list) in &n.materialized {
                if list.len() as f64 >= tau + 1.0 {
                    return section3(format!(
                        "node {i}: materialized list for {w} has {} ≥ τ = {tau}",
                        list.len()
                    ));
                }
            }
            // Children carry at most half the weight (median-split
            // partitioners only).
            if require_balance {
                for &c in &n.children {
                    let cw = self.nodes[c as usize].weight;
                    if cw * 2 > n.weight {
                        return section3(format!(
                            "node {i}: child weight {cw} exceeds half of {}",
                            n.weight
                        ));
                    }
                }
            }
            // Combo tables parallel children when present.
            if !n.combos.is_empty() && n.combos.len() != n.children.len() {
                return section3(format!("node {i}: combo/children length mismatch"));
            }
        }
        let n = self.docs.len();

        // Documents: well-formed CSR (monotone offsets; every row
        // non-empty, sorted, deduplicated), one row per indexed object,
        // each row as long as its object's verbose weight.
        self.docs
            .check()
            .map_err(|d| V::new("framework::documents", d))?;
        if let Some(o) =
            (0..n).find(|&o| self.partitioner.weight(o as u32) != self.docs.doc(o).len() as u64)
        {
            return Err(V::new(
                "framework::documents",
                format!("object {o}: weight differs from its document length"),
            ));
        }

        // Tree shape: child ids in range, every non-root node the child
        // of exactly one parent, levels increasing by one, child cells
        // nested in their parent's (when the cell type can answer).
        let mut child_of = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                let c = c as usize;
                if c >= self.nodes.len() {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!("node {i} references child {c}, out of range"),
                    ));
                }
                if std::mem::replace(&mut child_of[c], true) {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!("node {c} has two parents"),
                    ));
                }
                if self.nodes[c].level != node.level + 1 {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!(
                            "child {c} at level {} under parent {i} at level {}",
                            self.nodes[c].level, node.level
                        ),
                    ));
                }
                if let Some(false) = P::cell_nested(&node.cell, &self.nodes[c].cell) {
                    return Err(V::new(
                        "framework::cell_nesting",
                        format!("cell of node {c} escapes its parent node {i}"),
                    ));
                }
            }
        }
        if let Some(i) = child_of.iter().skip(1).position(|&reached| !reached) {
            return Err(V::new(
                "framework::tree_shape",
                format!("node {} is unreachable from the root", i + 1),
            ));
        }

        // Pivot partition (§3.2): every object is stored at exactly one
        // node — boundary objects at internal nodes, the whole active
        // set at leaves.
        let mut owner: Vec<u32> = vec![u32::MAX; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.pivots {
                if e as usize >= n {
                    return Err(V::new(
                        "framework::pivot_partition",
                        format!("node {i} stores object {e}, out of range"),
                    ));
                }
                if owner[e as usize] != u32::MAX {
                    return Err(V::new(
                        "framework::pivot_partition",
                        format!("object {e} stored at nodes {} and {i}", owner[e as usize]),
                    ));
                }
                owner[e as usize] = i as u32;
            }
        }
        if let Some(orphan) = owner.iter().position(|&o| o == u32::MAX) {
            return Err(V::new(
                "framework::pivot_partition",
                format!("object {orphan} stored at no node"),
            ));
        }

        // Materialized lists: in-range, duplicate-free ids whose
        // documents actually contain the listed keyword.
        for (i, node) in self.nodes.iter().enumerate() {
            for (&w, list) in &node.materialized {
                let mut sorted = list.clone();
                sorted.sort_unstable();
                if sorted.windows(2).any(|p| p[0] == p[1]) {
                    return Err(V::new(
                        "framework::materialized",
                        format!("node {i}: duplicate id in the list of keyword {w}"),
                    ));
                }
                for &e in list {
                    if e as usize >= n {
                        return Err(V::new(
                            "framework::materialized",
                            format!("node {i}: id {e} out of range in the list of keyword {w}"),
                        ));
                    }
                    if !self.docs.has_all(e as usize, &[w]) {
                        return Err(V::new(
                            "framework::materialized",
                            format!(
                                "node {i}: object {e} listed for keyword {w} its document lacks"
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Persist for TransformedIndex<KdPartitioner> {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let points = self.partitioner.points();
        let dim = points.dim();
        let n = points.len();
        let mut head = Vec::new();
        persist::put_uv(&mut head, self.k as u64);
        persist::put_uv(&mut head, self.config.leaf_weight);
        persist::put_uv(&mut head, self.total_weight);
        persist::put_uv(&mut head, n as u64);
        persist::put_uv(&mut head, dim as u64);
        persist::put_uv(&mut head, self.nodes.len() as u64);
        w.page(persist::kind::TREE_HEAD, SCHEMA_VERSION, head);
        persist::put_point_pages(
            w,
            persist::kind::TREE_POINTS,
            dim,
            points.as_slice().chunks(dim),
        );
        let mut weights = Vec::with_capacity(n);
        for &wt in self.partitioner.weights() {
            persist::put_uv(&mut weights, wt);
        }
        w.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, weights);
        persist::put_doc_pages(w, persist::kind::TREE_DOCS, self.docs.iter());
        for chunk in self.nodes.chunks(NODES_PER_PAGE) {
            let mut buf = Vec::new();
            for node in chunk {
                encode_node(&mut buf, node, dim);
            }
            w.page(persist::kind::TREE_NODES, SCHEMA_VERSION, buf);
        }
        Ok(())
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let section = "framework";
        let fail = |detail: String| SkqError::Corrupted {
            section: section.into(),
            detail,
        };
        let mut head = r.page(persist::kind::TREE_HEAD, SCHEMA_VERSION, section)?;
        let k = head.usizev()?;
        let leaf_weight = head.uv()?;
        let total_weight = head.uv()?;
        let n = head.usizev()?;
        let dim = head.usizev()?;
        let node_count = head.usizev()?;
        head.end()?;
        if !(2..=16).contains(&k) {
            return Err(fail(format!("k = {k} outside the supported 2..=16")));
        }
        if n == 0 {
            return Err(fail("tree indexes zero objects".into()));
        }
        if node_count == 0 {
            return Err(fail("tree has zero nodes".into()));
        }
        let coords = persist::read_point_pages(r, persist::kind::TREE_POINTS, section, n, dim)?;
        if let Some(at) = coords.iter().position(|c| !c.is_finite()) {
            return Err(fail(format!(
                "point {} has a non-finite coordinate",
                at / dim
            )));
        }
        let points = FlatPoints::try_from_coords(coords, dim).map_err(fail)?;
        let mut wdec = r.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, section)?;
        let mut weights = Vec::with_capacity(n);
        for i in 0..n {
            let wt = wdec.uv()?;
            if wt == 0 {
                return Err(fail(format!("object {i} has zero weight")));
            }
            weights.push(wt);
        }
        wdec.end()?;
        let docs = persist::read_doc_pages(r, persist::kind::TREE_DOCS, section, n)?;
        let mut nodes = Vec::with_capacity(node_count.min(1 << 20));
        let mut remaining = node_count;
        while remaining > 0 {
            let mut d = r.page(persist::kind::TREE_NODES, SCHEMA_VERSION, section)?;
            let in_page = remaining.min(NODES_PER_PAGE);
            for _ in 0..in_page {
                let id = nodes.len();
                nodes.push(decode_node(&mut d, id, dim, k, n, node_count)?);
            }
            d.end()?;
            remaining -= in_page;
        }
        // `over` cannot panic here: there are `n` points and `n`
        // weights by decoding, and every weight is positive.
        let partitioner = KdPartitioner::over(points, weights);
        Ok(Self {
            partitioner,
            docs,
            nodes,
            k,
            config: FrameworkConfig { leaf_weight },
            total_weight,
        })
    }
}

/// The ascending, duplicate-free form of `keywords`, without
/// allocating: `keywords` itself when it is already canonical (the
/// suite's dispatch hands over canonical sets), otherwise a sorted
/// copy in `buf`. `None` if there are more than 16 distinct keywords,
/// more than any index supports.
fn canonical_keywords<'a>(
    keywords: &'a [Keyword],
    buf: &'a mut [Keyword; 16],
) -> Option<&'a [Keyword]> {
    if keywords.windows(2).all(|p| p[0] < p[1]) {
        return Some(keywords);
    }
    let mut len = 0;
    for &w in keywords {
        if let Err(at) = buf[..len].binary_search(&w) {
            if len == buf.len() {
                return None;
            }
            buf.copy_within(at..len, at + 1);
            buf[at] = w;
            len += 1;
        }
    }
    Some(&buf[..len])
}

/// Nodes per `TREE_NODES` page.
const NODES_PER_PAGE: usize = 256;

/// Appends one arena node to a `TREE_NODES` payload. The `large` map
/// is stored as its ascending keyword list alone: local ids are
/// assigned by ascending-keyword enumeration at build time, so the
/// position in the list *is* the id.
fn encode_node(buf: &mut Vec<u8>, node: &Node<Rect>, dim: usize) {
    for i in 0..dim {
        persist::put_f64(buf, node.cell.lo(i));
    }
    for i in 0..dim {
        persist::put_f64(buf, node.cell.hi(i));
    }
    persist::put_uv(buf, u64::from(node.level));
    persist::put_uv(buf, node.weight);
    persist::put_uv(buf, node.children.len() as u64);
    for &c in &node.children {
        persist::put_uv(buf, u64::from(c));
    }
    persist::put_uv(buf, node.pivots.len() as u64);
    for &p in &node.pivots {
        persist::put_uv(buf, u64::from(p));
    }
    let mut large: Vec<(Keyword, u32)> = node.large.iter().map(|(&w, &id)| (w, id)).collect();
    large.sort_unstable();
    persist::put_uv(buf, large.len() as u64);
    for &(w, _) in &large {
        persist::put_uv(buf, u64::from(w));
    }
    persist::put_uv(buf, node.combos.len() as u64);
    for table in &node.combos {
        let (l, k, bits) = table.parts();
        persist::put_uv(buf, l as u64);
        persist::put_uv(buf, k as u64);
        for &word in bits {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
    let mut mat: Vec<(Keyword, &Vec<u32>)> =
        node.materialized.iter().map(|(&w, v)| (w, v)).collect();
    mat.sort_unstable_by_key(|&(w, _)| w);
    persist::put_uv(buf, mat.len() as u64);
    for (w, list) in mat {
        persist::put_uv(buf, u64::from(w));
        persist::put_uv(buf, list.len() as u64);
        for &e in list {
            persist::put_uv(buf, u64::from(e));
        }
    }
}

/// Decodes one arena node, validating every field against the tree's
/// scalars so a checksum-passing but inconsistent file cannot put the
/// query path in a panicking state: cells are NaN-free with ordered
/// bounds, child ids point strictly forward (the arena is built
/// parent-before-child, which also rules out cycles), object ids are
/// in range, combo tables match the large-keyword count and `k`.
fn decode_node(
    d: &mut persist::Dec<'_>,
    id: usize,
    dim: usize,
    k: usize,
    n: usize,
    node_count: usize,
) -> Result<Node<Rect>, SkqError> {
    let fail = |detail: String| SkqError::Corrupted {
        section: "framework".into(),
        detail,
    };
    let mut lo = [0.0f64; skq_geom::MAX_DIM];
    let mut hi = [0.0f64; skq_geom::MAX_DIM];
    for c in lo.iter_mut().take(dim) {
        *c = d.f64()?;
    }
    for c in hi.iter_mut().take(dim) {
        *c = d.f64()?;
    }
    for i in 0..dim {
        if lo[i].is_nan() || hi[i].is_nan() || lo[i] > hi[i] {
            return Err(fail(format!("node {id}: malformed cell bounds on dim {i}")));
        }
    }
    let cell = Rect::new(&lo[..dim], &hi[..dim]);
    let level = d.u32v()?;
    let weight = d.uv()?;
    let num_children = d.len(1)?;
    let mut children = Vec::with_capacity(num_children);
    for _ in 0..num_children {
        let c = d.u32v()?;
        if c as usize >= node_count || c as usize <= id {
            return Err(fail(format!(
                "node {id}: child id {c} not strictly forward"
            )));
        }
        children.push(c);
    }
    let num_pivots = d.len(1)?;
    let mut pivots = Vec::with_capacity(num_pivots);
    for _ in 0..num_pivots {
        let p = d.u32v()?;
        if p as usize >= n {
            return Err(fail(format!("node {id}: pivot {p} out of range")));
        }
        pivots.push(p);
    }
    let num_large = d.len(1)?;
    let mut large = FxHashMap::default();
    let mut prev: Option<Keyword> = None;
    for lid in 0..num_large {
        let w = d.u32v()?;
        if prev.is_some_and(|p| p >= w) {
            return Err(fail(format!(
                "node {id}: large keywords out of order at {w}"
            )));
        }
        prev = Some(w);
        large.insert(w, lid as u32);
    }
    let num_combos = d.len(1)?;
    if num_combos != 0 && num_combos != children.len() {
        return Err(fail(format!(
            "node {id}: {num_combos} combo tables for {} children",
            children.len()
        )));
    }
    let mut combos = Vec::with_capacity(num_combos);
    for _ in 0..num_combos {
        let l = d.usizev()?;
        let tk = d.usizev()?;
        if l != num_large || tk != k {
            return Err(fail(format!(
                "node {id}: combo table over l={l} k={tk}, node has L={num_large} k={k}"
            )));
        }
        // `tk == k` is in 2..=16 here, so the cell count fits u128.
        let cells = (l as u128)
            .checked_pow(tk as u32)
            .filter(|&c| c <= 1 << 40)
            .ok_or_else(|| fail(format!("node {id}: combo table size overflows")))?;
        let words = (cells as usize).div_ceil(64);
        if d.remaining() < words * 8 {
            return Err(fail(format!("node {id}: combo table truncated")));
        }
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(d.u64_raw()?);
        }
        let table =
            ComboTable::from_parts(l, tk, bits).map_err(|e| fail(format!("node {id}: {e}")))?;
        combos.push(table);
    }
    let num_mat = d.len(1)?;
    let mut materialized = FxHashMap::default();
    let mut prev_w: Option<Keyword> = None;
    for _ in 0..num_mat {
        let w = d.u32v()?;
        if prev_w.is_some_and(|p| p >= w) {
            return Err(fail(format!(
                "node {id}: materialized keywords out of order at {w}"
            )));
        }
        prev_w = Some(w);
        let len = d.len(1)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            let e = d.u32v()?;
            if e as usize >= n {
                return Err(fail(format!(
                    "node {id}: materialized id {e} out of range for keyword {w}"
                )));
            }
            list.push(e);
        }
        materialized.insert(w, list);
    }
    Ok(Node {
        cell,
        level,
        weight,
        children,
        pivots,
        large,
        combos,
        materialized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::KdPartitioner;
    use skq_geom::Point;

    /// A 1D framework index over object ids — the minimal harness for
    /// exercising the large/small machinery directly.
    fn build_1d(
        docs: Vec<Vec<Keyword>>,
        k: usize,
        leaf_weight: u64,
    ) -> TransformedIndex<KdPartitioner> {
        let points: Vec<Point> = (0..docs.len()).map(|i| Point::new1(i as f64)).collect();
        let docs: Vec<Document> = docs.into_iter().map(Document::new).collect();
        let weights: Vec<u64> = docs.iter().map(|d| d.len() as u64).collect();
        TransformedIndex::build(
            KdPartitioner::new(points, weights),
            &docs,
            k,
            FrameworkConfig { leaf_weight },
        )
    }

    fn run(tree: &TransformedIndex<KdPartitioner>, kws: &[Keyword], limit: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        tree.query(
            kws,
            &|_| Region::Covered,
            &|_| true,
            limit,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        out
    }

    #[test]
    fn single_node_tree() {
        let tree = build_1d(vec![vec![0, 1], vec![0], vec![1]], 2, 1000);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(run(&tree, &[0, 1], usize::MAX), vec![0]);
        assert_eq!(run(&tree, &[0, 1], 0), Vec::<u32>::new());
    }

    #[test]
    fn all_large_path_uses_combo_tables() {
        // Every object has both keywords → both keywords are large
        // everywhere; descent is steered purely by the bit tables.
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        assert!(tree.num_nodes() > 10);
        let got = run(&tree, &[0, 1], usize::MAX);
        assert_eq!(got, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn small_path_scans_materialized_list() {
        // Keyword 9 appears in exactly 3 of 256 docs → small at the
        // root → the query must terminate there via the list.
        let mut docs: Vec<Vec<Keyword>> = (0..256).map(|i| vec![i % 4]).collect();
        for i in [10usize, 100, 200] {
            docs[i].push(9);
        }
        let tree = build_1d(docs, 2, 4);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        tree.query(
            &[0, 9],
            &|_| Region::Covered,
            &|_| true,
            usize::MAX,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        assert_eq!(out, vec![100, 200]); // 10 % 4 != 0, so only 100 and 200
        assert_eq!(stats.small_path_nodes, 1, "must stop at the root");
        assert!(stats.list_scans <= 3);
    }

    #[test]
    fn limit_stops_mid_list() {
        let docs: Vec<Vec<Keyword>> = (0..32).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        let got = run(&tree, &[0, 1], 5);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn count_sink_counts_without_collecting() {
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        let mut count = crate::sink::CountSink::new();
        let mut stats = QueryStats::new();
        let flow = tree.query_sink(
            &[0, 1],
            &|_| Region::Covered,
            &|_| true,
            &mut count,
            &mut stats,
        );
        assert!(flow.is_continue());
        assert_eq!(count.count(), 64);
        assert_eq!(stats.reported, 64);
        assert_eq!(stats.emitted, 0, "emitted is accounted by the sink owner");
    }

    #[test]
    fn limit_wrapper_records_emitted_and_truncated() {
        let docs: Vec<Vec<Keyword>> = (0..32).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        tree.query(
            &[0, 1],
            &|_| Region::Covered,
            &|_| true,
            5,
            &mut out,
            &mut stats,
        );
        assert_eq!(stats.emitted, 5);
        assert!(stats.truncated);
        let mut stats = QueryStats::new();
        let mut all = Vec::new();
        tree.query(
            &[0, 1],
            &|_| Region::Covered,
            &|_| true,
            usize::MAX,
            &mut all,
            &mut stats,
        );
        assert_eq!(stats.emitted, 32);
        assert!(!stats.truncated);
    }

    #[test]
    fn geometry_pruning_respects_classifier() {
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        // Accept only ids < 10, prune cells entirely right of 10.
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        tree.query(
            &[0, 1],
            &|cell| {
                if cell.lo(0) > 10.0 {
                    Region::Disjoint
                } else if cell.hi(0) <= 10.0 {
                    Region::Covered
                } else {
                    Region::Crossing
                }
            },
            &|o| o < 10,
            usize::MAX,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
        assert!(stats.nodes_visited < tree.num_nodes() as u64 / 2);
    }

    #[test]
    fn absent_keyword_is_empty_fast() {
        let docs: Vec<Vec<Keyword>> = (0..128).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2, 4);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        tree.query(
            &[0, 777],
            &|_| Region::Covered,
            &|_| true,
            usize::MAX,
            &mut out,
            &mut stats,
        );
        assert!(out.is_empty());
        assert_eq!(
            stats.nodes_visited, 1,
            "missing keyword resolves at the root"
        );
    }

    #[test]
    fn keywords_canonicalise_on_the_stack() {
        let mut buf = [0; 16];
        let got = canonical_keywords(&[5, 1, 5, 3], &mut buf);
        assert_eq!(got, Some(&[1, 3, 5][..]));
        let canonical = [1, 2];
        let got = canonical_keywords(&canonical, &mut buf).unwrap();
        assert!(
            std::ptr::eq(got, &canonical[..]),
            "canonical input is used as is"
        );
        let repeats: Vec<Keyword> = (0..40).map(|i| i % 3).collect();
        let got = canonical_keywords(&repeats, &mut buf);
        assert_eq!(got, Some(&[0, 1, 2][..]));
        let too_many: Vec<Keyword> = (0..17).rev().collect();
        assert_eq!(canonical_keywords(&too_many, &mut buf), None);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k1_rejected() {
        let _ = build_1d(vec![vec![0]], 1, 4);
    }

    #[test]
    fn space_accounting_is_positive_and_bounded() {
        let docs: Vec<Vec<Keyword>> = (0..512).map(|i| vec![i % 16, 16 + (i % 8)]).collect();
        let tree = build_1d(docs, 2, 8);
        let words = tree.space_words(3);
        assert!(words > 512);
        assert!(words < 200 * 1024, "space {words}");
        tree.validate().unwrap();
    }

    /// Deliberate corruption must be rejected with the *name* of the
    /// broken invariant (acceptance criterion of DESIGN.md §12).
    mod corruption {
        use super::*;
        use skq_geom::Rect;

        fn tree() -> TransformedIndex<KdPartitioner> {
            let docs: Vec<Vec<Keyword>> = (0..96).map(|i| vec![i % 4, 4 + (i % 3)]).collect();
            let t = build_1d(docs, 2, 4);
            t.validate().unwrap();
            t
        }

        #[test]
        fn duplicated_pivot_names_pivot_partition() {
            let mut t = tree();
            let donor = t.nodes.iter().position(|n| !n.pivots.is_empty()).unwrap();
            let dup = t.nodes[donor].pivots[0];
            t.nodes.last_mut().unwrap().pivots.push(dup);
            let v = t.validate().unwrap_err();
            assert_eq!(v.invariant(), "framework::pivot_partition");
            assert!(v.to_string().contains(&format!("object {dup}")), "{v}");
        }

        #[test]
        fn skipped_level_names_tree_shape() {
            let mut t = tree();
            let parent = t.nodes.iter().position(|n| !n.children.is_empty()).unwrap();
            let child = t.nodes[parent].children[0] as usize;
            t.nodes[child].level += 1;
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::tree_shape"
            );
        }

        #[test]
        fn escaped_cell_names_cell_nesting() {
            let mut t = tree();
            // A level-1 node's cell is bounded on one side, so blowing
            // its child's cell up to the full space breaks nesting.
            let parent = t
                .nodes
                .iter()
                .position(|n| n.level == 1 && !n.children.is_empty())
                .unwrap();
            let child = t.nodes[parent].children[0] as usize;
            t.nodes[child].cell = Rect::full(1);
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::cell_nesting"
            );
        }

        #[test]
        fn foreign_id_in_list_names_materialized() {
            let mut t = tree();
            let (node, w) = t
                .nodes
                .iter()
                .enumerate()
                .find_map(|(i, n)| n.materialized.keys().next().map(|&w| (i, w)))
                .expect("this workload materializes at least one list");
            // Object 0's document is {0, 4}: listing it under any other
            // keyword contradicts the list's definition.
            let foreign = (0..96u32)
                .find(|&e| !t.docs.has_all(e as usize, &[w]))
                .unwrap();
            t.nodes[node]
                .materialized
                .get_mut(&w)
                .unwrap()
                .push(foreign);
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::materialized"
            );
        }

        #[test]
        fn foreign_documents_name_documents() {
            let mut t = tree();
            // Well-formed CSR rows, but object 0's row no longer has
            // the length its verbose weight records.
            let mut docs: Vec<Document> =
                t.docs.iter().map(|d| Document::new(d.to_vec())).collect();
            docs[0] = Document::new(vec![0, 1, 2, 3, 4, 5, 6]);
            t.docs = CsrDocs::from_docs(&docs);
            let v = t.validate().unwrap_err();
            assert_eq!(v.invariant(), "framework::documents");
        }
    }
}
