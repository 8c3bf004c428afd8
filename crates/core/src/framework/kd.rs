//! The kd-tree partitioner (§3.1–§3.2).
//!
//! Splits alternate axes by level; the split coordinate is the *weighted
//! median* of the active objects (weight = `|e.Doc|`), which builds the
//! kd-tree over the verbose set `P` of §3.2 without materializing it.
//! Objects lying exactly on the split hyperplane are the node's pivot
//! set (they are "on the boundary of `Δ_v1` or `Δ_v2`"); ties in the
//! median selection are broken lexicographically by object id, the
//! implementation counterpart of the paper's rank-space Step 4.

use skq_geom::{FlatPoints, Point, Rect};

use super::partitioner::{Partitioner, SplitOutcome};

/// Weighted kd-tree splits with rectangle cells.
#[derive(Debug)]
pub struct KdPartitioner {
    /// Dim-strided coordinates. For ORP-KW these are the rank space's
    /// own storage, shared rather than copied.
    points: FlatPoints,
    weights: Vec<u64>,
}

impl KdPartitioner {
    /// Creates a partitioner over `points` with verbose weights
    /// (`weights[i] = |docs[i]|`).
    ///
    /// # Panics
    ///
    /// Panics on empty input, mismatched lengths, inconsistent
    /// dimensions, or zero weights.
    pub fn new(points: Vec<Point>, weights: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "kd partitioner needs points");
        Self::over(FlatPoints::from_points(&points), weights)
    }

    /// Creates a partitioner over flat `points`, sharing their storage.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or zero weights.
    pub fn over(points: FlatPoints, weights: Vec<u64>) -> Self {
        assert_eq!(points.len(), weights.len());
        assert!(weights.iter().all(|&w| w > 0), "documents are non-empty");
        Self { points, weights }
    }

    /// The indexed points.
    pub fn points(&self) -> &FlatPoints {
        &self.points
    }

    /// Replaces the coordinates with `points` if they are equal,
    /// dropping this partitioner's copy in favour of the shared one.
    ///
    /// # Errors
    ///
    /// A description of the mismatch if `points` differs from the
    /// indexed coordinates.
    pub fn share_points(&mut self, points: &FlatPoints) -> Result<(), String> {
        if *points != self.points {
            return Err("kd-tree points differ from the coordinates offered for sharing".into());
        }
        self.points = points.clone();
        Ok(())
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// The per-object weights (exposed for the snapshot encoder).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl Partitioner for KdPartitioner {
    type Cell = Rect;

    fn root_cell(&self) -> Rect {
        Rect::full(self.dim())
    }

    fn split(&self, cell: &Rect, objects: &[u32], depth: usize) -> Option<SplitOutcome<Rect>> {
        if objects.len() < 2 {
            return None;
        }
        // Prefer the level's axis; if every object sits on the split
        // hyperplane there, fall through the remaining axes (degenerate
        // inputs such as duplicated points).
        let dim = self.dim();
        (0..dim).find_map(|alt| self.try_axis(cell, objects, (depth + alt) % dim))
    }

    fn weight(&self, obj: u32) -> u64 {
        self.weights[obj as usize]
    }

    fn cell_nested(parent: &Rect, child: &Rect) -> Option<bool> {
        Some(
            parent.dim() == child.dim()
                && (0..parent.dim())
                    .all(|i| parent.lo(i) <= child.lo(i) && child.hi(i) <= parent.hi(i)),
        )
    }
}

impl KdPartitioner {
    fn try_axis(&self, cell: &Rect, objects: &[u32], axis: usize) -> Option<SplitOutcome<Rect>> {
        let mut order: Vec<u32> = objects.to_vec();
        let coord = |o: u32| self.points.get(o as usize, axis);
        order.sort_unstable_by(|&a, &b| coord(a).total_cmp(&coord(b)).then(a.cmp(&b)));

        // Weighted median: the minimal prefix reaching half the weight.
        let total: u64 = order.iter().map(|&o| self.weights[o as usize]).sum();
        let mut cum = 0u64;
        let mut median_pos = 0usize;
        for (i, &o) in order.iter().enumerate() {
            cum += self.weights[o as usize];
            if 2 * cum >= total {
                median_pos = i;
                break;
            }
        }
        let split_coord = coord(order[median_pos]);

        // Pivot set: every object on the split hyperplane (§3.2 — the
        // objects on the child-cell boundary). In rank space this is a
        // single object; with raw duplicated coordinates it may be more.
        let mut pivots = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &o in &order {
            let c = coord(o);
            if c < split_coord {
                left.push(o);
            } else if c > split_coord {
                right.push(o);
            } else {
                pivots.push(o);
            }
        }
        if left.is_empty() && right.is_empty() {
            return None; // everything on the hyperplane — try another axis
        }

        let (lcell, rcell) = cell.split(axis, split_coord);
        let mut children = Vec::with_capacity(2);
        if !left.is_empty() {
            children.push((lcell, left));
        }
        if !right.is_empty() {
            children.push((rcell, right));
        }
        Some(SplitOutcome { pivots, children })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(f64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(x, y)| Point::new2(x, y)).collect()
    }

    #[test]
    fn split_balances_weight() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]);
        let weights = vec![1, 1, 1, 1, 1];
        let p = KdPartitioner::new(points, weights);
        let out = p
            .split(&p.root_cell(), &[0, 1, 2, 3, 4], 0)
            .expect("splittable");
        // Median x = 2 → pivot {2}, left {0,1}, right {3,4}.
        assert_eq!(out.pivots, vec![2]);
        assert_eq!(out.children.len(), 2);
        assert_eq!(out.children[0].1, vec![0, 1]);
        assert_eq!(out.children[1].1, vec![3, 4]);
        // Cells share the boundary x = 2.
        assert_eq!(out.children[0].0.hi(0), 2.0);
        assert_eq!(out.children[1].0.lo(0), 2.0);
    }

    #[test]
    fn heavy_object_respects_weighted_median() {
        // Object 3 carries most of the verbose weight; the median must
        // land on or before it so no child exceeds half the weight.
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let weights = vec![1, 1, 1, 10];
        let p = KdPartitioner::new(points.clone(), weights.clone());
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        let total: u64 = weights.iter().sum();
        for (_, objs) in &out.children {
            let w: u64 = objs.iter().map(|&o| weights[o as usize]).sum();
            assert!(2 * w <= total, "child weight {w} of {total}");
        }
    }

    #[test]
    fn duplicate_axis_coordinates_become_pivots() {
        let points = pts(&[(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        let p = KdPartitioner::new(points, vec![1; 4]);
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        // Median x = 1 → the three x=1 objects are boundary pivots.
        assert_eq!(out.pivots, vec![0, 1, 2]);
        assert_eq!(out.children.len(), 1);
        assert_eq!(out.children[0].1, vec![3]);
    }

    #[test]
    fn fully_duplicated_points_fall_back_to_other_axis() {
        // All x equal; the y axis still separates.
        let points = pts(&[(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 0).unwrap();
        assert!(!out.children.is_empty());
    }

    #[test]
    fn identical_points_unsplittable() {
        let points = pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        assert!(p.split(&p.root_cell(), &[0, 1, 2], 0).is_none());
    }

    #[test]
    fn alternating_axes() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 1).unwrap();
        // Depth 1 splits on y.
        assert_eq!(out.children[0].0.hi(1), 1.0);
        assert!(out.children[0].0.hi(0).is_infinite());
    }
}
