//! A midpoint quadtree partitioner — a third instantiation of Step 1.
//!
//! §3.1 characterizes the indexes the framework applies to purely
//! structurally (space-partitioning trees); the kd-tree and the
//! partition tree are the two the paper develops. The quadtree also
//! fits the mold and is popular in the spatial-keyword systems
//! literature (e.g. the inverted linear quadtree the paper cites), so
//! it makes a natural generality check *and* an ablation point: unlike
//! the weighted-median kd split, midpoint splits give no weight-balance
//! guarantee, so skewed data can degrade depth — exactly the trade
//! practitioners accept for cheaper construction and cache-regular
//! cells.

use skq_geom::{FlatPoints, Point, Rect};

use super::partitioner::{Partitioner, SplitOutcome};

/// Depth cap: beyond this the cells are smaller than f64 resolution on
/// any realistic extent, and the framework falls back to leaf scans.
const MAX_DEPTH: usize = 48;

/// Midpoint quadtree splits (2D) with rectangle cells.
#[derive(Debug)]
pub struct QuadPartitioner {
    points: FlatPoints,
    weights: Vec<u64>,
    /// Root bounding box of the data (the paper's root cell is all of
    /// `R²`; a bounding box is equivalent for point data and makes
    /// midpoints well-defined).
    bbox: Rect,
}

impl QuadPartitioner {
    /// Creates a partitioner over 2D points with verbose weights.
    ///
    /// # Panics
    ///
    /// Panics on empty input, non-2D points, mismatched lengths, or
    /// zero weights.
    pub fn new(points: Vec<Point>, weights: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "quadtree needs points");
        Self::over(FlatPoints::from_points(&points), weights)
    }

    /// Creates a partitioner over flat 2D `points`, sharing their
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics on non-2D points, mismatched lengths, or zero weights.
    pub fn over(points: FlatPoints, weights: Vec<u64>) -> Self {
        assert_eq!(points.dim(), 2, "quadtree cells are 2D");
        assert_eq!(points.len(), weights.len());
        assert!(weights.iter().all(|&w| w > 0));
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for p in points.as_slice().chunks(2) {
            for d in 0..2 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        // Pad so no point sits exactly on the root boundary midlines in
        // trivial ways and degenerate zero-extent boxes still split.
        let pad = ((hi[0] - lo[0]) + (hi[1] - lo[1])).max(1.0) * 0.01;
        let bbox = Rect::new(&[lo[0] - pad, lo[1] - pad], &[hi[0] + pad, hi[1] + pad]);
        Self {
            points,
            weights,
            bbox,
        }
    }
}

impl Partitioner for QuadPartitioner {
    type Cell = Rect;

    fn root_cell(&self) -> Rect {
        self.bbox
    }

    fn split(&self, cell: &Rect, objects: &[u32], depth: usize) -> Option<SplitOutcome<Rect>> {
        if objects.len() < 2 || depth >= MAX_DEPTH {
            return None;
        }
        let mx = 0.5 * (cell.lo(0) + cell.hi(0));
        let my = 0.5 * (cell.lo(1) + cell.hi(1));
        if !(cell.lo(0) < mx && mx < cell.hi(0) && cell.lo(1) < my && my < cell.hi(1)) {
            return None; // cell too thin to split further
        }

        // Quadrants are closed; objects exactly on a midline go to the
        // lower-coordinate side (their closed cell contains them), so no
        // pivots are needed — the quadtree variant of the boundary rule.
        let mut quads: [Vec<u32>; 4] = Default::default();
        for &o in objects {
            let qx = usize::from(self.points.get(o as usize, 0) > mx);
            let qy = usize::from(self.points.get(o as usize, 1) > my);
            quads[qy * 2 + qx].push(o);
        }
        if quads.iter().filter(|q| !q.is_empty()).count() < 2 {
            // No progress (all points in one quadrant): recurse on the
            // shrunken cell rather than degrade to a linked list of
            // single-child nodes — returning that one child with its
            // quadrant cell keeps the geometry tight.
            let (idx, objs) = quads
                .iter_mut()
                .enumerate()
                .find(|(_, q)| !q.is_empty())
                .expect("objects is non-empty");
            let child_cell = quadrant_cell(cell, mx, my, idx);
            return Some(SplitOutcome {
                pivots: Vec::new(),
                children: vec![(child_cell, std::mem::take(objs))],
            });
        }

        let children = quads
            .into_iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(idx, q)| (quadrant_cell(cell, mx, my, idx), q))
            .collect();
        Some(SplitOutcome {
            pivots: Vec::new(),
            children,
        })
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

fn quadrant_cell(cell: &Rect, mx: f64, my: f64, idx: usize) -> Rect {
    let (qx, qy) = (idx % 2, idx / 2);
    let lo = [
        if qx == 0 { cell.lo(0) } else { mx },
        if qy == 0 { cell.lo(1) } else { my },
    ];
    let hi = [
        if qx == 0 { mx } else { cell.hi(0) },
        if qy == 0 { my } else { cell.hi(1) },
    ];
    Rect::new(&lo, &hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn splits_into_quadrants() {
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(10.0, 0.0),
            Point::new2(0.0, 10.0),
            Point::new2(10.0, 10.0),
        ];
        let p = QuadPartitioner::new(points.clone(), vec![1; 4]);
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        assert_eq!(out.children.len(), 4);
        assert!(out.pivots.is_empty());
        for (cell, objs) in &out.children {
            assert_eq!(objs.len(), 1);
            let pt = &points[objs[0] as usize];
            assert!(cell.contains(pt));
        }
    }

    #[test]
    fn skewed_cluster_makes_progress() {
        // All points in one tiny corner: the split must still shrink the
        // cell each level and eventually separate them.
        let mut rng = StdRng::seed_from_u64(1);
        let points: Vec<Point> = (0..20)
            .map(|_| Point::new2(rng.gen_range(0.0..1e-3), rng.gen_range(0.0..1e-3)))
            .collect();
        let p = QuadPartitioner::new(points, vec![1; 20]);
        let objs: Vec<u32> = (0..20).collect();
        let mut cell = p.root_cell();
        let mut current = objs;
        for depth in 0..MAX_DEPTH {
            match p.split(&cell, &current, depth) {
                None => break,
                Some(out) => {
                    // Follow the heaviest child.
                    let (c, o) = out
                        .children
                        .into_iter()
                        .max_by_key(|(_, o)| o.len())
                        .unwrap();
                    assert!(c.hi(0) - c.lo(0) < cell.hi(0) - cell.lo(0) + 1e-12);
                    cell = c;
                    current = o;
                    if current.len() <= 1 {
                        break;
                    }
                }
            }
        }
        assert!(current.len() < 20, "no separation achieved");
    }

    #[test]
    fn identical_points_terminate() {
        let points = vec![Point::new2(5.0, 5.0); 10];
        let p = QuadPartitioner::new(points, vec![1; 10]);
        let objs: Vec<u32> = (0..10).collect();
        // Depth cap guarantees this returns None eventually.
        let out = p.split(&p.root_cell(), &objs, MAX_DEPTH);
        assert!(out.is_none());
    }

    #[test]
    fn midline_points_assigned_to_containing_cells() {
        // A point exactly on the cell's midline must land in a child
        // whose closed cell contains it (the boundary rule).
        let points = vec![
            Point::new2(5.0, 5.0), // exactly on both midlines of the cell below
            Point::new2(0.0, 0.0),
            Point::new2(10.0, 10.0),
        ];
        let p = QuadPartitioner::new(points.clone(), vec![1; 3]);
        let cell = Rect::new(&[0.0, 0.0], &[10.0, 10.0]);
        let out = p.split(&cell, &[0, 1, 2], 0).unwrap();
        let mut seen = 0;
        for (c, objs) in &out.children {
            for &o in objs {
                assert!(
                    c.contains(&points[o as usize]),
                    "object {o} outside its cell"
                );
                seen += 1;
            }
        }
        assert_eq!(seen + out.pivots.len(), 3);
    }
}
