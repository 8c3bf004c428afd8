//! A Willard-style 2D partition tree (the Appendix D stand-in).
//!
//! Appendix D instantiates the framework with Chan's optimal partition
//! tree, used as a black box for its crossing bound `O(N^{1−1/d})`. We
//! substitute the classical, implementable Willard construction (see
//! DESIGN.md §4 for the justification): each node is split by
//!
//! 1. a vertical line through the weighted x-median, separating the
//!    active set into `A` (left) and `B` (right), and
//! 2. a single *ham-sandwich* line that simultaneously (weight-)bisects
//!    `A` and `B`, found by binary search on the line's angle,
//!
//! yielding four convex cells of roughly a quarter weight each. Any
//! query line crosses the two splitting lines at most once each and
//! therefore at most 3 of the 4 children — the source of the
//! `O(N^{log₄3})` crossing number (vs. Chan's `O(√N)`).
//!
//! Objects falling exactly on either splitting line form the node's
//! pivot set, exactly like the kd instantiation.

use skq_geom::{FlatPoints, Point, Polygon};

use super::partitioner::{Partitioner, SplitOutcome};

/// Number of angular bisection steps in the ham-sandwich search.
const HS_ITERS: usize = 48;

/// 2D partition-tree splits with convex polygon cells.
#[derive(Debug)]
pub struct WillardPartitioner {
    points: FlatPoints,
    weights: Vec<u64>,
    /// Bounding box (padded) from which all cells are clipped.
    bbox: (f64, f64, f64, f64),
}

impl WillardPartitioner {
    /// Creates a partitioner over 2D `points` with verbose weights.
    ///
    /// # Panics
    ///
    /// Panics on empty input, non-2D points, mismatched lengths, or
    /// zero weights.
    pub fn new(points: Vec<Point>, weights: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "partition tree needs points");
        Self::over(FlatPoints::from_points(&points), weights)
    }

    /// Creates a partitioner over flat 2D `points`, sharing their
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics on non-2D points, mismatched lengths, or zero weights.
    pub fn over(points: FlatPoints, weights: Vec<u64>) -> Self {
        assert_eq!(points.dim(), 2, "Willard cells are 2D");
        assert_eq!(points.len(), weights.len());
        assert!(weights.iter().all(|&w| w > 0));
        let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        for p in points.as_slice().chunks(2) {
            let (x, y) = (p[0], p[1]);
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        let pad = ((x1 - x0) + (y1 - y0)).max(1.0);
        Self {
            points,
            weights,
            bbox: (x0 - pad, y0 - pad, x1 + pad, y1 + pad),
        }
    }

    /// The indexed points.
    pub fn points(&self) -> &FlatPoints {
        &self.points
    }

    /// The `(x, y)` coordinates of object `o`.
    fn xy(&self, o: u32) -> (f64, f64) {
        (
            self.points.get(o as usize, 0),
            self.points.get(o as usize, 1),
        )
    }

    /// Weighted median of `objs` under the key `key`, with ties broken
    /// by object id. Returns `(sorted_objs, median_position)`.
    fn weighted_median_by(&self, objs: &[u32], key: impl Fn(u32) -> f64) -> (Vec<u32>, usize) {
        let mut order: Vec<u32> = objs.to_vec();
        order.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
        let total: u64 = order.iter().map(|&o| self.weights[o as usize]).sum();
        let mut cum = 0u64;
        let mut pos = 0usize;
        for (i, &o) in order.iter().enumerate() {
            cum += self.weights[o as usize];
            if 2 * cum >= total {
                pos = i;
                break;
            }
        }
        (order, pos)
    }

    /// Signed imbalance of `B` w.r.t. the line of direction angle
    /// `theta` whose offset bisects `A`: returns `(normal, offset,
    /// 2·weight(B below) − weight(B))`.
    ///
    /// `a` may be a subsample of the true left set: the offset then
    /// bisects `A` only approximately, which affects balance constants
    /// but neither correctness nor the ≤-half weight guarantee (each
    /// child stays inside its x-median side).
    fn hs_evaluate(&self, a: &[u32], b: &[u32], theta: f64) -> ((f64, f64), f64, i128) {
        let n = (-theta.sin(), theta.cos());
        let proj = |o: u32| {
            let (x, y) = self.xy(o);
            n.0 * x + n.1 * y
        };
        let (order, pos) = self.weighted_median_by(a, proj);
        let c = proj(order[pos]);
        let wb: i128 = b.iter().map(|&o| self.weights[o as usize] as i128).sum();
        let below: i128 = b
            .iter()
            .filter(|&&o| proj(o) < c)
            .map(|&o| self.weights[o as usize] as i128)
            .sum();
        ((n.0, n.1), c, 2 * below - wb)
    }

    /// Finds a line `n·p = c` that exactly bisects `A` (by weighted
    /// median) and approximately bisects `B` (by angular binary search —
    /// the 2-point-set ham-sandwich cut).
    fn ham_sandwich(&self, a: &[u32], b: &[u32]) -> ((f64, f64), f64) {
        // Subsample A for the median search on big nodes: each angular
        // step then costs O(sample·log + |B|) instead of O(|A| log |A|).
        const MAX_SAMPLE: usize = 2048;
        let sample: Vec<u32> = if a.len() > MAX_SAMPLE {
            let stride = a.len() / MAX_SAMPLE;
            a.iter().step_by(stride).copied().collect()
        } else {
            a.to_vec()
        };
        let a = sample.as_slice();
        // An irrational-ish start angle dodges axis-aligned degeneracies.
        let theta0 = 0.137_549_204_438_651_32_f64;
        let (n0, c0, h0) = self.hs_evaluate(a, b, theta0);
        if h0 == 0 {
            return (n0, c0);
        }
        // Rotating by π flips sides, so the imbalance changes sign over
        // [θ0, θ0 + π]; bisect the bracket.
        let (mut lo, mut hi) = (theta0, theta0 + std::f64::consts::PI);
        let mut best = (n0, c0, h0.abs());
        for _ in 0..HS_ITERS {
            let mid = 0.5 * (lo + hi);
            let (n, c, h) = self.hs_evaluate(a, b, mid);
            if h.abs() < best.2 {
                best = (n, c, h.abs());
                if h == 0 {
                    break;
                }
            }
            if (h < 0) == (h0 < 0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (best.0, best.1)
    }
}

impl Partitioner for WillardPartitioner {
    type Cell = Polygon;

    fn root_cell(&self) -> Polygon {
        let (x0, y0, x1, y1) = self.bbox;
        Polygon::rect(x0, y0, x1, y1)
    }

    fn split(
        &self,
        cell: &Polygon,
        objects: &[u32],
        _depth: usize,
    ) -> Option<SplitOutcome<Polygon>> {
        if objects.len() < 2 {
            return None;
        }

        // --- Line 1: vertical weighted x-median. ---
        let (order, pos) = self.weighted_median_by(objects, |o| self.xy(o).0);
        let xm = self.xy(order[pos]).0;
        let mut pivots: Vec<u32> = Vec::new();
        let mut a: Vec<u32> = Vec::new(); // x < xm
        let mut b: Vec<u32> = Vec::new(); // x > xm
        for &o in &order {
            let x = self.xy(o).0;
            if x < xm {
                a.push(o);
            } else if x > xm {
                b.push(o);
            } else {
                pivots.push(o);
            }
        }
        if a.is_empty() && b.is_empty() {
            // All objects on the vertical line: split by y instead.
            let (order, pos) = self.weighted_median_by(objects, |o| self.xy(o).1);
            let ym = self.xy(order[pos]).1;
            let mut pivots = Vec::new();
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for &o in &order {
                let y = self.xy(o).1;
                if y < ym {
                    lo.push(o);
                } else if y > ym {
                    hi.push(o);
                } else {
                    pivots.push(o);
                }
            }
            if lo.is_empty() && hi.is_empty() {
                return None; // fully duplicated coordinates
            }
            let mut children = Vec::new();
            if !lo.is_empty() {
                children.push((cell.clip(0.0, 1.0, ym), lo));
            }
            if !hi.is_empty() {
                children.push((cell.clip(0.0, -1.0, -ym), hi));
            }
            return Some(SplitOutcome { pivots, children });
        }

        let left_cell = cell.clip(1.0, 0.0, xm); // x ≤ xm
        let right_cell = cell.clip(-1.0, 0.0, -xm); // x ≥ xm

        // With one side empty there is nothing to ham-sandwich; a plain
        // two-way split still halves the weight.
        if a.is_empty() || b.is_empty() {
            let (side, side_cell) = if a.is_empty() {
                (b, right_cell)
            } else {
                (a, left_cell)
            };
            return Some(SplitOutcome {
                pivots,
                children: vec![(side_cell, side)],
            });
        }

        // --- Line 2: ham-sandwich bisecting A and B simultaneously. ---
        let ((nx, ny), c) = self.ham_sandwich(&a, &b);
        let assign = |objs: Vec<u32>, pivots: &mut Vec<u32>| {
            let mut below = Vec::new();
            let mut above = Vec::new();
            for o in objs {
                let (x, y) = self.xy(o);
                let p = nx * x + ny * y;
                if p < c {
                    below.push(o);
                } else if p > c {
                    above.push(o);
                } else {
                    pivots.push(o);
                }
            }
            (below, above)
        };
        let (a_lo, a_hi) = assign(a, &mut pivots);
        let (b_lo, b_hi) = assign(b, &mut pivots);

        let mut children = Vec::with_capacity(4);
        if !a_lo.is_empty() {
            children.push((left_cell.clip(nx, ny, c), a_lo));
        }
        if !a_hi.is_empty() {
            children.push((left_cell.clip(-nx, -ny, -c), a_hi));
        }
        if !b_lo.is_empty() {
            children.push((right_cell.clip(nx, ny, c), b_lo));
        }
        if !b_hi.is_empty() {
            children.push((right_cell.clip(-nx, -ny, -c), b_hi));
        }
        if children.is_empty() {
            return None;
        }
        Some(SplitOutcome { pivots, children })
    }

    fn weight(&self, obj: u32) -> u64 {
        self.weights[obj as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new2(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
            .collect()
    }

    #[test]
    fn split_produces_up_to_four_balanced_children() {
        let points = uniform(400, 1);
        let weights = vec![1u64; 400];
        let p = WillardPartitioner::new(points.clone(), weights);
        let objs: Vec<u32> = (0..400).collect();
        let out = p.split(&p.root_cell(), &objs, 0).expect("splittable");
        assert!(out.children.len() <= 4 && out.children.len() >= 2);
        let covered: usize =
            out.children.iter().map(|(_, o)| o.len()).sum::<usize>() + out.pivots.len();
        assert_eq!(covered, 400);
        // Quadrants are roughly a quarter each (ham-sandwich quality).
        for (_, objs) in &out.children {
            assert!(objs.len() <= 130, "quadrant of {} objects", objs.len());
        }
        // Children lie in their cells.
        for (cell, objs) in &out.children {
            for &o in objs {
                let (x, y) = (points[o as usize].get(0), points[o as usize].get(1));
                assert!(cell.contains(x, y), "object {o} outside its cell");
            }
        }
    }

    #[test]
    fn children_weights_halve() {
        let mut rng = StdRng::seed_from_u64(9);
        let points = uniform(200, 2);
        let weights: Vec<u64> = (0..200).map(|_| rng.gen_range(1..6)).collect();
        let p = WillardPartitioner::new(points, weights.clone());
        let objs: Vec<u32> = (0..200).collect();
        let out = p.split(&p.root_cell(), &objs, 0).unwrap();
        let total: u64 = weights.iter().sum();
        for (_, objs) in &out.children {
            let w: u64 = objs.iter().map(|&o| weights[o as usize]).sum();
            assert!(2 * w <= total, "child weight {w} of {total}");
        }
    }

    #[test]
    fn collinear_vertical_points_split_by_y() {
        let points: Vec<Point> = (0..10).map(|i| Point::new2(1.0, i as f64)).collect();
        let p = WillardPartitioner::new(points, vec![1; 10]);
        let objs: Vec<u32> = (0..10).collect();
        let out = p.split(&p.root_cell(), &objs, 0).unwrap();
        assert!(!out.children.is_empty());
    }

    #[test]
    fn identical_points_unsplittable() {
        let points = vec![Point::new2(3.0, 3.0); 5];
        let p = WillardPartitioner::new(points, vec![1; 5]);
        let objs: Vec<u32> = (0..5).collect();
        assert!(p.split(&p.root_cell(), &objs, 0).is_none());
    }

    #[test]
    fn ham_sandwich_bisects_both_sides() {
        let points = uniform(1000, 3);
        let p = WillardPartitioner::new(points, vec![1u64; 1000]);
        let a: Vec<u32> = (0..500).collect();
        let b: Vec<u32> = (500..1000).collect();
        let ((nx, ny), c) = p.ham_sandwich(&a, &b);
        let count = |objs: &[u32]| {
            objs.iter()
                .filter(|&&o| {
                    let (x, y) = p.xy(o);
                    nx * x + ny * y < c
                })
                .count()
        };
        let ca = count(&a);
        let cb = count(&b);
        assert!((240..=260).contains(&ca), "A split {ca}/500");
        assert!((230..=270).contains(&cb), "B split {cb}/500");
    }
}
