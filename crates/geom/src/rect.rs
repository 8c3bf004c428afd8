//! Axis-aligned `d`-rectangles.
//!
//! A `d`-rectangle `[x₁, y₁] × … × [x_d, y_d]` is the query shape of the
//! ORP-KW problem and the cell shape of the kd-tree. Endpoints may be
//! `±∞`, which the reductions in the paper rely on (Corollary 3 builds
//! `2d`-rectangles of the form `(−∞, y] × [x, ∞) × …`).

use crate::{Point, Region, MAX_DIM};

/// An axis-aligned rectangle in `R^d`, possibly unbounded.
///
/// Invariant: `lo[i] ≤ hi[i]` for every dimension — constructors reject
/// empty intervals, so every `Rect` is non-empty (degenerate, zero-width
/// intervals are allowed).
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    lo: [f64; MAX_DIM],
    hi: [f64; MAX_DIM],
    dim: u8,
}

impl Rect {
    /// Creates a rectangle from per-dimension intervals `[lo[i], hi[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have mismatched or unsupported lengths, or if
    /// `lo[i] > hi[i]` for some `i`.
    pub fn new(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "lo/hi dimension mismatch");
        assert!(
            !lo.is_empty() && lo.len() <= MAX_DIM,
            "rect dimension must be in 1..={MAX_DIM}"
        );
        for i in 0..lo.len() {
            assert!(
                lo[i] <= hi[i],
                "rect has empty interval on dim {i}: [{}, {}]",
                lo[i],
                hi[i]
            );
        }
        let mut l = [0.0; MAX_DIM];
        let mut h = [0.0; MAX_DIM];
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        Self {
            lo: l,
            hi: h,
            dim: lo.len() as u8,
        }
    }

    /// The whole space `R^d`.
    pub fn full(dim: usize) -> Self {
        Self::new(&vec![f64::NEG_INFINITY; dim], &vec![f64::INFINITY; dim])
    }

    /// The `L∞`-ball `B(center, radius)`, which is a `d`-rectangle
    /// (used by Corollary 4).
    pub fn linf_ball(center: &Point, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        let lo: Vec<f64> = center.coords().iter().map(|c| c - radius).collect();
        let hi: Vec<f64> = center.coords().iter().map(|c| c + radius).collect();
        Self::new(&lo, &hi)
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Lower endpoint on dimension `i`.
    #[inline]
    pub fn lo(&self, i: usize) -> f64 {
        assert!(i < self.dim());
        self.lo[i]
    }

    /// Upper endpoint on dimension `i`.
    #[inline]
    pub fn hi(&self, i: usize) -> f64 {
        assert!(i < self.dim());
        self.hi[i]
    }

    /// Whether the rectangle contains `p` (boundary inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        assert_eq!(self.dim(), p.dim(), "rect/point dimension mismatch");
        self.contains_coords(p.coords())
    }

    /// Whether the rectangle contains the point with coordinates `c`
    /// (boundary inclusive) — the allocation-free test the flat scan
    /// loops run per examined object.
    #[inline]
    pub(crate) fn contains_coords(&self, c: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), c.len(), "rect/point dimension mismatch");
        let d = self.dim();
        self.lo[..d]
            .iter()
            .zip(&self.hi[..d])
            .zip(c)
            .all(|((lo, hi), x)| lo <= x && x <= hi)
    }

    /// Whether the rectangle intersects `other` (boundary inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        assert_eq!(self.dim(), other.dim(), "rect dimension mismatch");
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Whether `other` is entirely contained in this rectangle.
    pub fn covers(&self, other: &Rect) -> bool {
        assert_eq!(self.dim(), other.dim(), "rect dimension mismatch");
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Exact classification of `cell` against this rectangle as a query.
    pub fn classify(&self, cell: &Rect) -> Region {
        if !self.intersects(cell) {
            Region::Disjoint
        } else if self.covers(cell) {
            Region::Covered
        } else {
            Region::Crossing
        }
    }

    /// Splits the rectangle on dimension `axis` at coordinate `at`,
    /// returning the `(left, right)` halves (both closed, sharing the
    /// boundary hyperplane, exactly like the kd-tree cells of §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside `[lo(axis), hi(axis)]`.
    pub fn split(&self, axis: usize, at: f64) -> (Rect, Rect) {
        assert!(axis < self.dim());
        assert!(
            self.lo[axis] <= at && at <= self.hi[axis],
            "split coordinate outside cell"
        );
        let mut left = *self;
        let mut right = *self;
        left.hi[axis] = at;
        right.lo[axis] = at;
        (left, right)
    }

    /// Drops the first dimension (used by the dimension-reduction tree,
    /// whose secondary queries have an unbounded x-projection).
    #[must_use]
    pub fn drop_first(&self) -> Rect {
        assert!(self.dim() >= 2);
        Rect::new(&self.lo[1..self.dim()], &self.hi[1..self.dim()])
    }

    /// The interval `[lo(i), hi(i)]` as a pair.
    pub fn interval(&self, i: usize) -> (f64, f64) {
        (self.lo(i), self.hi(i))
    }

    /// Iterates over the (up to `2^d`) corner points of the rectangle.
    ///
    /// Infinite endpoints are kept as `±∞`; callers evaluating linear
    /// forms on corners must handle infinities.
    pub fn corners(&self) -> impl Iterator<Item = Point> + '_ {
        let d = self.dim();
        (0..(1usize << d)).map(move |mask| {
            let coords: Vec<f64> = (0..d)
                .map(|i| {
                    if mask >> i & 1 == 0 {
                        self.lo[i]
                    } else {
                        self.hi[i]
                    }
                })
                .collect();
            Point::new(&coords)
        })
    }
}

impl std::fmt::Debug for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rect[")?;
        for i in 0..self.dim() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{}, {}]", self.lo[i], self.hi[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_boundary_inclusive() {
        let r = Rect::new(&[0.0, 0.0], &[1.0, 2.0]);
        assert!(r.contains(&Point::new2(0.0, 2.0)));
        assert!(r.contains(&Point::new2(0.5, 1.0)));
        assert!(!r.contains(&Point::new2(1.1, 1.0)));
    }

    #[test]
    fn full_contains_everything() {
        let r = Rect::full(3);
        assert!(r.contains(&Point::new3(1e300, -1e300, 0.0)));
    }

    #[test]
    fn intersection_tests() {
        let a = Rect::new(&[0.0, 0.0], &[2.0, 2.0]);
        let b = Rect::new(&[2.0, 2.0], &[3.0, 3.0]); // touch at a corner
        let c = Rect::new(&[2.1, 0.0], &[3.0, 1.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn classify_regions() {
        let q = Rect::new(&[0.0, 0.0], &[10.0, 10.0]);
        let inside = Rect::new(&[1.0, 1.0], &[2.0, 2.0]);
        let crossing = Rect::new(&[9.0, 9.0], &[11.0, 11.0]);
        let outside = Rect::new(&[20.0, 20.0], &[30.0, 30.0]);
        assert_eq!(q.classify(&inside), Region::Covered);
        assert_eq!(q.classify(&crossing), Region::Crossing);
        assert_eq!(q.classify(&outside), Region::Disjoint);
    }

    #[test]
    fn split_shares_boundary() {
        let r = Rect::new(&[0.0, 0.0], &[4.0, 4.0]);
        let (l, rgt) = r.split(0, 1.5);
        assert_eq!(l.hi(0), 1.5);
        assert_eq!(rgt.lo(0), 1.5);
        assert_eq!(l.lo(1), 0.0);
        assert_eq!(rgt.hi(1), 4.0);
    }

    #[test]
    fn linf_ball_is_rect() {
        let b = Rect::linf_ball(&Point::new2(1.0, 2.0), 0.5);
        assert!(b.contains(&Point::new2(1.5, 2.5)));
        assert!(!b.contains(&Point::new2(1.6, 2.0)));
    }

    #[test]
    fn corners_enumerated() {
        let r = Rect::new(&[0.0, 0.0], &[1.0, 2.0]);
        let corners: Vec<Point> = r.corners().collect();
        assert_eq!(corners.len(), 4);
        assert!(corners.contains(&Point::new2(1.0, 2.0)));
        assert!(corners.contains(&Point::new2(0.0, 0.0)));
    }

    #[test]
    fn drop_first_reduces_dim() {
        let r = Rect::new(&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0]);
        let s = r.drop_first();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.interval(0), (1.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn inverted_interval_rejected() {
        let _ = Rect::new(&[1.0], &[0.0]);
    }
}
