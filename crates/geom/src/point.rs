//! Fixed-capacity points.
//!
//! The paper's problems live in `R^d` for constant `d`. The reductions in
//! the paper raise dimensionality (RR-KW maps a `d`-rectangle to a
//! `2d`-dimensional point; the lifting map adds one dimension), so a point
//! type that can change dimension cheaply is convenient. [`Point`] stores
//! up to [`MAX_DIM`] coordinates inline and is `Copy`, so building and
//! reducing points never allocates.
//!
//! Inline storage is not free. A `Point` is 72 bytes whatever its
//! dimension (`[f64; 8]` plus the `u8` length, padded), so a 2-D point
//! carries 16 bytes of data in 72, and a `Vec<Point>` scan reads 4.5×
//! the bytes it uses. Structures that test one point per examined
//! object on a query path keep their coordinates in
//! [`FlatPoints`](crate::FlatPoints) instead, which stores `8·d` bytes
//! per point.

use std::fmt;

/// Maximum supported dimensionality.
///
/// 8 accommodates RR-KW up to `d = 4` (which reduces to `2d`-dimensional
/// ORP-KW) and the lifting map up to `d = 7`.
pub const MAX_DIM: usize = 8;

/// A point in `R^d` for `1 ≤ d ≤ MAX_DIM`.
#[derive(Clone, Copy, PartialEq)]
pub struct Point {
    coords: [f64; MAX_DIM],
    dim: u8,
}

impl Point {
    /// Creates a point from a slice of coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or longer than [`MAX_DIM`].
    pub fn new(coords: &[f64]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIM,
            "point dimension must be in 1..={MAX_DIM}, got {}",
            coords.len()
        );
        let mut buf = [0.0; MAX_DIM];
        buf[..coords.len()].copy_from_slice(coords);
        Self {
            coords: buf,
            dim: coords.len() as u8,
        }
    }

    /// A 1-dimensional point.
    pub fn new1(x: f64) -> Self {
        Self::new(&[x])
    }

    /// A 2-dimensional point.
    pub fn new2(x: f64, y: f64) -> Self {
        Self::new(&[x, y])
    }

    /// A 3-dimensional point.
    pub fn new3(x: f64, y: f64, z: f64) -> Self {
        Self::new(&[x, y, z])
    }

    /// The dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Coordinate on dimension `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.dim());
        self.coords[i]
    }

    /// The coordinates as a slice of length `self.dim()`.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords[..self.dim()]
    }

    /// Replaces coordinate `i`, returning the modified point.
    #[must_use]
    pub fn with_coord(mut self, i: usize, v: f64) -> Self {
        assert!(i < self.dim());
        self.coords[i] = v;
        self
    }

    /// Drops the first coordinate, reducing the dimension by one.
    ///
    /// This realizes the projection used by the dimension-reduction tree of
    /// §4: secondary structures index the input "ignoring the x-dimension".
    ///
    /// # Panics
    ///
    /// Panics if the point is 1-dimensional.
    #[must_use]
    pub fn drop_first(&self) -> Self {
        assert!(self.dim() >= 2, "cannot drop a coordinate of a 1D point");
        Self::new(&self.coords[1..self.dim()])
    }

    /// Appends a coordinate, increasing the dimension by one.
    ///
    /// # Panics
    ///
    /// Panics if the point is already [`MAX_DIM`]-dimensional.
    #[must_use]
    pub fn extend(&self, v: f64) -> Self {
        assert!(self.dim() < MAX_DIM, "cannot extend beyond MAX_DIM");
        let mut buf = self.coords;
        buf[self.dim()] = v;
        Self {
            coords: buf,
            dim: self.dim + 1,
        }
    }

    /// Squared Euclidean (`L2`) distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn l2_sq(&self, other: &Point) -> f64 {
        assert_eq!(self.dim(), other.dim());
        self.coords()
            .iter()
            .zip(other.coords())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Chebyshev (`L∞`) distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn linf(&self, other: &Point) -> f64 {
        assert_eq!(self.dim(), other.dim());
        self.coords()
            .iter()
            .zip(other.coords())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Dot product with a coefficient slice of the same dimension.
    pub fn dot(&self, coeffs: &[f64]) -> f64 {
        assert_eq!(self.dim(), coeffs.len());
        self.coords().iter().zip(coeffs).map(|(a, c)| a * c).sum()
    }

    /// Sum of squared coordinates (`|p|²`), used by the lifting map.
    pub fn norm_sq(&self) -> f64 {
        self.coords().iter().map(|c| c * c).sum()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.coords()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let p = Point::new(&[1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.get(0), 1.0);
        assert_eq!(p.get(2), 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "point dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(&[]);
    }

    #[test]
    #[should_panic(expected = "point dimension")]
    fn oversized_point_rejected() {
        let _ = Point::new(&[0.0; MAX_DIM + 1]);
    }

    #[test]
    fn drop_first_projects() {
        let p = Point::new3(7.0, 8.0, 9.0);
        let q = p.drop_first();
        assert_eq!(q.coords(), &[8.0, 9.0]);
    }

    #[test]
    fn extend_appends() {
        let p = Point::new2(1.0, 2.0);
        let q = p.extend(5.0);
        assert_eq!(q.coords(), &[1.0, 2.0, 5.0]);
    }

    #[test]
    fn distances() {
        let a = Point::new2(0.0, 0.0);
        let b = Point::new2(3.0, 4.0);
        assert_eq!(a.l2_sq(&b), 25.0);
        assert_eq!(a.linf(&b), 4.0);
    }

    #[test]
    fn dot_and_norm() {
        let p = Point::new2(2.0, 3.0);
        assert_eq!(p.dot(&[10.0, 1.0]), 23.0);
        assert_eq!(p.norm_sq(), 13.0);
    }

    #[test]
    fn with_coord_replaces() {
        let p = Point::new2(1.0, 2.0).with_coord(1, 9.0);
        assert_eq!(p.coords(), &[1.0, 9.0]);
    }

    #[test]
    fn equality_across_construction_routes() {
        // Equal points built through different routes compare equal,
        // i.e. unused capacity never leaks into comparisons.
        let a = Point::new2(1.0, 2.0);
        let b = Point::new3(1.0, 99.0, 2.0).with_coord(1, 2.0).drop_first();
        assert_eq!(b.coords(), &[2.0, 2.0]);
        let c = Point::new1(1.0).extend(2.0);
        assert_eq!(a, c);
    }
}
