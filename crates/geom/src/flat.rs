//! Dim-strided point storage for scan loops.
//!
//! A [`Point`] keeps [`MAX_DIM`] coordinates inline, so a `Vec<Point>`
//! spends 72 bytes per object whatever the dimension — 4.5× the
//! payload of a 2-D point. A scan that tests one point per examined
//! object then strides over mostly unused bytes. [`FlatPoints`] packs
//! the `d` live coordinates of every object back to back
//! (`coords[i·d .. i·d + d]` is object `i`), so a scan touches `8·d`
//! bytes per object and a membership test allocates nothing.
//!
//! The storage is reference-counted: cloning a `FlatPoints` shares the
//! coordinates instead of copying them, which is how a rank space and
//! the kd partitioner built over it hold one copy between them.

use std::sync::Arc;

use crate::{Point, Rect, MAX_DIM};

/// An immutable, shareable array of `len` points of dimension `dim`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatPoints {
    coords: Arc<[f64]>,
    dim: usize,
}

impl FlatPoints {
    /// Packs `points` (all of one dimension).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the dimensions are inconsistent.
    pub fn from_points(points: &[Point]) -> Self {
        let dim = points.first().expect("flat points need a point").dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "inconsistent point dimensions"
        );
        let coords: Vec<f64> = points.iter().flat_map(|p| p.coords()).copied().collect();
        Self {
            coords: coords.into(),
            dim,
        }
    }

    /// Wraps dim-strided coordinates: object `i` is
    /// `coords[i·dim .. (i+1)·dim]`.
    ///
    /// # Errors
    ///
    /// A description of the violation if `dim` is outside
    /// `1..=MAX_DIM`, or `coords` is empty or not a multiple of `dim`.
    pub fn try_from_coords(coords: Vec<f64>, dim: usize) -> Result<Self, String> {
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(format!("point dimensionality {dim} outside 1..={MAX_DIM}"));
        }
        if coords.is_empty() || !coords.len().is_multiple_of(dim) {
            return Err(format!(
                "{} coordinates do not form a non-empty set of {dim}-dimensional points",
                coords.len()
            ));
        }
        Ok(Self {
            coords: coords.into(),
            dim,
        })
    }

    /// The dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Never true: a `FlatPoints` holds at least one point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates of point `i`.
    #[inline]
    pub fn coords(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Coordinate `d` of point `i`.
    #[inline]
    pub fn get(&self, i: usize, d: usize) -> f64 {
        debug_assert!(d < self.dim);
        self.coords[i * self.dim + d]
    }

    /// Point `i` as a [`Point`] value.
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.coords(i))
    }

    /// Every coordinate, dim-strided.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// Whether `rect` contains point `i` (boundary inclusive) —
    /// `rect.contains(&self.point(i))` without building the point.
    #[inline]
    pub fn contains(&self, rect: &Rect, i: usize) -> bool {
        rect.contains_coords(self.coords(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_and_reads_back() {
        let pts = [Point::new2(1.0, 2.0), Point::new2(3.0, 4.0)];
        let flat = FlatPoints::from_points(&pts);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(flat.coords(1), &[3.0, 4.0]);
        assert_eq!(flat.get(0, 1), 2.0);
        assert_eq!(flat.point(1), pts[1]);
    }

    #[test]
    fn clone_shares_storage() {
        let flat = FlatPoints::from_points(&[Point::new1(0.0)]);
        assert_eq!(flat.clone().as_slice().as_ptr(), flat.as_slice().as_ptr());
        let copy = FlatPoints::try_from_coords(vec![0.0], 1).unwrap();
        assert_eq!(copy, flat);
        assert_ne!(copy.as_slice().as_ptr(), flat.as_slice().as_ptr());
    }

    #[test]
    fn contains_matches_rect_contains() {
        let pts = [Point::new2(0.0, 5.0), Point::new2(2.0, 2.0)];
        let flat = FlatPoints::from_points(&pts);
        let q = Rect::new(&[0.0, f64::NEG_INFINITY], &[2.0, 3.0]);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(flat.contains(&q, i), q.contains(p));
        }
    }

    #[test]
    fn malformed_coords_rejected() {
        assert!(FlatPoints::try_from_coords(vec![], 2).is_err());
        assert!(FlatPoints::try_from_coords(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(FlatPoints::try_from_coords(vec![1.0], 0).is_err());
        assert!(FlatPoints::try_from_coords(vec![1.0; 9], 9).is_err());
    }
}
