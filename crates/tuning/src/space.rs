//! Discrete parameter spaces.
//!
//! A [`Space`] is a small cartesian lattice: each [`Dim`] is either an
//! arithmetic range (`lo..=hi step s`) or an explicit value list (e.g.
//! powers of two for a coalescing window). Searches navigate *levels*
//! (indices into a dimension) while the application sees *values* (the
//! actual knob settings), so non-uniform dimensions behave correctly under
//! neighborhood moves.

/// A candidate configuration: one value per dimension, in dimension order.
pub type Point = Vec<i64>;

/// One tunable dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dim {
    /// Human-readable knob name, e.g. `"thread_cap"`.
    pub name: String,
    values: Vec<i64>,
}

impl Dim {
    /// A dimension over `lo..=hi` with the given stride.
    ///
    /// # Panics
    /// Panics if `step == 0` or `lo > hi`.
    pub fn range(name: impl Into<String>, lo: i64, hi: i64, step: i64) -> Self {
        assert!(step > 0, "step must be positive");
        assert!(lo <= hi, "lo must be <= hi");
        let values: Vec<i64> = (lo..=hi).step_by(step as usize).collect();
        Self {
            name: name.into(),
            values,
        }
    }

    /// A dimension over an explicit, strictly increasing value list.
    ///
    /// # Panics
    /// Panics if `values` is empty or not strictly increasing.
    pub fn values(name: impl Into<String>, values: Vec<i64>) -> Self {
        assert!(!values.is_empty(), "dimension must have at least one value");
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "dimension values must be strictly increasing"
        );
        Self {
            name: name.into(),
            values,
        }
    }

    /// A dimension over powers of two `2^lo_exp ..= 2^hi_exp`.
    pub fn pow2(name: impl Into<String>, lo_exp: u32, hi_exp: u32) -> Self {
        assert!(lo_exp <= hi_exp, "lo_exp must be <= hi_exp");
        Self::values(name, (lo_exp..=hi_exp).map(|e| 1i64 << e).collect())
    }

    /// Number of levels (distinct values) in this dimension.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Value at a level index.
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    fn value_at(&self, level: usize) -> i64 {
        self.values[level]
    }

    /// Level index of `value`, if it is one of this dimension's values.
    fn level_of(&self, value: i64) -> Option<usize> {
        self.values.binary_search(&value).ok()
    }

    /// Level whose value is closest to `value` (ties resolve downward).
    fn nearest_level(&self, value: i64) -> usize {
        match self.values.binary_search(&value) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i == self.values.len() => self.values.len() - 1,
            Err(i) => {
                let below = value - self.values[i - 1];
                let above = self.values[i] - value;
                if above < below {
                    i
                } else {
                    i - 1
                }
            }
        }
    }

    /// All values of this dimension.
    pub fn all_values(&self) -> &[i64] {
        &self.values
    }
}

/// A cartesian product of dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Space {
    dims: Vec<Dim>,
}

impl Space {
    /// Creates a space from its dimensions.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new(dims: Vec<Dim>) -> Self {
        assert!(!dims.is_empty(), "space must have at least one dimension");
        Self { dims }
    }

    /// The dimensions, in order.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of lattice points (saturating).
    pub fn cardinality(&self) -> usize {
        self.dims
            .iter()
            .fold(1usize, |acc, d| acc.saturating_mul(d.cardinality()))
    }

    /// Converts level indices to a value point.
    ///
    /// # Panics
    /// Panics on dimension-count mismatch or out-of-range levels.
    pub fn point_at(&self, levels: &[usize]) -> Point {
        assert_eq!(levels.len(), self.dims.len(), "level count mismatch");
        levels
            .iter()
            .zip(&self.dims)
            .map(|(&l, d)| d.value_at(l))
            .collect()
    }

    /// Converts a value point to level indices; `None` if any coordinate is
    /// not an exact lattice value.
    pub fn levels_of(&self, point: &[i64]) -> Option<Vec<usize>> {
        if point.len() != self.dims.len() {
            return None;
        }
        point
            .iter()
            .zip(&self.dims)
            .map(|(&v, d)| d.level_of(v))
            .collect()
    }

    /// True iff `point` lies on the lattice.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.levels_of(point).is_some()
    }

    /// Snaps an arbitrary point to the nearest lattice point.
    pub fn clamp(&self, point: &[i64]) -> Point {
        assert_eq!(point.len(), self.dims.len(), "dimension count mismatch");
        point
            .iter()
            .zip(&self.dims)
            .map(|(&v, d)| d.value_at(d.nearest_level(v)))
            .collect()
    }

    /// The center of the lattice (middle level of each dimension) — the
    /// conventional cold-start point for online tuners.
    pub fn center(&self) -> Point {
        self.dims
            .iter()
            .map(|d| d.value_at(d.cardinality() / 2))
            .collect()
    }

    /// All lattice neighbors of `levels` at L1 level-distance exactly 1
    /// (i.e. one dimension moved by one level).
    pub fn neighbor_levels(&self, levels: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for (i, d) in self.dims.iter().enumerate() {
            if levels[i] > 0 {
                let mut n = levels.to_vec();
                n[i] -= 1;
                out.push(n);
            }
            if levels[i] + 1 < d.cardinality() {
                let mut n = levels.to_vec();
                n[i] += 1;
                out.push(n);
            }
        }
        out
    }

    /// Iterates over every lattice point in lexicographic level order.
    pub fn iter_points(&self) -> SpaceIter<'_> {
        SpaceIter {
            space: self,
            levels: vec![0; self.dims.len()],
            done: false,
        }
    }
}

/// Iterator over all lattice points of a [`Space`].
pub struct SpaceIter<'a> {
    space: &'a Space,
    levels: Vec<usize>,
    done: bool,
}

impl Iterator for SpaceIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.done {
            return None;
        }
        let out = self.space.point_at(&self.levels);
        // Lexicographic increment.
        let mut i = self.levels.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.levels[i] += 1;
            if self.levels[i] < self.space.dims[i].cardinality() {
                break;
            }
            self.levels[i] = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_dim_values() {
        let d = Dim::range("n", 2, 10, 2);
        assert_eq!(d.all_values(), &[2, 4, 6, 8, 10]);
        assert_eq!(d.cardinality(), 5);
        assert_eq!(d.value_at(0), 2);
        assert_eq!(d.level_of(8), Some(3));
        assert_eq!(d.level_of(7), None);
    }

    #[test]
    fn pow2_dim() {
        let d = Dim::pow2("w", 0, 6);
        assert_eq!(d.all_values(), &[1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn nearest_level_semantics() {
        let d = Dim::values("v", vec![1, 10, 100]);
        assert_eq!(d.nearest_level(0), 0);
        assert_eq!(d.nearest_level(1), 0);
        assert_eq!(d.nearest_level(5), 0); // ties resolve downward: 5-1=4 < 100... 10-5=5, below=4 → down
        assert_eq!(d.nearest_level(6), 1);
        assert_eq!(d.nearest_level(55), 1);
        assert_eq!(d.nearest_level(56), 2);
        assert_eq!(d.nearest_level(1000), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_values_rejected() {
        let _ = Dim::values("v", vec![3, 1, 2]);
    }

    #[test]
    fn space_cardinality_and_iteration() {
        let s = Space::new(vec![Dim::range("a", 0, 2, 1), Dim::values("b", vec![5, 7])]);
        assert_eq!(s.cardinality(), 6);
        let pts: Vec<Point> = s.iter_points().collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![0, 5]);
        assert_eq!(pts[1], vec![0, 7]);
        assert_eq!(pts[5], vec![2, 7]);
        // All points distinct.
        let mut uniq = pts.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    fn point_level_roundtrip() {
        let s = Space::new(vec![Dim::range("a", 10, 50, 10), Dim::pow2("b", 1, 4)]);
        for pt in s.iter_points() {
            let levels = s.levels_of(&pt).unwrap();
            assert_eq!(s.point_at(&levels), pt);
        }
    }

    #[test]
    fn contains_and_clamp() {
        let s = Space::new(vec![Dim::range("a", 0, 10, 5)]);
        assert!(s.contains(&[5]));
        assert!(!s.contains(&[3]));
        assert_eq!(s.clamp(&[3]), vec![5]);
        assert_eq!(s.clamp(&[-100]), vec![0]);
        assert_eq!(s.clamp(&[100]), vec![10]);
    }

    #[test]
    fn center_is_on_lattice() {
        let s = Space::new(vec![Dim::range("a", 0, 100, 7), Dim::pow2("b", 0, 10)]);
        assert!(s.contains(&s.center()));
    }

    #[test]
    fn neighbors_interior_and_boundary() {
        let s = Space::new(vec![Dim::range("a", 0, 4, 1), Dim::range("b", 0, 4, 1)]);
        // Interior point: 4 neighbors.
        assert_eq!(s.neighbor_levels(&[2, 2]).len(), 4);
        // Corner: 2 neighbors.
        assert_eq!(s.neighbor_levels(&[0, 0]).len(), 2);
        // Edge: 3 neighbors.
        assert_eq!(s.neighbor_levels(&[0, 2]).len(), 3);
    }

    #[test]
    fn single_value_dim_has_no_neighbors() {
        let s = Space::new(vec![Dim::values("a", vec![42])]);
        assert!(s.neighbor_levels(&[0]).is_empty());
        assert_eq!(s.cardinality(), 1);
    }

    #[test]
    fn iteration_count_matches_cardinality_3d() {
        let s = Space::new(vec![
            Dim::range("a", 0, 3, 1),
            Dim::range("b", 0, 2, 1),
            Dim::pow2("c", 0, 3),
        ]);
        assert_eq!(s.iter_points().count(), s.cardinality());
    }
}
