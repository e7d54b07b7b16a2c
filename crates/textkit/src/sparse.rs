//! Sorted-index sparse vectors.
//!
//! TF-IDF document vectors are extremely sparse (a few hundred non-zeros in
//! a vocabulary of tens of thousands), so both the vectorizer ([`crate::tfidf`])
//! and the SGD classifier in `dox-ml` operate on [`SparseVec`]: parallel
//! `(index, value)` arrays with strictly increasing indices.

/// A sparse vector with strictly increasing indices.
///
/// Invariants (maintained by every constructor and checked by
/// [`SparseVec::check_invariants`]):
/// - `indices.len() == values.len()`
/// - `indices` strictly increasing
/// - no explicitly stored zeros are *required* to be absent, but all
///   constructors in this crate drop them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from parallel arrays.
    ///
    /// # Panics
    /// Panics if lengths differ or indices are not strictly increasing.
    pub fn from_parts(indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "parallel array length mismatch"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        Self { indices, values }
    }

    /// Build from an unsorted list of `(index, count)` pairs, summing
    /// duplicates and dropping zeros.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop zeros created by cancellation or zero counts.
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_i.push(i);
                out_v.push(v);
            }
        }
        Self {
            indices: out_i,
            values: out_v,
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The stored indices, strictly increasing.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The value at `index` (zero when absent). `O(log nnz)`.
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product with a dense weight slice.
    ///
    /// Indices beyond `dense.len()` contribute zero, so a model trained on a
    /// smaller vocabulary can score a vector from a larger one.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if let Some(&w) = dense.get(i as usize) {
                acc += w * v;
            }
        }
        acc
    }

    /// Sparse-sparse dot product. `O(nnz_a + nnz_b)`.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut ia, mut ib, mut acc) = (0usize, 0usize, 0.0f64);
        while ia < self.indices.len() && ib < other.indices.len() {
            match self.indices[ia].cmp(&other.indices[ib]) {
                std::cmp::Ordering::Less => ia += 1,
                std::cmp::Ordering::Greater => ib += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[ia] * other.values[ib];
                    ia += 1;
                    ib += 1;
                }
            }
        }
        acc
    }

    /// `dense[i] += scale * self[i]` for every stored entry.
    ///
    /// Entries past the end of `dense` are ignored.
    pub fn axpy_into(&self, scale: f64, dense: &mut [f64]) {
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if let Some(slot) = dense.get_mut(i as usize) {
                *slot += scale * v;
            }
        }
    }

    /// Euclidean (l2) norm.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scale every stored value in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Normalize to unit l2 norm; the zero vector is left unchanged
    /// (matching scikit-learn's `normalize`).
    pub fn l2_normalize(&mut self) {
        let n = self.l2_norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Map stored values, dropping any that become zero.
    pub fn map_values(&self, f: impl Fn(u32, f64) -> f64) -> SparseVec {
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            let nv = f(i, v);
            if nv != 0.0 {
                indices.push(i);
                values.push(nv);
            }
        }
        SparseVec { indices, values }
    }

    /// Assert the structural invariants; used by property tests.
    pub fn check_invariants(&self) -> bool {
        self.indices.len() == self.values.len() && self.indices.windows(2).all(|w| w[0] < w[1])
    }
}

impl FromIterator<(u32, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_and_sums() {
        let s = v(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(s.indices(), &[2, 5]);
        assert_eq!(s.values(), &[2.0, 4.0]);
        assert!(s.check_invariants());
    }

    #[test]
    fn from_pairs_drops_zeros() {
        let s = v(&[(1, 0.0), (2, 1.0), (3, -1.0), (3, 1.0)]);
        assert_eq!(s.indices(), &[2]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted() {
        SparseVec::from_parts(vec![3, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let s = v(&[(1, 2.0), (9, 3.0)]);
        assert_eq!(s.get(1), 2.0);
        assert_eq!(s.get(9), 3.0);
        assert_eq!(s.get(5), 0.0);
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let s = v(&[(0, 1.0), (100, 5.0)]);
        assert_eq!(s.dot_dense(&[2.0, 0.0]), 2.0);
    }

    #[test]
    fn sparse_dot_matches_manual() {
        let a = v(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn axpy_accumulates() {
        let s = v(&[(0, 1.0), (2, 2.0)]);
        let mut dense = vec![0.0; 3];
        s.axpy_into(2.0, &mut dense);
        assert_eq!(dense, vec![2.0, 0.0, 4.0]);
    }

    #[test]
    fn l2_norm_of_a_3_4_vector() {
        let s = v(&[(0, 3.0), (1, -4.0)]);
        assert_eq!(s.l2_norm(), 5.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut s = v(&[(0, 3.0), (1, 4.0)]);
        s.l2_normalize();
        assert!((s.l2_norm() - 1.0).abs() < 1e-12);
        let mut z = SparseVec::new();
        z.l2_normalize();
        assert!(z.is_empty());
    }

    #[test]
    fn map_values_drops_new_zeros() {
        let s = v(&[(0, 1.0), (1, 2.0)]);
        let m = s.map_values(|_, x| if x > 1.5 { 0.0 } else { x * 10.0 });
        assert_eq!(m.indices(), &[0]);
        assert_eq!(m.values(), &[10.0]);
    }

    #[test]
    fn from_iterator() {
        let s: SparseVec = [(3u32, 1.0), (1u32, 2.0)].into_iter().collect();
        assert_eq!(s.indices(), &[1, 3]);
    }
}
