//! Trainable parameter tensors (flat buffers with gradients).

use rand::rngs::StdRng;
use rand::Rng;

/// A trainable parameter: a flat `f64` buffer with an associated gradient
/// buffer of the same shape. Matrices are stored row-major.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::Param;
///
/// let mut p = Param::zeros(2, 3);
/// assert_eq!(p.len(), 6);
/// p.grad[0] = 1.0;
/// p.zero_grad();
/// assert_eq!(p.grad[0], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter values (row-major when 2-D).
    pub value: Vec<f64>,
    /// Accumulated gradients, same layout as `value`.
    pub grad: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Param {
    /// A zero-initialized `rows x cols` parameter (use `cols = 1` for
    /// vectors).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param {
            value: vec![0.0; rows * cols],
            grad: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A constant-initialized parameter.
    pub fn constant(rows: usize, cols: usize, v: f64) -> Self {
        Param {
            value: vec![v; rows * cols],
            grad: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Xavier/Glorot-uniform initialization with the given fan-in/out.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let value: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Param {
            grad: vec![0.0; value.len()],
            value,
            rows,
            cols,
        }
    }

    /// Number of scalar parameters.
    #[inline]
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Clears the gradient buffer.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad {
            *g = 0.0;
        }
    }

    /// Matrix-vector product `W x` (self as `rows x cols`, `x` of length
    /// `cols`), accumulated into `out` (length `rows`).
    ///
    /// # Panics
    ///
    /// Debug-asserts shape agreement.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for r in 0..self.rows {
            let row = &self.value[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            out[r] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_manual() {
        let mut p = Param::zeros(2, 3);
        p.value = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0; 2];
        p.matvec_into(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_accumulates() {
        let mut p = Param::zeros(1, 2);
        p.value = vec![1.0, 1.0];
        let mut out = vec![10.0];
        p.matvec_into(&[1.0, 2.0], &mut out);
        assert_eq!(out, vec![13.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Param::xavier(10, 20, &mut rng);
        let bound = (6.0 / 30.0_f64).sqrt();
        assert!(p.value.iter().all(|v| v.abs() <= bound));
        // Not all zero.
        assert!(p.value.iter().any(|v| v.abs() > 1e-6));
    }
}
