//! Small dense matrices with QR factorization and least-squares solving.
//!
//! Used by the SRR baseline's linear system identification (fitting
//! `x(t+1) = A x(t) + B u(t)` by least squares) and by the Variance
//! Inflation Factor regressions of the paper's Section III study.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors produced by matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// A solve encountered a (numerically) singular system.
    Singular,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { context } => {
                write!(f, "matrix shape mismatch: {context}")
            }
            MatrixError::Singular => write!(f, "matrix is singular to working precision"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major `f64` matrix of runtime-determined shape.
///
/// # Examples
///
/// ```
/// use pidpiper_math::Matrix;
///
/// let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]);
/// let x = a.solve_least_squares(&[2.0, 8.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Matrix { rows, cols, data }
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

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix-matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                context: format!(
                    "matmul of {}x{} by {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if crate::float::is_zero(a) {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when `self.cols != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.cols != v.len() {
            return Err(MatrixError::ShapeMismatch {
                context: format!("matvec of {}x{} by len-{}", self.rows, self.cols, v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Solves the least-squares problem `min ||A x - b||` via Householder QR
    /// with column-pivot-free factorization.
    ///
    /// Works for square and overdetermined systems (`rows >= cols`).
    ///
    /// # Errors
    ///
    /// - [`MatrixError::ShapeMismatch`] if `b.len() != rows` or `rows < cols`.
    /// - [`MatrixError::Singular`] if `A` is rank-deficient to working
    ///   precision.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if b.len() != self.rows {
            return Err(MatrixError::ShapeMismatch {
                context: format!("rhs length {} for {} rows", b.len(), self.rows),
            });
        }
        if self.rows < self.cols {
            return Err(MatrixError::ShapeMismatch {
                context: format!("underdetermined system {}x{}", self.rows, self.cols),
            });
        }
        let m = self.rows;
        let n = self.cols;
        let mut a = self.data.clone();
        let mut rhs = b.to_vec();

        // Householder QR applied in place; the reflectors transform rhs too.
        for k in 0..n {
            // Compute the norm of the k-th column below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += a[i * n + k] * a[i * n + k];
            }
            let norm = norm.sqrt();
            if norm < 1e-13 {
                return Err(MatrixError::Singular);
            }
            let alpha = if a[k * n + k] > 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m - k];
            v[0] = a[k * n + k] - alpha;
            for i in (k + 1)..m {
                v[i - k] = a[i * n + k];
            }
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v v^T / (v^T v) to the trailing block and rhs.
            for c in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i - k] * a[i * n + c];
                }
                let scale = 2.0 * dot / vnorm2;
                for i in k..m {
                    a[i * n + c] -= scale * v[i - k];
                }
            }
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * rhs[i];
            }
            let scale = 2.0 * dot / vnorm2;
            for i in k..m {
                rhs[i] -= scale * v[i - k];
            }
            a[k * n + k] = alpha;
        }

        // Back substitution on the upper-triangular R.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut acc = rhs[k];
            for c in (k + 1)..n {
                acc -= a[k * n + c] * x[c];
            }
            let diag = a[k * n + k];
            if diag.abs() < 1e-13 {
                return Err(MatrixError::Singular);
            }
            x[k] = acc / diag;
        }
        Ok(x)
    }

    /// Ordinary least squares of multiple right-hand sides: solves
    /// `min ||A X - B||` column by column, returning `X` (`cols x B.cols`).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::solve_least_squares`].
    pub fn solve_least_squares_multi(&self, b: &Matrix) -> Result<Matrix, MatrixError> {
        if b.rows != self.rows {
            return Err(MatrixError::ShapeMismatch {
                context: format!("B has {} rows, A has {}", b.rows, self.rows),
            });
        }
        let mut x = Matrix::zeros(self.cols, b.cols);
        for c in 0..b.cols {
            let sol = self.solve_least_squares(&b.col(c))?;
            for (r, v) in sol.into_iter().enumerate() {
                x[(r, c)] = v;
            }
        }
        Ok(x)
    }

}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    /// Accesses entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let v = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MatrixError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.matvec(&[1.0, 2.0]),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_square_system() {
        // 2x + y = 5; x - y = 1  => x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = a.solve_least_squares(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_overdetermined_regression() {
        // Fit y = 2x + 1 through noisy-free samples: exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let a = Matrix::from_rows(&rows);
        let beta = a.solve_least_squares(&ys).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-10);
        assert!((beta[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        assert_eq!(a.solve_least_squares(&[1.0, 2.0, 3.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn multi_rhs_solve() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 6.0], vec![3.0, 5.0]]);
        let x = a.solve_least_squares_multi(&b).unwrap();
        // Verify residual is small in a least-squares sense by projecting.
        let ax = a.matmul(&x).unwrap();
        let resid = (0..3)
            .flat_map(|r| (0..2).map(move |c| (r, c)))
            .map(|(r, c)| (ax[(r, c)] - b[(r, c)]).powi(2))
            .sum::<f64>();
        assert!(resid < 1.0, "residual {resid} too large");
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }
}
