//! Per-feature standardization fitted on training data.

/// A per-feature standardizer: `z = (x - mean) / std`.
///
/// Fitted once on the training set and applied to every sample at train
/// and inference time. Features with (near-)zero variance are passed
/// through centred but unscaled.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::Normalizer;
///
/// let data = vec![vec![0.0, 10.0], vec![2.0, 10.0], vec![4.0, 10.0]];
/// let norm = Normalizer::fit(&data);
/// let z = norm.transform(&[2.0, 10.0]);
/// assert!(z[0].abs() < 1e-12);   // at the mean
/// assert_eq!(z[1], 0.0);          // constant feature centred
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Fits mean and standard deviation per feature column.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have inconsistent lengths.
    pub fn fit(data: &[Vec<f64>]) -> Self {
        Self::fit_rows(data.iter().map(Vec::as_slice))
    }

    /// [`Normalizer::fit`] over borrowed rows, in iteration order (the
    /// iterator is cloned for the second, variance pass), so a caller
    /// need not copy its rows into one `Vec<Vec<f64>>`. Same sums in the
    /// same order, so the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have inconsistent lengths.
    pub fn fit_rows<'a, I>(data: I) -> Self
    where
        I: Iterator<Item = &'a [f64]> + Clone,
    {
        let first = data.clone().next();
        assert!(first.is_some(), "cannot fit a normalizer on no data");
        let dim = first.map_or(0, <[f64]>::len);
        let mut count = 0usize;
        let mut mean = vec![0.0; dim];
        for row in data.clone() {
            count += 1;
            assert_eq!(row.len(), dim, "inconsistent feature dimension");
            for (m, x) in mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        let n = count as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for row in data {
            for ((v, x), m) in var.iter_mut().zip(row).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std: Vec<f64> = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-9 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Normalizer { mean, std }
    }

    /// An identity normalizer of the given dimension.
    pub fn identity(dim: usize) -> Self {
        Normalizer {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimension.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(xi, (m, s))| (xi - m) / s)
            .collect()
    }

    /// Standardizes one sample into a caller-provided buffer,
    /// allocation-free. Bit-identical to [`Normalizer::transform`].
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the fitted dimension.
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mean.len(), "dimension mismatch");
        for (o, (xi, (m, s))) in out
            .iter_mut()
            .zip(x.iter().zip(self.mean.iter().zip(&self.std)))
        {
            *o = (xi - m) / s;
        }
    }

    /// Inverse transform (de-standardize model outputs).
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the fitted dimension.
    pub fn inverse(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.mean.len(), "dimension mismatch");
        z.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(zi, (m, s))| zi * s + m)
            .collect()
    }

    /// Inverse transform into a caller-provided buffer, allocation-free.
    /// Bit-identical to [`Normalizer::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the fitted dimension.
    pub fn inverse_into(&self, z: &[f64], out: &mut [f64]) {
        assert_eq!(z.len(), self.mean.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mean.len(), "dimension mismatch");
        for (o, (zi, (m, s))) in out
            .iter_mut()
            .zip(z.iter().zip(self.mean.iter().zip(&self.std)))
        {
            *o = zi * s + m;
        }
    }

    /// Fitted means.
    pub fn means(&self) -> &[f64] {
        &self.mean
    }

    /// Fitted standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.std
    }

    /// Reconstructs a normalizer from saved statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if `std` and `mean` differ in length or any std
    /// is not finite and positive; names the first violation.
    pub fn from_stats(mean: Vec<f64>, std: Vec<f64>) -> Result<Self, String> {
        if mean.len() != std.len() {
            return Err(format!("{} means but {} stds", mean.len(), std.len()));
        }
        if let Some((i, s)) = std
            .iter()
            .enumerate()
            .find(|(_, s)| !(s.is_finite() && **s > 0.0))
        {
            return Err(format!("std {i} is {s}, expected finite and positive"));
        }
        Ok(Normalizer { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = vec![
            vec![1.0, -5.0, 100.0],
            vec![3.0, 5.0, 200.0],
            vec![5.0, 0.0, 300.0],
        ];
        let n = Normalizer::fit(&data);
        let x = [2.0, 1.0, 250.0];
        let z = n.transform(&x);
        let back = n.inverse(&z);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transformed_training_data_standardized() {
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 3.0 * i as f64 + 7.0]).collect();
        let n = Normalizer::fit(&data);
        let z: Vec<Vec<f64>> = data.iter().map(|r| n.transform(r)).collect();
        for c in 0..2 {
            let mean: f64 = z.iter().map(|r| r[c]).sum::<f64>() / 100.0;
            let var: f64 = z.iter().map(|r| r[c] * r[c]).sum::<f64>() / 100.0 - mean * mean;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_feature_safe() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let n = Normalizer::fit(&data);
        let z = n.transform(&[5.0]);
        assert_eq!(z[0], 0.0);
        assert!(z[0].is_finite());
    }

    #[test]
    fn identity_passthrough() {
        let n = Normalizer::identity(3);
        assert_eq!(n.transform(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_stats_checks_lengths_and_stds() {
        let n = Normalizer::from_stats(vec![1.0, 2.0], vec![0.5, 3.0]).expect("valid stats");
        assert_eq!((n.means(), n.stds()), (&[1.0, 2.0][..], &[0.5, 3.0][..]));
        assert!(Normalizer::from_stats(vec![1.0], vec![1.0, 1.0]).is_err());
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                Normalizer::from_stats(vec![0.0], vec![bad]).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        let _ = Normalizer::fit(&[]);
    }
}
