//! Spread statistics shared by the paper's figures.

/// Min/mean/max summary of a set of values, with relative deviations.
///
/// The paper reports bars like "+23% / −14% around the average" (Figure 1)
/// and defines *variability* as `(max − min) / mean`.
///
/// # Examples
///
/// ```
/// use symbiosis::metrics::Spread;
///
/// let s = Spread::from_values([0.8, 1.0, 1.2]).unwrap();
/// assert!((s.mean - 1.0).abs() < 1e-12);
/// assert!((s.rel_max() - 0.2).abs() < 1e-12);
/// assert!((s.rel_min() + 0.2).abs() < 1e-12);
/// assert!((s.variability() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarises a non-empty collection of finite values.
    ///
    /// Returns `None` if the iterator is empty or any value is non-finite.
    pub fn from_values<I>(values: I) -> Option<Spread>
    where
        I: IntoIterator<Item = f64>,
    {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in values {
            if !v.is_finite() {
                return None;
            }
            min = min.min(v);
            max = max.max(v);
            sum += v;
            count += 1;
        }
        if count == 0 {
            return None;
        }
        Some(Spread {
            min,
            mean: sum / count as f64,
            max,
        })
    }

    /// Relative excursion of the maximum above the mean (`+23%` -> `0.23`).
    pub fn rel_max(&self) -> f64 {
        self.max / self.mean - 1.0
    }

    /// Relative excursion of the minimum below the mean (`-14%` -> `-0.14`).
    pub fn rel_min(&self) -> f64 {
        self.min / self.mean - 1.0
    }

    /// The paper's variability: `(max - min) / mean`.
    pub fn variability(&self) -> f64 {
        (self.max - self.min) / self.mean
    }
}

/// Arithmetic mean of an iterator; `None` when empty.
pub fn mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_singleton() {
        let s = Spread::from_values([2.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.variability(), 0.0);
    }

    #[test]
    fn spread_empty_is_none() {
        assert!(Spread::from_values(std::iter::empty()).is_none());
    }

    #[test]
    fn spread_rejects_nan() {
        assert!(Spread::from_values([1.0, f64::NAN]).is_none());
        assert!(Spread::from_values([1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn relative_excursions() {
        let s = Spread::from_values([1.0, 2.0, 3.0]).unwrap();
        assert!((s.rel_max() - 0.5).abs() < 1e-12);
        assert!((s.rel_min() + 0.5).abs() < 1e-12);
        assert!((s.variability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean([1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(std::iter::empty()), None);
    }
}
