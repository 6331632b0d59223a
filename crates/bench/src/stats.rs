//! Summary statistics shared by the figure views.

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Formats an S-curve: values sorted ascending, one line per program.
pub fn s_curve(mut values: Vec<(String, f64)>) -> Vec<(String, f64)> {
    values.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn s_curve_sorts() {
        let v = s_curve(vec![("b".into(), 2.0), ("a".into(), 1.0)]);
        assert_eq!(v[0].0, "a");
    }
}
