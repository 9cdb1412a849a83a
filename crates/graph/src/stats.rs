//! Graph statistics used for calibration and reporting.

/// Gini coefficient of a degree sequence (0 = uniform, →1 = concentrated).
///
/// Used to verify that synthetic graphs reproduce the power-law skew the
/// paper's joint optimization exploits (§6: "power-law distribution of graph
/// data").
pub fn degree_gini(degrees: &[u32]) -> f64 {
    if degrees.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = degrees.iter().map(|&d| d as u64).collect();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut cum = 0.0f64;
    let mut weighted = 0.0f64;
    for (i, &d) in sorted.iter().enumerate() {
        cum += d as f64;
        weighted += cum;
        let _ = i;
    }
    // Gini = 1 - 2·B where B is the area under the Lorenz curve.
    1.0 - 2.0 * (weighted / (n * total as f64)) + 1.0 / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_uniform_is_near_zero() {
        let g = degree_gini(&[5; 100]);
        assert!(g.abs() < 0.02, "gini = {g}");
    }

    #[test]
    fn gini_of_concentrated_is_high() {
        let mut d = vec![0u32; 99];
        d.push(1000);
        let g = degree_gini(&d);
        assert!(g > 0.95, "gini = {g}");
    }

    #[test]
    fn gini_handles_empty_and_zero() {
        assert_eq!(degree_gini(&[]), 0.0);
        assert_eq!(degree_gini(&[0, 0, 0]), 0.0);
    }
}
