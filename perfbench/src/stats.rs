//! Order statistics the benchmark reports: median, quartiles (the same
//! values as Python's `statistics.quantiles(values, n=4)`), the spread
//! between quartiles, and the tail percentile.

/// Sorted copy of `values` (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in benchmark samples"));
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile by Python's default ("exclusive")
/// method of `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples strictly above it, and is not below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, 0..=100.
    pub pct: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Samples a tail value must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`. With fewer than `2 * TAIL_BEYOND + 1` samples
/// no percentile above the median leaves [`TAIL_BEYOND`] beyond it; the
/// tail is then the maximum (`beyond` = 0).
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let above = |k: usize| v.iter().filter(|&&x| x > v[k]).count();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            pct: 100.0,
            beyond: 0,
            samples: n,
        };
    }
    // Ties can leave fewer than ten strictly above the (n-11)th sample;
    // step down until ten are.
    let mut k = n - TAIL_BEYOND - 1;
    while k > 0 && above(k) < TAIL_BEYOND {
        k -= 1;
    }
    Tail {
        value: v[k],
        pct: 100.0 * (k + 1) as f64 / n as f64,
        beyond: above(k),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_steps_below_ties() {
        // Five copies of the 89th value: the 90th sample is tied with
        // four above it, so the tail moves below the tie.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        for x in v.iter_mut().skip(88).take(5) {
            *x = 89.0;
        }
        let t = tail(&v);
        assert!(t.beyond >= TAIL_BEYOND);
        assert_eq!(t.value, 88.0);
        assert_eq!(t.beyond, 12);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[1.0, 5.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 0);
        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (20.0, 0));
        let t = tail(&(1..=21).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (11.0, 10));
    }
}
