//! Order statistics and the output digest.

/// The nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p`% of the samples at or below it, so the p90 of 100
/// samples leaves exactly 10 beyond it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(q1, median, q3)` of `values` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// spreads printed here match the ones computed from the same numbers in
/// Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let median = match n {
        0 => return (0.0, 0.0, 0.0),
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    if n < 2 {
        return (median, median, median);
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (quantile(1), median, quantile(3))
}

/// FNV-1a over a sequence of documents, one newline after each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one document into the digest.
    pub fn add(&mut self, doc: &str) {
        for &byte in doc.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Removes the first `"cache":{...}` member of a report document. Cache
/// counters depend on how warm the evaluation cache was, not on the
/// result, so they are left out of digests and payload comparisons.
pub fn strip_cache(report: &str) -> String {
    let Some(start) = report.find("\"cache\":{") else {
        return report.to_owned();
    };
    let Some(close) = report[start..].find('}') else {
        return report.to_owned();
    };
    let mut end = start + close + 1;
    if report[end..].starts_with(',') {
        end += 1;
    } else if report[..start].ends_with(',') {
        return format!("{}{}", &report[..start - 1], &report[end..]);
    }
    format!("{}{}", &report[..start], &report[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&sorted, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(sorted.iter().filter(|&&v| v > p90).count(), 10);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let mut a = Digest::default();
        a.add("x");
        a.add("y");
        let mut b = Digest::default();
        b.add("y");
        b.add("x");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.add("x");
        c.add("y");
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn strip_cache_removes_only_the_cache_object() {
        assert_eq!(
            strip_cache("{\"a\":1,\"cache\":{\"hits\":3,\"misses\":0},\"b\":2}"),
            "{\"a\":1,\"b\":2}"
        );
        assert_eq!(strip_cache("{\"a\":1,\"cache\":{\"hits\":3}}"), "{\"a\":1}");
        assert_eq!(strip_cache("{\"a\":1}"), "{\"a\":1}");
    }
}
