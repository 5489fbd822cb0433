//! Order statistics and the A/B verdict.

/// Median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default exclusive method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (s[0], s[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The outcome of comparing a candidate `b` against a parent `a`, run in
/// pairs (`a[i]` and `b[i]` on the same seed).
#[derive(Debug)]
pub struct Comparison {
    /// Share of pairs in which `b` reads better; ties count for neither.
    pub win_frac: f64,
    /// Relative change of the median, signed so that positive is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// A gain needs `b` to win at least nine tenths of the pairs and its
/// median to beat `a`'s by more than `a`'s own interquartile distance. A
/// loss is a median worse by more than `bound`. Where either side's
/// spread exceeds the bound the comparison is unresolved, unless every
/// run of `b` beats every run of `a`. Without a full set of finite pairs
/// there is nothing to judge, and the comparison is unresolved.
pub fn compare(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Comparison {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| sign * (b[i] - a[i]) < 0.0).count();
    let win_frac = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let (q1, q3) = quartiles(a);
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let complete = pairs > 0 && a.len() == b.len() && a.iter().chain(b).all(|x| x.is_finite());
    let verdict = if !complete {
        Verdict::Unresolved
    } else if win_frac >= 0.9 && sign * (ma - mb) > q3 - q1 {
        Verdict::Improved
    } else if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Comparison {
        win_frac,
        worse_by,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(compare(&a, &faster, true, 0.1).verdict, Verdict::Improved);
        assert_eq!(compare(&a, &slower, true, 0.1).verdict, Verdict::Worse);
        assert_eq!(compare(&a, &a, true, 0.1).verdict, Verdict::Unchanged);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(compare(&a, &noisy, true, 0.1).verdict, Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        assert_eq!(compare(&a, &slower, false, 0.1).verdict, Verdict::Improved);
    }

    #[test]
    fn missing_values_are_never_unchanged() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(compare(&a, &[], true, 0.1).verdict, Verdict::Unresolved);
        assert_eq!(compare(&[], &a, true, 0.1).verdict, Verdict::Unresolved);
        assert_eq!(compare(&a, &a[..2], true, 0.1).verdict, Verdict::Unresolved);
        let with_nan = [10.0, f64::NAN, 9.9];
        assert_eq!(
            compare(&a, &with_nan, true, 0.1).verdict,
            Verdict::Unresolved
        );
    }
}
