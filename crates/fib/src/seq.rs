//! Exact Fibonacci sequences and rank queries.
//!
//! Indexing follows the paper: `F_0 = 0, F_1 = 1, F_k = F_{k−1} + F_{k−2}`.

/// Largest `k` such that `F_k` fits in a `u64` (`F_94` overflows).
pub const MAX_FIB_INDEX_U64: usize = 93;

/// `F_k` as `u64`, computed iteratively.
///
/// # Panics
/// Panics if `k > MAX_FIB_INDEX_U64` (the value would overflow `u64`).
pub fn fib(k: usize) -> u64 {
    assert!(
        k <= MAX_FIB_INDEX_U64,
        "F_{k} does not fit in u64 (max index {MAX_FIB_INDEX_U64})"
    );
    if k == 0 {
        return 0;
    }
    // (a, b) = (F_{i-1}, F_i); never computes past F_k, so F_92 is reachable
    // without overflowing the debug-mode checked add.
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 1..k {
        let next = a + b;
        a = b;
        b = next;
    }
    b
}

/// `(F_k, F_{k+1})` by fast doubling in `O(log k)` multiplications.
///
/// Uses the identities `F_{2m} = F_m (2 F_{m+1} − F_m)` and
/// `F_{2m+1} = F_m² + F_{m+1}²`.
///
/// # Panics
/// Panics if `k + 1 > MAX_FIB_INDEX_U64`.
pub fn fib_fast_doubling(k: usize) -> (u64, u64) {
    assert!(
        k < MAX_FIB_INDEX_U64,
        "fast doubling computes F_{{k+1}}; need k < {MAX_FIB_INDEX_U64}"
    );
    fn go(k: usize) -> (u128, u128) {
        if k == 0 {
            return (0, 1);
        }
        let (a, b) = go(k >> 1);
        let c = a * (2 * b - a);
        let d = a * a + b * b;
        if k & 1 == 0 {
            (c, d)
        } else {
            (d, c + d)
        }
    }
    let (a, b) = go(k);
    (a as u64, b as u64)
}

/// `true` iff `n` is a Fibonacci number (0, 1, 2, 3, 5, 8, …).
pub fn is_fibonacci(n: u64) -> bool {
    let (mut a, mut b) = (0u64, 1u64);
    while a < n {
        let Some(next) = a.checked_add(b) else {
            // n lies strictly between F_92 and F_93 > u64::MAX.
            return false;
        };
        a = b;
        b = next;
    }
    a == n
}

/// Precomputed table of Fibonacci numbers with rank queries.
///
/// The closed-form algorithms of the paper repeatedly need "the `k` with
/// `F_k ≤ n ≤ F_{k+1}`" — [`FibTable::largest_index_le`] answers that in
/// `O(log log n)`-sized binary searches over the (at most 93-entry) table.
#[derive(Debug, Clone)]
pub struct FibTable {
    values: Vec<u64>,
}

impl Default for FibTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FibTable {
    /// Builds the full `u64` table `F_0 … F_92`.
    pub fn new() -> Self {
        let mut values = vec![0u64; MAX_FIB_INDEX_U64 + 1];
        values[1] = 1;
        for k in 2..=MAX_FIB_INDEX_U64 {
            values[k] = values[k - 1] + values[k - 2];
        }
        Self { values }
    }

    /// `F_k`.
    ///
    /// # Panics
    /// Panics if `k > MAX_FIB_INDEX_U64`.
    #[inline]
    pub fn get(&self, k: usize) -> u64 {
        self.values[k]
    }

    /// All stored values `F_0 ..= F_92`.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The largest `k` with `F_k ≤ n`, for `n ≥ 1`.
    ///
    /// Because `F_1 = F_2 = 1`, the returned index is the *larger* of the two
    /// candidates at `n = 1` (i.e. 2), matching the paper's canonical choice
    /// of `k` with `F_k ≤ n ≤ F_{k+1}`; the paper's formulas are redundant at
    /// Fibonacci boundaries so either choice evaluates identically.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn largest_index_le(&self, n: u64) -> usize {
        assert!(n >= 1, "largest_index_le requires n >= 1");
        // partition_point returns the first k with F_k > n; values are
        // strictly increasing from index 2 onward and F_2 = 1 <= n.
        self.values.partition_point(|&f| f <= n) - 1
    }

    /// The paper's canonical decomposition `n = F_k + m` with
    /// `F_k ≤ n ≤ F_{k+1}` (largest such `k`) and `0 ≤ m < F_{k−1}`.
    ///
    /// Returns `(k, m)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn decompose(&self, n: u64) -> (usize, u64) {
        let k = self.largest_index_le(n);
        (k, n - self.values[k])
    }

    /// The `h` of the paper's Theorem 12: `F_{h+1} < L + 2 ≤ F_{h+2}`.
    ///
    /// # Panics
    /// Panics if `L == 0` or `L + 2` exceeds `F_92`.
    #[inline]
    pub fn theorem12_h(&self, media_len: u64) -> usize {
        assert!(media_len >= 1, "stream length must be at least 1 slot");
        // smallest index j with F_j >= L + 2; then h + 2 = j if F_j > L + 1,
        // handled uniformly: F_{h+2} >= L+2 and F_{h+1} < L+2.
        let j = self.values.partition_point(|&f| f < media_len + 2);
        j - 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_values_match_definition() {
        let expect = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(fib(k), e, "F_{k}");
        }
    }

    #[test]
    fn u64_bound_is_tight() {
        // F_93 fits in u64; F_94 does not.
        let f93 = fib(MAX_FIB_INDEX_U64);
        assert_eq!(f93, 12_200_160_415_121_876_738);
        assert!(fib(92).checked_add(f93).is_none(), "F_94 = F_92 + F_93");
    }

    #[test]
    #[should_panic]
    fn fib_overflow_panics() {
        let _ = fib(MAX_FIB_INDEX_U64 + 1);
    }

    #[test]
    fn fast_doubling_matches_iterative() {
        for k in 0..MAX_FIB_INDEX_U64 {
            let (fk, fk1) = fib_fast_doubling(k);
            assert_eq!(fk, fib(k), "F_{k}");
            assert_eq!(fk1, fib(k + 1), "F_{}", k + 1);
        }
    }

    #[test]
    fn is_fibonacci_small() {
        let fibs = [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for n in 0..=60u64 {
            assert_eq!(is_fibonacci(n), fibs.contains(&n), "n = {n}");
        }
    }

    #[test]
    fn table_matches_fib() {
        let t = FibTable::new();
        for k in 0..=MAX_FIB_INDEX_U64 {
            assert_eq!(t.get(k), fib(k));
        }
    }

    #[test]
    fn largest_index_le_canonical() {
        let t = FibTable::new();
        assert_eq!(t.largest_index_le(1), 2); // F_2 = 1 (canonical larger k)
        assert_eq!(t.largest_index_le(2), 3);
        assert_eq!(t.largest_index_le(3), 4);
        assert_eq!(t.largest_index_le(4), 4);
        assert_eq!(t.largest_index_le(5), 5);
        assert_eq!(t.largest_index_le(12), 6);
        assert_eq!(t.largest_index_le(13), 7);
    }

    #[test]
    fn largest_index_le_brackets_everywhere() {
        let t = FibTable::new();
        for n in 1..=10_000u64 {
            let k = t.largest_index_le(n);
            assert!(t.get(k) <= n && n <= t.get(k + 1), "n = {n}, k = {k}");
        }
    }

    #[test]
    fn decompose_invariants() {
        let t = FibTable::new();
        for n in 1..=10_000u64 {
            let (k, m) = t.decompose(n);
            assert_eq!(t.get(k) + m, n);
            // With the largest k, the remainder is strictly below F_{k-1}.
            assert!(m < t.get(k - 1).max(1), "n = {n}: m = {m}, k = {k}");
        }
    }

    #[test]
    fn theorem12_h_examples_from_paper() {
        let t = FibTable::new();
        // L = 1: F_3 = 2 < 3 <= F_4 = 3, so h = 2 and F_h = 1 (paper: s = n).
        assert_eq!(t.theorem12_h(1), 2);
        // L = 2: F_4 = 3 < 4 <= F_5 = 5, so h = 3, F_h = 2.
        assert_eq!(t.theorem12_h(2), 3);
        // L = 4: paper says h = 4 and F_h = 3.
        assert_eq!(t.theorem12_h(4), 4);
        // L = 15: F_7 = 13 < 17 <= F_8 = 21, so h = 6, F_h = 8.
        assert_eq!(t.theorem12_h(15), 6);
        // L = 100: F_11 = 89 < 102 <= F_12 = 144, so h = 10, F_h = 55.
        assert_eq!(t.theorem12_h(100), 10);
    }

    #[test]
    fn theorem12_h_bracket_property() {
        let t = FibTable::new();
        for media_len in 1..=100_000u64 {
            let h = t.theorem12_h(media_len);
            assert!(t.get(h + 1) < media_len + 2, "L = {media_len}");
            assert!(media_len + 2 <= t.get(h + 2), "L = {media_len}");
        }
    }
}
