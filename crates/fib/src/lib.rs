#![forbid(unsafe_code)]
//! Exact Fibonacci kernel used throughout the stream-merging reproduction.
//!
//! The optimal delay-guaranteed merge cost of Bar-Noy–Goshi–Ladner is governed
//! by Fibonacci numbers (their Eq. (6): `M(n) = (k−1)·n − F_{k+2} + 2` for
//! `F_k ≤ n ≤ F_{k+1}`), the optimal last-merge intervals `I(n)` are phrased
//! in Fibonacci coordinates (their Theorem 3), and the on-line algorithm
//! chooses tree sizes `F_h` with `F_{h+1} < L+2 ≤ F_{h+2}` (their Theorem 12).
//!
//! This crate provides the exact integer machinery those results need:
//!
//! * [`fib`] — exact Fibonacci numbers (iteratively, `O(k)`) and
//!   [`fib_fast_doubling`] (`O(log k)`), with the paper's indexing
//!   `F_0 = 0, F_1 = 1, F_2 = 1, …`;
//! * [`FibTable`] — a precomputed table with the rank queries the closed
//!   forms need (`largest_index_le`, `decompose`, `theorem12_h`);
//! * [`zeckendorf()`] — the unique representation of `n` as a sum of
//!   non-adjacent Fibonacci numbers (used by property tests and by the
//!   diagnostics in `sm-experiments`);
//! * [`golden`] — golden-ratio asymptotics (`log_φ`, Binet bounds) backing the
//!   paper's Theorems 8, 13, 19 and 20.

pub mod golden;
pub mod seq;
pub mod zeckendorf;

pub use golden::{binet_approx, log_phi, PHI, PHI_HAT, SQRT5};
pub use seq::{fib, fib_fast_doubling, is_fibonacci, FibTable, MAX_FIB_INDEX_U64};
pub use zeckendorf::{zeckendorf, ZeckendorfIter};
