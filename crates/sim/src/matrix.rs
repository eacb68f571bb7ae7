//! Dense real matrix with LU factorisation.
//!
//! The macro cells simulated in this workspace have at most a few hundred
//! unknowns and are factored densely. The hot system is the comparator
//! testbench's: 50 unknowns, about 230 of the 2 500 entries nonzero,
//! filled to about 770 by natural-order partial pivoting (averages over
//! 200 Newton matrices captured from a comparator campaign). With a
//! third of the factors nonzero, the factorisation kernel keeps the
//! dense layout and skips the zeros it can prove: rows with a zero
//! multiplier, and the cells past the pivot row's last nonzero.
//!
//! [`LuFactors::refactor`] is bit-for-bit the textbook right-looking
//! elimination with partial pivoting: the same pivot rows, multipliers,
//! factor bytes and singularity verdict. The textbook loop survives as
//! the test oracle that pins this. The `dense_lu` bench case times
//! refactor + solve on a 50-unknown MNA-pattern system.
//!
//! Factorisation and solution are split: [`LuFactors`] holds the packed
//! `L`/`U` triangles plus the pivot permutation, so one factorisation can
//! back a run of solves — the foundation of the engine's factor-reuse
//! layer, and the routine *every* production solve uses whether the
//! caches are on or off (which is what keeps the caches bit-invisible).
//! The solve reassociates its triangular-sweep dot products four ways
//! for pipeline throughput, so it agrees with textbook substitution to
//! round-off (asserted by the `factor_solve_matches_reference*` tests),
//! not bit-for-bit.

/// Why a factorisation was refused: the best pivot available in `col` had
/// magnitude `pivot_mag`, vanishingly small relative to the largest
/// magnitude in that factored column.
///
/// Carried by every solve/factor failure so callers such as the
/// escalation ladder can report *why* a matrix was deemed
/// singular instead of collapsing the cause into a bare `bool`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingularInfo {
    /// Elimination column at which no acceptable pivot existed.
    pub col: usize,
    /// Magnitude of the best pivot found in that column (0.0 for an
    /// all-zero column; NaN pivots report as NaN).
    pub pivot_mag: f64,
}

/// A dense, row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero without reallocating.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Reads entry `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Writes entry `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA stamp.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// The raw row-major entries (read-only). Used by the factor-reuse
    /// layer to compare assembled matrices byte-for-byte.
    #[inline]
    pub fn entries(&self) -> &[f64] {
        &self.data
    }

    /// Overwrites all entries from `src` (row-major, length `n·n`).
    #[inline]
    pub fn load_entries(&mut self, src: &[f64]) {
        debug_assert_eq!(src.len(), self.data.len());
        self.data.copy_from_slice(src);
    }

    /// The raw row-major entries, mutable. Used by the batched-assembly
    /// layer for flat-indexed baseline installs and dynamic-cell resets.
    #[inline]
    pub(crate) fn entries_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Computes `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        self.data
            .chunks_exact(self.n)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// A completed LU factorisation with partial pivoting: `U` on and above
/// the diagonal, the elimination multipliers of `L` (unit diagonal
/// implied) below it, and the row-interchange sequence.
///
/// Factor once with [`LuFactors::refactor`], then run any number of
/// [`LuFactors::solve`] calls. The solve replay is the single routine
/// behind every production solve, cached or not,
/// which is what lets the engine's factor cache be invisible in every
/// deterministic artifact: a cache hit replays the same factors through
/// the same arithmetic.
///
/// Buffers are retained across `refactor` calls, so a long-lived
/// `LuFactors` allocates only when the dimension grows.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    /// Packed factors, row-major: `U` on/above the diagonal, `L`
    /// multipliers strictly below.
    lu: Vec<f64>,
    /// `piv[k]` is the row swapped with `k` at elimination step `k`
    /// (`piv[k] == k` when no interchange happened).
    piv: Vec<usize>,
    /// Working buffer for `refactor`: the running maximum magnitude of each
    /// column over the finished `U` rows.
    col_max: Vec<f64>,
}

impl LuFactors {
    /// An empty factorisation (dimension 0); fill via
    /// [`LuFactors::refactor`].
    pub fn new() -> Self {
        LuFactors::default()
    }

    /// Factored dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factors `a` into `self`, reusing the existing buffers. `a` itself
    /// is untouched (the engine keeps the assembled matrix for delta
    /// scans and residual checks).
    ///
    /// A matrix is numerically singular when the best pivot available in
    /// a column is vanishingly small *relative to the largest magnitude
    /// in that factored column* (ratio below `1e-14`), so uniformly
    /// rescaling the system never changes the verdict: a
    /// well-conditioned matrix that happens to live near `1e-300` still
    /// factors, while exact cancellation is caught at any scale. On
    /// failure the factor contents are unspecified and the previous
    /// factorisation is lost.
    ///
    /// The kernel is bit-for-bit the textbook right-looking elimination
    /// (kept as the test oracle): the same pivots, the same multipliers,
    /// the same singularity verdict, and every trailing cell receives the
    /// same subtractions in ascending `k`. It only does less work per
    /// step:
    /// - the pivot row and the rows below it are disjoint borrows, so
    ///   the row update is a bounds-check-free slice loop;
    /// - the column maxima of the singularity test are running maxima,
    ///   folded in once per finished `U` row (`f64::max` is exact and
    ///   ignores NaN, so the fold order cannot change them);
    /// - column `k + 1`'s pivot search rides along with step `k`'s row
    ///   updates, visiting the rows in the same order;
    /// - a zero below the pivot gets its signed-zero multiplier from a
    ///   multiply instead of a division;
    /// - a row update stops at the last nonzero of the pivot row. A
    ///   skipped cell would compute `x − f·0`, which is `x` for finite
    ///   `f` unless `x` is `-0.0`; non-finite multipliers update the
    ///   full row.
    ///
    /// Bit-identity therefore needs `a` to hold no `-0.0`, which
    /// assembly guarantees: it sums stamps onto `+0.0` (or `gmin`), and
    /// no sum or difference of other values is `-0.0`, so elimination
    /// never creates one either. Debug builds assert it. (Given a
    /// `-0.0`, the factors still hold the same values; only the sign of
    /// a zero cell can differ.)
    ///
    /// # Errors
    /// [`SingularInfo`] naming the offending column and its best pivot.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<(), SingularInfo> {
        debug_assert!(
            !a.data.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()),
            "matrix to factor holds -0.0"
        );
        let n = a.n;
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(&a.data);
        self.piv.clear();
        self.piv.resize(n, 0);
        self.col_max.clear();
        self.col_max.resize(n, 0.0);
        if n == 0 {
            return Ok(());
        }
        // Pivot search for column 0; every later column is searched
        // while the previous step updates its rows.
        let mut piv = 0;
        let mut max = self.lu[0].abs();
        for (i, row) in self.lu.chunks_exact(n).enumerate().skip(1) {
            let v = row[0].abs();
            if v > max {
                max = v;
                piv = i;
            }
        }
        for k in 0..n {
            // `col_max[k]` holds max |U[i][k]| over the rows i < k.
            let col_max = max.max(self.col_max[k]);
            if max.is_nan() || max <= col_max * 1e-14 {
                return Err(SingularInfo {
                    col: k,
                    pivot_mag: max,
                });
            }
            self.piv[k] = piv;
            let (done, below) = self.lu.split_at_mut((k + 1) * n);
            let row_k = &mut done[k * n..];
            if piv != k {
                let p = (piv - k - 1) * n;
                row_k.swap_with_slice(&mut below[p..p + n]);
            }
            // Row k is final from here on.
            let u = &row_k[k + 1..];
            for (m, &x) in self.col_max[k + 1..].iter_mut().zip(u) {
                *m = m.max(x.abs());
            }
            let pivot = row_k[k];
            let width = u.iter().rposition(|&x| x != 0.0).map_or(0, |j| j + 1);
            for (r, row) in below.chunks_exact_mut(n).enumerate() {
                let x = row[k];
                if x == 0.0 {
                    // `±0 / pivot` is the signed zero `±0 · pivot`
                    // (the pivot is finite and nonzero), without the
                    // divider.
                    row[k] = x * pivot;
                } else {
                    let factor = x / pivot;
                    // `factor == 0.0` rows are skipped exactly as in the
                    // textbook loop (an underflowed multiplier must not turn
                    // a later `inf · 0` into NaN); the zero multiplier
                    // stored here makes `solve` skip the same rows.
                    row[k] = factor;
                    if factor != 0.0 {
                        let w = if factor.is_finite() { width } else { u.len() };
                        for (y, &ukj) in row[k + 1..k + 1 + w].iter_mut().zip(&u[..w]) {
                            *y -= factor * ukj;
                        }
                    }
                }
                // Column k + 1's pivot search: the first row seeds it
                // (NaN included), later rows need a strictly larger value.
                if let Some(&next) = row.get(k + 1) {
                    let v = next.abs();
                    if r == 0 || v > max {
                        max = v;
                        piv = k + 1 + r;
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors, overwriting `b` with
    /// `x`.
    ///
    /// Every production solve — with the factor caches on *or* off —
    /// goes through this routine, so its arithmetic only has to be
    /// deterministic, not bit-matched to textbook substitution. That
    /// freedom is spent on speed: both triangular sweeps run their dot
    /// products with a fixed four-way association, which breaks the
    /// fused-multiply-add latency chain a sequential accumulation is
    /// pinned to and roughly triples solve throughput at circuit sizes.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()` or nothing has been factored.
    pub fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        let lu = &self.lu;
        // The stored multipliers are the *final* packed `L`: every row
        // interchange of the factorisation — including ones later than
        // the multiplier's own elimination step — has been applied to
        // them. So `b` must be fully permuted *first*, then eliminated;
        // interleaving the swaps with the elimination would pair
        // multipliers with pre-swap `b` entries.
        for k in 0..n {
            let piv = self.piv[k];
            if piv != k {
                b.swap(k, piv);
            }
        }
        // Forward elimination, traversed row by row so the packed `L` is
        // read in storage order (the column-by-column formulation strides
        // by `n` and thrashes the cache): b[i] -= L[i,·]·b[..i].
        for i in 1..n {
            let row = &lu[i * n..i * n + i];
            b[i] -= dot4(row, &b[..i]);
        }
        // Back substitution: b[k] = (b[k] − U[k,k+1..]·b[k+1..]) / U[k,k].
        for k in (0..n).rev() {
            let row = &lu[k * n..(k + 1) * n];
            let acc = b[k] - dot4(&row[k + 1..], &b[k + 1..]);
            b[k] = acc / row[k];
        }
    }
}

/// Dot product with a fixed four-way association:
/// `(Σ₀ + Σ₁) + (Σ₂ + Σ₃)` over the interleaved quarters, then the
/// remainder folded in sequentially. Deterministic for a given input,
/// and four independent accumulators keep the multiply-add pipeline full
/// instead of serialising on one. Quads of `a` that are entirely zero
/// are skipped — factored circuit matrices stay sparse even after
/// fill-in, so most quads of a packed `L`/`U` row contribute nothing.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    for (qa, qb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        if qa[0] == 0.0 && qa[1] == 0.0 && qa[2] == 0.0 && qa[3] == 0.0 {
            continue;
        }
        acc[0] += qa[0] * qb[0];
        acc[1] += qa[1] * qb[1];
        acc[2] += qa[2] * qb[2];
        acc[3] += qa[3] * qb[3];
    }
    let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let n4 = a.len() & !3;
    for (&xa, &xb) in a[n4..].iter().zip(&b[n4..]) {
        dot += xa * xb;
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factors `m` and solves `m·x = b` in place: the production path.
    fn lu_solve(m: &DenseMatrix, b: &mut [f64]) -> Result<(), SingularInfo> {
        let mut lu = LuFactors::new();
        lu.refactor(m)?;
        lu.solve(b);
        Ok(())
    }

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        assert!(lu_solve(&m, &mut b).is_ok());
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut b = vec![3.0, 5.0];
        assert!(lu_solve(&m, &mut b).is_ok());
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3, 2]
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        assert!(lu_solve(&m, &mut b).is_ok());
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_with_location() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        let info = lu_solve(&m, &mut b).expect_err("rank-1 is singular");
        // Column 0 eliminates fine; the cancellation shows at column 1.
        assert_eq!(info.col, 1);
        assert!(info.pivot_mag.abs() < 4.0 * 1e-14 * 1.001);
    }

    #[test]
    fn solves_badly_scaled_but_well_conditioned() {
        // The same well-conditioned system as `solves_general_system`,
        // scaled down to ~1e-302. The old absolute pivot floor (1e-300)
        // called this singular even though the solution is unchanged by
        // uniform scaling.
        let s = 1e-302;
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0 * s);
        m.set(0, 1, 1.0 * s);
        m.set(1, 0, 1.0 * s);
        m.set(1, 1, 3.0 * s);
        let mut b = vec![3.0 * s, 5.0 * s];
        assert!(lu_solve(&m, &mut b).is_ok(), "scaled system must solve");
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn scaled_singular_still_detected() {
        // Exact cancellation is singular at any scale — the relative test
        // may not weaken detection for small matrices.
        for s in [1e-250, 1.0, 1e250] {
            let mut m = DenseMatrix::zeros(2);
            m.set(0, 0, 1.0 * s);
            m.set(0, 1, 2.0 * s);
            m.set(1, 0, 2.0 * s);
            m.set(1, 1, 4.0 * s);
            let mut b = vec![s, 2.0 * s];
            assert!(
                lu_solve(&m, &mut b).is_err(),
                "scale {s:e} must stay singular"
            );
        }
    }

    #[test]
    fn wide_dynamic_range_diagonal_solves() {
        // Rows at wildly different scales are fine as long as each column
        // has a healthy pivot relative to its own magnitude.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1e300);
        m.set(1, 1, 1e-300);
        let mut b = vec![2e300, 3e-300];
        assert!(lu_solve(&m, &mut b).is_ok());
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_is_singular() {
        let m = DenseMatrix::zeros(3);
        let mut b = vec![1.0, 1.0, 1.0];
        let info = lu_solve(&m, &mut b).expect_err("zero is singular");
        assert_eq!(info.col, 0);
        assert_eq!(info.pivot_mag, 0.0);
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut m = DenseMatrix::zeros(3);
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
        ];
        for (r, c, v) in entries {
            m.set(r, c, v);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        let b0 = b.clone();
        assert!(lu_solve(&m, &mut b).is_ok());
        let back = m.mul_vec(&b);
        for (x, y) in back.iter().zip(&b0) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    /// Deterministic pseudo-random diagonally dominant system.
    fn random_system(n: usize, seed0: u64) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n);
        let mut seed = seed0;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = next();
                    m.set(r, c, v);
                    rowsum += v.abs();
                }
            }
            m.set(r, r, rowsum + 1.0);
        }
        m
    }

    #[test]
    fn larger_random_like_system_roundtrips() {
        let n = 40;
        let m = random_system(n, 0x9e3779b97f4a7c15u64);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut b = m.mul_vec(&xtrue);
        assert!(lu_solve(&m, &mut b).is_ok());
        for (x, y) in b.iter().zip(&xtrue) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    /// Textbook substitution over the reference factors: the full row
    /// interchange first, then forward and back sweeps whose dot products
    /// accumulate in index order.
    fn solve_reference(m: &DenseMatrix, b: &mut [f64]) {
        let (packed, pivots) = refactor_reference(m).expect("well-conditioned");
        let n = pivots.len();
        for (k, &p) in pivots.iter().enumerate() {
            b.swap(k, p);
        }
        for i in 1..n {
            for j in 0..i {
                b[i] -= packed[i * n + j] * b[j];
            }
        }
        for k in (0..n).rev() {
            let mut acc = b[k];
            for j in (k + 1)..n {
                acc -= packed[k * n + j] * b[j];
            }
            b[k] = acc / packed[k * n + k];
        }
    }

    /// Asserts the split solve agrees with textbook substitution to
    /// round-off. The two intentionally associate their dot products
    /// differently (the split path runs four accumulators for pipeline
    /// throughput), so agreement is to a tight relative tolerance, not
    /// bit-for-bit; a permutation-handling bug produces errors many
    /// orders of magnitude beyond this bound.
    fn assert_close(reference: &[f64], split: &[f64], ctx: &str) {
        for (a, b) in reference.iter().zip(split) {
            let tol = 1e-11 * a.abs().max(1.0);
            assert!((a - b).abs() <= tol, "{ctx}: {a} vs {b}");
        }
    }

    #[test]
    fn factor_solve_matches_reference() {
        for (i, seed) in [0x9e3779b97f4a7c15u64, 1995, 0xD07, 42, u64::MAX / 7]
            .into_iter()
            .enumerate()
        {
            let n = 3 + i * 17;
            let m = random_system(n, seed);
            assert_matches_reference(&m, &format!("seed {seed} n {n}")).expect("well-conditioned");
            let rhs: Vec<f64> = (0..n).map(|k| ((k * 7 % 13) as f64) - 6.0).collect();

            let mut b_reference = rhs.clone();
            solve_reference(&m, &mut b_reference);

            let mut b_split = rhs.clone();
            lu_solve(&m, &mut b_split).expect("well-conditioned");

            assert_close(&b_reference, &b_split, &format!("seed {seed} n {n}"));
        }
    }

    #[test]
    fn factor_solve_matches_reference_under_heavy_pivoting() {
        // Cyclically rotating the rows of a diagonally dominant system
        // moves every dominant entry off the diagonal, so elimination
        // must interchange rows at (nearly) every step — the regime the
        // interleaved-swap replay bug lived in. MNA matrices sit here:
        // voltage-source branch rows have structurally zero diagonals.
        for (i, seed) in [3u64, 0x5eed, 77, 0x9e3779b97f4a7c15]
            .into_iter()
            .enumerate()
        {
            let n = 4 + i * 13;
            let base = random_system(n, seed);
            let mut m = DenseMatrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    m.set((r + 1) % n, c, base.get(r, c));
                }
            }
            assert_matches_reference(&m, &format!("rotated seed {seed}"))
                .expect("well-conditioned");
            let rhs: Vec<f64> = (0..n).map(|k| ((k * 11 % 17) as f64) - 8.0).collect();

            let mut b_reference = rhs.clone();
            solve_reference(&m, &mut b_reference);

            let mut b_split = rhs.clone();
            lu_solve(&m, &mut b_split).expect("well-conditioned");

            assert_close(&b_reference, &b_split, &format!("seed {seed} n {n}"));
        }
    }

    #[test]
    fn repeated_solves_are_bit_deterministic() {
        // What the factor caches actually rely on: replaying the same
        // factors against the same right-hand side is bit-deterministic.
        let n = 29;
        let m = random_system(n, 0xCAFE);
        let mut lu = LuFactors::new();
        lu.refactor(&m).expect("factors");
        let rhs: Vec<f64> = (0..n).map(|k| ((k * 5 % 11) as f64) - 5.0).collect();
        let mut first = rhs.clone();
        lu.solve(&mut first);
        for _ in 0..3 {
            let mut again = rhs.clone();
            lu.solve(&mut again);
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn refactor_reuses_buffers_and_repeats_solves() {
        let n = 12;
        let m1 = random_system(n, 7);
        let m2 = random_system(n, 8);
        let mut lu = LuFactors::new();
        lu.refactor(&m1).expect("m1 factors");
        // Many solves off one factorisation agree with textbook
        // substitution.
        for s in 0..4 {
            let rhs: Vec<f64> = (0..n).map(|k| (k as f64) * 0.5 - s as f64).collect();
            let mut b = rhs.clone();
            lu.solve(&mut b);
            let mut bf = rhs.clone();
            solve_reference(&m1, &mut bf);
            assert_close(&bf, &b, "m1");
        }
        // Refactoring with a different matrix switches cleanly: the
        // reused buffers solve bit for bit like fresh ones.
        lu.refactor(&m2).expect("m2 factors");
        let rhs: Vec<f64> = (0..n).map(|k| 1.0 - (k as f64)).collect();
        let mut b = rhs.clone();
        lu.solve(&mut b);
        let mut bf = rhs.clone();
        lu_solve(&m2, &mut bf).expect("m2 solves");
        for (x, y) in b.iter().zip(&bf) {
            assert_eq!(x.to_bits(), y.to_bits(), "m2");
        }
        let mut bref = rhs.clone();
        solve_reference(&m2, &mut bref);
        assert_close(&bref, &b, "m2");
    }

    /// The textbook right-looking elimination that `LuFactors::refactor`
    /// must reproduce bit for bit: full-width row updates, a fresh
    /// column-maximum scan per step and element-wise row swaps.
    fn refactor_reference(a: &DenseMatrix) -> Result<(Vec<f64>, Vec<usize>), SingularInfo> {
        let n = a.n;
        let mut lu = a.data.clone();
        let mut pivots = vec![0; n];
        for k in 0..n {
            let mut piv = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            let mut col_max = max;
            for i in 0..k {
                col_max = col_max.max(lu[i * n + k].abs());
            }
            if max.is_nan() || max <= col_max * 1e-14 {
                return Err(SingularInfo {
                    col: k,
                    pivot_mag: max,
                });
            }
            pivots[k] = piv;
            if piv != k {
                for j in 0..n {
                    lu.swap(k * n + j, piv * n + j);
                }
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok((lu, pivots))
    }

    /// Asserts `refactor` matches the reference bit for bit: the same
    /// `Ok`/`Err`, the same singular column and pivot magnitude, and on
    /// success the same packed factor bytes and pivot sequence.
    fn assert_matches_reference(m: &DenseMatrix, ctx: &str) -> Result<(), SingularInfo> {
        let mut lu = LuFactors::new();
        let fast = lu.refactor(m);
        match (refactor_reference(m), fast) {
            (Ok((packed, pivots)), Ok(())) => {
                assert_eq!(lu.piv, pivots, "{ctx}: pivot sequence");
                for (idx, (x, y)) in lu.lu.iter().zip(&packed).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{ctx}: cell ({}, {}): {x:e} vs {y:e}",
                        idx / m.n,
                        idx % m.n
                    );
                }
                Ok(())
            }
            (Err(r), Err(f)) => {
                assert_eq!(r.col, f.col, "{ctx}: singular column");
                assert_eq!(
                    r.pivot_mag.to_bits(),
                    f.pivot_mag.to_bits(),
                    "{ctx}: pivot magnitude"
                );
                Err(f)
            }
            (r, f) => panic!("{ctx}: reference {:?} vs kernel {f:?}", r.map(|_| ())),
        }
    }

    /// A seeded MNA-like system: `nodes` node rows stamped with
    /// conductances and transistor-like transconductances, then one
    /// branch row per voltage source with the structurally zero diagonal
    /// that forces row interchanges. Entries are summed onto a zero
    /// matrix the way assembly stamps them.
    fn mna_system(nodes: usize, sources: usize, seed0: u64) -> DenseMatrix {
        let n = nodes + sources;
        let mut m = DenseMatrix::zeros(n);
        let mut seed = seed0 | 1;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        // Node index `nodes` stands for ground, which has no row.
        let node = |u: f64| ((u * (nodes + 1) as f64) as usize).min(nodes);
        for p in 0..nodes {
            // Every node gets a path to some other node or ground.
            let q = node(unit());
            let g = 10f64.powf(-6.0 + 5.0 * unit());
            m.add(p, p, g);
            if q < nodes && q != p {
                m.add(q, q, g);
                m.add(p, q, -g);
                m.add(q, p, -g);
            }
            // A transconductance: current into `p` controlled by the
            // voltage across (gate, source).
            if unit() < 0.6 {
                let (gate, src) = (node(unit()), node(unit()));
                let gm = 10f64.powf(-5.0 + 3.0 * unit());
                if gate < nodes {
                    m.add(p, gate, gm);
                }
                if src < nodes {
                    m.add(p, src, -gm);
                }
            }
        }
        for b in nodes..n {
            let p = b - nodes;
            let q = node(unit());
            m.add(b, p, 1.0);
            m.add(p, b, 1.0);
            if q < nodes && q != p {
                m.add(b, q, -1.0);
                m.add(q, b, -1.0);
            }
        }
        m
    }

    #[test]
    fn refactor_is_bitwise_the_reference_on_mna_systems() {
        let mut factored = 0;
        for seed in 0..400u64 {
            let nodes = 4 + (seed as usize * 7) % 44;
            let sources = 1 + (seed as usize) % 9;
            let m = mna_system(nodes, sources, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if assert_matches_reference(&m, &format!("mna seed {seed}")).is_ok() {
                factored += 1;
            }
        }
        // Most seeded systems are regular; the rest exercise the
        // singular branch with the same column and pivot.
        assert!(factored > 200, "only {factored} of 400 factored");
    }

    #[test]
    fn refactor_is_bitwise_the_reference_on_singular_systems() {
        for seed in 0..60u64 {
            let base = mna_system(20, 4, seed + 1);
            let n = base.dim();
            // Rank-deficient: one row repeats another exactly.
            let mut dup = base.clone();
            let (src, dst) = ((seed as usize) % n, (seed as usize * 5 + 3) % n);
            if src != dst {
                for c in 0..n {
                    dup.set(dst, c, base.get(src, c));
                }
                let info = assert_matches_reference(&dup, &format!("dup seed {seed}"))
                    .expect_err("duplicated row is singular");
                assert!(info.col < n);
            }
            // A floating node: an all-zero column.
            let mut floating = base.clone();
            for r in 0..n {
                floating.set(r, seed as usize % n, 0.0);
            }
            assert_matches_reference(&floating, &format!("floating seed {seed}"))
                .expect_err("zero column is singular");
            // Near-singular: one row is another plus a perturbation at
            // and just above the 1e-14 relative threshold.
            for eps in [1e-17, 1e-15, 1e-13, 1e-9] {
                let mut near = base.clone();
                if src != dst {
                    for c in 0..n {
                        let v = base.get(src, c);
                        near.set(dst, c, v + eps * v.abs() * ((c % 3) as f64 - 1.0));
                    }
                }
                let _ = assert_matches_reference(&near, &format!("near {eps:e} seed {seed}"));
            }
        }
    }

    #[test]
    fn refactor_is_bitwise_the_reference_at_extreme_scales() {
        for seed in 0..40u64 {
            let base = mna_system(30, 6, seed ^ 0xD07);
            for scale in [1e300, 1e-300, 1e-310] {
                let mut m = base.clone();
                for v in &mut m.data {
                    *v *= scale;
                }
                let _ = assert_matches_reference(&m, &format!("scale {scale:e} seed {seed}"));
            }
        }
    }

    #[test]
    fn refactor_keeps_signed_zero_multipliers() {
        // A zero below a negative pivot stores a `-0.0` multiplier.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, -2.0);
        m.set(0, 1, 1.0);
        m.set(1, 1, 3.0);
        assert_matches_reference(&m, "negative pivot").expect("regular");
        let mut lu = LuFactors::new();
        lu.refactor(&m).expect("regular");
        assert_eq!(lu.lu[2].to_bits(), (-0.0f64).to_bits());
        // Negated MNA systems pivot on negative values throughout, so
        // `-0.0` multipliers land in `L` and move with later row swaps.
        // `U` itself never holds `-0.0`: elimination cannot create one,
        // which is what lets a row update stop at the pivot row's last
        // nonzero.
        let mut negative_zeros = 0;
        for seed in 0..40u64 {
            let mut m = mna_system(16, 4, seed + 7);
            for v in &mut m.data {
                *v = 0.0 - *v;
            }
            if assert_matches_reference(&m, &format!("negated seed {seed}")).is_err() {
                continue;
            }
            let mut lu = LuFactors::new();
            lu.refactor(&m).expect("factored above");
            let n = m.dim();
            for (idx, v) in lu.lu.iter().enumerate() {
                if v.to_bits() == (-0.0f64).to_bits() {
                    assert!(idx % n < idx / n, "seed {seed}: -0.0 in U at {idx}");
                    negative_zeros += 1;
                }
            }
        }
        assert!(negative_zeros > 0, "no -0.0 multiplier exercised");
    }

    #[test]
    fn refactor_is_bitwise_the_reference_with_non_finite_entries() {
        // A non-finite multiplier under a pivot row that is zero past the
        // diagonal: the reference turns the whole row into NaN (`inf·0`),
        // so the update may not stop at the pivot row's last nonzero.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = DenseMatrix::zeros(4);
            for i in 0..4 {
                m.set(i, i, 1.0);
            }
            m.set(2, 0, bad);
            assert_matches_reference(&m, &format!("{bad} multiplier"))
                .expect_err("the NaN row reaches its diagonal");
        }
        // NaN in a finished `U` row whose column is already eliminated:
        // the column maxima ignore it, so the factorisation succeeds and
        // only the solve sees it, which must then come out non-finite
        // for Newton to report the matrix singular. (An infinite entry
        // there makes its column's maximum infinite, which no pivot
        // passes.)
        for seed in 0..20u64 {
            let n = 6 + seed as usize;
            let mut upper = random_system(n, seed + 1);
            for r in 0..n {
                for c in 0..r {
                    upper.set(r, c, 0.0);
                }
            }
            let (r, c) = (seed as usize % (n - 1), n - 1 - seed as usize % 3);
            let mut nan = upper.clone();
            nan.set(r, c.max(r + 1), f64::NAN);
            assert_matches_reference(&nan, &format!("NaN in U seed {seed}"))
                .expect("NaN above eliminated zeros factors");
            let mut lu = LuFactors::new();
            lu.refactor(&nan).expect("factored above");
            let mut b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            lu.solve(&mut b);
            assert!(b.iter().any(|x| x.is_nan()), "seed {seed}: finite solve");
            let mut inf = upper.clone();
            inf.set(r, c.max(r + 1), f64::INFINITY);
            assert_matches_reference(&inf, &format!("inf in U seed {seed}"))
                .expect_err("an infinite column maximum fails every pivot");
        }
        // Anywhere in an MNA system: the same verdict both ways.
        for seed in 0..60u64 {
            let base = mna_system(24, 5, seed + 99);
            let n = base.dim();
            for (k, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                .into_iter()
                .enumerate()
            {
                let mut m = base.clone();
                let cell = (seed as usize * 31 + k * 17) % (n * n);
                m.data[cell] = bad;
                let ctx = format!("{bad} at ({}, {}) seed {seed}", cell / n, cell % n);
                let _ = assert_matches_reference(&m, &ctx);
            }
        }
    }

    #[test]
    fn refactor_reports_singular_column() {
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        m.set(2, 2, 1.0);
        let mut lu = LuFactors::new();
        let info = lu.refactor(&m).expect_err("rank-deficient");
        assert_eq!(info.col, 1);
    }
}
