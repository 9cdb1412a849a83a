//! Eager tensor operations.
//!
//! These are the reference implementations used both directly by the autograd
//! engine and as ground truth for the composed micro-kernels in
//! `wisegraph-kernels`. Every hot operation is an `_into` variant that
//! writes into a caller-provided buffer (a [`crate::Workspace`] slice, a
//! reused accumulator, …); the tape runs nothing else. The DFG interpreter,
//! the micro-kernels and the tests also call allocating wrappers, which
//! create the output and delegate, so they run identical floating-point
//! operations in identical order and workspace-based execution is
//! bit-identical to the allocating path.
//!
//! `_into` variants expect `out` to be zero-filled (as `vec![0.0; n]` or
//! `Workspace::take` provide); operations that accumulate rely on it.
//!
//! The three matrix products share one register-blocked kernel,
//! [`matmul_strided_into`]'s: `a · b` runs it as is, `aᵀ · b` on transposed
//! blocks of rows of `a`, and `a · bᵀ` on a transposed copy of `b` with
//! every term added (it skips no zeros, so `0 · inf` stays NaN). Products
//! whose rows each have their own matrix (RGCN's per-edge-type transform)
//! run the other register-blocked kernel, [`per_row_matmul_add_into`], which adds each
//! row's product to an output row of the caller's choosing.
//!
//! The tape's three products — `Tape::matmul`'s `a · W` and its gradients
//! [`matmul_a_bt_into`] and [`matmul_at_b_into`] — split their output rows
//! across the cores ([`split_rows`]) and skip a zero of `a` only when the
//! skip can change a bit. Into a zero-filled `out` and with every element
//! of `b` finite, adding the skipped terms gives the same bits: an
//! accumulator that starts at `+0.0` never becomes `-0.0` under
//! round-to-nearest (`x + y` is `-0.0` only when both are), so adding
//! `±0 · b == ±0` leaves every sum as it was. Only `0 · inf` and `0 · NaN`
//! differ, so each call checks `b` once: a finite `b` runs the kernel that
//! adds every term, and a non-finite one keeps the skip. Rows are
//! independent outputs, so the split changes no bit either.
//! `Tape::matmul_sum` (RGCN's projection) runs the same kernels on column
//! slices of a wider operand, read in place through the kernel's row
//! stride `lda`. [`matmul_into`] and [`matmul_strided_into`], the engine's
//! kernel, stay serial and keep the skip.

use crate::tensor::Tensor;
use std::ops::Range;
use std::sync::OnceLock;

/// Rows × columns of the accumulator tile the blocked matmul keeps in
/// registers across the `k` loop: 2 × 16 floats fill eight 128-bit SIMD
/// registers, half of what the baseline x86-64 target has.
const TILE_ROWS: usize = 2;
const TILE_COLS: usize = 16;

/// Columns of one row that [`per_row_matmul_add_into`] keeps in registers
/// across the `k` loop: the eight 128-bit SIMD registers a
/// `TILE_ROWS × TILE_COLS` tile fills.
const ROW_TILE: usize = 32;

/// Rows of `a` and `b` that [`matmul_at_b_into`] transposes and multiplies
/// at a time: at training widths (≤ 64 columns each) a block's transpose
/// and rows of `b` take ≤ 64 KiB, so the tiles re-read them from cache.
const AT_B_ROWS: usize = 128;

/// Rows the blocked matmul interleaves for the output columns that fill no
/// whole tile (all of them when `n < 16`, e.g. a `[F, 1]` attention
/// vector): each output is a chain of dependent adds, and eight rows'
/// chains overlap where one row's would stall.
const NARROW_ROWS: usize = 8;

/// Multiply-adds below which [`split_rows`] runs a job on the calling
/// thread. A scope that spawns one thread costs ≈ 100 µs (ROADMAP
/// *Settled*; 20–35 µs in a probe on the 2-vCPU box), and the blocked
/// kernel does 2²¹ multiply-adds in ≈ 200 µs on one of its cores (dense
/// `[8000, 64] · [64, 32]`: 10–11 G/s), so at the floor a two-way split
/// saves about what its scope costs. A loop of dot products (GAT's `dα`)
/// is slower per multiply-add and gains more. Training's `[8000, 64] ·
/// [64, 32]` is 16 Mi; GAT's `[V, F] · [F, 1]` attention logits stay
/// serial.
const SPLIT_FLOOR: usize = 1 << 21;

/// The cores [`split_rows`] splits across: `available_parallelism`, read
/// once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Row ranges a job of `work` multiply-adds splits into: one below
/// [`SPLIT_FLOOR`], one per core above it.
fn parts_for(work: usize) -> usize {
    if work < SPLIT_FLOOR {
        1
    } else {
        cores()
    }
}

/// Runs `f(range, rows)` over contiguous ranges of the `rows × width`
/// row-major `out`, where `rows` is `out`'s slice for `range`: one range on
/// the calling thread when the job's `work` is under 2²¹ multiply-adds,
/// else one per core, each but the first on a scoped thread. The ranges cover
/// every row once and write disjoint rows, so when `f` computes each row
/// from its index alone the result is the same bits at any core count.
///
/// # Panics
///
/// Panics if `out` does not hold `rows × width` floats, or `f` panics.
pub fn split_rows(
    out: &mut [f32],
    [rows, width]: [usize; 2],
    work: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    split_rows_in(out, [rows, width], parts_for(work), f);
}

/// [`split_rows`] into at most `parts` ranges, whatever the work.
pub fn split_rows_in(
    out: &mut [f32],
    [rows, width]: [usize; 2],
    parts: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    assert_eq!(out.len(), rows * width, "split output buffer length mismatch");
    if parts.min(rows) <= 1 || width == 0 {
        f(0..rows, out);
        return;
    }
    let chunk = rows.div_ceil(parts);
    let f = &f;
    std::thread::scope(|scope| {
        let mut pieces = out.chunks_mut(chunk * width).enumerate();
        let (_, first) = pieces.next().expect("rows > 0");
        for (i, piece) in pieces {
            let start = i * chunk;
            scope.spawn(move || f(start..start + piece.len() / width, piece));
        }
        f(0..chunk, first);
    });
}

/// A blocked kernel's signature: [`blocked`] with `SKIP` chosen.
type Kernel = fn(&[f32], usize, &[f32], [usize; 3], &mut [f32], usize);

/// The blocked kernel a product with operand `b` needs: the one that adds
/// every term when every element of `b` is finite (the same bits into a
/// zeroed `out`, see the module doc), the skipping one otherwise.
fn kernel_for(b: &[f32]) -> Kernel {
    // Chunks folded without short-circuit vectorise: 59 µs on a
    // `[8000, 32]` gradient against 161 µs for a plain `all`.
    let finite = b.chunks(1024).all(|c| c.iter().fold(true, |ok, x| ok & x.is_finite()));
    if finite {
        blocked::<false>
    } else {
        blocked::<true>
    }
}

/// `[m, k, n]` of `a @ b` into `out`.
fn matmul_dims(a: &Tensor, b: &Tensor, out: &[f32]) -> [usize; 3] {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
    assert_eq!(out.len(), m * n, "matmul output buffer length mismatch");
    [m, k, n]
}

/// Computes `a @ b` into a zeroed `out` buffer of `m * n` elements.
///
/// # Panics
///
/// Panics if the inner dimensions do not match, either input is not rank-2,
/// or `out` has the wrong length.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let [m, k, n] = matmul_dims(a, b, out);
    matmul_strided_into(a.data(), b.data(), [m, k, n], out, n);
}

/// [`matmul_into`] as the tape runs it: the same bits, its rows split
/// across the cores and no zero skipped when `b` is finite.
pub(crate) fn matmul_split_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let [m, k, n] = matmul_dims(a, b, out);
    product_into(a.data(), b.data(), [m, k, n], out, parts_for(m * k * n));
}

/// `a · b` for row-major `a` (`[m, k]`) and `b` (`[k, n]`) into a zeroed
/// `out`, over at most `parts` row ranges.
fn product_into(
    a: &[f32],
    b: &[f32],
    [m, k, n]: [usize; 3],
    out: &mut [f32],
    parts: usize,
) {
    let kernel = kernel_for(&b[..k * n]);
    split_rows_in(out, [m, n], parts, |rows, out| {
        kernel(&a[rows.start * k..rows.end * k], k, b, [rows.len(), k, n], out, n);
    });
}

/// The dense kernel behind every `x · W`: for row-major `a` (`[m, k]`) and
/// `b` (`[k, n]`), adds `a[i] @ b` to the `n` floats at `out[i * ldo..]`
/// for every row `i`. With `ldo == n` and a zeroed `out` this is
/// [`matmul_into`]; a larger `ldo` writes a column slice of a wider output
/// (one weight slice of a pairwise product).
///
/// Register-blocked: 2 × 16 accumulator tiles, and 8 interleaved rows per
/// column past the last whole tile.
/// Blocking only regroups independent outputs: every output element still
/// starts from its `out` value and adds `a[i, p] * b[p, j]` for `p`
/// ascending, skipping `a[i, p] == 0.0`, which is the float sequence of the
/// k-ascending triple loop, bit for bit. The skip is part of that sequence:
/// `0.0 * inf` is NaN, and `-0.0 + 0.0 * x` is `+0.0`.
///
/// # Panics
///
/// Panics if `ldo < n` or `a`, `b` or `out` is too short for the shape.
pub fn matmul_strided_into(
    a: &[f32],
    b: &[f32],
    [m, k, n]: [usize; 3],
    out: &mut [f32],
    ldo: usize,
) {
    blocked::<true>(a, k, b, [m, k, n], out, ldo);
}

/// [`matmul_strided_into`] with the zero skip chosen at compile time and
/// row `i` of `a` read from `a[i * lda..]`, so `a` may be a column slice
/// of a wider matrix: with `SKIP == false` every term `a[i, p] * b[p, j]`
/// is added, which is the float sequence of a dot product started from
/// `out[i, j]`.
fn blocked<const SKIP: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    [m, k, n]: [usize; 3],
    out: &mut [f32],
    ldo: usize,
) {
    assert!(ldo >= n, "matmul output stride {ldo} below width {n}");
    assert!(lda >= k, "matmul operand stride {lda} below depth {k}");
    assert!(b.len() >= k * n, "matmul operand too short");
    if m == 0 || n == 0 {
        return;
    }
    assert!(a.len() >= (m - 1) * lda + k, "matmul operand too short");
    assert!(out.len() >= (m - 1) * ldo + n, "matmul output buffer too short");
    let wide = n - n % TILE_COLS;
    let mut i = 0;
    while i + TILE_ROWS <= m {
        for j in (0..wide).step_by(TILE_COLS) {
            tile::<TILE_ROWS, SKIP>(a, lda, b, [i, j, k, n], out, ldo);
        }
        i += TILE_ROWS;
    }
    for i in i..m {
        for j in (0..wide).step_by(TILE_COLS) {
            tile::<1, SKIP>(a, lda, b, [i, j, k, n], out, ldo);
        }
    }
    if wide < n {
        let mut i = 0;
        while i + NARROW_ROWS <= m {
            columns::<NARROW_ROWS, SKIP>(a, lda, b, [i, wide, k, n], out, ldo);
            i += NARROW_ROWS;
        }
        for i in i..m {
            columns::<1, SKIP>(a, lda, b, [i, wide, k, n], out, ldo);
        }
    }
}

// The loops below index the rows of a block explicitly and walk `a` with
// bounds-check-free iterators: the zipped-iterator and indexed-`a` forms
// measured up to 2x slower on the AR-size update, the tile no longer kept
// in registers.

/// The `R × TILE_COLS` tile at row `i`, column `j`, accumulated in
/// registers over the whole `k` loop.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile<const R: usize, const SKIP: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    [i, j, k, n]: [usize; 4],
    out: &mut [f32],
    ldo: usize,
) {
    let mut acc = [[0.0f32; TILE_COLS]; R];
    for r in 0..R {
        acc[r].copy_from_slice(&out[(i + r) * ldo + j..][..TILE_COLS]);
    }
    // The R rows of `a`, walked in lock step with the rows of `b`.
    let mut arows: [std::slice::Iter<'_, f32>; R] =
        std::array::from_fn(|r| a[(i + r) * lda..][..k].iter());
    for brow in b.chunks_exact(n).take(k) {
        let brow: &[f32; TILE_COLS] =
            brow[j..j + TILE_COLS].try_into().expect("a tile-wide row");
        for r in 0..R {
            let av = *arows[r].next().expect("a row of k elements");
            if !SKIP || av != 0.0 {
                for c in 0..TILE_COLS {
                    acc[r][c] += av * brow[c];
                }
            }
        }
    }
    for r in 0..R {
        out[(i + r) * ldo + j..][..TILE_COLS].copy_from_slice(&acc[r]);
    }
}

/// Columns `j..n` of the `R` rows from row `i`, one column at a time with
/// the rows' add chains interleaved. The skip is a select, not a branch:
/// the sum a skipped step keeps is the same bits.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn columns<const R: usize, const SKIP: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    [i, j, k, n]: [usize; 4],
    out: &mut [f32],
    ldo: usize,
) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * lda..][..k]);
    let b = &b[..k * n];
    for c in j..n {
        let mut acc = [0.0f32; R];
        for r in 0..R {
            acc[r] = out[(i + r) * ldo + c];
        }
        for p in 0..k {
            let bv = b[p * n + c];
            for r in 0..R {
                let av = rows[r][p];
                acc[r] = if !SKIP || av != 0.0 { acc[r] + av * bv } else { acc[r] };
            }
        }
        for r in 0..R {
            out[(i + r) * ldo + c] = acc[r];
        }
    }
}

/// The kernel behind every product whose rows each have their own matrix
/// (RGCN's `h[src] @ W[type]`): for each `(x, w, o)` of `rows`, with `x` a
/// row of `k` floats and `w` its own row-major `[k, n]` matrix, adds the
/// product `x @ w` to output row `o`, the `n` floats at `out[o * n..]`.
/// Rows may share an output row; they are added in the order given.
///
/// Register-blocked one row at a time: 32 columns of the row
/// accumulate in registers over the whole `k` loop, then one tile each of
/// 16, 8 and 4 columns, then the last columns together. Rows with their
/// own matrices share no operand, so a tile of two rows (as in
/// [`matmul_strided_into`]) would only buy the independent add chains a
/// 32-column tile of one row has, and it would load each `x` once per
/// 16 columns instead of once per 32. Every product element starts from
/// `+0.0` and adds `x[p] * w[p, j]` for `p` ascending, skipping
/// `x[p] == 0.0`, and is then added to its output element: the float
/// sequence of a k-ascending loop into a zeroed row followed by a row add,
/// bit for bit. So a gather, per-row product and scatter-add keep their
/// bits when the product runs here with the scatter's destinations as
/// output rows.
///
/// # Panics
///
/// Panics if an `x` is shorter than `k`, a `w` shorter than `k * n`, or an
/// output row lies past the end of `out`.
pub fn per_row_matmul_add_into<'a>(
    rows: impl IntoIterator<Item = (&'a [f32], &'a [f32], usize)>,
    [k, n]: [usize; 2],
    out: &mut [f32],
) {
    for (x, w, o) in rows {
        let (x, w, out) = (&x[..k], &w[..k * n], &mut out[o * n..(o + 1) * n]);
        let mut j = 0;
        while j + ROW_TILE <= n {
            row_tile::<ROW_TILE>(x, w, j, out);
            j += ROW_TILE;
        }
        if j + 16 <= n {
            row_tile::<16>(x, w, j, out);
            j += 16;
        }
        if j + 8 <= n {
            row_tile::<8>(x, w, j, out);
            j += 8;
        }
        if j + 4 <= n {
            row_tile::<4>(x, w, j, out);
            j += 4;
        }
        if j < n {
            row_tail(x, w, j, out);
        }
    }
}

/// Columns `j..j + C` of one row's product (`x @ w`, `w` with `out.len()`
/// columns), summed in registers over the `k` loop and added to `out`.
#[inline(always)]
fn row_tile<const C: usize>(x: &[f32], w: &[f32], j: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; C];
    for (&av, wrow) in x.iter().zip(w.chunks_exact(out.len())) {
        let wrow: &[f32; C] = wrow[j..j + C].try_into().expect("a tile-wide row");
        if av != 0.0 {
            for c in 0..C {
                acc[c] += av * wrow[c];
            }
        }
    }
    for (y, a) in out[j..j + C].iter_mut().zip(acc) {
        *y += a;
    }
}

/// Columns `j..` (fewer than 4) of one row's product, as [`row_tile`].
fn row_tail(x: &[f32], w: &[f32], j: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; 4];
    let acc = &mut acc[..out.len() - j];
    for (&av, wrow) in x.iter().zip(w.chunks_exact(out.len())) {
        if av != 0.0 {
            for (a, &b) in acc.iter_mut().zip(&wrow[j..]) {
                *a += av * b;
            }
        }
    }
    for (y, a) in out[j..].iter_mut().zip(acc) {
        *y += *a;
    }
}

/// Computes the matrix product `a @ b` of two rank-2 tensors.
///
/// # Panics
///
/// Panics if the inner dimensions do not match or either input is not rank-2.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank-2");
    let (m, n) = (a.dims()[0], b.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    matmul_into(a, b, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Computes `aᵀ @ b` into a zeroed `out` buffer of `k * n` elements.
///
/// Output `[p, j]` adds `a[i, p] * b[i, j]` for `i` ascending, skipping
/// `a[i, p] == 0.0`: [`matmul_strided_into`] on the transpose of `a`. The
/// output rows `p` are split across the cores, and the skip is dropped
/// when `b` is finite (the same bits, see the module doc).
///
/// # Panics
///
/// Panics if the leading dimensions do not match, either input is not
/// rank-2, or `out` has the wrong length.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().rank(), 2, "matmul_at_b lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_at_b rhs must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (m2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(m, m2, "matmul_at_b leading dimensions differ: {m} vs {m2}");
    assert_eq!(out.len(), k * n, "matmul_at_b output buffer length mismatch");
    at_b_into(a.data(), [m, k], 0..k, b.data(), n, out, parts_for(m * k * n));
}

/// `a[:, cols]ᵀ · b` for row-major `a` (`[m, lda]`) and `b` (`[m, n]`)
/// into a zeroed `[cols.len(), n]` `out`, over at most `parts` ranges of
/// its rows (the columns of `a`).
fn at_b_into(
    a: &[f32],
    [m, lda]: [usize; 2],
    cols: Range<usize>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    parts: usize,
) {
    if cols.is_empty() || n == 0 {
        return;
    }
    let (a, b) = (&a[..m * lda], &b[..m * n]);
    let kernel = kernel_for(b);
    split_rows_in(out, [cols.len(), n], parts, |rows, out| {
        // Block by block of rows of `a` and `b`: each output resumes its
        // sum where the previous block left it, so it still runs over all
        // `i` ascending, while the block's transpose (of this range's
        // columns alone) and rows of `b` stay cached.
        let keep = cols.start + rows.start..cols.start + rows.end;
        let width = rows.len();
        let mut at = vec![0.0f32; width * AT_B_ROWS.min(m)];
        for (ab, bb) in a.chunks(AT_B_ROWS * lda).zip(b.chunks(AT_B_ROWS * n)) {
            let block = ab.len() / lda;
            let at = &mut at[..width * block];
            transpose_into(ab, [block, lda], keep.clone(), at);
            kernel(at, block, bb, [width, block, n], out, n);
        }
    });
}

/// `a[:, cols]ᵀ · b` into a zeroed `[cols.len(), n]` `out`, for rank-2 `a`
/// and `b` (`[m, n]`) with the same row count: the gradient of one product
/// of [`matmul_sum_into`] w.r.t. its weight, the bits of
/// [`matmul_at_b_into`] on that column slice.
///
/// # Panics
///
/// Panics if a shape does not fit or `out` has the wrong length.
pub(crate) fn matmul_at_b_cols_into(a: &Tensor, cols: Range<usize>, b: &Tensor, out: &mut [f32]) {
    let ([m, lda], [m2, n]) = (dims2(a), dims2(b));
    assert_eq!(m, m2, "matmul_at_b leading dimensions differ: {m} vs {m2}");
    assert!(cols.end <= lda, "columns {cols:?} past the operand's {lda}");
    assert_eq!(out.len(), cols.len() * n, "matmul_at_b output buffer length mismatch");
    let work = m * cols.len() * n;
    at_b_into(a.data(), [m, lda], cols, b.data(), n, out, parts_for(work));
}

/// The dimensions of a rank-2 tensor.
fn dims2(t: &Tensor) -> [usize; 2] {
    assert_eq!(t.shape().rank(), 2, "a product operand must be rank-2");
    [t.dims()[0], t.dims()[1]]
}

/// Computes `a @ bᵀ` into a zeroed `out` buffer of `m * n` elements.
///
/// Output `[i, j]` is the dot product of row `i` of `a` and row `j` of `b`,
/// every term added in ascending order and no zero skipped (`0 * inf` is
/// NaN): the no-skip kernel of [`matmul_strided_into`] on the transpose of
/// `b`, its rows split across the cores. On the training path `b` is a
/// weight, so the transpose is small.
///
/// # Panics
///
/// Panics if the trailing dimensions do not match, either input is not
/// rank-2, or `out` has the wrong length.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().rank(), 2, "matmul_a_bt lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul_a_bt rhs must be rank-2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_a_bt trailing dimensions differ: {k} vs {k2}");
    assert_eq!(out.len(), m * n, "matmul_a_bt output buffer length mismatch");
    a_bt_into(a.data(), [m, k], &[(0, b.data(), n)], out, n, parts_for(m * k * n));
}

/// `a · bᵢᵀ` for row-major `a` (`[m, k]`) and each `(c, bᵢ, nᵢ)` of
/// `terms` (`bᵢ` row-major `[nᵢ, k]`), added to columns `c..c + nᵢ` of
/// the zeroed row-major `[m, ldo]` `out`, over at most `parts` row ranges.
fn a_bt_into(
    a: &[f32],
    [m, k]: [usize; 2],
    terms: &[(usize, &[f32], usize)],
    out: &mut [f32],
    ldo: usize,
    parts: usize,
) {
    let bts: Vec<Vec<f32>> = terms
        .iter()
        .map(|&(_, b, n)| {
            let mut bt = vec![0.0f32; n * k];
            transpose_into(&b[..n * k], [n, k], 0..k, &mut bt);
            bt
        })
        .collect();
    split_rows_in(out, [m, ldo], parts, |rows, out| {
        if rows.is_empty() {
            return;
        }
        let a = &a[rows.start * k..rows.end * k];
        for (&(col, _, n), bt) in terms.iter().zip(&bts) {
            blocked::<false>(a, k, bt, [rows.len(), k, n], &mut out[col..], ldo);
        }
    });
}

/// For each `(c, wᵢ)` of `terms`, `g · wᵢᵀ` into columns `c..c + kᵢ` of
/// the zeroed `[m, width]` `out` (`g` `[m, n]`, `wᵢ` `[kᵢ, n]`):
/// the gradient of [`matmul_sum_into`] w.r.t. one operand, each column
/// slice with the bits of [`matmul_a_bt_into`]. The row ranges of one
/// split run every term.
///
/// # Panics
///
/// Panics if a shape does not fit or `out` has the wrong length.
pub(crate) fn matmul_a_bt_cols_into(
    g: &Tensor,
    terms: &[(usize, &Tensor)],
    out: &mut [f32],
    width: usize,
) {
    let [m, n] = dims2(g);
    assert_eq!(out.len(), m * width, "matmul_a_bt output buffer length mismatch");
    let mut work = 0;
    let slices: Vec<(usize, &[f32], usize)> = terms
        .iter()
        .map(|&(col, w)| {
            let [k, n2] = dims2(w);
            assert_eq!(n, n2, "matmul_a_bt trailing dimensions differ: {n} vs {n2}");
            assert!(col + k <= width, "columns {col}..{} past the width {width}", col + k);
            work += m * n * k;
            (col, w.data(), k)
        })
        .collect();
    a_bt_into(g.data(), [m, n], &slices, out, width, parts_for(work));
}

/// `Σᵢ aᵢ[:, cᵢ..cᵢ + kᵢ] · wᵢ` into a zeroed `[m, n]` `out`, for `terms`
/// `(aᵢ, cᵢ, wᵢ)` with `aᵢ` `[m, ·]` and `wᵢ` `[kᵢ, n]`. Each product is
/// computed from zero as [`matmul_into`] computes it and added to the sum
/// of the ones before, so the result has the bits of the chain of products
/// and [`add`]s, at any core count: one split of the output rows runs
/// every term, reading each column slice in place.
///
/// # Panics
///
/// Panics if `terms` is empty, a shape does not fit, or `out` has the
/// wrong length.
pub(crate) fn matmul_sum_into(terms: &[(&Tensor, usize, &Tensor)], out: &mut [f32]) {
    let (first, _, w) = terms.first().expect("a sum of at least one product");
    let (m, n) = (dims2(first)[0], dims2(w)[1]);
    let mut work = 0;
    for &(a, col, w) in terms {
        let ([m2, lda], [k, n2]) = (dims2(a), dims2(w));
        assert_eq!((m2, n2), (m, n), "matmul_sum operand shapes differ");
        assert!(col + k <= lda, "columns {col}..{} past the operand's {lda}", col + k);
        work += m * k * n;
    }
    assert_eq!(out.len(), m * n, "matmul_sum output buffer length mismatch");
    let kernels: Vec<Kernel> = terms.iter().map(|(_, _, w)| kernel_for(w.data())).collect();
    split_rows_in(out, [m, n], parts_for(work), |rows, out| {
        if rows.is_empty() {
            return;
        }
        let mut part = vec![0.0f32; if terms.len() > 1 { out.len() } else { 0 }];
        for (i, (&(a, col, w), kernel)) in terms.iter().zip(&kernels).enumerate() {
            let (lda, k) = (a.dims()[1], w.dims()[0]);
            let a = &a.data()[rows.start * lda + col..];
            if i == 0 {
                kernel(a, lda, w.data(), [rows.len(), k, n], out, n);
            } else {
                part.fill(0.0);
                kernel(a, lda, w.data(), [rows.len(), k, n], &mut part, n);
                for (o, p) in out.iter_mut().zip(&part) {
                    *o += p;
                }
            }
        }
    });
}

/// Writes the transpose of columns `keep` of the row-major `[rows, cols]`
/// matrix `x` into `t`, as `[keep.len(), rows]`.
fn transpose_into(x: &[f32], [rows, cols]: [usize; 2], keep: Range<usize>, t: &mut [f32]) {
    for i in 0..rows {
        for j in keep.clone() {
            t[(j - keep.start) * rows + i] = x[i * cols + j];
        }
    }
}

/// Applies a binary function element-wise to two same-shaped tensors,
/// writing into `out` (every element is overwritten).
///
/// # Panics
///
/// Panics if the shapes differ or `out` has the wrong length.
pub(crate) fn zip_map_into(a: &Tensor, b: &Tensor, out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert!(
        a.shape().same_as(b.shape()),
        "element-wise op shape mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    assert_eq!(out.len(), a.numel(), "element-wise output buffer mismatch");
    for (o, (&x, &y)) in out.iter_mut().zip(a.data().iter().zip(b.data().iter())) {
        *o = f(x, y);
    }
}

/// Element-wise addition into `out` (every element is overwritten).
///
/// # Panics
///
/// Panics if the shapes differ or `out` has the wrong length.
pub fn add_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    zip_map_into(a, b, out, |x, y| x + y);
}

/// Element-wise addition.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; a.numel()];
    add_into(a, b, &mut out);
    Tensor::from_vec(out, a.dims())
}

/// In-place element-wise accumulation: `acc += other`.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add_assign(acc: &mut Tensor, other: &Tensor) {
    assert!(
        acc.shape().same_as(other.shape()),
        "element-wise op shape mismatch: {} vs {}",
        acc.shape(),
        other.shape()
    );
    for (o, &x) in acc.data_mut().iter_mut().zip(other.data().iter()) {
        *o += x;
    }
}

/// Element-wise multiplication into `out` (every element is overwritten).
///
/// # Panics
///
/// Panics if the shapes differ or `out` has the wrong length.
pub fn mul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    zip_map_into(a, b, out, |x, y| x * y);
}

/// Element-wise multiplication.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; a.numel()];
    mul_into(a, b, &mut out);
    Tensor::from_vec(out, a.dims())
}

/// Multiplies every element by a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x * s)
}

/// Applies a unary function element-wise, writing into `out` (every element
/// is overwritten).
///
/// # Panics
///
/// Panics if `out` has the wrong length.
pub fn map_into(a: &Tensor, f: impl Fn(f32) -> f32, out: &mut [f32]) {
    assert_eq!(out.len(), a.numel(), "map output buffer length mismatch");
    for (o, &x) in out.iter_mut().zip(a.data().iter()) {
        *o = f(x);
    }
}

/// Applies a unary function element-wise.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = vec![0.0f32; a.numel()];
    map_into(a, f, &mut out);
    Tensor::from_vec(out, a.dims())
}

/// Rectified linear unit into `out`: `max(x, 0)`.
pub fn relu_into(a: &Tensor, out: &mut [f32]) {
    map_into(a, |x| x.max(0.0), out);
}

/// Rectified linear unit: `max(x, 0)`.
pub fn relu(a: &Tensor) -> Tensor {
    map(a, |x| x.max(0.0))
}

/// Leaky ReLU with the given negative slope, into `out`.
pub fn leaky_relu_into(a: &Tensor, slope: f32, out: &mut [f32]) {
    map_into(a, |x| if x >= 0.0 { x } else { slope * x }, out);
}

/// Leaky ReLU with the given negative slope.
pub fn leaky_relu(a: &Tensor, slope: f32) -> Tensor {
    map(a, |x| if x >= 0.0 { x } else { slope * x })
}

/// Adds a rank-1 bias to every row of a rank-2 tensor.
///
/// # Panics
///
/// Panics if `x` is not rank-2, `bias` is not rank-1, or the widths differ.
pub fn add_bias(x: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; x.numel()];
    add_bias_into(x, bias, &mut out);
    Tensor::from_vec(out, x.dims())
}

/// Adds a rank-1 bias to every row of a rank-2 tensor, writing into `out`
/// (every element is overwritten).
///
/// # Panics
///
/// Panics if `x` is not rank-2, `bias` is not rank-1, the widths differ, or
/// `out` has the wrong length.
pub fn add_bias_into(x: &Tensor, bias: &Tensor, out: &mut [f32]) {
    assert_eq!(x.shape().rank(), 2, "add_bias input must be rank-2");
    assert_eq!(bias.shape().rank(), 1, "add_bias bias must be rank-1");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(n, bias.dims()[0], "bias width mismatch");
    assert_eq!(out.len(), m * n, "add_bias output buffer length mismatch");
    let bd = bias.data();
    out.copy_from_slice(x.data());
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += bd[j];
        }
    }
}

/// Sums each column of a rank-2 tensor into a zeroed rank-1 `out` buffer.
///
/// # Panics
///
/// Panics if `x` is not rank-2 or `out` has the wrong length.
pub fn sum_rows_into(x: &Tensor, out: &mut [f32]) {
    assert_eq!(x.shape().rank(), 2, "sum_rows input must be rank-2");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(out.len(), n, "sum_rows output buffer length mismatch");
    for row in x.data().chunks_exact(n).take(m) {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Row-wise numerically stable softmax, writing into `out` (every element
/// is overwritten).
///
/// # Panics
///
/// Panics if `x` is not rank-2 or `out` has the wrong length.
pub fn softmax_rows_into(x: &Tensor, out: &mut [f32]) {
    assert_eq!(x.shape().rank(), 2, "softmax_rows input must be rank-2");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(out.len(), m * n, "softmax_rows output buffer length mismatch");
    for i in 0..m {
        let row = x.row(i);
        let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            let e = (v - maxv).exp();
            out[i * n + j] = e;
            denom += e;
        }
        for j in 0..n {
            out[i * n + j] /= denom;
        }
    }
}

/// Gathers rows of `x` by index: `out[i, :] = x[idx[i], :]`.
///
/// This is the *indexing operation* of the paper (Figure 2b): it moves vertex
/// embeddings along edges.
///
/// # Panics
///
/// Panics if `x` is not rank-2 or any index is out of bounds.
pub fn gather_rows(x: &Tensor, idx: &[u32]) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "gather_rows input must be rank-2");
    let n = x.dims()[1];
    let mut out = vec![0.0f32; idx.len() * n];
    gather_rows_into(x, idx, &mut out);
    Tensor::from_vec(out, &[idx.len(), n])
}

/// Gathers rows of `x` by index into `out` (every element is overwritten):
/// `out[i, :] = x[idx[i], :]`.
///
/// # Panics
///
/// Panics if `x` is not rank-2, any index is out of bounds, or `out` has
/// the wrong length.
pub fn gather_rows_into(x: &Tensor, idx: &[u32], out: &mut [f32]) {
    assert_eq!(x.shape().rank(), 2, "gather_rows input must be rank-2");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(out.len(), idx.len() * n, "gather_rows output buffer mismatch");
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        assert!(r < m, "gather index {r} out of bounds for {m} rows");
        out[i * n..(i + 1) * n].copy_from_slice(x.row(r));
    }
}

/// Scatter-adds rows of `src` into a zeroed `[rows, f]` output:
/// `out[idx[i], :] += src[i, :]`.
///
/// This is the reduction half of the paper's `Index-add` operation.
///
/// # Panics
///
/// Panics if `src` is not rank-2, the index list length differs from the
/// number of source rows, or any index is out of bounds.
pub fn index_add_rows(rows: usize, src: &Tensor, idx: &[u32]) -> Tensor {
    assert_eq!(src.shape().rank(), 2, "index_add_rows src must be rank-2");
    let n = src.dims()[1];
    let mut out = vec![0.0f32; rows * n];
    index_add_rows_into(rows, src, idx, &mut out);
    Tensor::from_vec(out, &[rows, n])
}

/// Scatter-adds rows of `src` into a zeroed (or partially accumulated)
/// `[rows, f]` buffer: `out[idx[i], :] += src[i, :]`.
///
/// # Panics
///
/// Panics if `src` is not rank-2, the index list length differs from the
/// number of source rows, any index is out of bounds, or `out` has the
/// wrong length.
pub fn index_add_rows_into(rows: usize, src: &Tensor, idx: &[u32], out: &mut [f32]) {
    assert_eq!(src.shape().rank(), 2, "index_add_rows src must be rank-2");
    assert_eq!(
        src.dims()[0],
        idx.len(),
        "index_add_rows: {} source rows but {} indices",
        src.dims()[0],
        idx.len()
    );
    let n = src.dims()[1];
    assert_eq!(out.len(), rows * n, "index_add_rows output buffer mismatch");
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        assert!(r < rows, "scatter index {r} out of bounds for {rows} rows");
        let srow = src.row(i);
        let orow = &mut out[r * n..(r + 1) * n];
        for (o, &s) in orow.iter_mut().zip(srow.iter()) {
            *o += s;
        }
    }
}

/// Scales each row `i` of a rank-2 tensor by `s[i]`.
///
/// # Panics
///
/// Panics if `x` is not rank-2, `s` is not rank-1, or the row counts differ.
pub fn scale_rows(x: &Tensor, s: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; x.numel()];
    scale_rows_into(x, s, &mut out);
    Tensor::from_vec(out, x.dims())
}

/// Scales each row `i` of a rank-2 tensor by `s[i]`, writing into `out`
/// (every element is overwritten).
///
/// # Panics
///
/// Panics if `x` is not rank-2, `s` is not rank-1, the row counts differ,
/// or `out` has the wrong length.
pub fn scale_rows_into(x: &Tensor, s: &Tensor, out: &mut [f32]) {
    assert_eq!(x.shape().rank(), 2, "scale_rows input must be rank-2");
    assert_eq!(s.shape().rank(), 1, "scale_rows scales must be rank-1");
    let (m, n) = (x.dims()[0], x.dims()[1]);
    assert_eq!(m, s.dims()[0], "scale_rows row-count mismatch");
    assert_eq!(out.len(), m * n, "scale_rows output buffer length mismatch");
    let sd = s.data();
    out.copy_from_slice(x.data());
    for i in 0..m {
        for v in &mut out[i * n..(i + 1) * n] {
            *v *= sd[i];
        }
    }
}

/// Softmax over segments: entries sharing `seg[i]` are normalized together.
///
/// `scores` is rank-1 with one value per edge; `seg` assigns every edge to a
/// segment (typically the destination vertex), and `num_segments` is the
/// number of distinct segments. Used by GAT's per-destination attention
/// normalization.
///
/// # Panics
///
/// Panics if `scores` is not rank-1, lengths differ, or a segment id is out
/// of bounds.
pub fn segment_softmax(scores: &Tensor, seg: &[u32], num_segments: usize) -> Tensor {
    let mut out = vec![0.0f32; scores.numel()];
    segment_softmax_into(scores, seg, num_segments, &mut out);
    Tensor::from_vec(out, &[scores.numel()])
}

/// Softmax over segments, writing into `out` (every element is
/// overwritten). See [`segment_softmax`].
///
/// # Panics
///
/// Panics if `scores` is not rank-1, lengths differ, a segment id is out of
/// bounds, or `out` has the wrong length.
pub fn segment_softmax_into(
    scores: &Tensor,
    seg: &[u32],
    num_segments: usize,
    out: &mut [f32],
) {
    assert_eq!(scores.shape().rank(), 1, "segment_softmax scores rank-1");
    assert_eq!(scores.numel(), seg.len(), "segment_softmax length mismatch");
    assert_eq!(out.len(), seg.len(), "segment_softmax output buffer mismatch");
    let sd = scores.data();
    let mut maxv = vec![f32::NEG_INFINITY; num_segments];
    for (&v, &s) in sd.iter().zip(seg.iter()) {
        let s = s as usize;
        assert!(s < num_segments, "segment id {s} out of bounds");
        if v > maxv[s] {
            maxv[s] = v;
        }
    }
    let mut denom = vec![0.0f32; num_segments];
    for (i, (&v, &s)) in sd.iter().zip(seg.iter()).enumerate() {
        let e = (v - maxv[s as usize]).exp();
        out[i] = e;
        denom[s as usize] += e;
    }
    for (o, &s) in out.iter_mut().zip(seg.iter()) {
        *o /= denom[s as usize];
    }
}

/// Concatenates two rank-2 tensors along the column dimension.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the row counts differ.
pub fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "concat_cols lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "concat_cols rhs must be rank-2");
    let (m, n1, n2) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut out = vec![0.0f32; m * (n1 + n2)];
    concat_cols_into(a, b, &mut out);
    Tensor::from_vec(out, &[m, n1 + n2])
}

/// Concatenates two rank-2 tensors along the column dimension into `out`
/// (every element is overwritten).
///
/// # Panics
///
/// Panics if either input is not rank-2, the row counts differ, or `out`
/// has the wrong length.
pub fn concat_cols_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().rank(), 2, "concat_cols lhs must be rank-2");
    assert_eq!(b.shape().rank(), 2, "concat_cols rhs must be rank-2");
    let (m, n1) = (a.dims()[0], a.dims()[1]);
    let (m2, n2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(m, m2, "concat_cols row-count mismatch");
    assert_eq!(out.len(), m * (n1 + n2), "concat_cols output buffer mismatch");
    for i in 0..m {
        out[i * (n1 + n2)..i * (n1 + n2) + n1].copy_from_slice(a.row(i));
        out[i * (n1 + n2) + n1..(i + 1) * (n1 + n2)].copy_from_slice(b.row(i));
    }
}

/// The rows and classes of `logits`, checked against `labels`.
fn cross_entropy_dims(logits: &Tensor, labels: &[u32]) -> [usize; 2] {
    assert_eq!(logits.shape().rank(), 2, "cross_entropy logits rank-2");
    let (m, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(m, labels.len(), "cross_entropy label-count mismatch");
    if let Some(&y) = labels.iter().find(|&&y| y as usize >= c) {
        panic!("label {y} out of range for {c} classes");
    }
    [m, c]
}

/// Mean cross-entropy between row-wise logits and integer class labels:
/// `-Σᵢ log softmax(logits[i])[labels[i]] / m`.
///
/// # Panics
///
/// Panics if `logits` is not rank-2, the label count differs from the row
/// count, or a label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[u32]) -> f32 {
    let [m, _] = cross_entropy_dims(logits, labels);
    let mut loss = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        let row = logits.row(i);
        let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = row.iter().map(|&v| (v - maxv).exp()).sum::<f32>().ln() + maxv;
        loss -= row[y as usize] - lse;
    }
    loss * (1.0 / m as f32)
}

/// The gradient of [`cross_entropy`] w.r.t. the logits, times `scale`,
/// into `out` (every element is overwritten): softmax minus one-hot,
/// divided by the batch, then scaled.
///
/// # Panics
///
/// Panics as [`cross_entropy`] does, or if `out` has the wrong length.
pub fn cross_entropy_grad_into(logits: &Tensor, labels: &[u32], scale: f32, out: &mut [f32]) {
    let [m, c] = cross_entropy_dims(logits, labels);
    softmax_rows_into(logits, out);
    for (i, &y) in labels.iter().enumerate() {
        out[i * c + y as usize] -= 1.0;
    }
    let inv_m = 1.0 / m as f32;
    for g in out {
        *g = *g * inv_m * scale;
    }
}

/// Returns the index of the maximum element of each row.
///
/// # Panics
///
/// Panics if `x` is not rank-2.
pub fn argmax_rows(x: &Tensor) -> Vec<u32> {
    assert_eq!(x.shape().rank(), 2, "argmax_rows input must be rank-2");
    let m = x.dims()[0];
    (0..m)
        .map(|i| {
            let row = x.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c])
    }

    /// `aᵀ @ b` through [`matmul_at_b_into`].
    fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, n) = (a.dims()[1], b.dims()[1]);
        let mut out = vec![0.0f32; k * n];
        matmul_at_b_into(a, b, &mut out);
        Tensor::from_vec(out, &[k, n])
    }

    /// `a @ bᵀ` through [`matmul_a_bt_into`].
    fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n) = (a.dims()[0], b.dims()[0]);
        let mut out = vec![0.0f32; m * n];
        matmul_a_bt_into(a, b, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    #[test]
    fn matmul_small() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], 2, 3);
        // aᵀ b computed directly vs. by materializing the transpose.
        let at = Tensor::from_vec(
            vec![a.at(&[0, 0]), a.at(&[1, 0]), a.at(&[0, 1]), a.at(&[1, 1]), a.at(&[0, 2]), a.at(&[1, 2])],
            &[3, 2],
        );
        assert!(matmul_at_b(&a, &b).allclose(&matmul(&at, &b), 1e-6));
        // a bᵀ likewise.
        let bt = Tensor::from_vec(
            vec![b.at(&[0, 0]), b.at(&[1, 0]), b.at(&[0, 1]), b.at(&[1, 1]), b.at(&[0, 2]), b.at(&[1, 2])],
            &[3, 2],
        );
        assert!(matmul_a_bt(&a, &b).allclose(&matmul(&a, &bt), 1e-6));
    }

    /// The k-ascending triple loop with the zero-skip: the float sequence
    /// [`matmul_strided_into`] must reproduce.
    fn naive_matmul(a: &[f32], b: &[f32], [m, k, n]: [usize; 3], out: &mut [f32], ldo: usize) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * ldo + j] += av * b[p * n + j];
                }
            }
        }
    }

    wisegraph_testkit::proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(256))]

        /// The blocked kernel against the naive loop, bit for bit, on
        /// ragged shapes (full tiles, tile remainders, narrow outputs,
        /// empty extents), a strided output whose untouched columns must
        /// keep their bits, and operands salted with ±0.0, NaN, ±inf and
        /// subnormals. The output starts non-zero (the kernel accumulates),
        /// so a dropped zero-skip shows as `-0.0 + 0.0 * x` or `0.0 * inf`.
        fn blocked_matmul_equals_the_naive_triple_loop(
            mi in 0usize..8,
            ni in 0usize..7,
            ki in 0usize..3,
            pad in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let (m, n, k) = (
                [0, 1, 2, 3, 7, 8, 9, 33][mi],
                [1, 3, 15, 16, 17, 40, 64][ni],
                [0, 1, 64][ki],
            );
            let ldo = n + [0, 1, 13][pad];
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let (a, b) = (salted(&mut rng, m * k), salted(&mut rng, k * n));
            let out0 = salted(&mut rng, m * ldo);
            let (mut want, mut got) = (out0.clone(), out0);
            naive_matmul(&a, &b, [m, k, n], &mut want, ldo);
            matmul_strided_into(&a, &b, [m, k, n], &mut got, ldo);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(&got), nan_class_bits(&want), "m {m} n {n} k {k} ldo {ldo}"
            );
        }
    }

    wisegraph_testkit::proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(256))]

        /// The per-row kernel against the naive loop, bit for bit: each
        /// row's product run into a zeroed row on its own matrix and then
        /// added to its output row. Widths that run every tile (32, 16, 8
        /// and 4 columns) and the last columns alone, matrices and output
        /// rows shared by some rows and not others, and salted operands on
        /// a salted `out`.
        fn per_row_matmul_equals_the_naive_loop_per_row(
            mi in 0usize..6,
            ni in 0usize..7,
            ki in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let (m, n, k) = (
                [0, 1, 2, 3, 7, 8][mi],
                [1, 3, 15, 16, 17, 40, 64][ni],
                [0, 1, 64][ki],
            );
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let x = salted(&mut rng, m * k);
            // Three matrices and three output rows; row `i` reads and
            // writes one of each.
            let w = salted(&mut rng, 3 * k * n);
            let pick: Vec<[usize; 2]> =
                (0..m).map(|_| [rng.below(3) as usize, rng.below(3) as usize]).collect();
            let out0 = salted(&mut rng, 3 * n);
            let (mut want, mut got) = (out0.clone(), out0);
            for (i, &[wi, oi]) in pick.iter().enumerate() {
                let mut product = vec![0.0; n];
                naive_matmul(&x[i * k..(i + 1) * k], &w[wi * k * n..], [1, k, n], &mut product, n);
                for (y, p) in want[oi * n..(oi + 1) * n].iter_mut().zip(product) {
                    *y += p;
                }
            }
            let rows = pick
                .iter()
                .enumerate()
                .map(|(i, &[wi, oi])| (&x[i * k..(i + 1) * k], &w[wi * k * n..], oi));
            per_row_matmul_add_into(rows, [k, n], &mut got);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(&got), nan_class_bits(&want), "m {m} n {n} k {k}"
            );
        }
    }

    /// `a @ bᵀ` as one dot product per output, every term added.
    fn naive_a_bt(a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// `aᵀ @ b` as a row-by-row accumulation, skipping zeros of `a`.
    fn naive_at_b(a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<f32> {
        let mut out = vec![0.0; k * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[p * n + j] += av * b[i * n + j];
                }
            }
        }
        out
    }

    /// Bits with every NaN as one class: which NaN an operation returns
    /// when several meet is unspecified in Rust, and the optimizer may swap
    /// the operands of an add.
    fn nan_class_bits(x: &[f32]) -> Vec<u32> {
        x.iter()
            .map(|f| if f.is_nan() { f32::NAN.to_bits() } else { f.to_bits() })
            .collect()
    }

    /// Draws `len` floats, one in four from ±0.0, NaN, ±inf and subnormals.
    fn salted(rng: &mut wisegraph_testkit::rng::Rng, len: usize) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
        ];
        (0..len)
            .map(|_| match rng.below(4) {
                0 => specials[rng.below(specials.len() as u64) as usize],
                _ => rng.range_f32(-1.0, 1.0),
            })
            .collect()
    }

    wisegraph_testkit::proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(256))]

        /// Both transposed products against their loops, bit for bit, on
        /// the blocked kernel's ragged shapes with salted operands: `a_bt`
        /// adds every term (a zero against an inf is NaN), `at_b` skips
        /// zeros of `a` and sums rows in ascending order.
        fn transposed_products_equal_their_loops(
            mi in 0usize..8,
            ni in 0usize..7,
            ki in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let (m, n, k) = (
                [0, 1, 2, 3, 7, 8, 9, 33][mi],
                [1, 3, 15, 16, 17, 40, 64][ni],
                [0, 1, 64][ki],
            );
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let (a, b) = (salted(&mut rng, m * k), salted(&mut rng, n * k));
            let got = matmul_a_bt(&t2(&a, m, k), &t2(&b, n, k));
            let want = naive_a_bt(&a, &b, [m, k, n]);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(got.data()), nan_class_bits(&want), "a_bt: m {m} n {n} k {k}"
            );
            let b = salted(&mut rng, m * n);
            let got = matmul_at_b(&t2(&a, m, k), &t2(&b, m, n));
            let want = naive_at_b(&a, &b, [m, k, n]);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(got.data()), nan_class_bits(&want), "at_b: m {m} n {n} k {k}"
            );
        }
    }

    #[test]
    fn at_b_sums_run_on_across_row_blocks() {
        // Finite values with ±0.0, so that most sums are not NaN.
        let (m, k, n) = (2 * AT_B_ROWS + 5, 7, 17);
        for seed in 0..8 {
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| match rng.below(8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.range_f32(-1.0, 1.0),
                    })
                    .collect()
            };
            let (a, b) = (draw(m * k), draw(m * n));
            let got = matmul_at_b(&t2(&a, m, k), &t2(&b, m, n));
            let want = naive_at_b(&a, &b, [m, k, n]);
            assert_eq!(nan_class_bits(got.data()), nan_class_bits(&want), "seed {seed}");
        }
    }

    /// `len` floats for a split product's operand: ReLU output (uniform
    /// values with the negatives zeroed) where one draw in four is from
    /// `specials`.
    fn relu_salted(
        rng: &mut wisegraph_testkit::rng::Rng,
        len: usize,
        specials: &[f32],
    ) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.below(4) {
                0 => specials[rng.below(specials.len() as u64) as usize],
                _ => rng.range_f32(-1.0, 1.0).max(0.0),
            })
            .collect()
    }

    const FINITE: [f32; 4] = [0.0, -0.0, f32::from_bits(1), -f32::MIN_POSITIVE / 3.0];
    const SALTED: [f32; 7] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE / 3.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    wisegraph_testkit::proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(256))]

        /// The tape's products at 1, 2, 3 and 7 row ranges against the
        /// naive loops, bit for bit, on shapes that are not multiples of
        /// the tiles. `a` is ReLU output salted with ±0.0, subnormals, infs
        /// and NaNs; `b` holds ±0.0 and subnormals, and in half the cases
        /// infs and NaNs too, which must keep the skip (a zero of `a`
        /// against an inf of `b` is NaN without it). `a · b` and `aᵀ · b`
        /// match the zero-skipping loops, `a · bᵀ` the loop that adds
        /// every term.
        fn split_products_equal_the_skipping_loops(
            mi in 0usize..8,
            ni in 0usize..7,
            ki in 0usize..4,
            pi in 0usize..4,
            salted_b in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let (m, n, k, parts) = (
                [0, 1, 2, 3, 7, 9, 33, 131][mi],
                [1, 3, 15, 16, 17, 33, 40][ni],
                [0, 1, 5, 64][ki],
                [1, 2, 3, 7][pi],
            );
            let specials: &[f32] = if salted_b == 1 { &SALTED } else { &FINITE };
            let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
            let a = relu_salted(&mut rng, m * k, &SALTED);
            let case = format!("m {m} n {n} k {k} parts {parts} salted b {salted_b}");

            let b = relu_salted(&mut rng, k * n, specials);
            let mut want = vec![0.0; m * n];
            naive_matmul(&a, &b, [m, k, n], &mut want, n);
            let mut got = vec![0.0; m * n];
            product_into(&a, &b, [m, k, n], &mut got, parts);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(&got), nan_class_bits(&want), "a_b: {case}"
            );

            let b = relu_salted(&mut rng, m * n, specials);
            let mut got = vec![0.0; k * n];
            at_b_into(&a, [m, k], 0..k, &b, n, &mut got, parts);
            let want = naive_at_b(&a, &b, [m, k, n]);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(&got), nan_class_bits(&want), "at_b: {case}"
            );

            let b = relu_salted(&mut rng, n * k, specials);
            let mut got = vec![0.0; m * n];
            a_bt_into(&a, [m, k], &[(0, &b, n)], &mut got, n, parts);
            let want = naive_a_bt(&a, &b, [m, k, n]);
            wisegraph_testkit::prop_assert_eq!(
                nan_class_bits(&got), nan_class_bits(&want), "a_bt: {case}"
            );
        }
    }

    #[test]
    fn split_products_skip_a_zero_against_an_inf() {
        // Row 0 of `a` is zero where `b` holds an inf: skipped, not NaN.
        let a = [0.0, 1.0, 2.0, 0.5, -0.0, 3.0, 1.0, 1.0];
        let b = [f32::INFINITY, 1.0, 2.0, 1.0, 2.0, 3.0];
        for parts in [1, 2] {
            let mut out = vec![0.0; 12];
            product_into(&a, &b, [4, 2, 3], &mut out, parts);
            assert_eq!(&out[..3], &[1.0, 2.0, 3.0], "a_b, parts {parts}");
            // Column 0 of `a` is zero where `b`'s row holds an inf.
            let mut out = vec![0.0; 4];
            at_b_into(&[0.0, 1.0], [1, 2], 0..2, &[f32::INFINITY, 2.0], 2, &mut out, parts);
            assert_eq!(out, [0.0, 0.0, f32::INFINITY, 2.0], "at_b, parts {parts}");
        }
    }

    #[test]
    fn a_bt_adds_a_zero_times_inf() {
        let a = t2(&[0.0, 1.0], 1, 2);
        let b = t2(&[f32::INFINITY, 2.0], 1, 2);
        assert!(matmul_a_bt(&a, &b).data()[0].is_nan());
    }

    #[test]
    fn matmul_into_is_the_unstrided_kernel() {
        let a = t2(&[1.0, 0.0, -2.0, 3.0, 0.5, -0.0], 3, 2);
        let b = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let mut want = vec![0.0; 9];
        naive_matmul(a.data(), b.data(), [3, 2, 3], &mut want, 3);
        assert_eq!(matmul(&a, &b).data(), want.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(&[1.0, -2.0, 3.0, -4.0], 2, 2);
        let b = t2(&[1.0, 1.0, 1.0, 1.0], 2, 2);
        assert_eq!(add(&a, &b).data(), &[2.0, -1.0, 4.0, -3.0]);
        assert_eq!(mul(&a, &a).data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(scale(&a, 2.0).data(), &[2.0, -4.0, 6.0, -8.0]);
        assert_eq!(relu(&a).data(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(leaky_relu(&a, 0.1).data(), &[1.0, -0.2, 3.0, -0.4]);
    }

    #[test]
    fn bias_and_reductions() {
        let x = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(add_bias(&x, &b).data(), &[11.0, 22.0, 13.0, 24.0]);
        let mut sums = [0.0; 2];
        sum_rows_into(&x, &mut sums);
        assert_eq!(sums, [4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = t2(&[1.0, 2.0, 3.0, 1000.0, 1001.0, 999.0], 2, 3);
        let mut s = Tensor::zeros(&[2, 3]);
        softmax_rows_into(&x, s.data_mut());
        for i in 0..2 {
            let rowsum: f32 = s.row(i).iter().sum();
            assert!((rowsum - 1.0).abs() < 1e-5);
        }
        assert!(s.all_finite(), "must be stable for large inputs");
    }

    #[test]
    fn cross_entropy_is_the_mean_negative_log_softmax() {
        let x = t2(&[0.5, -1.0, 2.0, 0.0, 0.0, 0.0], 2, 3);
        let mut s = Tensor::zeros(&[2, 3]);
        softmax_rows_into(&x, s.data_mut());
        let want = -(s.at(&[0, 2]).ln() + s.at(&[1, 0]).ln()) / 2.0;
        assert!((cross_entropy(&x, &[2, 0]) - want).abs() < 1e-5);
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let x = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let g = gather_rows(&x, &[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = index_add_rows(3, &g, &[2, 0, 2]);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
        assert_eq!(s.row(2), &[10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob() {
        gather_rows(&Tensor::zeros(&[2, 2]), &[2]);
    }

    #[test]
    fn scale_rows_basic() {
        let x = t2(&[1.0, 1.0, 2.0, 2.0], 2, 2);
        let s = Tensor::from_vec(vec![0.5, 2.0], &[2]);
        assert_eq!(scale_rows(&x, &s).data(), &[0.5, 0.5, 4.0, 4.0]);
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let scores = Tensor::from_vec(vec![1.0, 1.0, 2.0, 3.0, 100.0], &[5]);
        let seg = [0, 0, 1, 1, 1];
        let s = segment_softmax(&scores, &seg, 2);
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-5);
        assert!((s.data()[2] + s.data()[3] + s.data()[4] - 1.0).abs() < 1e-5);
        assert!(s.all_finite());
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn concat_cols_basic() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[9.0, 8.0], 2, 1);
        let c = concat_cols(&a, &b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        // Very confident correct logits → loss near zero, gradient near zero.
        let logits = t2(&[100.0, 0.0, 0.0, 100.0], 2, 2);
        assert!(cross_entropy(&logits, &[0, 1]) < 1e-4);
        let mut grad = [0.0; 4];
        cross_entropy_grad_into(&logits, &[0, 1], 1.0, &mut grad);
        assert!(grad.iter().all(|&g| g.abs() < 1e-4));
    }

    #[test]
    fn cross_entropy_uniform() {
        let logits = Tensor::zeros(&[1, 4]);
        assert!((cross_entropy(&logits, &[2]) - (4.0f32).ln()).abs() < 1e-5);
        // Gradient: softmax (0.25) minus one-hot, here scaled by 2.
        let mut grad = [0.0; 4];
        cross_entropy_grad_into(&logits, &[2], 2.0, &mut grad);
        assert!((grad[2] + 1.5).abs() < 1e-5);
        assert!((grad[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_basic() {
        let x = t2(&[0.1, 0.9, 0.0, 5.0, 4.0, 3.0], 2, 3);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
