//! Packed-panel SIMD micro-kernel engine (AVX2 + FMA, plus AVX-512F direct
//! kernels).
//!
//! The blocked scalar kernels in [`crate::kernels`] are latency-limited: their
//! 4-wide register tiles keep a few scalar FMA chains in flight but leave the
//! vector units idle.  This module supplies the throughput path selected by
//! [`crate::dispatch`]:
//!
//! * **Packing** — operand panels are copied once per block sweep into
//!   contiguous buffers laid out exactly as the micro-kernel consumes them
//!   (`MR`-row panels of A with `k` fastest-varying, `NR`-column panels of B
//!   with `k` slowest), so the innermost loop runs on unit-stride loads
//!   regardless of the logical orientation (`A·B`, `A·Bᵀ`, `Aᵀ·B`) of the
//!   product.  Ragged edges are zero-padded to the full panel width, which is
//!   exact for accumulation and keeps the micro-kernel branch-free.
//! * **Micro-kernel** — one `MR × NR = 4 × 8` register tile: eight 256-bit
//!   accumulators updated with broadcast/FMA per `k` step.  The only `unsafe`
//!   in the crate lives in these `#[target_feature]` functions; every caller
//!   reaches them through a safe wrapper that has checked the CPU features via
//!   the dispatch point.
//! * **Drivers** — [`gemm`] (all three product orientations via [`Op`] views),
//!   [`syrk_lower`] (symmetric rank-k products touching only the lower
//!   triangle, for Gram/normal matrices and the Cholesky trailing update), and
//!   the elementwise FMA helpers the batched triangular sweeps use.
//! * **Direct driver (AVX-512F)** — for a single-block product (`k ≤ KC`)
//!   [`gemm`] skips A packing and the tile write-back: B is packed as above,
//!   an `8 × 8` tile of eight 512-bit accumulators broadcasts A straight from
//!   its [`Op`] view, and each output element is stored once.  Small products
//!   (the neural-GP training epoch's `N ≤ 256`) spend most of the packed
//!   driver's time in those two copies, not in the FMAs.
//! * **Direct factorization and likelihood kernels (AVX-512F)** — the
//!   Cholesky panel ([`factor_panel`]: one column sweep, 8 rows per
//!   register), the triangular inverse ([`triangular_inverse_block`]: each
//!   row's 64-column block held in registers across `k`), and the GP
//!   likelihood's Gram ([`weighted_sq_dist_lower`]: 8 pairs per register) and
//!   trace ([`add_scaled_sq_diffs`]: the accumulators held in registers across
//!   pairs).  Each replays, lane by lane, the per-element operations of the
//!   scalar or AVX2 kernel the other tiers run in the same loop order, so
//!   every tier gives the same bits.
//!
//! Arithmetic note: per output element the accumulation order is fixed by the
//! panel geometry alone, so results are identical across thread counts; they
//! differ from the scalar path in rounding only (different summation order),
//! which the property tests bound against the naive reference kernels.  The
//! two SIMD GEMM drivers agree bit for bit: both compute one FMA chain per
//! element over ascending `k` from `+0.0` and add it to `+0.0` (the packed
//! driver into its zeroed output, the direct driver before its store), so a
//! `−0.0` chain result becomes `+0.0` on both.

use crate::parallel::{for_each_row_band, plan_threads};

/// Rows per A panel / micro-tile.
pub(crate) const MR: usize = 4;
/// Columns per B panel / micro-tile.
pub(crate) const NR: usize = 8;
/// `k`-dimension block: one A panel (`MR × KC`) stays in L1 across a sweep.
const KC: usize = 256;
/// Rows per direct-driver tile (one 512-bit accumulator per row).
const DR: usize = 8;

/// A borrowed view of one product operand in "logical rows × k" orientation.
///
/// `at(r, kk)` is element `kk` of logical row `r`.  The two layouts cover all
/// three blocked products: `A·B` reads A as [`Op::rows`] and B as [`Op::cols`]
/// (columns of B are the logical rows of `Bᵀ`), `A·Bᵀ` reads both as
/// [`Op::rows`], `Aᵀ·B` reads both as [`Op::cols`].
#[derive(Clone, Copy)]
pub(crate) struct Op<'a> {
    data: &'a [f64],
    stride: usize,
    transposed: bool,
}

impl<'a> Op<'a> {
    /// Row-major `rows × k` storage: element `(r, kk)` at `data[r*k + kk]`.
    pub(crate) fn rows(data: &'a [f64], k: usize) -> Self {
        Op {
            data,
            stride: k,
            transposed: false,
        }
    }

    /// Transposed storage: element `(r, kk)` at `data[kk*stride + r]`.
    pub(crate) fn cols(data: &'a [f64], stride: usize) -> Self {
        Op {
            data,
            stride,
            transposed: true,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, kk: usize) -> f64 {
        if self.transposed {
            self.data[kk * self.stride + r]
        } else {
            self.data[r * self.stride + kk]
        }
    }

    /// Distances in `data` between `(r, kk)` and `(r + 1, kk)`, and between
    /// `(r, kk)` and `(r, kk + 1)`.
    fn steps(&self) -> (usize, usize) {
        if self.transposed {
            (1, self.stride)
        } else {
            (self.stride, 1)
        }
    }

    /// Panics unless every element `(r, kk)` with `r < rows` and `kk < k` lies
    /// inside `data` — the bound the direct driver's unchecked loads rely on.
    fn assert_covers(&self, rows: usize, k: usize) {
        if rows == 0 || k == 0 {
            return;
        }
        let (rs, ks) = self.steps();
        let last = (rows - 1)
            .checked_mul(rs)
            .zip((k - 1).checked_mul(ks))
            .and_then(|(r, c)| r.checked_add(c));
        assert!(
            last.is_some_and(|last| last < self.data.len()),
            "operand slice of length {} is too short for a {rows}×{k} view",
            self.data.len()
        );
    }
}

/// B packed per `k`-block: `ceil(n/NR)` panels per block, each panel storing
/// `kc × NR` values with `k` slowest (`panel[kk*NR + jj]`), zero-padded past
/// `n`.
struct PackedB {
    buf: Vec<f64>,
    /// Per `k`-block: `(k0, kc_len, offset of the block's first panel)`.
    blocks: Vec<(usize, usize, usize)>,
    panels: usize,
}

impl PackedB {
    fn new(b: &Op, n: usize, k: usize) -> Self {
        let panels = n.div_ceil(NR);
        let mut blocks = Vec::with_capacity(k.div_ceil(KC));
        let mut buf = Vec::with_capacity(panels * k * NR);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            blocks.push((k0, kc, buf.len()));
            for jp in 0..panels {
                let j0 = jp * NR;
                let width = NR.min(n - j0);
                for kk in 0..kc {
                    for jj in 0..NR {
                        buf.push(if jj < width {
                            b.at(j0 + jj, k0 + kk)
                        } else {
                            0.0
                        });
                    }
                }
            }
            k0 += kc;
        }
        PackedB {
            buf,
            blocks,
            panels,
        }
    }

    /// The `kc × NR` slice of panel `jp` within block `blk`.
    #[inline]
    fn panel(&self, blk: usize, jp: usize) -> &[f64] {
        let (_, kc, off) = self.blocks[blk];
        let start = off + jp * kc * NR;
        &self.buf[start..start + kc * NR]
    }
}

/// Packs rows `i0..i0+mr` of `a` over `k0..k0+kc` into `out[kk*MR + ii]`,
/// zero-padding rows past `mr`.
fn pack_a_panel(a: &Op, i0: usize, mr: usize, k0: usize, kc: usize, out: &mut [f64]) {
    debug_assert!(out.len() >= kc * MR);
    for kk in 0..kc {
        for ii in 0..MR {
            out[kk * MR + ii] = if ii < mr { a.at(i0 + ii, k0 + kk) } else { 0.0 };
        }
    }
}

/// The 4×8 AVX2+FMA micro-kernel: `tile[ii*NR + jj] = Σ_kk ap[kk*MR+ii] ·
/// bp[kk*NR+jj]`.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support (the dispatch point
/// guarantees this before any packed driver runs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_4x8(ap: &[f64], bp: &[f64], kc: usize, tile: &mut [f64; MR * NR]) {
    use core::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [_mm256_setzero_pd(); 8];
    let a_ptr = ap.as_ptr();
    let b_ptr = bp.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(b_ptr.add(kk * NR));
        let b1 = _mm256_loadu_pd(b_ptr.add(kk * NR + 4));
        for ii in 0..MR {
            let ai = _mm256_broadcast_sd(&*a_ptr.add(kk * MR + ii));
            acc[2 * ii] = _mm256_fmadd_pd(ai, b0, acc[2 * ii]);
            acc[2 * ii + 1] = _mm256_fmadd_pd(ai, b1, acc[2 * ii + 1]);
        }
    }
    for ii in 0..MR {
        _mm256_storeu_pd(tile.as_mut_ptr().add(ii * NR), acc[2 * ii]);
        _mm256_storeu_pd(tile.as_mut_ptr().add(ii * NR + 4), acc[2 * ii + 1]);
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn micro_kernel_4x8(ap: &[f64], bp: &[f64], kc: usize, tile: &mut [f64; MR * NR]) {
    // Unreachable in practice: the dispatch point never selects the packed
    // path off x86_64.  Kept as a correct portable body so the crate still
    // compiles everywhere.
    tile.fill(0.0);
    for kk in 0..kc {
        for ii in 0..MR {
            let av = ap[kk * MR + ii];
            for jj in 0..NR {
                tile[ii * NR + jj] += av * bp[kk * NR + jj];
            }
        }
    }
}

/// `out[m×n] = a · b` through the packed panels, parallel over output-row
/// bands.  `a` and `b` are logical views (see [`Op`]); `out` is overwritten.
///
/// Single-block products (`k ≤ KC`) run the direct driver when the AVX-512F
/// tier is active; everything else runs the packed driver.  The two agree bit
/// for bit (see the module notes).
///
/// # Panics
///
/// Panics if `out` does not hold `m × n` values or an operand slice is too
/// short for its `m × k` / `n × k` view.
pub(crate) fn gemm(a: Op, b: Op, m: usize, k: usize, n: usize, out: &mut [f64]) {
    assert_eq!(
        out.len(),
        m * n,
        "gemm output length does not match {m}×{n}"
    );
    a.assert_covers(m, k);
    b.assert_covers(n, k);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let packed_b = PackedB::new(&b, n, k);
    let threads = plan_threads(m, 2 * m * k * n);
    if k <= KC && crate::dispatch::avx512_active() {
        gemm_direct(&a, &packed_b, m, n, threads, out);
    } else {
        gemm_packed(&a, &packed_b, n, threads, out);
    }
}

/// The packed driver: `out = a · B` with both operands packed per block.
fn gemm_packed(a: &Op, packed_b: &PackedB, n: usize, threads: usize, out: &mut [f64]) {
    out.fill(0.0);
    let m = out.len() / n;
    for_each_row_band(out, m, n, threads, |first_row, band| {
        gemm_band(a, packed_b, first_row, band.len() / n, n, band);
    });
}

/// The direct driver: `out = a · B` for a single-block `packed_b`, with the
/// AVX-512F tile.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F, `packed_b` has more than one `k`-block,
/// `a` does not cover its `m × k` view or `out` does not hold `m × n` values.
fn gemm_direct(a: &Op, packed_b: &PackedB, m: usize, n: usize, threads: usize, out: &mut [f64]) {
    assert!(
        crate::dispatch::avx512_supported(),
        "direct driver needs AVX-512F"
    );
    assert_eq!(packed_b.blocks.len(), 1, "direct driver needs k ≤ KC");
    assert_eq!(out.len(), m * n, "direct driver output is not {m}×{n}");
    let k = packed_b.blocks[0].1;
    a.assert_covers(m, k);
    let (rs, ks) = a.steps();
    for_each_row_band(out, m, n, threads, |first_row, band| {
        let rows = band.len() / n;
        assert!(first_row + rows <= m && band.len() == rows * n);
        let mut i0 = 0;
        while i0 < rows {
            let mr = DR.min(rows - i0);
            // Offset of element (first_row + i0, 0) in `a.data`.
            let a_off = (first_row + i0) * rs;
            for jp in 0..packed_b.panels {
                let j0 = jp * NR;
                let width = NR.min(n - j0);
                let dst = &mut band[i0 * n + j0..];
                let bp = packed_b.panel(0, jp);
                // SAFETY: the CPU has AVX-512F (asserted on entry).  A is in
                // bounds: `a` covers `m × k` (asserted on entry), and rows
                // `first_row + i0 .. first_row + i0 + mr` are below `m` by
                // the band assert above.  `bp` holds `k × NR` values (one
                // panel of the single block).  `dst` starts at `(i0, j0)` of
                // a band of `rows × n` values with `i0 + mr ≤ rows` and
                // `j0 + width ≤ n`, so it holds `(mr − 1)·n + width` values.
                unsafe {
                    match mr {
                        8 => direct_tile::<8>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        7 => direct_tile::<7>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        6 => direct_tile::<6>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        5 => direct_tile::<5>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        4 => direct_tile::<4>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        3 => direct_tile::<3>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        2 => direct_tile::<2>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                        _ => direct_tile::<1>(a.data, a_off, rs, ks, bp, k, dst, n, width),
                    }
                }
            }
            i0 += mr;
        }
    });
}

/// The `R × 8` AVX-512F tile of the direct driver:
/// `out[ii*n + jj] = (Σ_kk a[a_off + ii*rs + kk*ks] · bp[kk*NR + jj]) + 0.0`
/// for `ii < R`, `jj < width`, the sum being one FMA chain over ascending
/// `kk` from `+0.0`.  Columns at or past `width` are computed but not
/// stored: the store is masked, so `out` past them is never touched.
///
/// # Safety
///
/// The CPU must support AVX-512F.  `a[a_off + ii*rs + kk*ks]` must be in
/// bounds for every `ii < R`, `kk < k`; `bp` must hold at least `k × NR`
/// values; `1 ≤ width ≤ NR`; and `out` must hold at least
/// `(R − 1)·n + width` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_tile<const R: usize>(
    a: &[f64],
    a_off: usize,
    rs: usize,
    ks: usize,
    bp: &[f64],
    k: usize,
    out: &mut [f64],
    n: usize,
    width: usize,
) {
    use core::arch::x86_64::*;
    debug_assert!(k > 0 && a_off + (R - 1) * rs + (k - 1) * ks < a.len());
    debug_assert!(bp.len() >= k * NR);
    debug_assert!((1..=NR).contains(&width) && (R - 1) * n + width <= out.len());
    let mut acc = [_mm512_setzero_pd(); R];
    let a_ptr = a.as_ptr().add(a_off);
    let b_ptr = bp.as_ptr();
    for kk in 0..k {
        let bv = _mm512_loadu_pd(b_ptr.add(kk * NR));
        let a_k = a_ptr.add(kk * ks);
        for (ii, row_acc) in acc.iter_mut().enumerate() {
            *row_acc = _mm512_fmadd_pd(_mm512_set1_pd(*a_k.add(ii * rs)), bv, *row_acc);
        }
    }
    let zero = _mm512_setzero_pd();
    let mask: __mmask8 = u8::MAX >> (NR - width);
    for (ii, row_acc) in acc.iter().enumerate() {
        _mm512_mask_storeu_pd(
            out.as_mut_ptr().add(ii * n),
            mask,
            _mm512_add_pd(*row_acc, zero),
        );
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_tile<const R: usize>(
    a: &[f64],
    a_off: usize,
    rs: usize,
    ks: usize,
    bp: &[f64],
    k: usize,
    out: &mut [f64],
    n: usize,
    width: usize,
) {
    // Unreachable in practice: the dispatch point never selects the
    // AVX-512F tier off x86_64.  Kept as a correct portable body so the
    // crate still compiles everywhere.
    for ii in 0..R {
        for jj in 0..width {
            let mut acc = 0.0_f64;
            for kk in 0..k {
                acc = a[a_off + ii * rs + kk * ks].mul_add(bp[kk * NR + jj], acc);
            }
            out[ii * n + jj] = acc + 0.0;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F direct kernels of the small dense factorizations and of the GP
// likelihood: the Cholesky panel, the triangular inverse, the ARD Gram and
// the ARD trace.  Each replays, lane by lane, the per-element operations of
// the kernel the other tiers call, so every tier gives the same bits.
// ---------------------------------------------------------------------------

/// `u8::MAX` with only the low `live` bits set (`1 ≤ live ≤ 8`): the lane mask
/// of a ragged vector.
#[inline(always)]
fn lane_mask(live: usize) -> u8 {
    debug_assert!((1..=DR).contains(&live));
    u8::MAX >> (DR - live)
}

/// Factors columns `kb..kend` of the row-major `n × n` lower triangle in `l`
/// in place: the AVX-512F tier of [`crate::Cholesky`]'s panel step.
///
/// The panel is copied into `columns` column by column (each column of rows
/// `kb..n` contiguous, at a stride padded by one vector), and swept left to
/// right: the pivot of column `j` first, through the same
/// [`crate::cholesky::panel_pivot`] as the other tiers, then every row below
/// it, 8 rows per 512-bit register.  Each lane keeps
/// [`crate::kernels::dot_unrolled`]'s four partial sums (a multiply, then an
/// add), so each entry equals the other tiers' `(a_ij − dot) / l_jj`.
/// `columns` is caller-owned so one factorization allocates it once.
///
/// # Errors
///
/// [`crate::LinalgError::NotPositiveDefinite`] for the first pivot that is
/// not strictly positive and finite; `l` is partly overwritten then.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F, `l` does not hold `n × n` values, or the
/// panel is empty, wider than [`crate::cholesky::PANEL`] or not inside `0..n`.
pub(crate) fn factor_panel(
    l: &mut [f64],
    n: usize,
    kb: usize,
    kend: usize,
    columns: &mut Vec<f64>,
) -> Result<(), crate::LinalgError> {
    use crate::cholesky::{panel_pivot, PANEL};
    assert!(
        crate::dispatch::avx512_supported(),
        "panel kernel needs AVX-512F"
    );
    assert_eq!(Some(l.len()), n.checked_mul(n), "factor is not {n}×{n}");
    assert!(
        kb < kend && kend <= n && kend - kb <= PANEL,
        "panel {kb}..{kend} outside 0..{n}"
    );
    let rows = n - kb;
    let width = kend - kb;
    // One vector of padding under every column, so the last 8-row group of
    // a column can be loaded and stored whole.
    let stride = rows + DR;
    columns.clear();
    columns.resize(width * stride, 0.0);
    for c in 0..width {
        for r in c..rows {
            columns[c * stride + r] = l[(kb + r) * n + kb + c];
        }
    }
    let mut lj = [0.0_f64; PANEL];
    for c in 0..width {
        // Row `kb + c` of the panel so far, the multiplier of every dot.
        for (t, v) in lj[..c].iter_mut().enumerate() {
            *v = columns[t * stride + c];
        }
        let pivot = panel_pivot(columns[c * stride + c], &lj[..c], kb + c)?;
        columns[c * stride + c] = pivot;
        // SAFETY: the CPU has AVX-512F (asserted above).  `columns` holds
        // `width · stride` values and `c < width`, so columns `0..=c` lie in
        // it.  The sweep touches rows `c + 1 ..` up to the last 8-row group
        // starting below `rows`, so below `rows + DR = stride`: every access
        // stays inside its own column.  `lj[..c]` holds the `c` multipliers.
        unsafe { panel_column(columns, stride, c, rows, &lj[..c], pivot) };
    }
    for c in 0..width {
        for r in c..rows {
            l[(kb + r) * n + kb + c] = columns[c * stride + r];
        }
    }
    Ok(())
}

/// Rows `c + 1 .. rows` of column `c` of a column-major panel:
/// `col_c[r] = (col_c[r] − Σ_{t<c} col_t[r] · lj[t]) / pivot`, the sum in
/// [`crate::kernels::dot_unrolled`]'s association.  Up to four 8-row groups
/// run at once, and the last group may reach into the padding.
///
/// # Safety
///
/// The CPU must support AVX-512F; `columns` must hold at least
/// `(c + 1) · stride` values with `rows + DR ≤ stride`; `lj` must hold `c`
/// values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn panel_column(
    columns: &mut [f64],
    stride: usize,
    c: usize,
    rows: usize,
    lj: &[f64],
    pivot: f64,
) {
    debug_assert!(rows + DR <= stride && (c + 1) * stride <= columns.len() && lj.len() == c);
    let base = columns.as_mut_ptr();
    let mut r = c + 1;
    while r < rows {
        let groups = (rows - r).div_ceil(DR).min(4);
        match groups {
            4 => panel_rows::<4>(base, stride, c, r, lj, pivot),
            3 => panel_rows::<3>(base, stride, c, r, lj, pivot),
            2 => panel_rows::<2>(base, stride, c, r, lj, pivot),
            _ => panel_rows::<1>(base, stride, c, r, lj, pivot),
        }
        r += groups * DR;
    }
}

/// `G` groups of 8 rows of [`panel_column`], starting at row `r`.
///
/// # Safety
///
/// As for [`panel_column`], with rows `r .. r + 8G` inside every column.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn panel_rows<const G: usize>(
    base: *mut f64,
    stride: usize,
    c: usize,
    r: usize,
    lj: &[f64],
    pivot: f64,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 4]; G];
    let whole = c - c % 4;
    let mut t = 0;
    while t < whole {
        for u in 0..4 {
            let b = _mm512_set1_pd(lj[t + u]);
            let col = base.add((t + u) * stride + r);
            for (g, a) in acc.iter_mut().enumerate() {
                let v = _mm512_loadu_pd(col.add(g * DR));
                a[u] = _mm512_add_pd(a[u], _mm512_mul_pd(v, b));
            }
        }
        t += 4;
    }
    while t < c {
        let b = _mm512_set1_pd(lj[t]);
        let col = base.add(t * stride + r);
        for (g, a) in acc.iter_mut().enumerate() {
            let v = _mm512_loadu_pd(col.add(g * DR));
            a[0] = _mm512_add_pd(a[0], _mm512_mul_pd(v, b));
        }
        t += 1;
    }
    let pv = _mm512_set1_pd(pivot);
    let out = base.add(c * stride + r);
    for (g, a) in acc.iter().enumerate() {
        let dot = _mm512_add_pd(_mm512_add_pd(a[0], a[1]), _mm512_add_pd(a[2], a[3]));
        let p = out.add(g * DR);
        _mm512_storeu_pd(p, _mm512_div_pd(_mm512_sub_pd(_mm512_loadu_pd(p), dot), pv));
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn panel_column(
    columns: &mut [f64],
    stride: usize,
    c: usize,
    rows: usize,
    lj: &[f64],
    pivot: f64,
) {
    // Unreachable in practice: the dispatch point never selects the
    // AVX-512F tier off x86_64.  Kept as a correct portable body so the
    // crate still compiles everywhere.
    let (head, tail) = columns.split_at_mut(c * stride);
    for r in c + 1..rows {
        let row: Vec<f64> = (0..c).map(|t| head[t * stride + r]).collect();
        tail[r] = (tail[r] - crate::kernels::dot_unrolled(&row, lj)) / pivot;
    }
}

/// Columns `jb .. jb + nb` of the lower-triangular inverse `W = L⁻¹`, in
/// place in the row-major `n × n` buffer `w` (which holds the block's unit
/// diagonal and zeros elsewhere in it): the AVX-512F tier of
/// [`crate::Cholesky`]'s triangular inverse.
///
/// Row `i` of the block accumulates in up to eight 512-bit registers across
/// `k` and is stored once.  Per element the operations are those of
/// [`sweep_axpy`]'s FMA path: one `fnmadd` per `k` in ascending order,
/// skipping `l_ik == 0.0`, then a division by `l_ii`.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F, `l` or `w` does not hold `n × n` values,
/// or the block is empty, wider than 64 or not inside `0..n`.
pub(crate) fn triangular_inverse_block(l: &[f64], n: usize, jb: usize, nb: usize, w: &mut [f64]) {
    assert!(
        crate::dispatch::avx512_supported(),
        "inverse kernel needs AVX-512F"
    );
    assert_eq!(Some(l.len()), n.checked_mul(n), "factor is not {n}×{n}");
    assert_eq!(w.len(), l.len(), "inverse buffer is not {n}×{n}");
    assert!(
        (1..=8 * DR).contains(&nb) && jb + nb <= n,
        "column block {jb}..{} outside 0..{n}",
        jb + nb
    );
    // SAFETY: the CPU has AVX-512F, `l` and `w` hold `n × n` values and the
    // block's columns `jb .. jb + nb` lie inside a row (all asserted above).
    // The kernel reads row `i ≥ jb` of `l` up to column `i` and rows
    // `jb ..= i` of `w`, all below `n`, and masks the lanes past `nb`.
    unsafe {
        match nb.div_ceil(DR) {
            8 => inverse_block::<8>(l, n, jb, nb, w),
            7 => inverse_block::<7>(l, n, jb, nb, w),
            6 => inverse_block::<6>(l, n, jb, nb, w),
            5 => inverse_block::<5>(l, n, jb, nb, w),
            4 => inverse_block::<4>(l, n, jb, nb, w),
            3 => inverse_block::<3>(l, n, jb, nb, w),
            2 => inverse_block::<2>(l, n, jb, nb, w),
            _ => inverse_block::<1>(l, n, jb, nb, w),
        }
    }
}

/// [`triangular_inverse_block`] with the block held in `CH` registers.
///
/// # Safety
///
/// The CPU must support AVX-512F; `l` and `w` must hold `n × n` values;
/// `8(CH − 1) < nb ≤ 8·CH` and `jb + nb ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn inverse_block<const CH: usize>(l: &[f64], n: usize, jb: usize, nb: usize, w: &mut [f64]) {
    use core::arch::x86_64::*;
    debug_assert!(l.len() == n * n && w.len() == n * n && jb + nb <= n);
    debug_assert!(nb > DR * (CH - 1) && nb <= DR * CH);
    let last = lane_mask(nb - DR * (CH - 1));
    let mask = |q: usize| if q + 1 == CH { last } else { u8::MAX };
    let w_ptr = w.as_mut_ptr();
    for i in jb..n {
        let wi = w_ptr.add(i * n + jb);
        let mut acc = [_mm512_setzero_pd(); CH];
        for (q, a) in acc.iter_mut().enumerate() {
            *a = _mm512_maskz_loadu_pd(mask(q), wi.add(q * DR));
        }
        let li = l.as_ptr().add(i * n);
        for k in jb..i {
            let lik = *li.add(k);
            if lik == 0.0 {
                continue;
            }
            let lv = _mm512_set1_pd(lik);
            let wk = w_ptr.add(k * n + jb);
            for (q, a) in acc.iter_mut().enumerate() {
                *a = _mm512_fnmadd_pd(lv, _mm512_maskz_loadu_pd(mask(q), wk.add(q * DR)), *a);
            }
        }
        let lii = _mm512_set1_pd(*li.add(i));
        for (q, a) in acc.iter().enumerate() {
            _mm512_mask_storeu_pd(wi.add(q * DR), mask(q), _mm512_div_pd(*a, lii));
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn inverse_block<const CH: usize>(l: &[f64], n: usize, jb: usize, nb: usize, w: &mut [f64]) {
    // Unreachable in practice (see `direct_tile`).
    for i in jb..n {
        let (head, tail) = w.split_at_mut(i * n);
        let wi = &mut tail[jb..jb + nb];
        for k in jb..i {
            let lik = l[i * n + k];
            if lik == 0.0 {
                continue;
            }
            for (o, v) in wi.iter_mut().zip(&head[k * n + jb..k * n + jb + nb]) {
                *o = (-lik).mul_add(*v, *o);
            }
        }
        for o in wi.iter_mut() {
            *o /= l[i * n + i];
        }
    }
}

/// `out[i·n + j] = Σ_d w_d · (x_i,d − x_j,d)²` for every `j < i`, in
/// [`fused_dot`]'s association, from the row-major `n × dim` points `x` and
/// their `dim × n` transpose `xt`.  Only the strict lower triangle of the
/// row-major `n × n` `out` is written.
///
/// The AVX-512F tier runs 8 pairs per register, lanes over `j`: four
/// accumulators split `d` by `d mod 4` as [`fused_dot`]'s four lanes do,
/// are summed `(l0 + l1) + (l2 + l3)`, and the tail dimensions follow as
/// FMAs.  Other tiers write each pair's squared differences into a
/// `dim`-length buffer and call [`fused_dot`] on it.
///
/// # Panics
///
/// Panics if `x`, `xt`, `w` or `out` does not hold `n × dim`, `dim × n`,
/// `dim` or `n × n` values.
pub(crate) fn weighted_sq_dist_lower(
    x: &[f64],
    xt: &[f64],
    n: usize,
    dim: usize,
    w: &[f64],
    out: &mut [f64],
) {
    let points = n.checked_mul(dim);
    assert_eq!(Some(x.len()), points, "points are not {n}×{dim}");
    assert_eq!(Some(xt.len()), points, "transpose is not {dim}×{n}");
    assert_eq!(w.len(), dim, "weights are not {dim} long");
    assert_eq!(Some(out.len()), n.checked_mul(n), "output is not {n}×{n}");
    if crate::dispatch::avx512_active() {
        // SAFETY: avx512_active() implies AVX-512F.  The lengths of `x`,
        // `xt`, `w` and `out` were asserted above; the kernel reads rows
        // `i < n` of `x`, columns `j < i` of each row of `xt` (masking the
        // lanes at or past `i`) and writes only `out[i·n + j]`, `j < i`.
        unsafe { weighted_sq_dist_lower_avx512(x, xt, n, dim, w, out) };
        return;
    }
    let mut stripe = vec![0.0; dim];
    for i in 1..n {
        let xi = &x[i * dim..(i + 1) * dim];
        for j in 0..i {
            let xj = &x[j * dim..(j + 1) * dim];
            for ((s, &a), &b) in stripe.iter_mut().zip(xi).zip(xj) {
                let diff = a - b;
                *s = diff * diff;
            }
            out[i * n + j] = fused_dot(&stripe, w);
        }
    }
}

/// The AVX-512F body of [`weighted_sq_dist_lower`].
///
/// # Safety
///
/// The CPU must support AVX-512F; `x` and `xt` must hold `n · dim` values,
/// `w` `dim` values and `out` `n · n` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn weighted_sq_dist_lower_avx512(
    x: &[f64],
    xt: &[f64],
    n: usize,
    dim: usize,
    w: &[f64],
    out: &mut [f64],
) {
    use core::arch::x86_64::*;
    debug_assert!(x.len() == n * dim && xt.len() == n * dim && w.len() == dim);
    debug_assert!(out.len() == n * n);
    let whole = dim - dim % 4;
    let (xt_ptr, w_ptr) = (xt.as_ptr(), w.as_ptr());
    for i in 1..n {
        let xi = x.as_ptr().add(i * dim);
        let mut j0 = 0;
        while j0 < i {
            // Lanes at or past `i` (the diagonal and above) are masked.
            let mask = lane_mask((i - j0).min(DR));
            let mut acc = [_mm512_setzero_pd(); 4];
            let mut d = 0;
            while d < whole {
                for (u, a) in acc.iter_mut().enumerate() {
                    let xj = _mm512_maskz_loadu_pd(mask, xt_ptr.add((d + u) * n + j0));
                    let diff = _mm512_sub_pd(_mm512_set1_pd(*xi.add(d + u)), xj);
                    let sq = _mm512_mul_pd(diff, diff);
                    *a = _mm512_fmadd_pd(sq, _mm512_set1_pd(*w_ptr.add(d + u)), *a);
                }
                d += 4;
            }
            let mut s = _mm512_add_pd(_mm512_add_pd(acc[0], acc[1]), _mm512_add_pd(acc[2], acc[3]));
            while d < dim {
                let xj = _mm512_maskz_loadu_pd(mask, xt_ptr.add(d * n + j0));
                let diff = _mm512_sub_pd(_mm512_set1_pd(*xi.add(d)), xj);
                let sq = _mm512_mul_pd(diff, diff);
                s = _mm512_fmadd_pd(sq, _mm512_set1_pd(*w_ptr.add(d)), s);
                d += 1;
            }
            _mm512_mask_storeu_pd(out.as_mut_ptr().add(i * n + j0), mask, s);
            j0 += DR;
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn weighted_sq_dist_lower_avx512(
    x: &[f64],
    _xt: &[f64],
    n: usize,
    dim: usize,
    w: &[f64],
    out: &mut [f64],
) {
    // Unreachable in practice (see `direct_tile`).
    let mut stripe = vec![0.0; dim];
    for i in 1..n {
        for j in 0..i {
            for d in 0..dim {
                let diff = x[i * dim + d] - x[j * dim + d];
                stripe[d] = diff * diff;
            }
            out[i * n + j] = fused_dot_fma(&stripe, w);
        }
    }
}

/// `acc[d] += (mg[j] · w_d) · (x_i,d − x_j,d)²` for `j = 0, 1, …` in turn,
/// one [`add_scaled_product`] per pair: the ARD lengthscale trace of point
/// `i` against the points before it, `x` being row-major `n × dim`.
///
/// The AVX-512F tier keeps `acc` in registers across the pairs, lanes over
/// `d`, in blocks of up to 64 dimensions (each `acc[d]` is its own chain of
/// FMAs in pair order, so blocking over `d` keeps every bit).  Other tiers
/// write each pair's squared differences, 64 dimensions at a time, into a
/// stack buffer and call [`add_scaled_product`] on it.
///
/// # Panics
///
/// Panics if `x` does not hold `n × dim` values, `i ≥ n`, `mg` is longer
/// than `i`, or `w` or `acc` is not `dim` long.
pub(crate) fn add_scaled_sq_diffs(
    x: &[f64],
    n: usize,
    dim: usize,
    i: usize,
    mg: &[f64],
    w: &[f64],
    acc: &mut [f64],
) {
    assert_eq!(
        Some(x.len()),
        n.checked_mul(dim),
        "points are not {n}×{dim}"
    );
    assert!(i < n && mg.len() <= i, "pairs of point {i} outside 0..{n}");
    assert!(
        w.len() == dim && acc.len() == dim,
        "weights or accumulators are not {dim} long"
    );
    const BLOCK: usize = 8 * DR;
    let direct = crate::dispatch::avx512_active();
    let mut d0 = 0;
    while d0 < dim {
        let width = BLOCK.min(dim - d0);
        if direct {
            // SAFETY: avx512_active() implies AVX-512F.  `x` holds `n × dim`
            // values, `i < n` and `mg.len() ≤ i` (asserted above), so rows
            // `i` and `j < mg.len()` are in it; dimensions `d0 .. d0 + width`
            // lie inside every row and inside `w` and `acc`, and the lanes
            // past `width` are masked.
            unsafe {
                match width.div_ceil(DR) {
                    8 => add_scaled_sq_diffs_avx512::<8>(x, dim, i, d0, width, mg, w, acc),
                    7 => add_scaled_sq_diffs_avx512::<7>(x, dim, i, d0, width, mg, w, acc),
                    6 => add_scaled_sq_diffs_avx512::<6>(x, dim, i, d0, width, mg, w, acc),
                    5 => add_scaled_sq_diffs_avx512::<5>(x, dim, i, d0, width, mg, w, acc),
                    4 => add_scaled_sq_diffs_avx512::<4>(x, dim, i, d0, width, mg, w, acc),
                    3 => add_scaled_sq_diffs_avx512::<3>(x, dim, i, d0, width, mg, w, acc),
                    2 => add_scaled_sq_diffs_avx512::<2>(x, dim, i, d0, width, mg, w, acc),
                    _ => add_scaled_sq_diffs_avx512::<1>(x, dim, i, d0, width, mg, w, acc),
                }
            }
        } else {
            let mut stripe = [0.0_f64; BLOCK];
            let stripe = &mut stripe[..width];
            let xi = &x[i * dim + d0..i * dim + d0 + width];
            for (j, &m) in mg.iter().enumerate() {
                let xj = &x[j * dim + d0..j * dim + d0 + width];
                for ((s, &a), &b) in stripe.iter_mut().zip(xi).zip(xj) {
                    let diff = a - b;
                    *s = diff * diff;
                }
                add_scaled_product(&mut acc[d0..d0 + width], &w[d0..d0 + width], stripe, m);
            }
        }
        d0 += width;
    }
}

/// One `d`-block of [`add_scaled_sq_diffs`] held in `CH` registers.
///
/// # Safety
///
/// The CPU must support AVX-512F; `x` must hold rows `i` and `0..mg.len()`
/// of `dim` values each; `8(CH − 1) < width ≤ 8·CH` and
/// `d0 + width ≤ dim = w.len() = acc.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn add_scaled_sq_diffs_avx512<const CH: usize>(
    x: &[f64],
    dim: usize,
    i: usize,
    d0: usize,
    width: usize,
    mg: &[f64],
    w: &[f64],
    acc: &mut [f64],
) {
    use core::arch::x86_64::*;
    debug_assert!(width > DR * (CH - 1) && width <= DR * CH && d0 + width <= dim);
    debug_assert!(w.len() == dim && acc.len() == dim && (i + 1) * dim <= x.len());
    debug_assert!(mg.len() <= i);
    let last = lane_mask(width - DR * (CH - 1));
    let mask = |q: usize| if q + 1 == CH { last } else { u8::MAX };
    let xi = x.as_ptr().add(i * dim + d0);
    let (w_ptr, acc_ptr) = (w.as_ptr().add(d0), acc.as_mut_ptr().add(d0));
    let mut xiv = [_mm512_setzero_pd(); CH];
    let mut wv = [_mm512_setzero_pd(); CH];
    let mut av = [_mm512_setzero_pd(); CH];
    for q in 0..CH {
        xiv[q] = _mm512_maskz_loadu_pd(mask(q), xi.add(q * DR));
        wv[q] = _mm512_maskz_loadu_pd(mask(q), w_ptr.add(q * DR));
        av[q] = _mm512_maskz_loadu_pd(mask(q), acc_ptr.add(q * DR));
    }
    for (j, &m) in mg.iter().enumerate() {
        let mv = _mm512_set1_pd(m);
        let xj = x.as_ptr().add(j * dim + d0);
        for q in 0..CH {
            let diff = _mm512_sub_pd(xiv[q], _mm512_maskz_loadu_pd(mask(q), xj.add(q * DR)));
            let sq = _mm512_mul_pd(diff, diff);
            av[q] = _mm512_fmadd_pd(_mm512_mul_pd(mv, wv[q]), sq, av[q]);
        }
    }
    for (q, a) in av.iter().enumerate() {
        _mm512_mask_storeu_pd(acc_ptr.add(q * DR), mask(q), *a);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn add_scaled_sq_diffs_avx512<const CH: usize>(
    x: &[f64],
    dim: usize,
    i: usize,
    d0: usize,
    width: usize,
    mg: &[f64],
    w: &[f64],
    acc: &mut [f64],
) {
    // Unreachable in practice (see `direct_tile`).
    for (j, &m) in mg.iter().enumerate() {
        for d in d0..d0 + width {
            let diff = x[i * dim + d] - x[j * dim + d];
            acc[d] = (m * w[d]).mul_add(diff * diff, acc[d]);
        }
    }
}

fn gemm_band(a: &Op, packed_b: &PackedB, first_row: usize, rows: usize, n: usize, out: &mut [f64]) {
    let mut apanel = [0.0_f64; KC * MR];
    let mut tile = [0.0_f64; MR * NR];
    for (blk, &(k0, kc, _)) in packed_b.blocks.iter().enumerate() {
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            pack_a_panel(a, first_row + i0, mr, k0, kc, &mut apanel);
            for jp in 0..packed_b.panels {
                let j0 = jp * NR;
                let width = NR.min(n - j0);
                // Safety: the dispatch point verified AVX2+FMA before
                // selecting the packed drivers.
                unsafe { micro_kernel_4x8(&apanel, packed_b.panel(blk, jp), kc, &mut tile) };
                for ii in 0..mr {
                    let orow = &mut out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + width];
                    for (o, t) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                        *o += t;
                    }
                }
            }
            i0 += mr;
        }
    }
}

/// Accumulates the lower triangle of the symmetric product `S = P·Pᵀ`
/// (`t × t`, `P` given as a logical `t × k` view) into `out`:
/// `out[i*stride + col0 + j]` gains `±S[i][j]` for `j ≤ i`.
///
/// With `subtract = true` this is the Cholesky trailing update
/// `A22 -= L21·L21ᵀ`; with `false` it builds Gram/normal matrices
/// (callers zero the lower triangle first and mirror afterwards).
pub(crate) fn syrk_lower(
    p: Op,
    t: usize,
    k: usize,
    out: &mut [f64],
    stride: usize,
    col0: usize,
    subtract: bool,
) {
    if t == 0 || k == 0 {
        return;
    }
    let packed_b = PackedB::new(&p, t, k);
    let threads = plan_threads(t, t * t * k);
    // Bands are split at panel boundaries so every `MR`-row micro-tile stays
    // on one thread.
    let panels = t.div_ceil(MR);
    let band_panels = panels.div_ceil(threads.max(1));
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest = out;
    let mut row0 = 0;
    let mut consumed = 0;
    let mut p0 = 0;
    while p0 < panels {
        let pend = (p0 + band_panels).min(panels);
        let rows_end = (pend * MR).min(t);
        let take = rows_end * stride - consumed;
        let (band, tail) = rest.split_at_mut(take);
        rest = tail;
        consumed += take;
        let first_row = row0;
        let packed_b = &packed_b;
        let p = &p;
        let mut work = move || {
            syrk_band(
                p,
                packed_b,
                first_row,
                rows_end - first_row,
                t,
                band,
                stride,
                col0,
                subtract,
            );
        };
        if threads > 1 {
            tasks.push(Box::new(work));
        } else {
            work();
        }
        row0 = rows_end;
        p0 = pend;
    }
    if !tasks.is_empty() {
        nnbo_pool::WorkerPool::global().run_batch(tasks);
    }
}

#[allow(clippy::too_many_arguments)]
fn syrk_band(
    p: &Op,
    packed_b: &PackedB,
    first_row: usize,
    rows: usize,
    t: usize,
    out: &mut [f64],
    stride: usize,
    col0: usize,
    subtract: bool,
) {
    let mut apanel = [0.0_f64; KC * MR];
    let mut tile = [0.0_f64; MR * NR];
    for (blk, &(k0, kc, _)) in packed_b.blocks.iter().enumerate() {
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let top_row = first_row + i0 + mr - 1;
            pack_a_panel(p, first_row + i0, mr, k0, kc, &mut apanel);
            // Only panels that intersect the lower triangle of this tile row.
            for jp in 0..=(top_row / NR).min(packed_b.panels - 1) {
                let j0 = jp * NR;
                // Safety: dispatch verified AVX2+FMA (see `gemm_band`).
                unsafe { micro_kernel_4x8(&apanel, packed_b.panel(blk, jp), kc, &mut tile) };
                for ii in 0..mr {
                    let row = first_row + i0 + ii;
                    let last = row.min(t - 1).min(j0 + NR - 1);
                    if last < j0 {
                        continue;
                    }
                    let base = (i0 + ii) * stride + col0;
                    let orow = &mut out[base + j0..base + last + 1];
                    if subtract {
                        for (o, v) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                            *o -= v;
                        }
                    } else {
                        for (o, v) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                            *o += v;
                        }
                    }
                }
            }
            i0 += mr;
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise FMA helpers for the triangular sweeps and the fused fit kernels.
// ---------------------------------------------------------------------------

/// `dst[j] -= c * src[j]` with single-rounding FMA semantics per element.
///
/// The arithmetic applied to element `j` is independent of the slice width
/// (vector body and scalar tail both fuse), so a column of a batched
/// triangular solve gets bit-identical treatment whether it is solved alone
/// or as part of a wide right-hand side.
pub(crate) fn sweep_axpy(c: f64, src: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { sweep_axpy_fma(c, src, dst) };
    } else {
        for (o, v) in dst.iter_mut().zip(src.iter()) {
            *o -= c * v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sweep_axpy_fma(c: f64, src: &[f64], dst: &mut [f64]) {
    use core::arch::x86_64::*;
    let n = dst.len().min(src.len());
    let cv = _mm256_set1_pd(c);
    let mut j = 0;
    while j + 4 <= n {
        let s = _mm256_loadu_pd(src.as_ptr().add(j));
        let d = _mm256_loadu_pd(dst.as_ptr().add(j));
        _mm256_storeu_pd(dst.as_mut_ptr().add(j), _mm256_fnmadd_pd(cv, s, d));
        j += 4;
    }
    while j < n {
        // Same fused semantics as the vector body (compiles to vfnmadd here).
        dst[j] = (-c).mul_add(src[j], dst[j]);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn sweep_axpy_fma(c: f64, src: &[f64], dst: &mut [f64]) {
    for (o, v) in dst.iter_mut().zip(src.iter()) {
        *o = (-c).mul_add(*v, *o);
    }
}

/// Forward substitution `L y = b` for one vector, in place, with the same
/// per-element semantics as [`sweep_axpy`] on either dispatch path — so the
/// documented equivalence "column `j` of a matrix solve == vector solve of
/// column `j`" holds exactly.  `l` is the row-major factor, `stride` its row
/// length.
pub(crate) fn solve_lower_vec(l: &[f64], n: usize, stride: usize, y: &mut [f64]) {
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { solve_lower_vec_fma(l, n, stride, y) };
        return;
    }
    for i in 0..n {
        let mut sum = y[i];
        for k in 0..i {
            let lik = l[i * stride + k];
            if lik == 0.0 {
                continue;
            }
            sum -= lik * y[k];
        }
        y[i] = sum / l[i * stride + i];
    }
}

#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "avx2", enable = "fma")
)]
unsafe fn solve_lower_vec_fma(l: &[f64], n: usize, stride: usize, y: &mut [f64]) {
    for i in 0..n {
        let mut sum = y[i];
        for k in 0..i {
            let lik = l[i * stride + k];
            if lik == 0.0 {
                continue;
            }
            // Single-rounding, same as the vectorised fnmadd of `sweep_axpy`.
            sum = (-lik).mul_add(y[k], sum);
        }
        y[i] = sum / l[i * stride + i];
    }
}

/// Backward substitution `Lᵀ x = y` for one vector, in place; see
/// [`solve_lower_vec`] for the equivalence contract.
pub(crate) fn solve_upper_vec(l: &[f64], n: usize, stride: usize, x: &mut [f64]) {
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { solve_upper_vec_fma(l, n, stride, x) };
        return;
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            let lki = l[k * stride + i];
            if lki == 0.0 {
                continue;
            }
            sum -= lki * x[k];
        }
        x[i] = sum / l[i * stride + i];
    }
}

#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "avx2", enable = "fma")
)]
unsafe fn solve_upper_vec_fma(l: &[f64], n: usize, stride: usize, x: &mut [f64]) {
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            let lki = l[k * stride + i];
            if lki == 0.0 {
                continue;
            }
            sum = (-lki).mul_add(x[k], sum);
        }
        x[i] = sum / l[i * stride + i];
    }
}

/// Four-accumulator FMA dot product, dispatched: the portable fallback is the
/// plain ascending-order sum (identical to the pre-SIMD Gram build).
pub(crate) fn fused_dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { fused_dot_fma(a, b) }
    } else {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_dot_fma(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_pd();
    let mut j = 0;
    while j + 4 <= n {
        let x = _mm256_loadu_pd(a.as_ptr().add(j));
        let y = _mm256_loadu_pd(b.as_ptr().add(j));
        acc = _mm256_fmadd_pd(x, y, acc);
        j += 4;
    }
    let mut lanes = [0.0_f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while j < n {
        s = a[j].mul_add(b[j], s);
        j += 1;
    }
    s
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn fused_dot_fma(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------------
// Fused squared-exponential apply: the elementwise pass of a cross-kernel
// norm expansion.
// ---------------------------------------------------------------------------

/// `row[j] = sf2 · exp(−½ · max(q_norm + x_norms[j] − 2·row[j], 0))`, in
/// place — the elementwise half of a squared-exponential cross-kernel norm
/// expansion, fused so the GEMM output is turned into kernel values in one
/// dispatched pass.
///
/// The portable fallback is the exact scalar loop (with `f64::exp`) the
/// prediction path used before this kernel existed; the AVX2 path evaluates
/// a degree-13 polynomial `exp` (Cody–Waite range reduction, ≲ 2 ulp over
/// the kernel's `(−∞, 0]` argument range) four lanes at a time, with the
/// ragged tail running the same polynomial in scalar code so a row's values
/// do not depend on how it aligns with the vector width.  `d2 = 0` (the Gram
/// diagonal) yields exactly `sf2` on both paths.
pub(crate) fn sq_exp_apply(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    debug_assert_eq!(row.len(), x_norms.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { sq_exp_apply_simd(row, x_norms, q_norm, sf2) };
    } else {
        for (v, &xn) in row.iter_mut().zip(x_norms.iter()) {
            let d2 = (q_norm + xn - 2.0 * *v).max(0.0);
            *v = sf2 * (-0.5 * d2).exp();
        }
    }
}

/// log2(e) and the Cody–Waite split of ln(2) used by the polynomial `exp`.
const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
const EXP_LN2_HI: f64 = 6.931_471_803_691_238e-1;
const EXP_LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Arguments below this underflow to zero (`exp(-708) ≈ 3e-308` is the last
/// comfortably normal value).
const EXP_UNDERFLOW: f64 = -708.0;
/// Taylor coefficients `1/k!` for `e^r` on `|r| ≤ ln2/2`, highest order
/// first (degree 13: truncation error ≈ 4e-18, far below rounding).
const EXP_POLY: [f64; 14] = [
    1.0 / 6_227_020_800.0, // 1/13!
    1.0 / 479_001_600.0,   // 1/12!
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
    1.0,
    1.0,
];

/// Scalar replica of the vector lanes' polynomial `exp(t)` for `t ≤ 0`: same
/// range reduction, same Horner order, same underflow cutoff — used for the
/// ragged tail of [`sq_exp_apply`]'s SIMD path.
fn exp_poly_scalar(t: f64) -> f64 {
    if t < EXP_UNDERFLOW {
        return 0.0;
    }
    // Round to nearest-even (matching `_mm256_round_pd`; `f64::round` ties
    // away from zero) via the 2^52+2^51 shifter — exact for |x| < 2^51.
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    let k = (t * EXP_LOG2E + SHIFTER) - SHIFTER;
    let r = (-k).mul_add(EXP_LN2_LO, (-k).mul_add(EXP_LN2_HI, t));
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p.mul_add(r, c);
    }
    // 2^k by exponent-bit construction (k ∈ [-1022, 0] here).
    let two_k = f64::from_bits(((k as i64 + 1023) as u64) << 52);
    p * two_k
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq_exp_apply_simd(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    use core::arch::x86_64::*;
    let n = row.len().min(x_norms.len());
    let qn = _mm256_set1_pd(q_norm);
    let sf2v = _mm256_set1_pd(sf2);
    let neg_half = _mm256_set1_pd(-0.5);
    let zero = _mm256_setzero_pd();
    let log2e = _mm256_set1_pd(EXP_LOG2E);
    let ln2_hi = _mm256_set1_pd(EXP_LN2_HI);
    let ln2_lo = _mm256_set1_pd(EXP_LN2_LO);
    let underflow = _mm256_set1_pd(EXP_UNDERFLOW);
    let bias = _mm256_set1_epi64x(1023);
    let mut j = 0;
    while j + 4 <= n {
        let v = _mm256_loadu_pd(row.as_ptr().add(j));
        let xn = _mm256_loadu_pd(x_norms.as_ptr().add(j));
        // d2 = max(qn + xn - 2v, 0);  t = -0.5 * d2  (t ≤ 0).
        let d2 = _mm256_max_pd(
            _mm256_fnmadd_pd(_mm256_set1_pd(2.0), v, _mm256_add_pd(qn, xn)),
            zero,
        );
        let t = _mm256_mul_pd(neg_half, d2);
        // Range reduction: k = round(t·log2e), r = t - k·ln2 (Cody–Waite).
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(_mm256_max_pd(t, underflow), log2e),
        );
        let r = _mm256_fnmadd_pd(
            k,
            ln2_lo,
            _mm256_fnmadd_pd(k, ln2_hi, _mm256_max_pd(t, underflow)),
        );
        // Horner over the Taylor coefficients.
        let mut p = _mm256_set1_pd(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
        }
        // 2^k via exponent bits: k is integral in [-1022, 0].
        let ki = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
        let two_k = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(ki, bias)));
        let mut e = _mm256_mul_pd(p, two_k);
        // Flush true underflow (t < −708) to zero.
        e = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(t, underflow), e);
        _mm256_storeu_pd(row.as_mut_ptr().add(j), _mm256_mul_pd(sf2v, e));
        j += 4;
    }
    while j < n {
        // Same fused `(qn + xn) − 2v` semantics as the vector body.
        let d2 = (-2.0f64).mul_add(row[j], q_norm + x_norms[j]).max(0.0);
        row[j] = sf2 * exp_poly_scalar(-0.5 * d2);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn sq_exp_apply_simd(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    for (v, &xn) in row.iter_mut().zip(x_norms.iter()) {
        let d2 = (q_norm + xn - 2.0 * *v).max(0.0);
        *v = sf2 * exp_poly_scalar(-0.5 * d2);
    }
}

/// `acc[d] += scale * x[d] * y[d]`, dispatched; the portable fallback matches
/// the pre-SIMD fused gradient pass exactly.
pub(crate) fn add_scaled_product(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    debug_assert_eq!(acc.len(), x.len());
    debug_assert_eq!(acc.len(), y.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { add_scaled_product_fma(acc, x, y, scale) };
    } else {
        for ((a, &xv), &yv) in acc.iter_mut().zip(x.iter()).zip(y.iter()) {
            *a += scale * xv * yv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_scaled_product_fma(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    use core::arch::x86_64::*;
    let n = acc.len().min(x.len()).min(y.len());
    let sv = _mm256_set1_pd(scale);
    let mut j = 0;
    while j + 4 <= n {
        let xv = _mm256_loadu_pd(x.as_ptr().add(j));
        let yv = _mm256_loadu_pd(y.as_ptr().add(j));
        let a = _mm256_loadu_pd(acc.as_ptr().add(j));
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(j),
            _mm256_fmadd_pd(_mm256_mul_pd(sv, xv), yv, a),
        );
        j += 4;
    }
    while j < n {
        acc[j] = (scale * x[j]).mul_add(y[j], acc[j]);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn add_scaled_product_fma(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    for ((a, &xv), &yv) in acc.iter_mut().zip(x.iter()).zip(y.iter()) {
        *a = (scale * xv).mul_add(yv, *a);
    }
}

/// One Adam update of every parameter, dispatched; see
/// [`crate::adam_update`] for the formula.  Both paths run the same IEEE
/// operations in the same order (no fused multiply-add), so they agree bit
/// for bit.
pub(crate) fn adam_update(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &crate::AdamStep,
) {
    let n = params.len();
    assert!(
        grad.len() == n && m.len() == n && v.len() == n,
        "adam_update length mismatch"
    );
    if crate::dispatch::simd_active() {
        // SAFETY: simd_active() implies the CPU supports AVX2.
        unsafe { adam_update_avx2(params, grad, m, v, step) };
    } else {
        adam_update_scalar(params, grad, m, v, step);
    }
}

/// The portable Adam loop: the reference the vector path must equal.
fn adam_update_scalar(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &crate::AdamStep,
) {
    let crate::AdamStep {
        grad_scale,
        beta1,
        beta2,
        bias1,
        bias2,
        learning_rate,
        epsilon,
    } = *step;
    for i in 0..params.len() {
        let g = grad[i] * grad_scale;
        if !g.is_finite() {
            // A non-finite component would poison the moment estimates
            // forever; skip it and let the next evaluation recover.
            continue;
        }
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
        let m_hat = m[i] / bias1;
        let v_hat = v[i] / bias2;
        params[i] -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
    }
}

/// Four lanes of [`adam_update_scalar`] at a time.  Every lane computes the
/// update, and a blend keeps the old `params`, `m` and `v` where `g` is not
/// finite, in place of the scalar loop's `continue`.  The ragged tail runs
/// the scalar loop itself.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn adam_update_avx2(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &crate::AdamStep,
) {
    use core::arch::x86_64::*;
    let n = params.len().min(grad.len()).min(m.len()).min(v.len());
    let scale = _mm256_set1_pd(step.grad_scale);
    let b1 = _mm256_set1_pd(step.beta1);
    let b2 = _mm256_set1_pd(step.beta2);
    let one_minus_b1 = _mm256_set1_pd(1.0 - step.beta1);
    let one_minus_b2 = _mm256_set1_pd(1.0 - step.beta2);
    let bias1 = _mm256_set1_pd(step.bias1);
    let bias2 = _mm256_set1_pd(step.bias2);
    let lr = _mm256_set1_pd(step.learning_rate);
    let eps = _mm256_set1_pd(step.epsilon);
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
    let inf = _mm256_set1_pd(f64::INFINITY);
    let (p_ptr, g_ptr) = (params.as_mut_ptr(), grad.as_ptr());
    let (m_ptr, v_ptr) = (m.as_mut_ptr(), v.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let g = _mm256_mul_pd(_mm256_loadu_pd(g_ptr.add(i)), scale);
        // |g| < ∞ is false for ±∞ and (unordered) NaN.
        let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(g, abs_mask), inf);
        let m_old = _mm256_loadu_pd(m_ptr.add(i));
        let v_old = _mm256_loadu_pd(v_ptr.add(i));
        let p_old = _mm256_loadu_pd(p_ptr.add(i));
        let m_new = _mm256_add_pd(_mm256_mul_pd(b1, m_old), _mm256_mul_pd(one_minus_b1, g));
        let v_new = _mm256_add_pd(
            _mm256_mul_pd(b2, v_old),
            _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, g), g),
        );
        let m_hat = _mm256_div_pd(m_new, bias1);
        let v_hat = _mm256_div_pd(v_new, bias2);
        let p_new = _mm256_sub_pd(
            p_old,
            _mm256_div_pd(
                _mm256_mul_pd(lr, m_hat),
                _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps),
            ),
        );
        _mm256_storeu_pd(m_ptr.add(i), _mm256_blendv_pd(m_old, m_new, finite));
        _mm256_storeu_pd(v_ptr.add(i), _mm256_blendv_pd(v_old, v_new, finite));
        _mm256_storeu_pd(p_ptr.add(i), _mm256_blendv_pd(p_old, p_new, finite));
        i += 4;
    }
    adam_update_scalar(&mut params[i..], &grad[i..], &mut m[i..], &mut v[i..], step);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn adam_update_avx2(
    params: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &crate::AdamStep,
) {
    adam_update_scalar(params, grad, m, v, step);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 % 17) as f64 - 8.0) * scale)
            .collect()
    }

    #[test]
    fn packed_gemm_matches_reference_in_all_orientations() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (9, 4, 8), (17, 33, 13), (40, 40, 40)] {
            let a = seq(m * k, 0.07);
            let b = seq(k * n, 0.05);
            let mut out = vec![0.0; m * n];
            // A·B: A row-major m×k, B row-major k×n read as columns.
            gemm(Op::rows(&a, k), Op::cols(&b, n), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    assert!(
                        (out[i * n + j] - acc).abs() < 1e-10,
                        "A·B ({i},{j}) {m}x{k}x{n}"
                    );
                }
            }
            // A·Bᵀ: B given p×k row-major (p = n).
            let bt = seq(n * k, 0.03);
            gemm(Op::rows(&a, k), Op::rows(&bt, k), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * bt[j * k + kk];
                    }
                    assert!((out[i * n + j] - acc).abs() < 1e-10, "A·Bᵀ ({i},{j})");
                }
            }
            // Aᵀ·B: A given r×m row-major (r = k).
            let at = seq(k * m, 0.02);
            gemm(Op::cols(&at, m), Op::cols(&b, n), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += at[kk * m + i] * b[kk * n + j];
                    }
                    assert!((out[i * n + j] - acc).abs() < 1e-10, "Aᵀ·B ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn syrk_lower_subtracts_only_the_lower_triangle() {
        let (t, w) = (13, 5);
        let p = seq(t * w, 0.1);
        let stride = t + 3; // wider destination, offset columns
        let col0 = 2;
        let mut out = vec![1.0; t * stride];
        syrk_lower(Op::rows(&p, w), t, w, &mut out, stride, col0, true);
        for i in 0..t {
            for j in 0..t {
                let expect = if j <= i {
                    let mut acc = 0.0;
                    for kk in 0..w {
                        acc += p[i * w + kk] * p[j * w + kk];
                    }
                    1.0 - acc
                } else {
                    1.0
                };
                assert!(
                    (out[i * stride + col0 + j] - expect).abs() < 1e-10,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sq_exp_apply_matches_scalar_exp_reference() {
        // Whatever path the dispatch selects, the fused pass must agree with
        // the plain `sf2·exp(-d2/2)` loop to tight tolerance, pin the d2 = 0
        // diagonal at exactly sf2, and flush huge distances to zero.
        for n in [0, 1, 3, 4, 5, 8, 17, 33] {
            let sf2 = 1.7;
            let q_norm = 2.25;
            let x_norms: Vec<f64> = (0..n).map(|j| 0.3 + 0.11 * j as f64).collect();
            // Dot products chosen to span d2 from 0 to very large.
            let mut row: Vec<f64> = (0..n)
                .map(|j| 0.5 * (q_norm + x_norms[j]) - 0.05 * (j as f64 - 2.0).powi(3))
                .collect();
            if n > 2 {
                // Force an exact-zero distance (the Gram diagonal case)...
                row[2] = 0.5 * (q_norm + x_norms[2]);
            }
            if n > 3 {
                // ...and a guaranteed-underflow distance.
                row[n - 1] = -1500.0;
            }
            let reference: Vec<f64> = row
                .iter()
                .zip(x_norms.iter())
                .map(|(&v, &xn)| {
                    let d2 = (q_norm + xn - 2.0 * v).max(0.0);
                    sf2 * (-0.5 * d2).exp()
                })
                .collect();
            sq_exp_apply(&mut row, &x_norms, q_norm, sf2);
            for (j, (a, b)) in row.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13 * (1.0 + b.abs()),
                    "lane {j}: {a} vs {b}"
                );
            }
            if n > 2 {
                assert_eq!(row[2], sf2, "zero distance must give exactly sf2");
            }
            if n > 3 {
                assert_eq!(row[n - 1], 0.0, "underflow must flush to zero");
            }
        }
    }

    #[test]
    fn exp_poly_scalar_is_accurate_over_the_kernel_range() {
        for i in 0..2000 {
            let t = -0.4 * i as f64; // 0 down to -799.6
            let reference = t.exp();
            let got = exp_poly_scalar(t);
            if t < EXP_UNDERFLOW {
                assert_eq!(got, 0.0, "t = {t}");
            } else {
                assert!(
                    (got - reference).abs() <= 1e-14 * reference,
                    "t = {t}: {got} vs {reference}"
                );
            }
        }
        assert_eq!(exp_poly_scalar(0.0), 1.0);
        assert_eq!(exp_poly_scalar(-0.0), 1.0);
    }

    #[test]
    fn elementwise_helpers_match_scalar_reference() {
        for n in [0, 1, 3, 4, 9, 31] {
            let src = seq(n, 0.3);
            let mut dst = seq(n, 0.9);
            let reference: Vec<f64> = dst
                .iter()
                .zip(src.iter())
                .map(|(d, s)| d - 1.7 * s)
                .collect();
            sweep_axpy(1.7, &src, &mut dst);
            for (a, b) in dst.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-12);
            }

            let x = seq(n, 0.2);
            let y = seq(n, 0.4);
            let expect: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            assert!((fused_dot(&x, &y) - expect).abs() < 1e-10 * (1.0 + expect.abs()));

            let mut acc = seq(n, 1.1);
            let mut acc_ref = acc.clone();
            add_scaled_product(&mut acc, &x, &y, -0.6);
            for ((a, &xv), &yv) in acc_ref.iter_mut().zip(x.iter()).zip(y.iter()) {
                *a += -0.6 * xv * yv;
            }
            for (a, b) in acc.iter().zip(acc_ref.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// Deterministic operand values with IEEE special cases sprinkled in:
    /// `−0.0`, `±∞`, NaN, and tiny values whose products underflow to a
    /// signed zero.
    fn with_specials(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match (i * 7 + seed * 13) % 211 {
                3 => f64::NAN,
                17 => f64::INFINITY,
                29 => f64::NEG_INFINITY,
                r if r % 9 == 1 => -0.0,
                r if r % 13 == 2 => -1e-200,
                r if r % 13 == 5 => 1e-200,
                r => (r as f64 - 105.0) / 37.0,
            })
            .collect()
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {i}: {x:e} vs {y:e}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn has_avx512f() -> bool {
        let supported = crate::dispatch::avx512_supported();
        if !supported {
            eprintln!("note: CPU lacks avx512f; direct-driver test skipped");
        }
        supported
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn direct_driver_matches_packed_driver_bit_for_bit() {
        if !has_avx512f() {
            return;
        }
        let dims: Vec<usize> = (1..=17).chain([65, 100]).collect();
        for &k in &[1, 7, 10, 50, 255, 256] {
            for &m in &dims {
                for &n in &dims {
                    let a = with_specials(m * k, m + k);
                    let b = with_specials(n * k, n + 3 * k);
                    // A·B, A·Bᵀ and Aᵀ·B over the same buffers.
                    let orientations = [
                        (Op::rows(&a, k), Op::cols(&b, n), "A·B"),
                        (Op::rows(&a, k), Op::rows(&b, k), "A·Bᵀ"),
                        (Op::cols(&a, m), Op::cols(&b, n), "Aᵀ·B"),
                    ];
                    for (av, bv, what) in orientations {
                        let packed_b = PackedB::new(&bv, n, k);
                        let mut packed = vec![0.0; m * n];
                        gemm_packed(&av, &packed_b, n, 1, &mut packed);
                        // NaN-filled output: every element must be written.
                        let mut direct = vec![f64::NAN; m * n];
                        gemm_direct(&av, &packed_b, m, n, 3, &mut direct);
                        assert_same_bits(&direct, &packed, &format!("{what} {m}×{k}×{n}"));
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn direct_driver_turns_a_negative_zero_chain_into_positive_zero() {
        if !has_avx512f() {
            return;
        }
        // −1e-200 · 1e-200 underflows: the FMA chain from +0.0 ends at −0.0,
        // and both drivers must store +0.0.
        let (a, b) = ([-1e-200], [1e-200]);
        let packed_b = PackedB::new(&Op::cols(&b, 1), 1, 1);
        let mut packed = [f64::NAN];
        gemm_packed(&Op::rows(&a, 1), &packed_b, 1, 1, &mut packed);
        let mut direct = [f64::NAN];
        gemm_direct(&Op::rows(&a, 1), &packed_b, 1, 1, 1, &mut direct);
        assert_eq!(packed[0].to_bits(), 0.0_f64.to_bits());
        assert_eq!(direct[0].to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn gemm_rejects_an_operand_slice_too_short_for_its_view() {
        // A 2×3 row-major view needs 6 values; give it 5.
        let a = [1.0; 5];
        let b = [1.0; 6];
        let mut out = [0.0; 4];
        gemm(Op::rows(&a, 3), Op::cols(&b, 2), 2, 3, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn gemm_rejects_a_transposed_operand_slice_too_short_for_its_view() {
        // A 3×4 transposed view with stride 3 needs 12 values; give it 11.
        let a = [1.0; 11];
        let b = [1.0; 8];
        let mut out = [0.0; 6];
        gemm(Op::cols(&a, 3), Op::cols(&b, 2), 3, 4, 2, &mut out);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn adam_vector_path_matches_scalar_loop_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("note: CPU lacks avx2; Adam vector-path test skipped");
            return;
        }
        for &len in &[0, 1, 3, 4, 5, 8, 9, 31, 4734] {
            let mut p_vec = seq(len, 0.3);
            let mut p_ref = p_vec.clone();
            let (mut m_vec, mut v_vec) = (vec![0.0; len], vec![0.0; len]);
            let (mut m_ref, mut v_ref) = (vec![0.0; len], vec![0.0; len]);
            for t in 1..=20 {
                let mut grad = seq(len, 0.01 * t as f64);
                for (i, g) in grad.iter_mut().enumerate() {
                    *g = match (i + t) % 23 {
                        0 => f64::NAN,
                        5 => f64::INFINITY,
                        9 => f64::NEG_INFINITY,
                        11 => -0.0,
                        17 => 1e300, // overflows once scaled by 1e10 below
                        _ => *g,
                    };
                }
                let step = crate::AdamStep {
                    grad_scale: if t % 3 == 0 { 1e10 } else { 0.7 },
                    beta1: 0.9,
                    beta2: 0.999,
                    bias1: 1.0 - 0.9_f64.powi(t as i32),
                    bias2: 1.0 - 0.999_f64.powi(t as i32),
                    learning_rate: 0.01,
                    epsilon: 1e-8,
                };
                // SAFETY: AVX2 was detected above.
                unsafe { adam_update_avx2(&mut p_vec, &grad, &mut m_vec, &mut v_vec, &step) };
                adam_update_scalar(&mut p_ref, &grad, &mut m_ref, &mut v_ref, &step);
                assert_same_bits(&p_vec, &p_ref, &format!("params, len {len}, step {t}"));
                assert_same_bits(&m_vec, &m_ref, &format!("m, len {len}, step {t}"));
                assert_same_bits(&v_vec, &v_ref, &format!("v, len {len}, step {t}"));
            }
        }
    }
}
