//! Batched nearest-codebook-row kernels — the compute core of SOM/GHSOM
//! best-matching-unit search.
//!
//! The naive BMU loop evaluates `‖x − w‖²` row by row, re-reading the whole
//! codebook per sample through an enum-dispatched metric. The kernels here
//! restructure that search around the Gram identity
//!
//! ```text
//! ‖x − w‖² = ‖x‖² − 2·x·w + ‖w‖²
//! ```
//!
//! with the codebook stored **transposed** (feature-major). A
//! register-blocked microkernel ([`GROUP`] = 8 accumulators held in
//! locals) turns the accumulation into broadcast-multiply-add streams the
//! compiler vectorizes, and the unit-group-outer / sample-inner loop order
//! keeps each weight slab L1-resident across a whole sample block.
//! Codebook row norms are computed once per codebook version and reused
//! across every sample (see `som::Som`'s cache).
//!
//! On top of the exhaustive engines, [`gram_nearest_block_pruned`] serves
//! frozen (inference-only) codebooks from a **norm-sorted** packing:
//! triangle-inequality pruning in norm space skips most unit groups
//! outright while provably returning the exhaustive scan's exact result —
//! the serving plane's kernel.
//!
//! Numerical contract: for a given `(x, w)` pair the dot product and norms
//! are accumulated in ascending feature order, so the single-sample and
//! batched paths produce **bit-identical** distances — callers may mix them
//! freely. The Gram form does lose a few ULPs to cancellation versus the
//! subtract-square form for nearly-coincident points; tests compare against
//! the naive scan with a 1e-9 relative tolerance.

use crate::Matrix;

/// `‖w‖²` of every row.
///
/// Accumulated with `gram_norm_sq`, the exact operation sequence of the
/// kernel's dot products, so that `‖x‖² − 2·x·w + ‖w‖²` cancels to exactly
/// zero when `x` equals a codebook row.
pub fn row_norms_sq(w: &Matrix) -> Vec<f64> {
    w.iter_rows().map(gram_norm_sq).collect()
}

/// `‖w‖²/2` of every row — the precomputed half of the proxy ranking
/// `‖w‖²/2 − x·w` the kernels compare by. This is what callers should
/// cache per codebook version (halving is exact in binary floating
/// point, so no information is lost versus [`row_norms_sq`]).
pub fn half_row_norms_sq(w: &Matrix) -> Vec<f64> {
    w.iter_rows().map(|r| 0.5 * gram_norm_sq(r)).collect()
}

/// Squared norm with the same multiply-add sequence as [`dots8`]: for
/// `x == w` the three Gram terms are then bit-identical and the squared
/// distance is exactly zero, with or without FMA in the build.
#[inline]
fn gram_norm_sq(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in x {
        acc = fmadd(acc, v, v);
    }
    acc
}

/// The codebook packed into group-tiled layout for the microkernel:
/// units are grouped in slabs of [`GROUP`]; within group `g`, weight `j`
/// of group-member `k` (unit `g·GROUP + k`) lives at
/// `g·(dim·GROUP) + j·GROUP + k`. Each group's slab is contiguous
/// (`dim × GROUP` doubles, ~2.6 KB at dim 41), so the kernel streams
/// sequential cache lines — no power-of-two stride aliasing in L1. The
/// tail group is zero-padded; callers bound comparisons by the true unit
/// count.
pub fn pack_codebook(w: &Matrix) -> Vec<f64> {
    let (units, dim) = w.shape();
    let groups = units.div_ceil(GROUP);
    let mut wt = vec![0.0; groups * dim * GROUP];
    for (u, row) in w.iter_rows().enumerate() {
        let (g, k) = (u / GROUP, u % GROUP);
        for (j, &x) in row.iter().enumerate() {
            wt[g * (dim * GROUP) + j * GROUP + k] = x;
        }
    }
    wt
}

/// Index and squared distance of the best (and optionally runner-up) match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nearest {
    /// Index of the nearest codebook row (lowest index wins ties).
    pub unit: usize,
    /// Squared Euclidean distance to it (clamped at zero).
    pub d2: f64,
}

/// Best and second-best matches of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nearest2 {
    /// The best match.
    pub first: Nearest,
    /// The runner-up.
    pub second: Nearest,
}

/// Units per register-blocked microkernel call: 8 independent dot-product
/// accumulators live in locals, which the compiler keeps in one ZMM / two
/// YMM registers across the feature loop — the shape that turns the Gram
/// accumulation into broadcast-FMA streams with no loop-carried memory
/// dependency. The 8-unit weight group (`8 × dim` doubles, ~2.6 KB at
/// dim 41) stays L1-resident while a whole sample block streams past it.
///
/// Public because it defines the [`pack_codebook`] tile width consumers of
/// the packed layout (e.g. the compiled serving arena) must reproduce.
pub const GROUP: usize = 8;

/// Length in doubles of the [`pack_codebook`] arena for a `units × dim`
/// codebook (the tail unit group is zero-padded to a whole tile).
pub fn packed_len(units: usize, dim: usize) -> usize {
    units.div_ceil(GROUP) * GROUP * dim
}

/// Fused (when the build target has FMA, e.g. via the workspace's
/// `target-cpu=native`) or plain multiply-add. Both batched and
/// single-sample paths go through the same helper, so distances stay
/// bit-identical within one build whichever path computed them.
#[inline(always)]
fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Samples per microkernel call: four samples share each weight-slab load,
/// and 4 × 8 accumulators give the out-of-order core four independent FMA
/// chains per unit lane. (4 × 8 doubles is exactly the SSE register
/// budget, so baseline builds don't spill.)
const SAMPLE_BLOCK: usize = 4;

/// Dot products of one sample against unit group `g`:
/// `out[k] = x · w_{g·GROUP+k}`. Eight independent accumulators live in
/// locals (one ZMM / two YMM registers) across the feature loop; the
/// group slab of [`pack_codebook`] is streamed contiguously.
#[inline]
fn dots8(x: &[f64], wt: &[f64], dim: usize, g: usize) -> [f64; GROUP] {
    let slab = &wt[g * (dim * GROUP)..(g + 1) * (dim * GROUP)];
    let mut acc = [0.0f64; GROUP];
    for (seg, &xj) in slab.chunks_exact(GROUP).zip(x) {
        for k in 0..GROUP {
            acc[k] = fmadd(acc[k], xj, seg[k]);
        }
    }
    acc
}

/// [`dots8`] for four samples at once against the same unit group. Each
/// per-(sample, unit) accumulation is the identical operation sequence as
/// [`dots8`], so results are bit-equal to four separate calls.
#[inline]
#[allow(clippy::type_complexity)]
fn dots8_quad(
    x0: &[f64],
    x1: &[f64],
    x2: &[f64],
    x3: &[f64],
    wt: &[f64],
    dim: usize,
    g: usize,
) -> [[f64; GROUP]; SAMPLE_BLOCK] {
    let slab = &wt[g * (dim * GROUP)..(g + 1) * (dim * GROUP)];
    let (x0, x1, x2, x3) = (&x0[..dim], &x1[..dim], &x2[..dim], &x3[..dim]);
    let mut a0 = [0.0f64; GROUP];
    let mut a1 = [0.0f64; GROUP];
    let mut a2 = [0.0f64; GROUP];
    let mut a3 = [0.0f64; GROUP];
    for (j, seg) in slab.chunks_exact(GROUP).enumerate() {
        let (y0, y1, y2, y3) = (x0[j], x1[j], x2[j], x3[j]);
        for k in 0..GROUP {
            a0[k] = fmadd(a0[k], y0, seg[k]);
            a1[k] = fmadd(a1[k], y1, seg[k]);
            a2[k] = fmadd(a2[k], y2, seg[k]);
            a3[k] = fmadd(a3[k], y3, seg[k]);
        }
    }
    [a0, a1, a2, a3]
}

/// Samples per wide microkernel call: eight samples share each
/// weight-slab load and eight independent FMA chains per unit lane cover
/// the multiply-add latency×throughput product of AVX-512 cores. The
/// 8 × 8 accumulator tile is 8 ZMM registers — fine within AVX-512's 32,
/// spilly on 16-register baselines, which is why the wide kernels are
/// separate entry points rather than replacements for
/// [`gram_nearest_block`]. [`gram_nearest_block_pruned`] (the serving
/// kernel) blocks its evaluated groups at this width via `dots8_oct`.
const SAMPLE_BLOCK8: usize = 8;

/// [`dots8`] for eight samples at once against the same unit group. Each
/// per-(sample, unit) accumulation is the identical operation sequence as
/// [`dots8`], so results are bit-equal to eight separate calls.
///
/// Written with eight *named* accumulator locals (not an indexed 2-D
/// array): each `[f64; GROUP]` local is an independent SSA value the
/// compiler keeps in one vector register; runtime-indexed arrays get
/// spilled to the stack and the kernel degrades to scalar speed.
#[inline]
#[allow(clippy::too_many_arguments)]
fn dots8_oct(
    rows: &[f64],
    base: usize,
    wt: &[f64],
    dim: usize,
    g: usize,
) -> [[f64; GROUP]; SAMPLE_BLOCK8] {
    let slab = &wt[g * (dim * GROUP)..(g + 1) * (dim * GROUP)];
    let x = |q: usize| &rows[(base + q) * dim..(base + q + 1) * dim];
    let (x0, x1, x2, x3) = (x(0), x(1), x(2), x(3));
    let (x4, x5, x6, x7) = (x(4), x(5), x(6), x(7));
    let mut a0 = [0.0f64; GROUP];
    let mut a1 = [0.0f64; GROUP];
    let mut a2 = [0.0f64; GROUP];
    let mut a3 = [0.0f64; GROUP];
    let mut a4 = [0.0f64; GROUP];
    let mut a5 = [0.0f64; GROUP];
    let mut a6 = [0.0f64; GROUP];
    let mut a7 = [0.0f64; GROUP];
    for (j, seg) in slab.chunks_exact(GROUP).enumerate() {
        let (y0, y1, y2, y3) = (x0[j], x1[j], x2[j], x3[j]);
        let (y4, y5, y6, y7) = (x4[j], x5[j], x6[j], x7[j]);
        for k in 0..GROUP {
            a0[k] = fmadd(a0[k], y0, seg[k]);
            a1[k] = fmadd(a1[k], y1, seg[k]);
            a2[k] = fmadd(a2[k], y2, seg[k]);
            a3[k] = fmadd(a3[k], y3, seg[k]);
            a4[k] = fmadd(a4[k], y4, seg[k]);
            a5[k] = fmadd(a5[k], y5, seg[k]);
            a6[k] = fmadd(a6[k], y6, seg[k]);
            a7[k] = fmadd(a7[k], y7, seg[k]);
        }
    }
    [a0, a1, a2, a3, a4, a5, a6, a7]
}

/// Nearest codebook row of `x` under squared Euclidean distance.
///
/// `wt` is the [`pack_codebook`] layout and `wn_half` the
/// [`half_row_norms_sq`] of the same codebook version. Ties resolve to
/// the lowest unit index. Allocation-free (this is the per-record hot
/// path of hierarchy projection) and bit-identical to the corresponding
/// entry of [`gram_nearest_block`].
///
/// # Panics
///
/// Debug-asserts shape agreement; garbage in, garbage out in release.
pub fn gram_nearest(x: &[f64], wt: &[f64], wn_half: &[f64]) -> Nearest {
    let dim = x.len();
    let units = wn_half.len();
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    let mut best = Nearest {
        unit: 0,
        d2: f64::INFINITY,
    };
    for g in 0..units.div_ceil(GROUP) {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        let dots = dots8(x, wt, dim, g);
        for (k, (&dot, &wh)) in dots.iter().zip(&wn_half[g0..g0 + gl]).enumerate() {
            let proxy = wh - dot;
            if proxy < best.d2 {
                best = Nearest {
                    unit: g0 + k,
                    d2: proxy,
                };
            }
        }
    }
    best.d2 = (gram_norm_sq(x) + 2.0 * best.d2).max(0.0);
    best
}

/// Best *and* second-best codebook rows of `x` (for topographic error).
///
/// Tie behaviour matches a sequential two-best scan in ascending unit
/// order with strict `<` comparisons.
///
/// # Panics
///
/// Debug-asserts shape agreement, and that the codebook has ≥ 2 rows.
pub fn gram_nearest2(x: &[f64], wt: &[f64], wn_half: &[f64]) -> Nearest2 {
    let mut out = Vec::with_capacity(1);
    gram_nearest2_block(x, x.len(), wt, wn_half, &mut out);
    out[0]
}

/// [`gram_nearest`] over a contiguous block of samples (row-major, width
/// `dim`), appending one [`Nearest`] per row to `out`.
///
/// Loop order is unit-group outer / sample inner: each 8-unit slab of the
/// transposed codebook is loaded into L1 once and reused by every sample
/// in the block, so the search is compute-bound (broadcast-FMA) instead
/// of codebook-bandwidth-bound.
pub fn gram_nearest_block(
    rows: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    out: &mut Vec<Nearest>,
) {
    debug_assert_eq!(rows.len() % dim, 0);
    let ns = rows.len() / dim;
    let units = wn_half.len();
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    let start = out.len();
    out.extend((0..ns).map(|_| Nearest {
        unit: 0,
        d2: f64::INFINITY,
    }));
    let xn: Vec<f64> = rows.chunks_exact(dim).map(gram_norm_sq).collect();
    // Candidates are ranked by the proxy `‖w‖²/2 − x·w`; for a fixed
    // sample, `d² = ‖x‖² + 2·proxy` is strictly increasing in it, so the
    // argmin (and tie order) is preserved while the per-unit compare costs
    // one subtraction instead of sub + mul + add. `out[..].d2` holds the
    // proxy during the scan and is mapped to the distance at the end.
    let quads = ns / SAMPLE_BLOCK * SAMPLE_BLOCK;
    for g in 0..units.div_ceil(GROUP) {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        let wnh = &wn_half[g0..g0 + gl];
        let mut update = |s: usize, dots: &[f64; GROUP]| {
            let best = &mut out[start + s];
            // Locals keep the running best in registers across the group
            // instead of a load/store-forwarding chain through `out`.
            let (mut bu, mut bd) = (best.unit, best.d2);
            for (k, (&dot, &wh)) in dots.iter().zip(wnh).enumerate() {
                let proxy = wh - dot;
                if proxy < bd {
                    bu = g0 + k;
                    bd = proxy;
                }
            }
            *best = Nearest { unit: bu, d2: bd };
        };
        let mut s = 0;
        while s < quads {
            let base = s * dim;
            let quad = dots8_quad(
                &rows[base..base + dim],
                &rows[base + dim..base + 2 * dim],
                &rows[base + 2 * dim..base + 3 * dim],
                &rows[base + 3 * dim..base + 4 * dim],
                wt,
                dim,
                g,
            );
            for (q, dots) in quad.iter().enumerate() {
                update(s + q, dots);
            }
            s += SAMPLE_BLOCK;
        }
        for s in quads..ns {
            let dots = dots8(&rows[s * dim..(s + 1) * dim], wt, dim, g);
            update(s, &dots);
        }
    }
    for (n, &x2) in out[start..].iter_mut().zip(&xn) {
        n.d2 = (x2 + 2.0 * n.d2).max(0.0);
    }
}

/// [`gram_nearest_block`] with the wide 8-sample microkernel
/// (`SAMPLE_BLOCK8`) and a **branchless lane-wise argmin** — the
/// exhaustive wide-blocking variant, kept as the reference/benchmark
/// sibling of the norm-pruned serving kernel
/// ([`gram_nearest_block_pruned`], which reuses the same 8-sample
/// microkernel for the groups it does evaluate).
///
/// Bit-identical to [`gram_nearest_block`] (and therefore to
/// [`gram_nearest`]) on every input: per-(sample, unit) dot products use
/// the same ascending-feature accumulation, and the winner is the same
/// lowest-index unit a strict-`<` ascending scan picks (see the lane
/// reduction below). Only the blocking and the reduction *shape* differ.
///
/// Why not the scan's compare loop: with a trained codebook the candidate
/// stream is full of near-ties, so the scan's `proxy < best` branch
/// mispredicts constantly (measured ~2× slower on KDD features than on
/// uniform noise). Here every sample keeps an 8-lane running minimum —
/// `lane_min[k]` is the best proxy unit-lane `k` has seen over all unit
/// groups and `lane_g[k]` the group that produced it — updated with pure
/// selects the compiler turns into vector blends: no data-dependent
/// branch anywhere in the hot loop. One horizontal resolve per sample at
/// the end recovers the exact scan winner: the global minimum value, then
/// the lowest unit index among lanes achieving it (a lane's stored group
/// is the *first* group reaching that lane's minimum, so candidates are
/// exactly the first-occurrence units).
pub fn gram_nearest_block8(
    rows: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    out: &mut Vec<Nearest>,
) {
    debug_assert_eq!(rows.len() % dim, 0);
    let ns = rows.len() / dim;
    let units = wn_half.len();
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    let xn: Vec<f64> = rows.chunks_exact(dim).map(gram_norm_sq).collect();
    // Per-sample lane state (~96 B/sample): callers feed chunks of a few
    // hundred samples, so this stays cache-resident across the group loop.
    let mut lane_min = vec![[f64::INFINITY; GROUP]; ns];
    let mut lane_g = vec![[0u32; GROUP]; ns];
    let octs = ns / SAMPLE_BLOCK8 * SAMPLE_BLOCK8;
    for g in 0..units.div_ceil(GROUP) {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        // Tail lanes get +∞ half-norms: their proxies can never win.
        let mut wnh = [f64::INFINITY; GROUP];
        wnh[..gl].copy_from_slice(&wn_half[g0..g0 + gl]);
        let gb = g as u32;
        let mut update = |s: usize, dots: &[f64; GROUP]| {
            let m = &mut lane_min[s];
            let mg = &mut lane_g[s];
            for k in 0..GROUP {
                let proxy = wnh[k] - dots[k];
                let better = proxy < m[k];
                m[k] = if better { proxy } else { m[k] };
                mg[k] = if better { gb } else { mg[k] };
            }
        };
        let mut s = 0;
        while s < octs {
            let oct = dots8_oct(rows, s, wt, dim, g);
            for (q, dots) in oct.iter().enumerate() {
                update(s + q, dots);
            }
            s += SAMPLE_BLOCK8;
        }
        for s in octs..ns {
            let dots = dots8(&rows[s * dim..(s + 1) * dim], wt, dim, g);
            update(s, &dots);
        }
    }
    // Horizontal resolve: the minimum proxy, then the lowest unit index
    // among lanes achieving it — exactly the ascending strict-`<` scan's
    // winner (`==` also equates ±0.0 the way the scan's `<` does, and the
    // finalized distance bits agree for either zero).
    out.extend((0..ns).map(|s| {
        let m = &lane_min[s];
        let mg = &lane_g[s];
        let mut bd = f64::INFINITY;
        for &v in m {
            if v < bd {
                bd = v;
            }
        }
        let mut bu = usize::MAX;
        for k in 0..GROUP {
            if m[k] == bd {
                bu = bu.min(mg[k] as usize * GROUP + k);
            }
        }
        // All lanes at +∞ only happens when every proxy was NaN; fall back
        // to unit 0 like the scan does.
        if bu == usize::MAX {
            bu = 0;
        }
        Nearest {
            unit: bu,
            d2: (xn[s] + 2.0 * bd).max(0.0),
        }
    }));
}

/// Norm-pruned nearest-row search over a **norm-sorted** packed codebook —
/// the serving plane's kernel.
///
/// `wt`/`wn_half` must hold the codebook in ascending-norm order (sorted
/// by `(wn_half, original index)`); `perm[packed] = original unit index`.
/// Every [`Nearest`] reports the **original** unit index, and the result
/// is exactly what the exhaustive ascending scan over the original order
/// produces — same winner (ties resolve to the lowest original index) and
/// bit-identical distance.
///
/// The speedup comes from the triangle inequality in norm space:
/// `‖x−w‖ ≥ |‖x‖−‖w‖|`, so once a candidate with squared distance `b` is
/// in hand, any unit whose norm differs from `‖x‖` by more than `√b` can
/// be skipped without evaluating its dot product. Each sample starts at
/// the group whose norm band brackets `‖x‖` (binary search), then expands
/// outward group by group in both directions, stopping a direction when
/// its band bound exceeds the current best **plus a conservative rounding
/// slack**. The slack covers the worst-case error of the Gram-form
/// arithmetic (`O(dim · ε)` relative to `(‖x‖+‖w‖)²`), so a skipped unit
/// provably loses the *computed* comparison too — pruning can never
/// change the result, only avoid work. On trained codebooks (norms spread
/// by the data) this evaluates ~⅓ of the units; on degenerate
/// equal-norm codebooks it gracefully evaluates everything.
pub fn gram_nearest_block_pruned(
    rows: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    perm: &[u32],
    out: &mut Vec<Nearest>,
) {
    debug_assert_eq!(rows.len() % dim, 0);
    let units = wn_half.len();
    debug_assert_eq!(perm.len(), units);
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    debug_assert!(wn_half.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
    let groups = units.div_ceil(GROUP);
    // Norm band of each unit group (ascending, contiguous).
    let lo: Vec<f64> = (0..groups)
        .map(|g| (2.0 * wn_half[g * GROUP]).sqrt())
        .collect();
    let hi: Vec<f64> = (0..groups)
        .map(|g| (2.0 * wn_half[(units - 1).min(g * GROUP + GROUP - 1)]).sqrt())
        .collect();
    let ns = rows.len() / dim;
    if ns == 0 {
        return;
    }
    // Tiny maps (the bulk of a deep hierarchy's nodes): pruning cannot
    // skip anything worth the bookkeeping — evaluate exhaustively with
    // the lexicographic update and none of the sort/band machinery.
    // (Measured: from ~3 unit groups up, the shared-slab block walk below
    // wins even when it prunes nothing.)
    if groups <= 2 {
        gram_nearest_exhaustive_block(rows, dim, wt, wn_half, perm, out);
        return;
    }
    // Sub-block calls (deep-hierarchy frontier fragments are mostly a
    // handful of samples): the scalar walk, no allocations at all.
    if ns < SAMPLE_BLOCK8 {
        for x in rows.chunks_exact(dim) {
            let xn = gram_norm_sq(x);
            out.push(pruned_nearest_one(x, xn, wt, wn_half, perm, dim));
        }
        return;
    }
    let xn_all: Vec<f64> = rows.chunks_exact(dim).map(gram_norm_sq).collect();
    // Samples are processed in ascending-‖x‖ order so that each 8-sample
    // block shares a norm neighborhood: the outward group walk (and its
    // slab loads) is then amortized across the whole block instead of
    // repeated per sample. Processing order does not affect results —
    // every sample's best is resolved independently.
    let mut order: Vec<u32> = (0..ns as u32).collect();
    order.sort_by(|&a, &b| {
        xn_all[a as usize]
            .partial_cmp(&xn_all[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let start = out.len();
    out.extend((0..ns).map(|_| Nearest {
        unit: 0,
        d2: f64::INFINITY,
    }));
    // Full 8-sample blocks go through the shared-slab oct walk; leftover
    // samples (and any call smaller than a block) take the scalar walk
    // below — small frontier groups must not pay for padded lanes.
    let full = ns / SAMPLE_BLOCK8 * SAMPLE_BLOCK8;
    let mut scratch = vec![0.0; SAMPLE_BLOCK8 * dim];
    for block in order[..full].chunks_exact(SAMPLE_BLOCK8) {
        for (q, &s) in block.iter().enumerate() {
            let s = s as usize;
            scratch[q * dim..(q + 1) * dim].copy_from_slice(&rows[s * dim..(s + 1) * dim]);
        }
        let xns: [f64; SAMPLE_BLOCK8] = std::array::from_fn(|q| xn_all[block[q] as usize]);
        let xnorms: [f64; SAMPLE_BLOCK8] = std::array::from_fn(|q| xns[q].max(0.0).sqrt());
        // Running bests in (proxy, original-index) lexicographic order —
        // exactly the ascending-scan semantics under permutation.
        let mut best_p = [f64::INFINITY; SAMPLE_BLOCK8];
        let mut best_u = [0u32; SAMPLE_BLOCK8];
        let eval =
            |g: usize, best_p: &mut [f64; SAMPLE_BLOCK8], best_u: &mut [u32; SAMPLE_BLOCK8]| {
                let g0 = g * GROUP;
                let gl = GROUP.min(units - g0);
                let dots = dots8_oct(&scratch, 0, wt, dim, g);
                for q in 0..SAMPLE_BLOCK8 {
                    for k in 0..gl {
                        let proxy = wn_half[g0 + k] - dots[q][k];
                        let u = perm[g0 + k];
                        if proxy < best_p[q] || (proxy == best_p[q] && u < best_u[q]) {
                            best_p[q] = proxy;
                            best_u[q] = u;
                        }
                    }
                }
            };
        // Seed at the group whose norm band brackets the block median ‖x‖.
        let mid = xns[SAMPLE_BLOCK8 / 2];
        let mid_norm = mid.max(0.0).sqrt();
        let seed = (wn_half.partition_point(|&h| h < 0.5 * mid) / GROUP).min(groups - 1);
        eval(seed, &mut best_p, &mut best_u);
        // Expand outward. A direction stays alive while *any* sample still
        // admits it. The per-sample admission bound is the one that is
        // monotone over everything left in that direction: walking down,
        // every remaining unit has norm ≤ hi[g], so `(‖x‖ − hi[g])⁺` lower-
        // bounds its distance; walking up, every remaining unit has norm
        // ≥ lo[g], so `(lo[g] − ‖x‖)⁺` does. Once the squared bound
        // exceeds a sample's current best by more than the rounding slack,
        // no remaining unit that way can hold its winner even under
        // worst-case Gram rounding — and the bound only grows, so a dead
        // direction stays dead.
        let admit = |edge: f64, going_up: bool, best_p: &[f64; SAMPLE_BLOCK8]| {
            (0..SAMPLE_BLOCK8).any(|q| {
                // Clamped like the final distance: a numerically negative
                // exact-hit best must not make the test over-eager.
                let best_d2 = (xns[q] + 2.0 * best_p[q]).max(0.0);
                let margin = xnorms[q] + edge;
                let slack = 8.0 * dim as f64 * f64::EPSILON * margin * margin;
                let gap = if going_up {
                    (edge - xnorms[q]).max(0.0)
                } else {
                    (xnorms[q] - edge).max(0.0)
                };
                gap * gap <= best_d2 + slack
            })
        };
        let mut down = seed.checked_sub(1);
        let mut up = (seed + 1 < groups).then_some(seed + 1);
        while down.is_some() || up.is_some() {
            // Walk the band nearer the block median first: it is the
            // likelier improver (the choice affects only evaluation order,
            // never the result).
            let take_down = match (down, up) {
                (Some(d), Some(u)) => mid_norm - hi[d] <= lo[u] - mid_norm,
                (Some(_), None) => true,
                _ => false,
            };
            if take_down {
                let g = down.expect("checked"); // LINT-ALLOW(no-panic): take_down is true only in match arms where down is Some
                if admit(hi[g], false, &best_p) {
                    eval(g, &mut best_p, &mut best_u);
                    down = g.checked_sub(1);
                } else {
                    down = None;
                }
            } else if let Some(g) = up {
                if admit(lo[g], true, &best_p) {
                    eval(g, &mut best_p, &mut best_u);
                    up = (g + 1 < groups).then_some(g + 1);
                } else {
                    up = None;
                }
            } else {
                break;
            }
        }
        for (q, &s) in block.iter().enumerate() {
            out[start + s as usize] = Nearest {
                unit: best_u[q] as usize,
                d2: (xns[q] + 2.0 * best_p[q]).max(0.0),
            };
        }
    }
    // Scalar walk for the tail: identical search, one sample per pass.
    for &s in &order[full..] {
        let s = s as usize;
        let x = &rows[s * dim..(s + 1) * dim];
        out[start + s] = pruned_nearest_one(x, xn_all[s], wt, wn_half, perm, dim);
    }
}

/// One-sample norm-pruned search — the allocation-free scalar core of
/// [`gram_nearest_block_pruned`], used for sub-block sample counts and
/// block tails. Band edges are recomputed per visited group (two square
/// roots) instead of materialized, so a call touching a handful of groups
/// costs no heap traffic at all.
fn pruned_nearest_one(
    x: &[f64],
    xn: f64,
    wt: &[f64],
    wn_half: &[f64],
    perm: &[u32],
    dim: usize,
) -> Nearest {
    let units = wn_half.len();
    let groups = units.div_ceil(GROUP);
    let lo = |g: usize| (2.0 * wn_half[g * GROUP]).sqrt();
    let hi = |g: usize| (2.0 * wn_half[(units - 1).min(g * GROUP + GROUP - 1)]).sqrt();
    let xnorm = xn.max(0.0).sqrt();
    let mut best_p = f64::INFINITY;
    let mut best_u = 0u32;
    let eval = |g: usize, best_p: &mut f64, best_u: &mut u32| {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        let dots = dots8(x, wt, dim, g);
        for k in 0..gl {
            let proxy = wn_half[g0 + k] - dots[k];
            let u = perm[g0 + k];
            if proxy < *best_p || (proxy == *best_p && u < *best_u) {
                *best_p = proxy;
                *best_u = u;
            }
        }
    };
    let seed = (wn_half.partition_point(|&h| h < 0.5 * xn) / GROUP).min(groups - 1);
    eval(seed, &mut best_p, &mut best_u);
    let admit = |edge: f64, going_up: bool, best_p: f64| {
        let best_d2 = (xn + 2.0 * best_p).max(0.0);
        let margin = xnorm + edge;
        let slack = 8.0 * dim as f64 * f64::EPSILON * margin * margin;
        let gap = if going_up {
            (edge - xnorm).max(0.0)
        } else {
            (xnorm - edge).max(0.0)
        };
        gap * gap <= best_d2 + slack
    };
    let mut down = seed.checked_sub(1);
    let mut up = (seed + 1 < groups).then_some(seed + 1);
    while down.is_some() || up.is_some() {
        let take_down = match (down, up) {
            (Some(d), Some(u)) => xnorm - hi(d) <= lo(u) - xnorm,
            (Some(_), None) => true,
            _ => false,
        };
        if take_down {
            let g = down.expect("checked"); // LINT-ALLOW(no-panic): take_down is true only in match arms where down is Some
            if admit(hi(g), false, best_p) {
                eval(g, &mut best_p, &mut best_u);
                down = g.checked_sub(1);
            } else {
                down = None;
            }
        } else if let Some(g) = up {
            if admit(lo(g), true, best_p) {
                eval(g, &mut best_p, &mut best_u);
                up = (g + 1 < groups).then_some(g + 1);
            } else {
                up = None;
            }
        } else {
            break;
        }
    }
    Nearest {
        unit: best_u as usize,
        d2: (xn + 2.0 * best_p).max(0.0),
    }
}

/// Exhaustive nearest-row search of **one sample** over one packed slab —
/// the per-sample tail of [`gram_nearest_exhaustive_block`], the tiny-map
/// path of [`gram_nearest_block_pruned`].
///
/// Same contracts as the pruned search: `wt` in [`pack_codebook`] layout,
/// `wn_half`/`perm` parallel to its packed positions, winner reported by
/// `(proxy, original index)` lexicographic order with the bit-identical
/// clamped Gram distance. Because every unit is evaluated, `wn_half` need
/// **not** be sorted here; padding lanes can be disabled by giving them a
/// `+∞` half-norm and a `u32::MAX` permutation entry (they then lose every
/// comparison, including the all-NaN fallback to unit 0 — identical to the
/// unpadded scan).
pub fn gram_nearest_exhaustive(
    x: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    perm: &[u32],
) -> Nearest {
    debug_assert_eq!(x.len(), dim);
    let units = wn_half.len();
    debug_assert_eq!(perm.len(), units);
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    let xn = gram_norm_sq(x);
    let mut best_p = f64::INFINITY;
    let mut best_u = 0u32;
    for g in 0..units.div_ceil(GROUP) {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        let dots = dots8(x, wt, dim, g);
        for k in 0..gl {
            let proxy = wn_half[g0 + k] - dots[k];
            let u = perm[g0 + k];
            if proxy < best_p || (proxy == best_p && u < best_u) {
                best_p = proxy;
                best_u = u;
            }
        }
    }
    Nearest {
        unit: best_u as usize,
        d2: (xn + 2.0 * best_p).max(0.0),
    }
}

/// [`gram_nearest_exhaustive`] over a contiguous block of samples,
/// appending one [`Nearest`] per row to `out` — same slab contracts,
/// same winner and bit-identical distances, but full 8-sample blocks go
/// through the register-blocked `dots8_oct` tile so each weight-group
/// load is amortized across eight samples. With only one or two unit
/// groups per slab there is nothing to prune, so this is also the
/// tiny-map fast path of [`gram_nearest_block_pruned`]. Short blocks
/// fall back to the one-sample scan; the sequence of `(proxy, original
/// index)` candidate updates per sample is identical either way, so the
/// processing route never changes a bit of the result.
pub fn gram_nearest_exhaustive_block(
    rows: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    perm: &[u32],
    out: &mut Vec<Nearest>,
) {
    debug_assert_eq!(rows.len() % dim, 0);
    let units = wn_half.len();
    debug_assert_eq!(perm.len(), units);
    debug_assert_eq!(wt.len(), units.div_ceil(GROUP) * GROUP * dim);
    let ns = rows.len() / dim;
    let groups = units.div_ceil(GROUP);
    let full = ns / SAMPLE_BLOCK8 * SAMPLE_BLOCK8;
    let mut base = 0usize;
    while base < full {
        let mut best_p = [f64::INFINITY; SAMPLE_BLOCK8];
        let mut best_u = [0u32; SAMPLE_BLOCK8];
        for g in 0..groups {
            let g0 = g * GROUP;
            let gl = GROUP.min(units - g0);
            let oct = dots8_oct(rows, base, wt, dim, g);
            for q in 0..SAMPLE_BLOCK8 {
                for k in 0..gl {
                    let proxy = wn_half[g0 + k] - oct[q][k];
                    let u = perm[g0 + k];
                    if proxy < best_p[q] || (proxy == best_p[q] && u < best_u[q]) {
                        best_p[q] = proxy;
                        best_u[q] = u;
                    }
                }
            }
        }
        for q in 0..SAMPLE_BLOCK8 {
            let xn = gram_norm_sq(&rows[(base + q) * dim..(base + q + 1) * dim]);
            out.push(Nearest {
                unit: best_u[q] as usize,
                d2: (xn + 2.0 * best_p[q]).max(0.0),
            });
        }
        base += SAMPLE_BLOCK8;
    }
    for s in full..ns {
        out.push(gram_nearest_exhaustive(
            &rows[s * dim..(s + 1) * dim],
            dim,
            wt,
            wn_half,
            perm,
        ));
    }
}

/// [`gram_nearest2`] over a contiguous block of samples.
pub fn gram_nearest2_block(
    rows: &[f64],
    dim: usize,
    wt: &[f64],
    wn_half: &[f64],
    out: &mut Vec<Nearest2>,
) {
    debug_assert_eq!(rows.len() % dim, 0);
    let ns = rows.len() / dim;
    let units = wn_half.len();
    debug_assert!(units >= 2, "gram_nearest2 requires at least 2 units");
    let start = out.len();
    let inf = Nearest {
        unit: 0,
        d2: f64::INFINITY,
    };
    out.extend((0..ns).map(|_| Nearest2 {
        first: inf,
        second: inf,
    }));
    let xn: Vec<f64> = rows.chunks_exact(dim).map(gram_norm_sq).collect();
    // Same proxy ranking as `gram_nearest_block`.
    let update = |two: &mut Nearest2, unit: usize, proxy: f64| {
        if proxy < two.first.d2 {
            two.second = two.first;
            two.first = Nearest { unit, d2: proxy };
        } else if proxy < two.second.d2 {
            two.second = Nearest { unit, d2: proxy };
        }
    };
    for g in 0..units.div_ceil(GROUP) {
        let g0 = g * GROUP;
        let gl = GROUP.min(units - g0);
        for (s, x) in rows.chunks_exact(dim).enumerate() {
            let dots = dots8(x, wt, dim, g);
            let two = &mut out[start + s];
            for (k, &dot) in dots.iter().enumerate().take(gl) {
                update(two, g0 + k, wn_half[g0 + k] - dot);
            }
        }
    }
    for (n, &x2) in out[start..].iter_mut().zip(&xn) {
        n.first.d2 = (x2 + 2.0 * n.first.d2).max(0.0);
        n.second.d2 = (x2 + 2.0 * n.second.d2).max(0.0);
    }
}

/// Nearest row under an arbitrary metric kernel, with the enum dispatch
/// hoisted out of the loop. Used by the non-Euclidean batched paths.
pub fn kernel_nearest<F: Fn(&[f64], &[f64]) -> f64>(x: &[f64], w: &Matrix, kernel: &F) -> Nearest {
    let mut best = Nearest {
        unit: 0,
        d2: f64::INFINITY,
    };
    for (u, row) in w.iter_rows().enumerate() {
        let d = kernel(x, row);
        if d < best.d2 {
            best = Nearest { unit: u, d2: d };
        }
    }
    best
}

/// Two best rows under an arbitrary metric kernel.
pub fn kernel_nearest2<F: Fn(&[f64], &[f64]) -> f64>(
    x: &[f64],
    w: &Matrix,
    kernel: &F,
) -> Nearest2 {
    let mut first = Nearest {
        unit: 0,
        d2: f64::INFINITY,
    };
    let mut second = first;
    for (u, row) in w.iter_rows().enumerate() {
        let d = kernel(x, row);
        if d < first.d2 {
            second = first;
            first = Nearest { unit: u, d2: d };
        } else if d < second.d2 {
            second = Nearest { unit: u, d2: d };
        }
    }
    Nearest2 { first, second }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    fn codebook() -> Matrix {
        Matrix::from_rows(vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.5],
            vec![0.2, 0.9, 0.1],
            vec![1.0, 1.0, 1.0],
            vec![0.2, 0.9, 0.1], // duplicate of unit 2 — tie case
        ])
        .unwrap()
    }

    #[test]
    fn gram_matches_naive_scan() {
        let w = codebook();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        for x in [
            [0.1, 0.1, 0.0],
            [0.9, 0.1, 0.45],
            [0.2, 0.9, 0.1],
            [10.0, -3.0, 2.0],
        ] {
            let got = gram_nearest(&x, &wt, &wn);
            let mut best = (0usize, f64::INFINITY);
            for (u, row) in w.iter_rows().enumerate() {
                let d = distance::sq_euclidean(&x, row);
                if d < best.1 {
                    best = (u, d);
                }
            }
            assert_eq!(got.unit, best.0);
            assert!((got.d2 - best.1).abs() <= 1e-9 * best.1.max(1.0));
        }
    }

    #[test]
    fn duplicate_rows_tie_to_lowest_index() {
        let w = codebook();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        // Exactly on the duplicated weight: units 2 and 4 tie at zero.
        let got = gram_nearest(&[0.2, 0.9, 0.1], &wt, &wn);
        assert_eq!(got.unit, 2);
        assert_eq!(got.d2, 0.0);
        let two = gram_nearest2(&[0.2, 0.9, 0.1], &wt, &wn);
        assert_eq!(two.first.unit, 2);
        assert_eq!(two.second.unit, 4);
    }

    #[test]
    fn block_matches_single() {
        let w = codebook();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        let data = Matrix::from_rows(vec![
            vec![0.1, 0.2, 0.3],
            vec![0.9, 0.9, 0.9],
            vec![-1.0, 0.5, 0.0],
        ])
        .unwrap();
        let mut out = Vec::new();
        gram_nearest_block(data.as_slice(), 3, &wt, &wn, &mut out);
        for (x, got) in data.iter_rows().zip(&out) {
            let single = gram_nearest(x, &wt, &wn);
            assert_eq!(*got, single);
        }
    }

    #[test]
    fn block8_is_bit_identical_to_block() {
        let w = codebook();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        // 19 samples: two full 8-blocks plus a 3-sample tail, crossing the
        // duplicate-row tie case.
        let rows: Vec<Vec<f64>> = (0..19)
            .map(|i| match i % 4 {
                0 => vec![0.2, 0.9, 0.1], // exact duplicate-unit tie
                1 => vec![i as f64 * 0.1, -0.3, 0.7],
                2 => vec![1.0, 1.0, 1.0],
                _ => vec![-2.0, 0.5, i as f64],
            })
            .collect();
        let data = Matrix::from_rows(rows).unwrap();
        let mut narrow = Vec::new();
        let mut wide = Vec::new();
        gram_nearest_block(data.as_slice(), 3, &wt, &wn, &mut narrow);
        gram_nearest_block8(data.as_slice(), 3, &wt, &wn, &mut wide);
        assert_eq!(narrow.len(), wide.len());
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.d2.to_bits(), b.d2.to_bits());
        }
    }

    /// Sorts a codebook by `(half-norm, original index)` and returns the
    /// pruned-kernel inputs — mirrors what the serving compiler does.
    fn norm_sorted(w: &Matrix) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let wn = half_row_norms_sq(w);
        let mut order: Vec<usize> = (0..w.rows()).collect();
        order.sort_by(|&a, &b| wn[a].partial_cmp(&wn[b]).unwrap().then(a.cmp(&b)));
        let sorted = Matrix::from_rows(order.iter().map(|&u| w.row(u).to_vec()).collect()).unwrap();
        (
            pack_codebook(&sorted),
            half_row_norms_sq(&sorted),
            order.iter().map(|&u| u as u32).collect(),
        )
    }

    #[test]
    fn pruned_matches_exhaustive_scan_bitwise() {
        // A codebook with duplicate rows (exact ties) and spread norms.
        let mut rows = vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.5],
            vec![0.2, 0.9, 0.1],
            vec![1.0, 1.0, 1.0],
            vec![0.2, 0.9, 0.1], // duplicate of unit 2
        ];
        for i in 0..40 {
            let t = i as f64 * 0.17;
            rows.push(vec![t, 1.3 - t * 0.4, (i % 5) as f64 * 0.3]);
        }
        let w = Matrix::from_rows(rows).unwrap();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        let (swt, swn, perm) = norm_sorted(&w);
        let mut samples = vec![
            vec![0.2, 0.9, 0.1], // exactly on the duplicated unit: tie at 0
            vec![0.0, 0.0, 0.0],
            vec![10.0, -3.0, 2.0],
        ];
        for i in 0..64 {
            let t = i as f64 * 0.31;
            samples.push(vec![t.sin() * 2.0, t.cos() * 1.5, t * 0.1 - 1.0]);
        }
        let data = Matrix::from_rows(samples).unwrap();
        let mut exhaustive = Vec::new();
        let mut pruned = Vec::new();
        gram_nearest_block(data.as_slice(), 3, &wt, &wn, &mut exhaustive);
        gram_nearest_block_pruned(data.as_slice(), 3, &swt, &swn, &perm, &mut pruned);
        for (i, (a, b)) in exhaustive.iter().zip(&pruned).enumerate() {
            assert_eq!(a.unit, b.unit, "sample {i} winner");
            assert_eq!(a.d2.to_bits(), b.d2.to_bits(), "sample {i} distance");
        }
    }

    #[test]
    fn exhaustive_single_matches_pruned_bitwise_with_and_without_padding() {
        // Enough rows to force >2 groups so the pruned walk actually
        // prunes rather than taking its own exhaustive tiny-map path.
        // 27 units → 4 groups with a ragged tail, exercising both the
        // in-group tail lanes and the appended all-padding group below.
        let mut rows = vec![vec![0.2, 0.9, 0.1], vec![0.2, 0.9, 0.1]]; // exact tie
        for i in 0..25 {
            let t = i as f64 * 0.23;
            rows.push(vec![t.sin(), 2.0 - t * 0.3, (i % 7) as f64 * 0.4]);
        }
        let w = Matrix::from_rows(rows).unwrap();
        let (swt, swn, perm) = norm_sorted(&w);
        let units = w.rows();
        // Padded copy: one extra all-zero group with +∞ half-norms and
        // u32::MAX perm entries, as a strided multi-map slab would use.
        let stride = units.div_ceil(GROUP) * GROUP + GROUP;
        let mut pwt = swt.clone();
        pwt.resize(stride * 3, 0.0);
        let mut pwn = swn.clone();
        pwn.resize(stride, f64::INFINITY);
        let mut pperm = perm.clone();
        pperm.resize(stride, u32::MAX);
        for i in 0..50 {
            let t = i as f64 * 0.37;
            let x = [t.cos() * 2.0, t * 0.2 - 1.0, (i % 9) as f64 * 0.5];
            let mut pruned = Vec::new();
            gram_nearest_block_pruned(&x, 3, &swt, &swn, &perm, &mut pruned);
            let exact = gram_nearest_exhaustive(&x, 3, &swt, &swn, &perm);
            let padded = gram_nearest_exhaustive(&x, 3, &pwt, &pwn, &pperm);
            assert_eq!(exact.unit, pruned[0].unit, "sample {i} winner");
            assert_eq!(exact.d2.to_bits(), pruned[0].d2.to_bits(), "sample {i} d2");
            assert_eq!(padded.unit, exact.unit, "sample {i} padded winner");
            assert_eq!(
                padded.d2.to_bits(),
                exact.d2.to_bits(),
                "sample {i} padded d2"
            );
        }
    }

    #[test]
    fn pruned_breaks_equal_distance_ties_by_original_index() {
        // Two units at different norms but exactly equal distance from x:
        // w0 = 3, w1 = 1 (1-D), x = 2 → d² = 1 for both. The ascending
        // scan picks unit 0; norm order visits unit 1 first, so only the
        // lexicographic (proxy, original-index) update gets this right.
        let w = Matrix::from_rows(vec![vec![3.0], vec![1.0]]).unwrap();
        let (swt, swn, perm) = norm_sorted(&w);
        assert_eq!(perm, vec![1, 0], "sanity: norm order flips the pair");
        let mut out = Vec::new();
        gram_nearest_block_pruned(&[2.0], 1, &swt, &swn, &perm, &mut out);
        assert_eq!(out[0].unit, 0);
        assert_eq!(out[0].d2, 1.0);
    }

    #[test]
    fn pruned_handles_equal_norm_codebooks() {
        // All rows on the unit circle: norm pruning can never skip, the
        // search must degrade to the exhaustive result.
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.7).cos(), (t * 0.7).sin()]
            })
            .collect();
        let w = Matrix::from_rows(rows).unwrap();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        let (swt, swn, perm) = norm_sorted(&w);
        let data = Matrix::from_rows(
            (0..30)
                .map(|i| vec![(i as f64 * 0.3).cos() * 1.2, i as f64 * 0.1 - 1.5])
                .collect(),
        )
        .unwrap();
        let mut exhaustive = Vec::new();
        let mut pruned = Vec::new();
        gram_nearest_block(data.as_slice(), 2, &wt, &wn, &mut exhaustive);
        gram_nearest_block_pruned(data.as_slice(), 2, &swt, &swn, &perm, &mut pruned);
        for (a, b) in exhaustive.iter().zip(&pruned) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.d2.to_bits(), b.d2.to_bits());
        }
    }

    #[test]
    fn packed_len_matches_pack_codebook() {
        let w = codebook();
        assert_eq!(pack_codebook(&w).len(), packed_len(w.rows(), w.cols()));
    }

    #[test]
    fn nearest2_orders_by_distance() {
        let w = codebook();
        let wt = pack_codebook(&w);
        let wn = half_row_norms_sq(&w);
        let two = gram_nearest2(&[0.6, 0.4, 0.3], &wt, &wn);
        assert!(two.first.d2 <= two.second.d2);
        assert_ne!(two.first.unit, two.second.unit);
    }

    #[test]
    fn kernel_scan_matches_metric() {
        let w = codebook();
        let x = [0.3, 0.3, 0.3];
        let got = kernel_nearest(&x, &w, &distance::manhattan);
        let mut best = (0usize, f64::INFINITY);
        for (u, row) in w.iter_rows().enumerate() {
            let d = distance::manhattan(&x, row);
            if d < best.1 {
                best = (u, d);
            }
        }
        assert_eq!(got.unit, best.0);
        assert_eq!(got.d2, best.1);
    }
}
