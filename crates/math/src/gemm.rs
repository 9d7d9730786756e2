//! Cache-blocked matrix–matrix micro-kernels for FFC inference and
//! training.
//!
//! Inference (`pidpiper-ml`'s streaming engine) stores its weights
//! k-major, so `x` is the weight block, with the layer's output units as
//! the columns, and `a` holds the lanes as rows: one row for a single
//! session, `m` rows when `m` sessions or windows sharing the weights
//! step together. The columns vectorise across output units, and each
//! weight element is loaded once per step for all `m` rows.
//!
//! Training (`LstmRegressor::train`) runs the other orientation: the
//! weights row-major as `a`, and the samples of one optimizer step as the
//! lanes, the columns of a *panel* (`x[j * x_stride + lane]`: feature `j`
//! of lane `lane`), so each weight element is loaded once per [`LANES`]
//! samples. It accumulates its weight gradients with the seeded flavour
//! below.
//!
//! # Bit-identity contract
//!
//! These kernels are *op-order preserving*: for every output element
//! `(r, c)` the products `a[r][j] * x[j][c]` are summed left to right
//! (ascending `j`) into one scalar accumulator, and the bias (if any) is
//! added exactly once after the sweep (the seeded flavour instead starts
//! the accumulator at `out`) — the same shape as
//! `Param::matvec_into` (`acc = Σ w·x; out[r] += acc`) and the fused LSTM
//! step (`z = (bias + w·x) + u·h`, realised here as [`gemm_bias`] for the
//! `w·x` pass followed by [`gemm_acc`] for the `u·h` pass: the two
//! accumulators of the reference reduction). The `k` dimension is **never
//! tiled or split** — that would reassociate the sum and break `to_bits`
//! equality with the per-session path. Columns are blocked [`LANES`] at a
//! time and rows [`ROW_BLOCK`] at a time purely for instruction-level
//! parallelism: every `(r, c)` accumulator is still its own serial chain
//! over `j`, so blocking changes no f64 operation — it only gives the CPU
//! `ROW_BLOCK` independent chains to overlap the FP-add latency with (a
//! single chain caps the whole kernel at one vector-add per ~4 cycles).
//! Remainder rows (`m % ROW_BLOCK`) run one chain. The remainder columns
//! (`n % LANES`) run as one masked tile of the same `LANES`-wide shape,
//! so a ragged width (a 7-sample training group, the FFC's 4-wide head)
//! runs the vector code of a full one. Each real
//! lane of the masked tile keeps its own ascending-`j` chain; its lanes
//! past `n` compute on whatever the panel holds in those columns (zeros
//! past the panel's end) and are never stored. Lanes never mix, so
//! masked columns cannot reach a real lane, and the tile width changes
//! no element's operations.
//!
//! # NaN bits
//!
//! IEEE arithmetic fixes *whether* an element is NaN, not *which* NaN:
//! an operation on two NaNs returns one of them, chosen by operand
//! order, and an invalid operation (`inf · 0`, `inf − inf`) returns the
//! hardware's default NaN. The compiler may order operands differently
//! from one loop to the next, so the same column could get a different
//! NaN sign in a full tile, in the masked tile or in the `m = 1` row. Every
//! flavour therefore stores [`f64::NAN`] wherever its result is NaN
//! (`float::canonical_nan`): one compare and select per stored
//! element, none per multiply–add. Non-NaN bits are untouched.
//!
//! # Store flavours
//!
//! Each kernel is one of three monomorphizations of the same body, which
//! differ only in how an element's accumulator starts and is stored:
//!
//! - [`gemm_bias`]: the chain starts at zero and the element becomes
//!   `bias[r] + acc` — a dense layer, or the first pass of an LSTM gate;
//! - [`gemm_acc`]: the chain starts at zero and the element becomes
//!   `out + acc` — the second accumulator of the LSTM reduction, or a
//!   matrix–vector product into a zeroed panel;
//! - [`gemm_seeded`]: the chain starts *at* `out` and the element becomes
//!   the chain — a gradient buffer accumulated term by term, resumable
//!   across calls: two seeded calls over `k` split at any point give the
//!   bits of one call over all of `k`. For finite inputs it also equals a
//!   term-by-term loop that skips zero `a` entries, provided the seed is
//!   not −0.0 (which no sum started at +0.0 can be).
//!
//! The seeded flavour is a `const` generic of the body, resolved at
//! compile time: `gemm_bias` and `gemm_acc` carry no runtime test of it in
//! their loops. [`Kernels`]
//! bundles the three, so that code whose bits rest on them can be run
//! against the deliberately wrong kernels of the `mutants` module (test
//! builds only).
//!
//! Rust does not contract `a * b + c` into a fused multiply-add without an
//! explicit `mul_add`, so the kernels round after every multiply and every
//! add, exactly like the scalar path. That also makes the ISA dispatch
//! below safe: AVX2/AVX-512 lanes perform the same individually-rounded
//! IEEE multiply and add as the scalar baseline, so every path returns the
//! same bits — a property `generic_and_dispatched_paths_agree_bitwise`
//! pins on whatever hardware the tests run on.
//!
//! # Runtime ISA dispatch
//!
//! The portable body is compiled three times on `x86_64` — baseline,
//! `avx2`, `avx512f` — and the public entry points select the widest
//! variant the running CPU supports (`is_x86_feature_detected!`). The
//! crate keeps its safety story trivial: the `unsafe` blocks below are
//! *only* the feature-gated calls, each guarded by the corresponding
//! runtime check, and the kernel bodies themselves are ordinary safe Rust.
//!
//! All kernels take explicit row strides (`lda`, `x_stride`, `out_stride`)
//! so a panel allocated for a capacity-`B` batch can process any
//! `n <= B` active columns in place; columns `n..B` are simply never read
//! or written (masked lanes).

use crate::float::canonical_nan;

/// Column-block width of the micro-kernels.
///
/// Eight f64 lanes span one 512-bit or two 256-bit vector registers; the
/// accumulator tile fits in registers on every target we care about, and
/// the last `n % LANES` columns run as one masked tile of this width.
pub const LANES: usize = 8;

/// Row-block height: independent accumulator chains per column block.
///
/// Four rows × [`LANES`] lanes is 32 accumulators — four 512-bit (or
/// eight 256-bit) registers, enough in-flight FP-add chains to hide the
/// ~4-cycle add latency without spilling on AVX2's 16-register file.
pub const ROW_BLOCK: usize = 4;

/// A [`LANES`]-wide view starting at `base`, as a fixed-size array
/// reference. The array type carries the length into the loop bodies, so
/// LLVM sees constant-trip-count lane loops (one bounds check here, none
/// inside) and vectorizes them; a plain sub-slice leaves a length the
/// optimizer must re-prove at every use.
#[inline(always)]
fn lanes<T>(s: &[T], base: usize) -> &[T; LANES] {
    s[base..base + LANES].try_into().expect("LANES-wide view")
}

/// Mutable counterpart of [`lanes`].
#[inline(always)]
fn lanes_mut<T>(s: &mut [T], base: usize) -> &mut [T; LANES] {
    (&mut s[base..base + LANES]).try_into().expect("LANES-wide view")
}

/// Stores one tile row of accumulators into `o` (a whole [`LANES`] view,
/// or the real lanes of the masked tile) in the kernel's store flavour,
/// with every NaN replaced by [`f64::NAN`] (see the module docs).
#[inline(always)]
fn store<const SEEDED: bool>(o: &mut [f64], acc: &[f64; LANES], bias: Option<f64>) {
    let (width, acc) = (o.len(), &acc[..o.len()]);
    if SEEDED {
        for l in 0..width {
            o[l] = canonical_nan(acc[l]);
        }
        return;
    }
    match bias {
        Some(b) => {
            for l in 0..width {
                o[l] = canonical_nan(b + acc[l]);
            }
        }
        None => {
            for l in 0..width {
                o[l] = canonical_nan(o[l] + acc[l]);
            }
        }
    }
}

/// One [`LANES`]-wide column tile from column `cc`: 4-row blocks, then
/// single rows. A `MASKED` tile holds the last `width < LANES` columns
/// and stores only those. Its lanes past `width` compute on whatever the
/// panel holds there, or on zeros past the end of `x`, and are never
/// stored; lanes never mix, so nothing reaches a real lane. Every real
/// lane keeps its own ascending-`j` chain, so the tile width changes no
/// element's operations.
#[allow(clippy::too_many_arguments)] // the kernel's shape plus the tile's columns
#[inline(always)]
fn column_tile<const SEEDED: bool, const MASKED: bool>(
    a: &[f64],
    lda: usize,
    m: usize,
    k: usize,
    bias: Option<&[f64]>,
    x: &[f64],
    x_stride: usize,
    out: &mut [f64],
    out_stride: usize,
    cc: usize,
    width: usize,
) {
    // A masked tile's last rows of `x` may have no whole LANES-wide view
    // (the panel's final row can end right after its active columns);
    // they are copied once, zero-padded. There are at most LANES - 1 of
    // them: row `j` lacks a view only if (k-1-j)·x_stride < LANES - width.
    let whole = if MASKED {
        x.len()
            .checked_sub(cc + LANES)
            .map_or(0, |room| k.min(room / x_stride + 1))
    } else {
        k
    };
    debug_assert!(k - whole < LANES, "{} rows without a whole view", k - whole);
    let mut tail = [[0.0; LANES]; LANES - 1];
    for (j, t) in (whole..k).zip(&mut tail) {
        let base = j * x_stride + cc;
        t[..width].copy_from_slice(&x[base..base + width]);
    }
    let x_row = |j: usize| {
        if MASKED && j >= whole {
            tail[j - whole]
        } else {
            *lanes(x, j * x_stride + cc)
        }
    };
    let seed = |out: &[f64], r: usize| {
        let mut acc = [0.0; LANES];
        if SEEDED {
            let base = r * out_stride + cc;
            acc[..width].copy_from_slice(&out[base..base + width]);
        }
        acc
    };
    let row_bias = |r: usize| bias.map(|b| b[r]);
    let mut r = 0;
    while r + ROW_BLOCK <= m {
        let (b0, b1) = (r * lda, (r + 1) * lda);
        let (b2, b3) = ((r + 2) * lda, (r + 3) * lda);
        let r0 = &a[b0..b0 + k];
        let r1 = &a[b1..b1 + k];
        let r2 = &a[b2..b2 + k];
        let r3 = &a[b3..b3 + k];
        let mut acc0 = seed(out, r);
        let mut acc1 = seed(out, r + 1);
        let mut acc2 = seed(out, r + 2);
        let mut acc3 = seed(out, r + 3);
        for j in 0..k {
            let xr = x_row(j);
            let (w0, w1, w2, w3) = (r0[j], r1[j], r2[j], r3[j]);
            for l in 0..LANES {
                acc0[l] += w0 * xr[l];
                acc1[l] += w1 * xr[l];
                acc2[l] += w2 * xr[l];
                acc3[l] += w3 * xr[l];
            }
        }
        for (i, acc) in [&acc0, &acc1, &acc2, &acc3].into_iter().enumerate() {
            let o = (r + i) * out_stride + cc;
            store::<SEEDED>(&mut out[o..o + width], acc, row_bias(r + i));
        }
        r += ROW_BLOCK;
    }
    while r < m {
        let row = &a[r * lda..r * lda + k];
        let mut acc = seed(out, r);
        for (j, &w) in row.iter().enumerate() {
            let xr = x_row(j);
            for (a_l, &x_l) in acc.iter_mut().zip(&xr) {
                *a_l += w * x_l;
            }
        }
        let o = r * out_stride + cc;
        store::<SEEDED>(&mut out[o..o + width], &acc, row_bias(r));
        r += 1;
    }
}

macro_rules! gemm_kernels {
    (
        $impl_name:ident, $avx2_name:ident, $avx512_name:ident, $dispatch_name:ident,
        $bias_name:ident, $acc_name:ident, $seeded_name:ident
    ) => {
        /// Portable kernel body (monomorphic, `#[inline(always)]` so the
        /// feature-gated wrappers recompile it under their ISA). `SEEDED`
        /// and `bias` select the store flavour: seeded chains start from
        /// `out` and store the chain (`bias` is ignored); otherwise `Some`
        /// writes `bias[r] + acc` and `None` performs `out += acc` — both
        /// a single rounding step, as the reference reductions require.
        /// `SEEDED` is a const generic, so no flavour tests it at run
        /// time.
        #[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
        #[inline(always)]
        fn $impl_name<const SEEDED: bool>(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            bias: Option<&[f64]>,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            let row_bias = |r: usize| bias.map(|b| b[r]);
            let mut cc = 0;
            // Quad-width column tiles first: 4 rows x 32 lanes keeps 16
            // accumulator vectors in flight (fits AVX-512's 32-register
            // file), amortizes the four weight broadcasts over 128 MACs
            // per `j`, and sweeps the weight rows a quarter as often per
            // active column.
            while cc + 4 * LANES <= n {
                let mut r = 0;
                while r + ROW_BLOCK <= m {
                    let (b0, b1) = (r * lda, (r + 1) * lda);
                    let (b2, b3) = ((r + 2) * lda, (r + 3) * lda);
                    let r0 = &a[b0..b0 + k];
                    let r1 = &a[b1..b1 + k];
                    let r2 = &a[b2..b2 + k];
                    let r3 = &a[b3..b3 + k];
                    let mut acc = [[0.0; LANES]; 16];
                    if SEEDED {
                        for q in 0..4 {
                            for i in 0..ROW_BLOCK {
                                acc[4 * q + i] = *lanes(out, (r + i) * out_stride + cc + q * LANES);
                            }
                        }
                    }
                    for j in 0..k {
                        let base = j * x_stride + cc;
                        let (w0, w1, w2, w3) = (r0[j], r1[j], r2[j], r3[j]);
                        for q in 0..4 {
                            let xq = lanes(x, base + q * LANES);
                            for l in 0..LANES {
                                acc[4 * q][l] += w0 * xq[l];
                                acc[4 * q + 1][l] += w1 * xq[l];
                                acc[4 * q + 2][l] += w2 * xq[l];
                                acc[4 * q + 3][l] += w3 * xq[l];
                            }
                        }
                    }
                    for q in 0..4 {
                        for i in 0..ROW_BLOCK {
                            let o = lanes_mut(out, (r + i) * out_stride + cc + q * LANES);
                            store::<SEEDED>(o, &acc[4 * q + i], row_bias(r + i));
                        }
                    }
                    r += ROW_BLOCK;
                }
                while r < m {
                    let row = &a[r * lda..r * lda + k];
                    let mut acc = [[0.0; LANES]; 4];
                    if SEEDED {
                        for (q, av) in acc.iter_mut().enumerate() {
                            *av = *lanes(out, r * out_stride + cc + q * LANES);
                        }
                    }
                    for (j, &w) in row.iter().enumerate() {
                        let base = j * x_stride + cc;
                        for (q, av) in acc.iter_mut().enumerate() {
                            let xq = lanes(x, base + q * LANES);
                            for l in 0..LANES {
                                av[l] += w * xq[l];
                            }
                        }
                    }
                    for (q, av) in acc.iter().enumerate() {
                        let o = lanes_mut(out, r * out_stride + cc + q * LANES);
                        store::<SEEDED>(o, av, row_bias(r));
                    }
                    r += 1;
                }
                cc += 4 * LANES;
            }
            // Single-width column tiles, then the last `n % LANES` columns
            // as one masked tile of the same shape.
            while cc + LANES <= n {
                column_tile::<SEEDED, false>(
                    a, lda, m, k, bias, x, x_stride, out, out_stride, cc, LANES,
                );
                cc += LANES;
            }
            if cc < n {
                let width = n - cc;
                column_tile::<SEEDED, true>(
                    a, lda, m, k, bias, x, x_stride, out, out_stride, cc, width,
                );
            }
        }

        /// The portable body recompiled with AVX2 enabled (same IEEE ops,
        /// wider registers).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        fn $avx2_name<const SEEDED: bool>(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            bias: Option<&[f64]>,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            $impl_name::<SEEDED>(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
        }

        /// The portable body recompiled with AVX-512F enabled.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        fn $avx512_name<const SEEDED: bool>(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            bias: Option<&[f64]>,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            $impl_name::<SEEDED>(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
        }

        /// Selects the widest ISA variant the running CPU supports.
        #[allow(clippy::too_many_arguments)]
        fn $dispatch_name<const SEEDED: bool>(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            bias: Option<&[f64]>,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the avx512f wrapper only requires the
                    // AVX-512F target feature, which the runtime check
                    // just confirmed on this CPU.
                    return unsafe {
                        $avx512_name::<SEEDED>(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
                    };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the avx2 wrapper only requires the AVX2
                    // target feature, which the runtime check just
                    // confirmed on this CPU.
                    return unsafe {
                        $avx2_name::<SEEDED>(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
                    };
                }
            }
            $impl_name::<SEEDED>(a, lda, m, k, bias, x, x_stride, out, out_stride, n)
        }

        #[doc = concat!(
            "Panel product with bias preload: for every ",
            "`r < m`, `c < n` sets `out[r * out_stride + c] = bias[r] + ",
            "Σ_j a[r * lda + j] * x[j * x_stride + c]` (ascending `j`, one ",
            "accumulator per element — see the module docs for the ",
            "bit-identity argument)."
        )]
        ///
        /// # Panics
        ///
        /// Panics if any slice is too short for the requested shape or if
        /// `n` exceeds `x_stride` / `out_stride`.
        #[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
        pub fn $bias_name(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            bias: &[f64],
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            check_shapes(a.len(), lda, m, k, x.len(), x_stride, out.len(), out_stride, n);
            assert!(bias.len() >= m, "bias too short: {} < {m}", bias.len());
            $dispatch_name::<false>(a, lda, m, k, Some(bias), x, x_stride, out, out_stride, n)
        }

        #[doc = concat!(
            "Accumulating panel product: for every ",
            "`r < m`, `c < n` performs `out[r * out_stride + c] += ",
            "Σ_j a[r * lda + j] * x[j * x_stride + c]` (ascending `j`, one ",
            "accumulator per element, added to `out` in a single `+=` — ",
            "the second accumulator of the fused-LSTM reduction)."
        )]
        ///
        /// # Panics
        ///
        /// Panics if any slice is too short for the requested shape or if
        /// `n` exceeds `x_stride` / `out_stride`.
        #[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
        pub fn $acc_name(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            check_shapes(a.len(), lda, m, k, x.len(), x_stride, out.len(), out_stride, n);
            $dispatch_name::<false>(a, lda, m, k, None, x, x_stride, out, out_stride, n)
        }

        #[doc = concat!(
            "Seeded panel product: for every `r < m`, ",
            "`c < n` starts one accumulator at `out[r * out_stride + c]`, ",
            "adds `a[r * lda + j] * x[j * x_stride + c]` to it for ascending ",
            "`j`, and stores the chain. Each element therefore sees exactly ",
            "the roundings of `for j { out += a * x }` run in place — the ",
            "order of a gradient buffer accumulated term by term."
        )]
        ///
        /// Unlike [`gemm_acc`], which sums the products from zero and adds
        /// that sum to `out` once, nothing here is reassociated against
        /// the seed. A term-by-term reference loop that skips terms whose
        /// `a` is ±0.0 gives the same bits only if every `x` is finite (so
        /// each skipped product is ±0.0) and the seed is not −0.0 — see
        /// the module docs.
        ///
        /// # Panics
        ///
        /// Panics if any slice is too short for the requested shape or if
        /// `n` exceeds `x_stride` / `out_stride`.
        #[allow(clippy::too_many_arguments)] // a GEMM is its shape; a config struct would just rename the arguments
        pub fn $seeded_name(
            a: &[f64],
            lda: usize,
            m: usize,
            k: usize,
            x: &[f64],
            x_stride: usize,
            out: &mut [f64],
            out_stride: usize,
            n: usize,
        ) {
            check_shapes(a.len(), lda, m, k, x.len(), x_stride, out.len(), out_stride, n);
            $dispatch_name::<true>(a, lda, m, k, None, x, x_stride, out, out_stride, n)
        }
    };
}

gemm_kernels!(
    gemm_impl_f64, gemm_avx2_f64, gemm_avx512_f64, gemm_dispatch_f64,
    gemm_bias, gemm_acc, gemm_seeded
);

/// Signature of [`gemm_bias`].
pub type BiasKernel =
    fn(&[f64], usize, usize, usize, &[f64], &[f64], usize, &mut [f64], usize, usize);

/// Signature of [`gemm_acc`] and [`gemm_seeded`].
pub type AccKernel = fn(&[f64], usize, usize, usize, &[f64], usize, &mut [f64], usize, usize);

/// The three store flavours as one value. Code whose bit-identity rests
/// on the kernels' op order takes a `&Kernels` and runs with
/// [`KERNELS`], so its tests can run it against kernels with a known
/// op-order defect and confirm that the defect shows.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// `out = bias + Σ a·x` ([`gemm_bias`]).
    pub bias: BiasKernel,
    /// `out += Σ a·x` ([`gemm_acc`]).
    pub acc: AccKernel,
    /// `out` seeds the `Σ a·x` chain ([`gemm_seeded`]).
    pub seeded: AccKernel,
}

/// The kernels of this module.
pub const KERNELS: Kernels = Kernels {
    bias: gemm_bias,
    acc: gemm_acc,
    seeded: gemm_seeded,
};

/// Shared bounds checks: `a` must hold `m` rows of `k` at stride `lda`,
/// `x` must hold `k` panel rows at `x_stride`, `out` must hold `m` panel
/// rows at `out_stride`, and `n` active columns must fit both strides.
/// The final row of each panel may be truncated after its `n` active
/// columns, so column-offset sub-panel views (`&panel[off..]`) are
/// valid inputs as long as the active width still fits.
#[allow(clippy::too_many_arguments)] // mirrors the kernel signatures it validates
fn check_shapes(
    a_len: usize,
    lda: usize,
    m: usize,
    k: usize,
    x_len: usize,
    x_stride: usize,
    out_len: usize,
    out_stride: usize,
    n: usize,
) {
    assert!(lda >= k, "row stride lda={lda} shorter than k={k}");
    assert!(n <= x_stride, "n={n} exceeds x_stride={x_stride}");
    assert!(n <= out_stride, "n={n} exceeds out_stride={out_stride}");
    if m > 0 && k > 0 {
        assert!(
            a_len >= (m - 1) * lda + k,
            "a too short: {a_len} < {}",
            (m - 1) * lda + k
        );
    }
    if k > 0 && n > 0 {
        assert!(
            x_len >= (k - 1) * x_stride + n,
            "x too short: {x_len} < {}",
            (k - 1) * x_stride + n
        );
    }
    if m > 0 && n > 0 {
        assert!(
            out_len >= (m - 1) * out_stride + n,
            "out too short: {out_len} < {}",
            (m - 1) * out_stride + n
        );
    }
}

/// Kernels with one deliberate op-order defect each, for the guard tests.
///
/// Every mutant computes the same real-number product as the kernels of
/// this module and agrees with them to a few ulps, so only a `to_bits`
/// comparison on inputs that make the defect visible can tell them apart.
/// The tests of this module and the training tests of `pidpiper-ml`
/// (which enables the `mutants` feature for its own tests only) assert
/// that their bit-identity checks reject every mutant: a check weakened
/// until it passes a mutant fails the build instead of passing silently.
#[cfg(any(test, feature = "mutants"))]
pub mod mutants {
    use super::{AccKernel, BiasKernel, Kernels};

    /// One op-order defect.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mutant {
        /// The row's two accumulators swap roles: the product chain
        /// starts from the preload (the bias, or `out`) instead of
        /// starting from zero and having the preload added once. Exactly
        /// the real kernels while every bias and every `out` is zero.
        SwappedAccumulators,
        /// `k` split in two halves summed in separate accumulators, then
        /// combined.
        SplitK,
        /// Every multiply–add fused with `mul_add` (one rounding, not two).
        MulAdd,
        /// The seeded flavour built the [`super::gemm_acc`] way: the
        /// products summed from zero and added to `out` once.
        SeedFromZero,
    }

    impl Mutant {
        /// Every mutant.
        pub const ALL: [Mutant; 4] = [
            Mutant::SwappedAccumulators,
            Mutant::SplitK,
            Mutant::MulAdd,
            Mutant::SeedFromZero,
        ];

        /// The mutant as a kernel table.
        pub fn kernels(self) -> Kernels {
            fn table<const M: u8>() -> Kernels {
                let bias: BiasKernel = |a, lda, m, k, b, x, xs, out, os, n| {
                    reduce::<M>(a, lda, m, k, Store::Bias(b), x, xs, out, os, n)
                };
                let acc: AccKernel = |a, lda, m, k, x, xs, out, os, n| {
                    reduce::<M>(a, lda, m, k, Store::Acc, x, xs, out, os, n)
                };
                let seeded: AccKernel = |a, lda, m, k, x, xs, out, os, n| {
                    reduce::<M>(a, lda, m, k, Store::Seeded, x, xs, out, os, n)
                };
                Kernels { bias, acc, seeded }
            }
            match self {
                Mutant::SwappedAccumulators => table::<SWAPPED>(),
                Mutant::SplitK => table::<SPLIT_K>(),
                Mutant::MulAdd => table::<MUL_ADD>(),
                Mutant::SeedFromZero => table::<SEED_FROM_ZERO>(),
            }
        }
    }

    const SWAPPED: u8 = 0;
    const SPLIT_K: u8 = 1;
    const MUL_ADD: u8 = 2;
    const SEED_FROM_ZERO: u8 = 3;

    #[derive(Clone, Copy)]
    enum Store<'a> {
        Bias(&'a [f64]),
        Acc,
        Seeded,
    }

    /// The kernels' scalar reduction with mutant `M`'s defect.
    #[allow(clippy::too_many_arguments)]
    fn reduce<const M: u8>(
        a: &[f64],
        lda: usize,
        m: usize,
        k: usize,
        store: Store<'_>,
        x: &[f64],
        x_stride: usize,
        out: &mut [f64],
        out_stride: usize,
        n: usize,
    ) {
        for r in 0..m {
            for c in 0..n {
                let slot = r * out_stride + c;
                let preload = match store {
                    Store::Bias(b) => b[r],
                    Store::Acc | Store::Seeded => out[slot],
                };
                let chained = match store {
                    Store::Seeded => M != SEED_FROM_ZERO,
                    Store::Bias(_) | Store::Acc => M == SWAPPED,
                };
                let mut acc = if chained { preload } else { 0.0 };
                let mut upper = 0.0;
                for j in 0..k {
                    let (w, v) = (a[r * lda + j], x[j * x_stride + c]);
                    if M == MUL_ADD {
                        acc = w.mul_add(v, acc);
                    } else if M == SPLIT_K && 2 * j >= k {
                        upper += w * v;
                    } else {
                        acc += w * v;
                    }
                }
                if M == SPLIT_K {
                    acc += upper;
                }
                out[slot] = if chained { acc } else { preload + acc };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mutants::Mutant;
    use super::*;

    /// The scalar reference: `Param::matvec_into`'s op order per column.
    fn matvec_ref(a: &[f64], lda: usize, m: usize, k: usize, x_col: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|r| {
                let mut acc = 0.0;
                for (j, xv) in x_col.iter().enumerate().take(k) {
                    acc += a[r * lda + j] * xv;
                }
                acc
            })
            .collect()
    }

    /// Values in [-2, 2): nonzero in practice, so no bias, seed or
    /// product hides an op-order defect by being zero.
    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn same_bits(got: f64, want: f64, at: &str) -> Result<(), String> {
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("{at}: {got:e} vs {want:e}"))
        }
    }

    /// `bias` against the per-column reference over lane-multiple,
    /// remainder and singleton widths and row counts straddling the
    /// `ROW_BLOCK` tiles; masked lanes beyond `n` stay untouched.
    fn check_bias(kn: &Kernels) -> Result<(), String> {
        for &n in &[1usize, 7, 8, 9, 24, 61] {
            for &m in &[1usize, 3, 4, 5, 8, 11] {
                let (k, lda) = (11usize, 13usize); // lda > k: fused-row sub-view
                let stride = n + 3; // panel wider than the active width
                let a = fill(1, m * lda);
                let bias = fill(2, m);
                let x = fill(3, k * stride);
                let mut out = vec![f64::NAN; m * stride];
                (kn.bias)(&a, lda, m, k, &bias, &x, stride, &mut out, stride, n);
                for c in 0..n {
                    let col: Vec<f64> = (0..k).map(|j| x[j * stride + c]).collect();
                    let want = matvec_ref(&a, lda, m, k, &col);
                    for r in 0..m {
                        let at = format!("bias n={n} m={m} r={r} c={c}");
                        same_bits(out[r * stride + c], bias[r] + want[r], &at)?;
                    }
                }
                for r in 0..m {
                    for c in n..stride {
                        if !out[r * stride + c].is_nan() {
                            return Err(format!("lane {c} written at n={n}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `acc` adds one ascending-`j` sum to a nonzero `out`.
    fn check_acc(kn: &Kernels) -> Result<(), String> {
        let (m, k, n) = (6usize, 9usize, 17usize);
        let a = fill(4, m * k);
        let x = fill(5, k * n);
        let base = fill(6, m * n);
        let mut out = base.clone();
        (kn.acc)(&a, k, m, k, &x, n, &mut out, n, n);
        for c in 0..n {
            let col: Vec<f64> = (0..k).map(|j| x[j * n + c]).collect();
            let want = matvec_ref(&a, k, m, k, &col);
            for r in 0..m {
                same_bits(
                    out[r * n + c],
                    base[r * n + c] + want[r],
                    &format!("acc r={r} c={c}"),
                )?;
            }
        }
        Ok(())
    }

    /// `bias` then `acc` reproduce the fused LSTM reduction
    /// `(bias + w·x) + u·h`, two accumulators per element.
    fn check_two_pass(kn: &Kernels) -> Result<(), String> {
        let (m, kw, ku, n) = (8usize, 6usize, 8usize, 10usize);
        let lda = kw + ku; // fused rows [w_row | u_row]
        let rows = fill(7, m * lda);
        let bias = fill(8, m);
        let xp = fill(9, kw * n);
        let hp = fill(10, ku * n);
        let mut out = vec![0.0; m * n];
        (kn.bias)(&rows, lda, m, kw, &bias, &xp, n, &mut out, n, n);
        (kn.acc)(&rows[kw..], lda, m, ku, &hp, n, &mut out, n, n);
        for c in 0..n {
            for r in 0..m {
                let row = &rows[r * lda..(r + 1) * lda];
                let (wx, uh) = row.split_at(kw);
                let mut acc = 0.0;
                for (j, w) in wx.iter().enumerate() {
                    acc += w * xp[j * n + c];
                }
                let mut z = bias[r] + acc;
                let mut acc = 0.0;
                for (j, w) in uh.iter().enumerate() {
                    acc += w * hp[j * n + c];
                }
                z += acc;
                same_bits(out[r * n + c], z, &format!("two-pass r={r} c={c}"))?;
            }
        }
        Ok(())
    }

    /// `seeded` equals the in-place loop `for j { out += a·x }` from
    /// nonzero seeds, across quad tiles, single tiles and remainders.
    fn check_seeded(kn: &Kernels) -> Result<(), String> {
        for &(m, k, n) in &[
            (96usize, 160usize, 24usize),
            (5, 13, 41),
            (4, 3, 8),
            (1, 7, 3),
        ] {
            let a = fill(11, m * k);
            let x = fill(12, k * n);
            let seed = fill(13, m * n);
            let mut out = seed.clone();
            (kn.seeded)(&a, k, m, k, &x, n, &mut out, n, n);
            for r in 0..m {
                for c in 0..n {
                    let mut want = seed[r * n + c];
                    for j in 0..k {
                        want += a[r * k + j] * x[j * n + c];
                    }
                    same_bits(
                        out[r * n + c],
                        want,
                        &format!("seeded {m}x{k}x{n} r={r} c={c}"),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// A NaN payload no kernel stores: it marks the masked columns.
    const SENTINEL: u64 = 0x7ff4_dead_beef_0001;

    /// Every flavour at every `n` in 1..=40 and `m` in 1..=9, against the
    /// per-element reference chains, from nonzero bias, `out` and seed.
    /// Panels run at a stride wider than `n`, with sentinel NaNs in the
    /// masked columns of `x` and `out` (which must stay bit for bit and
    /// reach no real lane), and at stride `n` with the panels cut right
    /// after their last active column, so the masked tile's copied rows
    /// run too.
    fn check_ragged(kn: &Kernels) -> Result<(), String> {
        let (k, lda) = (11usize, 13usize);
        let sentinel = f64::from_bits(SENTINEL);
        for n in 1..=40usize {
            for m in 1..=9usize {
                for stride in [n, n + 5] {
                    let a = fill(40, m * lda);
                    let bias = fill(41, m);
                    let mut x = fill(42, k * stride);
                    let mut base = fill(43, m * stride);
                    for panel in [&mut x, &mut base] {
                        for row in panel.chunks_mut(stride) {
                            row[n..].fill(sentinel);
                        }
                    }
                    let x = &x[..(k - 1) * stride + n];
                    for flavour in ["bias", "acc", "seeded"] {
                        let mut out = base[..(m - 1) * stride + n].to_vec();
                        match flavour {
                            "bias" => {
                                (kn.bias)(&a, lda, m, k, &bias, x, stride, &mut out, stride, n)
                            }
                            "acc" => (kn.acc)(&a, lda, m, k, x, stride, &mut out, stride, n),
                            _ => (kn.seeded)(&a, lda, m, k, x, stride, &mut out, stride, n),
                        }
                        for r in 0..m {
                            for c in 0..stride.min(out.len() - r * stride) {
                                let (got, at) = (out[r * stride + c], r * stride + c);
                                let here =
                                    format!("{flavour} n={n} m={m} stride={stride} r={r} c={c}");
                                if c >= n {
                                    if got.to_bits() != SENTINEL {
                                        return Err(format!("{here}: masked column written"));
                                    }
                                    continue;
                                }
                                let mut chain = if flavour == "seeded" { base[at] } else { 0.0 };
                                for j in 0..k {
                                    chain += a[r * lda + j] * x[j * stride + c];
                                }
                                let want = match flavour {
                                    "bias" => bias[r] + chain,
                                    "acc" => base[at] + chain,
                                    _ => chain,
                                };
                                same_bits(got, want, &here)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_all(kn: &Kernels) -> Result<(), String> {
        check_bias(kn)?;
        check_acc(kn)?;
        check_two_pass(kn)?;
        check_seeded(kn)?;
        check_ragged(kn)
    }

    #[test]
    fn gemm_bias_matches_per_column_matvec_bitwise() {
        check_bias(&KERNELS).unwrap();
    }

    #[test]
    fn gemm_acc_accumulates_on_existing_out_bitwise() {
        check_acc(&KERNELS).unwrap();
    }

    #[test]
    fn two_pass_bias_then_acc_matches_fused_lstm_reduction() {
        check_two_pass(&KERNELS).unwrap();
    }

    #[test]
    fn gemm_seeded_matches_in_place_accumulation_bitwise() {
        check_seeded(&KERNELS).unwrap();
    }

    #[test]
    fn ragged_widths_match_the_reference_and_leave_masked_columns_alone() {
        check_ragged(&KERNELS).unwrap();
    }

    #[test]
    fn every_mutant_fails_the_bit_identity_checks() {
        for mutant in Mutant::ALL {
            assert!(
                check_all(&mutant.kernels()).is_err(),
                "{mutant:?} passes every kernel bit-identity check"
            );
            assert!(
                check_ragged(&mutant.kernels()).is_err(),
                "{mutant:?} passes the ragged-width check"
            );
        }
    }

    #[test]
    fn nan_bits_are_the_same_in_every_tile_and_the_m1_row() {
        // One column, copied into every lane of a panel 43 wide: quad-tile
        // lanes 0..32, single-tile lanes 32..40 and masked-tile lanes
        // 40..43 compute the same chains, so each row must hold one value
        // across all 43 lanes. The `m = 1` row computes the same chains
        // with the operands swapped (`v · Aᵀ`, again 43 wide). Half the
        // operands are ±NaN (two payloads each), ±inf or ±0, so chains
        // meet two NaNs and make default NaNs from `inf · 0`.
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0123),
            f64::from_bits(0xfff8_0000_0000_0456),
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        let (rows, k, n) = (43usize, 6usize, 4 * LANES + LANES + 3);
        let mut state = 0x5eed_u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            if pick.is_multiple_of(2) {
                specials[(pick / 2) % specials.len()]
            } else {
                ((pick % 1000) as f64 - 500.0) / 64.0
            }
        };
        let mut nans = 0;
        for trial in 0..200 {
            let a: Vec<f64> = (0..rows * k).map(|_| draw()).collect();
            let v: Vec<f64> = (0..k).map(|_| draw()).collect();
            let bias: Vec<f64> = (0..rows).map(|_| draw()).collect();
            let base: Vec<f64> = (0..rows).map(|_| draw()).collect();
            let x: Vec<f64> = v
                .iter()
                .flat_map(|&vj| std::iter::repeat_n(vj, n))
                .collect();
            let a_t: Vec<f64> = (0..k)
                .flat_map(|j| (0..rows).map(move |r| (r, j)))
                .map(|(r, j)| a[r * k + j])
                .collect();
            for flavour in ["bias", "acc", "seeded"] {
                let mut out: Vec<f64> = base
                    .iter()
                    .flat_map(|&b| std::iter::repeat_n(b, n))
                    .collect();
                let mut row = base.clone();
                match flavour {
                    "bias" => gemm_bias(&a, k, rows, k, &bias, &x, n, &mut out, n, n),
                    "acc" => {
                        gemm_acc(&a, k, rows, k, &x, n, &mut out, n, n);
                        gemm_acc(&v, k, 1, k, &a_t, rows, &mut row, rows, rows);
                    }
                    _ => {
                        gemm_seeded(&a, k, rows, k, &x, n, &mut out, n, n);
                        gemm_seeded(&v, k, 1, k, &a_t, rows, &mut row, rows, rows);
                    }
                }
                for r in 0..rows {
                    let want = out[r * n];
                    if want.is_nan() {
                        nans += 1;
                        assert_eq!(
                            want.to_bits(),
                            f64::NAN.to_bits(),
                            "{flavour} trial {trial} r={r}"
                        );
                    }
                    for c in 1..n {
                        assert_eq!(
                            out[r * n + c].to_bits(),
                            want.to_bits(),
                            "{flavour} trial {trial} r={r}: lane {c} vs lane 0"
                        );
                    }
                    if flavour != "bias" {
                        assert_eq!(
                            row[r].to_bits(),
                            want.to_bits(),
                            "{flavour} trial {trial} r={r}: m = 1 row vs panel"
                        );
                    }
                }
            }
        }
        assert!(
            nans > 1000,
            "only {nans} NaN elements: the specials are too sparse"
        );
    }

    #[test]
    fn mutants_are_within_ulps_of_the_kernels() {
        // A defect the checks catch only because it is grossly wrong would
        // not test their precision: every mutant must stay close.
        let (m, k, n) = (9usize, 40usize, 11usize);
        let a = fill(30, m * k);
        let x = fill(31, k * n);
        let bias = fill(32, m);
        let mut real = vec![0.0; m * n];
        gemm_bias(&a, k, m, k, &bias, &x, n, &mut real, n, n);
        for mutant in Mutant::ALL {
            let mut got = vec![0.0; m * n];
            (mutant.kernels().bias)(&a, k, m, k, &bias, &x, n, &mut got, n, n);
            for (g, r) in got.iter().zip(&real) {
                assert!(
                    (g - r).abs() <= 1e-12 * (1.0 + r.abs()),
                    "{mutant:?}: {g} vs {r}"
                );
            }
        }
    }

    #[test]
    fn generic_and_dispatched_paths_agree_bitwise() {
        // The public entry points may route through AVX2/AVX-512 on this
        // machine; their output must match the portable body exactly.
        let (m, k, n) = (9usize, 14usize, 19usize);
        let a = fill(20, m * k);
        let bias = fill(21, m);
        let x = fill(22, k * n);
        let mut dispatched = vec![0.0; m * n];
        let mut portable = vec![0.0; m * n];
        gemm_bias(&a, k, m, k, &bias, &x, n, &mut dispatched, n, n);
        gemm_impl_f64::<false>(&a, k, m, k, Some(&bias), &x, n, &mut portable, n, n);
        for (d, p) in dispatched.iter().zip(&portable) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        gemm_acc(&a, k, m, k, &x, n, &mut dispatched, n, n);
        gemm_impl_f64::<false>(&a, k, m, k, None, &x, n, &mut portable, n, n);
        for (d, p) in dispatched.iter().zip(&portable) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        gemm_seeded(&a, k, m, k, &x, n, &mut dispatched, n, n);
        gemm_impl_f64::<true>(&a, k, m, k, None, &x, n, &mut portable, n, n);
        for (d, p) in dispatched.iter().zip(&portable) {
            assert_eq!(d.to_bits(), p.to_bits());
        }
        // The single-lane streaming shape: one input row times a k-major
        // weight block, n output units wide — quad tiles, single tiles and
        // the masked tile (n = 96 is the deployed 4*hidden).
        for &n in &[4usize, 24, 96, 100] {
            let a = fill(23, k);
            let x = fill(24, k * n);
            let base = fill(25, n);
            let mut dispatched = base.clone();
            let mut portable = base;
            gemm_acc(&a, k, 1, k, &x, n, &mut dispatched, n, n);
            gemm_impl_f64::<false>(&a, k, 1, k, None, &x, n, &mut portable, n, n);
            for (d, p) in dispatched.iter().zip(&portable) {
                assert_eq!(d.to_bits(), p.to_bits(), "m=1 n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds x_stride")]
    fn rejects_active_width_beyond_panel_stride() {
        let a = vec![0.0; 4];
        let x = vec![0.0; 4];
        let mut out = vec![0.0; 4];
        gemm_acc(&a, 2, 2, 2, &x, 2, &mut out, 4, 3);
    }
}
