//! Lane-batched, allocation-free training of [`LstmRegressor`].
//!
//! [`LstmRegressor::train`] takes one Adam step per group of up to
//! [`GROUP`] samples, and the weights stay fixed within a group. So the
//! group's samples run side by side as *lanes*: every activation is a
//! panel `[units × columns]` whose columns are the lanes (lane `s` is the
//! group's `s`-th sample in shuffle order), and every product is one
//! `pidpiper_math::gemm` call over all lanes instead of one scalar
//! matrix–vector product per sample.
//!
//! All working memory is one caller-owned [`TrainArena`], allocated once
//! per `train` call and carved into panels for each group. With `T` the
//! window, `B` the group's lanes, `H` the hidden size and `in` a layer's
//! input size, an LSTM layer keeps:
//!
//! - `gates [4H × T·B]`: the pre-activations, then `i|f|o|g` in place;
//!   column `t·B + s` is step `t` of lane `s`;
//! - `c`, `h [H × (T+1)·B]`: block 0 is the zero initial state and block
//!   `t + 1` the state after step `t`, so step `t` reads its previous
//!   state from block `t`; `tanh_c [H × T·B]`;
//! - `dpre [4H × T·B]`: the gate pre-activation gradients, in the same
//!   columns;
//! - `dpre_k [4H × K]`, `x_k [K × in]`, `hprev_k [K × H]`: the operands
//!   of the weight-gradient GEMMs, whose reduction index `k = s·T + (T-1-t)`
//!   runs over samples ascending and, within a sample, steps descending;
//! - `u_t [H × 4H]`: `Uᵀ`, refreshed from the weights at every group.
//!
//! The dense stack keeps `[units × B]` panels and `Wᵀ` copies the same way.
//!
//! # Bit-identity with per-sample training
//!
//! The weights, the loss curve and therefore every deployment are
//! bit-identical to backpropagating one sample at a time, the reference
//! semantics of training. Each reduction keeps its per-sample op order:
//!
//! - gate pre-activations are `(b + Σ w·x) + Σ u·h`: one `gemm_bias` over
//!   all `T·B` columns, then one `gemm_acc` per step over the `B` lanes,
//!   each dot product its own ascending accumulator;
//! - `dh_{t-1} = ext + Σ_r U[r]·dpre[r]` is `gemm_acc` on `Uᵀ` into the
//!   panel holding the gradient from above (`ext`), the same two-term
//!   sum the per-sample path formed;
//! - every weight gradient is one `gemm_seeded` call per lane: the
//!   gradient buffer seeds each accumulator, each call adds its lane's
//!   terms steps descending, and the lanes follow in order, so every
//!   element sees the (sample, step-descending) chain that per-sample
//!   training adds; bias and PReLU-slope gradients are the same serial
//!   sums written out;
//! - the elementwise gate, cell and activation expressions are the
//!   per-sample ones, through the bit-identical slice kernels of
//!   `pidpiper_math::activations`.
//!
//! The per-sample path skipped gradient terms whose `dpre` was ±0.0; the
//! GEMMs add them. For finite inputs a skipped term is `±0.0 · x = ±0.0`,
//! and `a + (±0.0) = a` for every `a` except `a = −0.0`. No sum here can
//! be −0.0: each starts from +0.0 (a zeroed gradient, a zeroed panel or a
//! GEMM accumulator), and an IEEE round-to-nearest sum is −0.0 only when
//! both addends are. The same argument covers the two places where the
//! per-sample path added a zero vector (`ext + 0` at the last step and
//! `0 + dh` below it). `crates/ml/tests/proptests.rs` checks the
//! neutrality on random finite inputs, exact-zero rows and ±0.0 entries.
//!
//! Layer 1's input gradient is never needed, so it is not computed.

use crate::dataset::WindowedDataset;
use crate::dense::{Activation, Dense};
use crate::lstm::LstmLayer;
use crate::network::RegressorConfig;
use crate::normalize::Normalizer;
use crate::stream::transpose_into;
use pidpiper_math::activations::{apply_rows, fast_sigmoid_slice, fast_tanh_slice};
use pidpiper_math::gemm::Kernels;

/// Samples per Adam step (gradient-accumulation group).
pub(crate) const GROUP: usize = 8;

/// Mutable views of every trained layer and the fitted normalizers.
pub(crate) struct Net<'a> {
    pub(crate) lstm1: &'a mut LstmLayer,
    pub(crate) lstm2: &'a mut LstmLayer,
    /// Sigmoid FC, both PReLU FCs, linear head.
    pub(crate) dense: [&'a mut Dense; 4],
    pub(crate) normalizer: &'a Normalizer,
    pub(crate) target_normalizer: &'a Normalizer,
}

/// `(input, output)` of dense layer `i` of the stack.
fn dense_dims(c: &RegressorConfig, i: usize) -> (usize, usize) {
    match i {
        0 => (c.hidden, c.fc_width),
        3 => (c.fc_width, c.output_dim),
        _ => (c.fc_width, c.fc_width),
    }
}

/// The working memory of one `train` call: a single buffer, carved into
/// the panels of each group (see the module docs for the layout).
#[derive(Debug)]
pub(crate) struct TrainArena {
    d: RegressorConfig,
    buf: Vec<f64>,
}

/// Splits `len` values off the front of `rest`.
fn take<'a>(rest: &mut &'a mut [f64], len: usize) -> &'a mut [f64] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// One LSTM layer's panels.
struct LstmLanes<'a> {
    gates: &'a mut [f64],
    c: &'a mut [f64],
    tanh_c: &'a mut [f64],
    h: &'a mut [f64],
    dpre: &'a mut [f64],
    dpre_k: &'a mut [f64],
    x_k: &'a mut [f64],
    hprev_k: &'a mut [f64],
    u_t: &'a mut [f64],
}

impl<'a> LstmLanes<'a> {
    fn len(d: &RegressorConfig, input: usize, nb: usize) -> usize {
        let (h, tb) = (d.hidden, d.window * nb);
        3 * 4 * h * tb + 2 * h * (tb + nb) + h * tb + tb * (input + h) + 4 * h * h
    }

    fn carve(rest: &mut &'a mut [f64], d: &RegressorConfig, input: usize, nb: usize) -> Self {
        let (h, tb) = (d.hidden, d.window * nb);
        LstmLanes {
            gates: take(rest, 4 * h * tb),
            c: take(rest, h * (tb + nb)),
            tanh_c: take(rest, h * tb),
            h: take(rest, h * (tb + nb)),
            dpre: take(rest, 4 * h * tb),
            dpre_k: take(rest, 4 * h * tb),
            x_k: take(rest, tb * input),
            hprev_k: take(rest, tb * h),
            u_t: take(rest, 4 * h * h),
        }
    }
}

/// One dense layer's panels: pre-activation `z`, output `y`, the gradient
/// `dy` arriving from above, `dpre`, and `Wᵀ`.
struct DenseLanes<'a> {
    z: &'a mut [f64],
    y: &'a mut [f64],
    dy: &'a mut [f64],
    dpre: &'a mut [f64],
    w_t: &'a mut [f64],
}

impl<'a> DenseLanes<'a> {
    fn len(input: usize, output: usize, nb: usize) -> usize {
        4 * output * nb + input * output
    }

    fn carve(rest: &mut &'a mut [f64], input: usize, output: usize, nb: usize) -> Self {
        DenseLanes {
            z: take(rest, output * nb),
            y: take(rest, output * nb),
            dy: take(rest, output * nb),
            dpre: take(rest, output * nb),
            w_t: take(rest, input * output),
        }
    }
}

/// Every panel of a group of `nb` lanes.
struct Lanes<'a> {
    d: RegressorConfig,
    nb: usize,
    /// Layer 1's input `[in × T·B]`.
    x: &'a mut [f64],
    l1: LstmLanes<'a>,
    l2: LstmLanes<'a>,
    /// Layer 2's `Wᵀ [H × 4H]`.
    w2_t: &'a mut [f64],
    /// The gradient arriving at layer 2's outputs (from the dense stack,
    /// last step only), then layer 2's input gradient, which arrives at
    /// layer 1's outputs: `[H × T·B]`.
    ext: &'a mut [f64],
    dense: [DenseLanes<'a>; 4],
    /// A dense layer's input, lane-major `[B × in]`.
    x_t: &'a mut [f64],
    dh: &'a mut [f64],
    dc: &'a mut [f64],
    target: &'a mut [f64],
}

impl<'a> Lanes<'a> {
    fn len(d: &RegressorConfig, nb: usize) -> usize {
        let (h, tb) = (d.hidden, d.window * nb);
        d.input_dim * tb
            + LstmLanes::len(d, d.input_dim, nb)
            + LstmLanes::len(d, h, nb)
            + 4 * h * h
            + h * tb
            + (0..4)
                .map(|i| {
                    let (input, output) = dense_dims(d, i);
                    DenseLanes::len(input, output, nb)
                })
                .sum::<usize>()
            + nb * h.max(d.fc_width)
            + 2 * h * nb
            + d.output_dim
    }

    fn carve(buf: &'a mut [f64], d: RegressorConfig, nb: usize) -> Self {
        let rest = &mut &mut *buf;
        let (h, tb) = (d.hidden, d.window * nb);
        let x = take(rest, d.input_dim * tb);
        let l1 = LstmLanes::carve(rest, &d, d.input_dim, nb);
        let l2 = LstmLanes::carve(rest, &d, h, nb);
        let w2_t = take(rest, 4 * h * h);
        let ext = take(rest, h * tb);
        let dense = [0, 1, 2, 3].map(|i| {
            let (input, output) = dense_dims(&d, i);
            DenseLanes::carve(rest, input, output, nb)
        });
        Lanes {
            d,
            nb,
            x,
            l1,
            l2,
            w2_t,
            ext,
            dense,
            x_t: take(rest, nb * h.max(d.fc_width)),
            dh: take(rest, h * nb),
            dc: take(rest, h * nb),
            target: take(rest, d.output_dim),
        }
    }
}

impl TrainArena {
    /// An arena for groups of up to [`GROUP`] samples of `config`'s
    /// network. The only allocation of the training loop.
    pub(crate) fn new(config: &RegressorConfig) -> Self {
        TrainArena {
            d: *config,
            buf: vec![0.0; Lanes::len(config, GROUP)],
        }
    }

    /// Forward pass, loss and backward pass for the samples `group` of
    /// `ds` (at most [`GROUP`], in shuffle order), leaving their summed
    /// gradients in the parameters' `grad` buffers. Adds each sample's
    /// squared error to `se` in group order.
    pub(crate) fn group_step(
        &mut self,
        net: &mut Net<'_>,
        ds: &WindowedDataset,
        group: &[usize],
        se: &mut f64,
        kn: &Kernels,
    ) {
        let nb = group.len();
        assert!((1..=GROUP).contains(&nb), "group of {nb} samples");
        let mut v = Lanes::carve(&mut self.buf, self.d, nb);
        v.load(net, ds, group);
        v.forward(net, kn);
        v.loss(net, ds, group, se);
        v.backward(net, kn);
    }
}

impl Lanes<'_> {
    /// Normalizes the group's windows into layer 1's input panel and its
    /// gradient-order copy, and refreshes the transposed weights.
    fn load(&mut self, net: &Net<'_>, ds: &WindowedDataset, group: &[usize]) {
        let (d, nb) = (self.d, self.nb);
        let (t_len, tb) = (d.window, d.window * nb);
        for (s, &idx) in group.iter().enumerate() {
            for (t, row) in ds.samples()[idx].window.iter().enumerate() {
                let k = s * t_len + (t_len - 1 - t);
                let dst = &mut self.l1.x_k[k * d.input_dim..(k + 1) * d.input_dim];
                net.normalizer.transform_into(row, dst);
                for (j, &value) in dst.iter().enumerate() {
                    self.x[j * tb + t * nb + s] = value;
                }
            }
        }
        let g4 = 4 * d.hidden;
        transpose_into(&net.lstm1.u.value, g4, d.hidden, self.l1.u_t);
        transpose_into(&net.lstm2.u.value, g4, d.hidden, self.l2.u_t);
        transpose_into(&net.lstm2.w.value, g4, d.hidden, self.w2_t);
        for (layer, lanes) in net.dense.iter().zip(&mut self.dense) {
            transpose_into(
                &layer.w.value,
                layer.output_dim(),
                layer.input_dim(),
                lanes.w_t,
            );
        }
    }

    fn forward(&mut self, net: &Net<'_>, kn: &Kernels) {
        let (d, nb) = (self.d, self.nb);
        let (tb, tb1) = (d.window * nb, (d.window + 1) * nb);
        lstm_forward(kn, net.lstm1, self.x, tb, &mut self.l1, d.window, nb);
        // Layer 2 reads layer 1's states h_0..h_{T-1}: blocks 1..=T.
        lstm_forward(
            kn,
            net.lstm2,
            &self.l1.h[nb..],
            tb1,
            &mut self.l2,
            d.window,
            nb,
        );
        // The dense stack reads layer 2's last state, block T.
        let mut x: &[f64] = &self.l2.h[d.window * nb..];
        let mut x_stride = tb1;
        for (layer, lanes) in net.dense.iter().zip(&mut self.dense) {
            dense_forward(kn, layer, x, x_stride, lanes, nb);
            x = &*lanes.y;
            x_stride = nb;
        }
    }

    /// `dL/dy = (y − target) / O` into the head's `dy`; each lane's
    /// squared error, in lane order, into `se`.
    fn loss(&mut self, net: &Net<'_>, ds: &WindowedDataset, group: &[usize], se: &mut f64) {
        let (out, nb) = (self.d.output_dim, self.nb);
        let head = &mut self.dense[3];
        for (s, &idx) in group.iter().enumerate() {
            net.target_normalizer
                .transform_into(&ds.samples()[idx].target, self.target);
            for (o, &t) in self.target.iter().enumerate() {
                head.dy[o * nb + s] = (head.y[o * nb + s] - t) / out as f64;
            }
            *se += self
                .target
                .iter()
                .enumerate()
                .map(|(o, &t)| (head.y[o * nb + s] - t) * (head.y[o * nb + s] - t))
                .sum::<f64>()
                / out as f64;
        }
    }

    fn backward(&mut self, net: &mut Net<'_>, kn: &Kernels) {
        let (d, nb) = (self.d, self.nb);
        let (t_len, tb, tb1) = (d.window, d.window * nb, (d.window + 1) * nb);
        // Dense stack, head first; each layer's input gradient lands in
        // the `dy` of the layer below it.
        for i in (1..4).rev() {
            let (below, above) = self.dense.split_at_mut(i);
            let lower = &mut below[i - 1];
            lower.dy.fill(0.0);
            dense_backward(
                kn,
                net.dense[i],
                lower.y,
                nb,
                &mut above[0],
                self.x_t,
                lower.dy,
                nb,
                nb,
            );
        }
        // The sigmoid layer's input gradient reaches layer 2's last step.
        self.ext.fill(0.0);
        let last = &mut self.ext[(t_len - 1) * nb..];
        let x = &self.l2.h[t_len * nb..];
        dense_backward(
            kn,
            net.dense[0],
            x,
            tb1,
            &mut self.dense[0],
            self.x_t,
            last,
            tb,
            nb,
        );

        to_gradient_order(self.l1.h, d.hidden, t_len, nb, false, self.l2.x_k);
        to_gradient_order(self.l1.h, d.hidden, t_len, nb, true, self.l1.hprev_k);
        to_gradient_order(self.l2.h, d.hidden, t_len, nb, true, self.l2.hprev_k);

        lstm_backward(
            kn,
            net.lstm2,
            &mut self.l2,
            self.ext,
            self.dh,
            self.dc,
            t_len,
            nb,
        );
        // Layer 2's input gradient, every step at once, becomes layer 1's
        // gradient from above: `0 + Σ_r W[r]·dpre[r]`.
        let g4 = 4 * d.hidden;
        self.ext.fill(0.0);
        (kn.acc)(
            self.w2_t,
            g4,
            d.hidden,
            g4,
            self.l2.dpre,
            tb,
            self.ext,
            tb,
            tb,
        );
        lstm_backward(
            kn,
            net.lstm1,
            &mut self.l1,
            self.ext,
            self.dh,
            self.dc,
            t_len,
            nb,
        );
    }
}

/// Copies the `[H × (T+1)·B]` state panel `h` into gradient order
/// `[K × H]`: row `s·T + (T-1-t)` gets lane `s`'s state after step `t`
/// (block `t + 1`), or with `previous` the state before it (block `t`,
/// zero at `t = 0`).
fn to_gradient_order(
    h: &[f64],
    hd: usize,
    t_len: usize,
    nb: usize,
    previous: bool,
    out: &mut [f64],
) {
    let (tb1, shift) = ((t_len + 1) * nb, usize::from(!previous));
    for s in 0..nb {
        for t in 0..t_len {
            let k = s * t_len + (t_len - 1 - t);
            let col = (t + shift) * nb + s;
            for (j, o) in out[k * hd..(k + 1) * hd].iter_mut().enumerate() {
                *o = h[j * tb1 + col];
            }
        }
    }
}

/// The forward pass of one LSTM layer over `t_len` steps of `nb` lanes;
/// `x` is the input panel (`T·B` columns at row stride `x_stride`).
fn lstm_forward(
    kn: &Kernels,
    layer: &LstmLayer,
    x: &[f64],
    x_stride: usize,
    v: &mut LstmLanes<'_>,
    t_len: usize,
    nb: usize,
) {
    let (hd, input) = (layer.hidden_dim(), layer.input_dim());
    let (g4, tb, tb1) = (4 * hd, t_len * nb, (t_len + 1) * nb);
    (kn.bias)(
        &layer.w.value,
        input,
        g4,
        input,
        &layer.b.value,
        x,
        x_stride,
        v.gates,
        tb,
        tb,
    );
    for j in 0..hd {
        v.h[j * tb1..j * tb1 + nb].fill(0.0);
        v.c[j * tb1..j * tb1 + nb].fill(0.0);
    }
    for t in 0..t_len {
        let col = t * nb;
        let gates = &mut v.gates[col..];
        (kn.acc)(&layer.u.value, hd, g4, hd, &v.h[col..], tb1, gates, tb, nb);
        apply_rows(gates, 0..3 * hd, tb, nb, fast_sigmoid_slice);
        apply_rows(gates, 3 * hd..g4, tb, nb, fast_tanh_slice);
        // Step t's lanes of gate row r, and of state row j before and
        // after the step (blocks t and t + 1).
        let lanes = |r: usize| col + r * tb..col + r * tb + nb;
        let state = |j: usize| col + j * tb1..col + j * tb1 + 2 * nb;
        for j in 0..hd {
            let (i, f) = (&v.gates[lanes(j)], &v.gates[lanes(hd + j)]);
            let g = &v.gates[lanes(3 * hd + j)];
            let (c_prev, c_next) = v.c[state(j)].split_at_mut(nb);
            let tanh_c = &mut v.tanh_c[lanes(j)];
            for s in 0..nb {
                let c = f[s] * c_prev[s] + i[s] * g[s];
                c_next[s] = c;
                tanh_c[s] = c;
            }
        }
        apply_rows(&mut v.tanh_c[col..], 0..hd, tb, nb, fast_tanh_slice);
        for j in 0..hd {
            let (o, tanh_c) = (&v.gates[lanes(2 * hd + j)], &v.tanh_c[lanes(j)]);
            let h_next = &mut v.h[state(j)][nb..];
            for s in 0..nb {
                h_next[s] = o[s] * tanh_c[s];
            }
        }
    }
}

/// Backpropagation through time for one LSTM layer: `ext [H × T·B]` is
/// the gradient arriving at each step's output from above. Adds the
/// layer's weight and bias gradients; leaves `dpre` for the caller.
#[allow(clippy::too_many_arguments)] // one panel per operand; a struct would only rename them
fn lstm_backward(
    kn: &Kernels,
    layer: &mut LstmLayer,
    v: &mut LstmLanes<'_>,
    ext: &[f64],
    dh: &mut [f64],
    dc: &mut [f64],
    t_len: usize,
    nb: usize,
) {
    let (hd, input) = (layer.hidden_dim(), layer.input_dim());
    let (g4, tb, tb1) = (4 * hd, t_len * nb, (t_len + 1) * nb);
    dc.fill(0.0);
    for t in (0..t_len).rev() {
        let col = t * nb;
        for j in 0..hd {
            dh[j * nb..(j + 1) * nb].copy_from_slice(&ext[j * tb + col..j * tb + col + nb]);
        }
        if t + 1 < t_len {
            // dh_t = ext_t + Σ_r U[r]·dpre_{t+1}[r].
            (kn.acc)(v.u_t, g4, hd, g4, &v.dpre[col + nb..], tb, dh, nb, nb);
        }
        // Step t's lanes of row r of a `T·B`-wide panel, and the
        // gradient panel split into its i, f, o and g gate blocks.
        let lanes = |r: usize| col + r * tb..col + r * tb + nb;
        let (dpre_i, rest) = v.dpre.split_at_mut(hd * tb);
        let (dpre_f, rest) = rest.split_at_mut(hd * tb);
        let (dpre_o, dpre_g) = rest.split_at_mut(hd * tb);
        for j in 0..hd {
            let (i, f) = (&v.gates[lanes(j)], &v.gates[lanes(hd + j)]);
            let (o, g) = (&v.gates[lanes(2 * hd + j)], &v.gates[lanes(3 * hd + j)]);
            let (tanh_c, c_prev) = (&v.tanh_c[lanes(j)], &v.c[col + j * tb1..][..nb]);
            let (d_i, d_f) = (&mut dpre_i[lanes(j)], &mut dpre_f[lanes(j)]);
            let (d_o, d_g) = (&mut dpre_o[lanes(j)], &mut dpre_g[lanes(j)]);
            let (dh, dc) = (&dh[j * nb..][..nb], &mut dc[j * nb..][..nb]);
            for s in 0..nb {
                let (i, f, o, g, tanh_c) = (i[s], f[s], o[s], g[s], tanh_c[s]);
                let d_out = dh[s] * tanh_c;
                let dcj = dh[s] * o * (1.0 - tanh_c * tanh_c) + dc[s];
                let (di, df, dg) = (dcj * g, dcj * c_prev[s], dcj * i);
                d_i[s] = di * i * (1.0 - i);
                d_f[s] = df * f * (1.0 - f);
                d_o[s] = d_out * o * (1.0 - o);
                d_g[s] = dg * (1.0 - g * g);
                dc[s] = dcj * f;
            }
        }
    }
    // dpre into gradient order: row r, column s·T + (T-1-t).
    let k = tb;
    for r in 0..g4 {
        for t in 0..t_len {
            for s in 0..nb {
                v.dpre_k[r * k + s * t_len + (t_len - 1 - t)] = v.dpre[r * tb + t * nb + s];
            }
        }
    }
    // One seeded GEMM per lane: each resumes the gradient's chains where
    // the previous lane left them, so the lanes' calls add the terms in
    // exactly the order of one GEMM over all of k.
    for s in 0..nb {
        let (a, ks) = (&v.dpre_k[s * t_len..], s * t_len);
        let x = &v.x_k[ks * input..];
        (kn.seeded)(a, k, g4, t_len, x, input, &mut layer.w.grad, input, input);
        let hp = &v.hprev_k[ks * hd..];
        (kn.seeded)(a, k, g4, t_len, hp, hd, &mut layer.u.grad, hd, hd);
    }
    for (g, row) in layer.b.grad.iter_mut().zip(v.dpre_k.chunks_exact(k)) {
        for &d in row {
            *g += d;
        }
    }
}

/// One dense layer over `nb` lanes: `z = b + W·x`, `y = act(z)`.
fn dense_forward(
    kn: &Kernels,
    layer: &Dense,
    x: &[f64],
    x_stride: usize,
    v: &mut DenseLanes<'_>,
    nb: usize,
) {
    let (input, output) = (layer.input_dim(), layer.output_dim());
    (kn.bias)(
        &layer.w.value,
        input,
        output,
        input,
        &layer.b.value,
        x,
        x_stride,
        v.z,
        nb,
        nb,
    );
    v.y.copy_from_slice(v.z);
    match layer.activation() {
        Activation::Linear => {}
        Activation::Sigmoid => fast_sigmoid_slice(v.y),
        Activation::PRelu => {
            for (r, &alpha) in layer.alpha.value.iter().enumerate() {
                for y in &mut v.y[r * nb..(r + 1) * nb] {
                    let z = *y;
                    *y = if z > 0.0 { z } else { alpha * z };
                }
            }
        }
    }
}

/// Backward pass of one dense layer from its `dy`: adds its gradients and
/// adds `Wᵀ·dpre` to `dx` (`[in × nb]` at row stride `dx_stride`, zeroed
/// by the caller). `x` is the layer's input panel; `x_t` is scratch.
#[allow(clippy::too_many_arguments)] // one panel per operand; a struct would only rename them
fn dense_backward(
    kn: &Kernels,
    layer: &mut Dense,
    x: &[f64],
    x_stride: usize,
    v: &mut DenseLanes<'_>,
    x_t: &mut [f64],
    dx: &mut [f64],
    dx_stride: usize,
    nb: usize,
) {
    let (input, output) = (layer.input_dim(), layer.output_dim());
    let activation = layer.activation();
    for r in 0..output {
        for s in 0..nb {
            let i = r * nb + s;
            let d = v.dy[i];
            v.dpre[i] = match activation {
                Activation::Linear => d,
                Activation::Sigmoid => d * v.y[i] * (1.0 - v.y[i]),
                Activation::PRelu => {
                    let z = v.z[i];
                    if z > 0.0 {
                        d
                    } else {
                        layer.alpha.grad[r] += d * z;
                        d * layer.alpha.value[r]
                    }
                }
            };
        }
    }
    for s in 0..nb {
        for j in 0..input {
            x_t[s * input + j] = x[j * x_stride + s];
        }
    }
    (kn.seeded)(
        v.dpre,
        nb,
        output,
        nb,
        x_t,
        input,
        &mut layer.w.grad,
        input,
        input,
    );
    for (g, row) in layer.b.grad.iter_mut().zip(v.dpre.chunks_exact(nb)) {
        for &d in row {
            *g += d;
        }
    }
    (kn.acc)(v.w_t, output, input, output, v.dpre, nb, dx, dx_stride, nb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LstmRegressor;
    use pidpiper_math::gemm::KERNELS;

    fn config() -> RegressorConfig {
        RegressorConfig {
            input_dim: 3,
            output_dim: 2,
            hidden: 4,
            fc_width: 5,
            window: 4,
        }
    }

    /// `samples` windows of a deterministic series, identity-normalized.
    fn dataset(c: &RegressorConfig, samples: usize) -> WindowedDataset {
        let len = samples + c.window - 1;
        let series = |dim: usize, salt: f64| -> Vec<Vec<f64>> {
            (0..len)
                .map(|t| {
                    (0..dim)
                        .map(|f| ((t * 5 + f * 3) as f64 * 0.61 + salt).sin())
                        .collect()
                })
                .collect()
        };
        WindowedDataset::from_series(
            &series(c.input_dim, 0.0),
            &series(c.output_dim, 1.3),
            c.window,
        )
    }

    /// `Σ_s Σ_o (y − target)² / (2·O)` through the reference `predict`:
    /// the loss whose gradient the group step accumulates.
    fn loss(model: &LstmRegressor, ds: &WindowedDataset) -> f64 {
        let out = model.config().output_dim as f64;
        ds.samples()
            .iter()
            .map(|s| {
                let y = model.predict(&s.window).expect("valid window");
                y.iter()
                    .zip(&s.target)
                    .map(|(y, t)| (y - t) * (y - t))
                    .sum::<f64>()
                    / (2.0 * out)
            })
            .sum()
    }

    #[test]
    fn group_forward_is_bit_identical_to_predict() {
        let c = config();
        let ds = dataset(&c, 7);
        let mut model = LstmRegressor::new(c, 4);
        let group: Vec<usize> = (0..ds.len()).rev().collect();
        let mut arena = TrainArena::new(&c);
        let want: Vec<Vec<f64>> = group
            .iter()
            .map(|&i| {
                model
                    .predict(&ds.samples()[i].window)
                    .expect("valid window")
            })
            .collect();
        let net = model.net();
        let mut v = Lanes::carve(&mut arena.buf, arena.d, group.len());
        v.load(&net, &ds, &group);
        v.forward(&net, &KERNELS);
        for (s, want) in want.iter().enumerate() {
            for (o, w) in want.iter().enumerate() {
                assert_eq!(
                    v.dense[3].y[o * group.len() + s].to_bits(),
                    w.to_bits(),
                    "lane {s}"
                );
            }
        }
    }

    #[test]
    fn group_gradients_match_finite_differences() {
        // Every tensor of every layer kind: both LSTMs (through layer 2's
        // input gradient into layer 1), the sigmoid FC, both PReLU FCs
        // with their slopes, and the linear head.
        let c = config();
        let ds = dataset(&c, 3);
        let mut model = LstmRegressor::new(c, 21);
        let group: Vec<usize> = (0..ds.len()).collect();
        let mut arena = TrainArena::new(&c);
        let mut se = 0.0;
        arena.group_step(&mut model.net(), &ds, &group, &mut se, &KERNELS);
        let grads: Vec<Vec<f64>> = model.params().iter().map(|p| p.grad.clone()).collect();
        for g in grads.iter().flatten() {
            assert_ne!(g.to_bits(), (-0.0_f64).to_bits(), "a gradient holds -0.0");
        }
        assert!(
            grads[10].iter().chain(&grads[13]).any(|g| g.abs() > 0.0),
            "no PReLU unit was negative: the slope gradients are untested"
        );
        let eps = 1e-6;
        for (pi, grad) in grads.iter().enumerate() {
            let len = grad.len();
            for idx in [0, len / 3, len / 2, len - 1] {
                let mut plus = model.clone();
                plus.params_mut()[pi].value[idx] += eps;
                let mut minus = model.clone();
                minus.params_mut()[pi].value[idx] -= eps;
                let num = (loss(&plus, &ds) - loss(&minus, &ds)) / (2.0 * eps);
                assert!(
                    (num - grad[idx]).abs() < 1e-6 * (1.0 + num.abs()),
                    "param {pi}[{idx}]: numeric {num} vs analytic {}",
                    grad[idx]
                );
            }
        }
        assert!(
            (se / 2.0 / c.output_dim as f64 * c.output_dim as f64 - loss(&model, &ds)).abs()
                < 1e-12
        );
    }

    #[test]
    fn a_sum_started_at_positive_zero_is_never_negative_zero() {
        // Every sequence of three addends from a set with both zeros,
        // exact cancellations and subnormals: the running sum never holds
        // −0.0, so adding a skipped ±0.0 term cannot change its bits.
        let addends = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            3.0,
        ];
        for a in addends {
            for b in addends {
                for c in addends {
                    let mut g = 0.0_f64;
                    for term in [a, b, c] {
                        g += term;
                        assert_ne!(g.to_bits(), (-0.0_f64).to_bits(), "{a} + {b} + {c}");
                        for zero in [0.0, -0.0] {
                            assert_eq!((g + zero).to_bits(), g.to_bits());
                        }
                    }
                }
            }
        }
    }
}
