//! Stage 2 — batched matrix multiplication with fused scatter (§4.3,
//! operations ⑤⑥).
//!
//! `T` products `X_t = U_t · V_t` over the task grid
//! `T × (C'/C'_blk) × (NB/n_blk)` (row panels least significant so each
//! thread reuses its L2-resident `V̂`, §4.5). On the final reduction block
//! the result bypasses `X̂` and is scattered by the micro-kernel itself —
//! with non-temporal streaming stores — into the tile-major layout
//! [`crate::layout::TileMajor`] that stage 3 reads contiguously. The paper
//! measured >20 % end-to-end gain from this fusion; the
//! [`crate::Schedule::Unfused`] schedule reverts to plain GEMM + a
//! separate copy pass (the ablation baseline).

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use wino_gemm::{microkernel, MicroArgs, Output};
use wino_sched::Executor;
use wino_simd::{F32x16, S};
use wino_tensor::BlockedMatrices;

use crate::error::{ensure_eq, WinoError};
use crate::layout::TileMajor;
use crate::plan::{CompBufCell, Scratch, WinogradLayer};
use crate::stage1::MutPtr;

/// The per-panel body of operations ⑤⑥ — one `(t, j, i)` panel's full
/// reduction over the `k` blocks, with the optional fused scatter —
/// factored out so the monolithic stage-2 fork–join and the superblock
/// pipeline share one implementation.
pub(crate) struct Stage2Ctx<'a> {
    layer: &'a WinogradLayer,
    u: &'a BlockedMatrices,
    v: &'a BlockedMatrices,
    x: MutPtr,
    y: MutPtr,
    x_meta: &'a BlockedMatrices,
    y_meta: &'a TileMajor,
    group_stride: usize,
    n_tiles: usize,
    rows: usize,
    n_blk: usize,
    row_blocks: usize,
    k_blocks: usize,
    c_blk: usize,
    cp_blk: usize,
    fused: bool,
    /// NT stores for the fused ⑥ scatter of the mono engine
    /// ([`crate::ConvOptions::scatter_streaming`]; the JIT kernels have
    /// the same policy compiled in).
    scatter_streaming: bool,
    /// Per-slot buffers for the compensated reduction, present exactly
    /// when the plan opted into [`crate::ConvOptions::compensated`].
    cbufs: Option<&'a [CompBufCell]>,
}

impl<'a> Stage2Ctx<'a> {
    #[allow(clippy::too_many_arguments)] // one argument per pipeline-shared buffer
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        u: &'a BlockedMatrices,
        v: &'a BlockedMatrices,
        x: *mut f32,
        x_meta: &'a BlockedMatrices,
        y: *mut f32,
        y_meta: &'a TileMajor,
        cbufs: Option<&'a [CompBufCell]>,
    ) -> Stage2Ctx<'a> {
        Stage2Ctx {
            layer,
            u,
            v,
            x: MutPtr(x),
            y: MutPtr(y),
            x_meta,
            y_meta,
            group_stride: y_meta.group_stride(),
            n_tiles: layer.n_tiles(),
            rows: layer.rows(),
            n_blk: layer.block.n_blk,
            row_blocks: layer.row_blocks(),
            k_blocks: layer.shape.in_channels / layer.block.c_blk,
            c_blk: layer.block.c_blk,
            cp_blk: layer.block.cp_blk,
            fused: layer.opts.schedule.fuses_scatter(),
            scatter_streaming: layer.opts.scatter_streaming(),
            cbufs,
        }
    }

    /// Multiply panel `(t, j, i)`: the full `k`-block reduction, with the
    /// fused ⑥ scatter on the last block when the schedule fuses.
    ///
    /// # Safety
    /// The caller must own panel `(t, j, i)` of `x` and the corresponding
    /// tile rows of `y` — tasks of one fork–join must cover disjoint
    /// `(t, j, i)` triples — and must hold thread slot `slot` (the
    /// Executor slot contract; only the compensated path touches the
    /// per-slot buffers).
    pub(crate) unsafe fn panel(&self, slot: usize, t: usize, j: usize, i: usize) {
        // Per-row scatter destinations for the fused final block.
        let mut row_ptrs = [std::ptr::null_mut::<f32>(); wino_gemm::MAX_N_BLK];
        if self.fused {
            let og0 = (j * self.cp_blk) / S;
            for jj in 0..self.n_blk {
                let n_prime = i * self.n_blk + jj;
                if n_prime < self.rows {
                    let (b, n) = (n_prime / self.n_tiles, n_prime % self.n_tiles);
                    // SAFETY: offset within y by construction.
                    row_ptrs[jj] = self.y.get().add(self.y_meta.vec_offset(b, og0, n, t));
                }
            }
        }

        // High-accuracy plans reduce with Kahan compensation instead of
        // the plain β-accumulating micro-kernel chain.
        if let Some(cbufs) = self.cbufs {
            // SAFETY: same panel ownership as below; slot exclusivity is
            // the caller's contract.
            self.compensated_panel(cbufs, slot, t, j, i, &row_ptrs);
            return;
        }

        // The paper's JIT backend: dispatch to pre-compiled machine code.
        if let Some(jk) = &self.layer.jit {
            let is_tail_panel = jk.tail != 0 && i + 1 == self.row_blocks;
            for k in 0..self.k_blocks {
                let is_last_k = k + 1 == self.k_blocks;
                // SAFETY: identical pointer contract as the mono path
                // below; scatter row_ptrs[..n_blk or ..tail] are non-null
                // by construction (padding rows only exist in the tail
                // panel, which uses the tail kernel).
                let u_ptr = self.u.as_ptr().add(self.u.block_offset(i, k, t));
                let v_p = self.v.as_ptr().add(self.v.block_offset(k, j, t));
                let x_p = self.x.get().add(self.x_meta.block_offset(i, j, t));
                if self.fused && is_last_k {
                    let kern = if is_tail_panel {
                        jk.scatter_tail.as_ref().expect("tail kernel compiled")
                    } else {
                        jk.scatter_full.as_ref().expect("scatter kernel compiled")
                    };
                    kern.call_scatter(u_ptr, v_p, x_p, row_ptrs.as_ptr());
                } else if k == 0 {
                    jk.block0.as_ref().expect("block0 compiled").call(u_ptr, v_p, x_p);
                } else {
                    jk.block1.as_ref().expect("block1 compiled").call(u_ptr, v_p, x_p);
                }
            }
            return;
        }

        let last_i = self.row_blocks - 1;
        for k in 0..self.k_blocks {
            let is_last_k = k + 1 == self.k_blocks;
            let next = if i < last_i {
                (
                    self.u.as_ptr().wrapping_add(self.u.block_offset(i + 1, k, t)),
                    self.x.get().wrapping_add(self.x_meta.block_offset(i + 1, j, t))
                        as *const f32,
                )
            } else {
                (std::ptr::null(), std::ptr::null())
            };
            let output = if self.fused && is_last_k {
                Output::Scatter {
                    row_ptrs: row_ptrs.as_ptr(),
                    group_stride: self.group_stride,
                    streaming: self.scatter_streaming,
                }
            } else {
                Output::Block
            };
            // SAFETY: block offsets for (t, i, j, k) are in bounds of
            // their panel allocations by construction of the panel
            // metadata; panel (t, j, i) is owned by this task.
            let (u_blk, v_blk, x_blk) = (
                self.u.as_ptr().add(self.u.block_offset(i, k, t)),
                self.v.as_ptr().add(self.v.block_offset(k, j, t)),
                self.x.get().add(self.x_meta.block_offset(i, j, t)),
            );
            let args = MicroArgs {
                u: u_blk,
                v: v_blk,
                x: x_blk,
                c_blk: self.c_blk,
                cp_blk: self.cp_blk,
                beta: k > 0,
                next_u: next.0,
                next_x: next.1,
                output,
            };
            // SAFETY: panel (t, j, i) is owned by this task; pointers are
            // in bounds; scatter targets are 64-byte aligned (all offsets
            // are multiples of S) and disjoint from u/v/x.
            microkernel(self.n_blk, &args);
        }
    }

    /// The [`crate::ConvOptions::compensated`] reduction for panel
    /// `(t, j, i)`: each `C_blk` reduction block is multiplied into a
    /// per-slot product buffer (β = 0) and folded into the `x` panel with
    /// a Kahan–Neumaier compensation term, so the channel reduction's
    /// rounding error stays O(ε) instead of O(K·ε). The fused ⑥ scatter
    /// is done scalar from the compensated panel (the micro-kernel's
    /// in-register scatter would bypass the compensation).
    ///
    /// # Safety
    /// Same panel-ownership contract as [`Stage2Ctx::panel`], plus
    /// exclusive use of `cbufs[slot]` (the Executor slot contract).
    unsafe fn compensated_panel(
        &self,
        cbufs: &[CompBufCell],
        slot: usize,
        t: usize,
        j: usize,
        i: usize,
        row_ptrs: &[*mut f32],
    ) {
        // SAFETY: the caller holds `slot`, making this buffer exclusive.
        let buf = &mut *cbufs[slot].get();
        let panel_len = self.n_blk * self.cp_blk;
        let tmp = buf.tmp.as_mut_ptr();
        let comp = &mut buf.comp.as_mut_slice()[..panel_len];
        // SAFETY: panel (t, j, i) of x is owned by this task.
        let x_p = self.x.get().add(self.x_meta.block_offset(i, j, t));

        for k in 0..self.k_blocks {
            let args = MicroArgs {
                // SAFETY: block offsets in bounds by panel metadata.
                u: self.u.as_ptr().add(self.u.block_offset(i, k, t)),
                v: self.v.as_ptr().add(self.v.block_offset(k, j, t)),
                x: tmp,
                c_blk: self.c_blk,
                cp_blk: self.cp_blk,
                beta: false,
                next_u: std::ptr::null(),
                next_x: std::ptr::null(),
                output: Output::Block,
            };
            // SAFETY: tmp is an exclusive panel-sized aligned buffer.
            microkernel(self.n_blk, &args);
            if k == 0 {
                // SAFETY: tmp and the x panel are panel_len floats each.
                std::ptr::copy_nonoverlapping(tmp as *const f32, x_p, panel_len);
                comp.fill(0.0);
            } else {
                for e in 0..panel_len {
                    // Kahan: fold the block product into the accumulator,
                    // carrying the rounding remainder in `comp`.
                    // SAFETY: e < panel_len, in bounds of tmp and x panel.
                    let y = *tmp.add(e) - comp[e];
                    let s = *x_p.add(e);
                    let sum = s + y;
                    comp[e] = (sum - s) - y;
                    *x_p.add(e) = sum;
                }
            }
        }

        if self.fused {
            // Scalar operation ⑥ for the compensated panel: each panel
            // row scatters as cp_blk/S channel-group vectors with
            // `group_stride` between groups (same addressing as the
            // micro-kernel's fused scatter, minus the NT stores).
            for (jj, &rp) in row_ptrs.iter().enumerate().take(self.n_blk) {
                if rp.is_null() {
                    continue;
                }
                for c in 0..self.cp_blk {
                    // SAFETY: same destination addressing as the fused
                    // micro-kernel scatter; rp spans cp_blk/S groups.
                    *rp.add((c / S) * self.group_stride + c % S) =
                        *x_p.add(jj * self.cp_blk + c);
                }
            }
        }
    }
}

/// Operation ⑤(+⑥): multiply transformed inputs by transformed kernels.
/// Reads `scratch.u` / `scratch.v`, produces the tile-major `scratch.y`
/// (via fused scatter, or via `scratch.x` plus a copy pass when the fusion
/// is disabled).
pub fn multiply(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    // Zero-sized placeholder: swapping `v` out must not allocate — the
    // serving hot path counts on repeat forwards being allocation-free.
    let v = std::mem::replace(&mut scratch.v, wino_tensor::BlockedMatrices::placeholder());
    let result = multiply_with(layer, scratch, &v, exec);
    scratch.v = v;
    result
}

/// As [`multiply`], but against externally stored kernel transforms — the
/// inference-only "FX" mode (§4.2 "Inference only"): `V` is memoised once
/// per network and `scratch.v` is never touched.
pub fn multiply_with(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    v_ext: &wino_tensor::BlockedMatrices,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_eq("kernel-transform tile count", layer.t_vol(), v_ext.t_count())?;
    ensure_eq("kernel-transform rows", layer.shape.in_channels, v_ext.rows())?;
    ensure_eq("kernel-transform cols", layer.shape.out_channels, v_ext.cols())?;
    ensure_eq("kernel-transform C_blk", layer.block.c_blk, v_ext.rb())?;
    ensure_eq("kernel-transform C'_blk", layer.block.cp_blk, v_ext.cb())?;
    let t_vol = layer.t_vol();
    let row_blocks = scratch.u.row_blocks();
    let col_blocks = v_ext.col_blocks();
    let fused = layer.opts.schedule.fuses_scatter();

    let dims = [t_vol, col_blocks, row_blocks];
    let x_ptr = scratch.x.as_mut_ptr();
    let y_ptr = scratch.y.as_mut_ptr();
    let ctx = Stage2Ctx::new(
        layer,
        &scratch.u,
        v_ext,
        x_ptr,
        &scratch.x,
        y_ptr,
        &scratch.y,
        scratch.comp_bufs(),
    );
    let stage_start = crate::spans::span_start();

    exec.run_grid(&dims, &|slot, flat| {
        let i = flat % row_blocks;
        let j = (flat / row_blocks) % col_blocks;
        let t = flat / (row_blocks * col_blocks);
        // SAFETY: the grid enumerates each (t, j, i) exactly once, so
        // tasks own disjoint panels, and `slot` is held by this task.
        unsafe { ctx.panel(slot, t, j, i) };
    })?;
    // The unfused copy pass is still operation ⑥ — part of this stage's
    // coordinator span, so fused/unfused ablations compare like for like.
    if !fused {
        scatter_pass(layer, scratch, exec)?;
    }
    crate::spans::record_coord(exec, wino_probe::SpanCategory::ElementwiseGemm, stage_start);
    #[cfg(feature = "fault-inject")]
    if wino_sched::fault::take_poison_stage(2) {
        scratch.y.as_mut_slice()[0] = f32::NAN;
    }
    #[cfg(feature = "fault-inject")]
    if let Some(kind) = wino_sched::fault::take_corruption(2) {
        corrupt_y(scratch.y.as_mut_slice(), kind);
    }
    Ok(())
}

/// Apply one armed corruption to the transformed-output tensor `y` —
/// the deterministic fault model for the accuracy-sentinel tests. All
/// three kinds keep the data *finite*, so `check_finite` cannot see
/// them: only output verification can.
#[cfg(feature = "fault-inject")]
fn corrupt_y(y: &mut [f32], kind: wino_sched::fault::CorruptKind) {
    use wino_sched::fault::CorruptKind;
    match kind {
        // Flip a high mantissa/exponent bit of one element: a large but
        // finite single-element excursion (bit 27 keeps the exponent
        // below the infinity threshold for tensor-scale values).
        CorruptKind::BitFlip => {
            let i = y.len() / 3;
            y[i] = f32::from_bits(y[i].to_bits() ^ (1 << 27));
        }
        // Overwrite a stretch with subnormals: numerically near-zero
        // (silently wrong results) and a throughput hazard on cores
        // that microcode-assist denormal arithmetic.
        CorruptKind::DenormalStorm => {
            let n = y.len();
            for v in y[n / 4..n / 2].iter_mut() {
                *v = 1.0e-40;
            }
        }
        // Add a finite bias to a block of elements: the classic silent
        // data corruption — no NaN, no Inf, plausible magnitudes
        // elsewhere, wrong answer.
        CorruptKind::SilentBias => {
            let n = y.len();
            for v in y[0..n / 8].iter_mut() {
                *v += 64.0;
            }
        }
    }
}

/// The unfused alternative to operation ⑥: copy `scratch.x` into the
/// tile-major `scratch.y` in a separate parallel pass.
fn scatter_pass(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let t_vol = layer.t_vol();
    let n_tiles = layer.n_tiles();
    let (n_blk, cp_blk) = (layer.block.n_blk, layer.block.cp_blk);
    let col_blocks = scratch.x.col_blocks();
    let t_stride = n_blk * cp_blk;
    let streaming = layer.opts.streaming_stores;

    let dims = [layer.shape.batch, layer.shape.out_channels / S, n_tiles];
    let y_ptr = MutPtr(scratch.y.as_mut_ptr());
    let x = &scratch.x;
    let y_meta = &scratch.y;

    exec.run_grid(&dims, &|_slot, flat| {
        let n = flat % n_tiles;
        let og = (flat / n_tiles) % dims[1];
        let b = flat / (n_tiles * dims[1]);
        let n_prime = b * n_tiles + n;
        let (rb_i, r_in) = (n_prime / n_blk, n_prime % n_blk);
        let col = og * S;
        let (cb_i, c_in) = (col / cp_blk, col % cp_blk);
        let src_base = ((rb_i * col_blocks + cb_i) * t_vol) * t_stride + r_in * cp_blk + c_in;
        let dst_base = y_meta.vec_offset(b, og, n, 0);
        // SAFETY: disjoint (b, og, n) per task; offsets in bounds.
        unsafe {
            let src = x.as_ptr();
            let dst = y_ptr.get();
            for t in 0..t_vol {
                let v = F32x16::load(src.add(src_base + t * t_stride));
                if streaming {
                    v.store_nt(dst.add(dst_base + t * S));
                } else {
                    v.store(dst.add(dst_base + t * S));
                }
            }
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, Schedule, WinogradLayer};
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::ConvShape;

    fn make(fused: bool, c: usize, cp: usize) -> (WinogradLayer, Scratch) {
        let s = ConvShape::new(2, c, cp, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let schedule = if fused { Schedule::FusedScatter } else { Schedule::Unfused };
        let opts = ConvOptions { schedule, ..Default::default() };
        let layer = WinogradLayer::new(s, &[4, 4], opts).unwrap();
        let scratch = Scratch::new(&layer, 4);
        (layer, scratch)
    }

    fn fill_uv(scratch: &mut Scratch) {
        for (i, f) in scratch.u.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(2654435761) >> 18) & 0x3f) as f32 / 32.0 - 1.0;
        }
        for (i, f) in scratch.v.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(0x9E3779B9) >> 18) & 0x3f) as f32 / 32.0 - 1.0;
        }
    }

    /// Oracle: y(b, c', n, t) = Σ_c U_t[n', c] · V_t[c, c'].
    fn oracle(layer: &WinogradLayer, scratch: &Scratch, b: usize, cp: usize, n: usize, t: usize) -> f32 {
        let n_prime = b * layer.n_tiles() + n;
        let mut acc = 0.0f64;
        for c in 0..layer.shape.in_channels {
            acc += scratch.u.get(t, n_prime, c) as f64 * scratch.v.get(t, c, cp) as f64;
        }
        acc as f32
    }

    fn check_y(layer: &WinogradLayer, scratch: &Scratch) {
        for b in 0..layer.shape.batch {
            for cp in [0, 15, 17, layer.shape.out_channels - 1] {
                for n in [0, layer.n_tiles() - 1] {
                    for t in [0, layer.t_vol() / 2, layer.t_vol() - 1] {
                        let got = scratch.y.tile(b, cp / S, n)[t * S + cp % S];
                        let want = oracle(layer, scratch, b, cp, n, t);
                        assert!(
                            (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                            "b={b} c'={cp} n={n} t={t}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_scatter_produces_correct_y() {
        let (layer, mut scratch) = make(true, 32, 32);
        fill_uv(&mut scratch);
        multiply(&layer, &mut scratch, &SerialExecutor).unwrap();
        check_y(&layer, &scratch);
    }

    #[test]
    fn unfused_matches_fused() {
        let (layer_f, mut sf) = make(true, 32, 48);
        let (layer_u, mut su) = make(false, 32, 48);
        fill_uv(&mut sf);
        fill_uv(&mut su);
        assert_eq!(sf.u.as_slice(), su.u.as_slice());
        multiply(&layer_f, &mut sf, &SerialExecutor).unwrap();
        multiply(&layer_u, &mut su, &SerialExecutor).unwrap();
        assert_eq!(sf.y.as_slice(), su.y.as_slice());
    }

    #[test]
    fn parallel_matches_serial() {
        let (layer, mut s1) = make(true, 32, 32);
        let (_, mut s2) = make(true, 32, 32);
        fill_uv(&mut s1);
        fill_uv(&mut s2);
        multiply(&layer, &mut s1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        multiply(&layer, &mut s2, &pool).unwrap();
        assert_eq!(s1.y.as_slice(), s2.y.as_slice());
    }

    #[test]
    fn multi_k_block_reduction() {
        // Force C > C_blk so beta-accumulation + fused scatter interact.
        let s = ConvShape::new(1, 64, 32, &[6, 6], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions {
            block: Some(wino_gemm::BlockShape { n_blk: 5, c_blk: 32, cp_blk: 16 }),
            ..Default::default()
        };
        let layer = WinogradLayer::new(s, &[2, 2], opts).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        fill_uv(&mut scratch);
        multiply(&layer, &mut scratch, &SerialExecutor).unwrap();
        check_y(&layer, &scratch);
    }
}
