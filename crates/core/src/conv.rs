//! The public convolution entry points: training mode (transform kernels
//! every call) and inference "FX" mode (memoised kernel transforms).

use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvShape, SimpleImage, SimpleKernels};

use crate::error::WinoError;
use crate::plan::{ConvOptions, Schedule, Scratch, WinogradLayer};
use crate::{pipeline, stage1, stage2, stage3};

/// Memoised kernel transforms (`W` of Table 1) for inference-only use —
/// the paper's "FX" columns in Fig. 5. Bound to the layer plan that
/// produced them (same tile size and blocking).
#[derive(Debug)]
pub struct TransformedKernels {
    pub(crate) v: BlockedMatrices,
}

impl TransformedKernels {
    /// Bytes held by the memoised transforms.
    pub fn bytes(&self) -> usize {
        self.v.bytes()
    }
}

impl WinogradLayer {
    /// Full convolution, training mode: transforms inputs *and* kernels,
    /// multiplies, inverse-transforms into `output`.
    ///
    /// `scratch` must come from [`Scratch::new`] for this layer (or an
    /// identically shaped one) with at least `exec.threads()` slots.
    pub fn forward(
        &self,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        output: &mut BlockedImage,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        if self.opts.schedule == Schedule::Pipelined {
            stage1::transform_kernels(self, kernels, scratch, exec)?;
            // Move `v` out so the pipeline can borrow the rest of the
            // scratch mutably; restored below.
            let v = std::mem::replace(&mut scratch.v, BlockedMatrices::placeholder());
            let r = pipeline::forward_pipelined(self, input, &v, output, scratch, exec);
            scratch.v = v;
            return r;
        }
        stage1::transform_inputs(self, input, scratch, exec)?;
        stage1::transform_kernels(self, kernels, scratch, exec)?;
        stage2::multiply(self, scratch, exec)?;
        stage3::inverse_transform(self, scratch, output, exec)
    }

    /// Transform kernels once for repeated inference (§4.2 "Inference
    /// only").
    pub fn prepare_kernels(
        &self,
        kernels: &BlockedKernels,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<TransformedKernels, WinoError> {
        stage1::transform_kernels(self, kernels, scratch, exec)?;
        Ok(TransformedKernels { v: scratch.v.clone() })
    }

    /// Inference-mode convolution using memoised kernel transforms — the
    /// kernel-transform stage is skipped entirely.
    pub fn forward_fx(
        &self,
        input: &BlockedImage,
        kernels: &TransformedKernels,
        output: &mut BlockedImage,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        if self.opts.schedule == Schedule::Pipelined {
            return pipeline::forward_pipelined(self, input, &kernels.v, output, scratch, exec);
        }
        stage1::transform_inputs(self, input, scratch, exec)?;
        stage2::multiply_with(self, scratch, &kernels.v, exec)?;
        stage3::inverse_transform(self, scratch, output, exec)
    }
}

/// One-shot convenience API on interchange-format tensors: plans the
/// layer, runs serially, returns the output image. Intended for tests,
/// examples and small problems — production code should plan once and
/// reuse [`Scratch`] across invocations.
pub fn convolve_simple(
    img: &SimpleImage,
    ker: &SimpleKernels,
    padding: &[usize],
    m: &[usize],
) -> Result<SimpleImage, WinoError> {
    let shape = ConvShape::new(
        img.batch,
        img.channels,
        ker.out_channels,
        &img.dims,
        &ker.dims,
        padding,
    )?;
    let layer = WinogradLayer::new(shape, m, ConvOptions::default())?;
    let input = BlockedImage::from_simple(img)?;
    let kernels = BlockedKernels::from_simple(ker)?;
    let mut output = layer.new_output()?;
    let mut scratch = Scratch::new(&layer, 1);
    layer.forward(&input, &kernels, &mut output, &mut scratch, &wino_sched::SerialExecutor)?;
    Ok(output.to_simple())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::{DynamicExecutor, SerialExecutor, StaticExecutor};

    /// f64 direct cross-correlation oracle on simple tensors.
    pub fn direct_reference(img: &SimpleImage, ker: &SimpleKernels, padding: &[usize]) -> SimpleImage {
        let rank = img.dims.len();
        let out_dims: Vec<usize> = (0..rank)
            .map(|d| img.dims[d] + 2 * padding[d] - ker.dims[d] + 1)
            .collect();
        let mut out = SimpleImage::zeros(img.batch, ker.out_channels, &out_dims);
        let out_vol: usize = out_dims.iter().product();
        let ker_vol: usize = ker.dims.iter().product();
        for b in 0..img.batch {
            for co in 0..ker.out_channels {
                for o in 0..out_vol {
                    let oc = wino_tensor::unflatten(o, &out_dims);
                    let mut acc = 0.0f64;
                    for ci in 0..img.channels {
                        for k in 0..ker_vol {
                            let kc = wino_tensor::unflatten(k, &ker.dims);
                            let coords: Vec<isize> = (0..rank)
                                .map(|d| (oc[d] + kc[d]) as isize - padding[d] as isize)
                                .collect();
                            acc += img.get_padded(b, ci, &coords) as f64
                                * ker.get(co, ci, &kc) as f64;
                        }
                    }
                    out.data[(b * ker.out_channels + co) * out_vol + o] = acc as f32;
                }
            }
        }
        out
    }

    fn test_img(batch: usize, c: usize, dims: &[usize]) -> SimpleImage {
        SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            let mut h = b.wrapping_mul(31).wrapping_add(c.wrapping_mul(7));
            for (i, &x) in xy.iter().enumerate() {
                h = h.wrapping_mul(131).wrapping_add(x * (i + 3));
            }
            ((h % 1000) as f32 / 500.0 - 1.0) * 0.1
        })
    }

    fn test_ker(cp: usize, c: usize, dims: &[usize]) -> SimpleKernels {
        SimpleKernels::from_fn(cp, c, dims, |co, ci, xy| {
            let mut h = co.wrapping_mul(17).wrapping_add(ci.wrapping_mul(3));
            for &x in xy {
                h = h.wrapping_mul(37).wrapping_add(x);
            }
            ((h % 100) as f32 / 50.0 - 1.0) * 0.2
        })
    }

    fn assert_close(got: &SimpleImage, want: &SimpleImage, tol: f32, ctx: &str) {
        assert_eq!(got.dims, want.dims, "{ctx}: dims");
        assert_eq!(got.data.len(), want.data.len());
        let mut max_err = 0.0f32;
        for i in 0..got.data.len() {
            let e = (got.data[i] - want.data[i]).abs() / want.data[i].abs().max(1.0);
            max_err = max_err.max(e);
        }
        assert!(max_err <= tol, "{ctx}: max rel err {max_err} > {tol}");
    }

    #[test]
    fn f2x2_matches_direct_2d() {
        let img = test_img(2, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[2, 2]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "F(2,3) 2D");
    }

    #[test]
    fn f4x4_matches_direct_2d_no_padding() {
        let img = test_img(1, 16, &[14, 14]);
        let ker = test_ker(32, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[0, 0], &[4, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[0, 0]);
        assert_close(&got, &want, 1e-4, "F(4,3) 2D valid");
    }

    #[test]
    fn f6x6_larger_tile() {
        let img = test_img(1, 16, &[13, 13]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[6, 6]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-3, "F(6,3) 2D");
    }

    #[test]
    fn three_d_convolution() {
        let img = test_img(1, 16, &[5, 8, 8]);
        let ker = test_ker(16, 16, &[3, 3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1, 1], &[2, 2, 2]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1, 1]);
        assert_close(&got, &want, 1e-4, "F(2³,3³) 3D");
    }

    #[test]
    fn one_d_convolution() {
        let img = test_img(2, 16, &[33]);
        let ker = test_ker(16, 16, &[3]);
        let got = convolve_simple(&img, &ker, &[1], &[4]).unwrap();
        let want = direct_reference(&img, &ker, &[1]);
        assert_close(&got, &want, 1e-4, "F(4,3) 1D");
    }

    #[test]
    fn arbitrary_kernel_sizes() {
        // The headline novelty: not just 3×3.
        for (kd, m) in [(vec![5, 5], vec![2, 2]), (vec![2, 2], vec![3, 3]), (vec![4, 4], vec![3, 3]), (vec![1, 3], vec![2, 4])] {
            let img = test_img(1, 16, &[12, 12]);
            let ker = test_ker(16, 16, &kd);
            let got = convolve_simple(&img, &ker, &[0, 0], &m).unwrap();
            let want = direct_reference(&img, &ker, &[0, 0]);
            assert_close(&got, &want, 1e-3, &format!("kernel {kd:?} m {m:?}"));
        }
    }

    #[test]
    fn asymmetric_tiles() {
        // F(6×8, 3×3)-style asymmetric tile from Table 3.
        let img = test_img(1, 16, &[12, 16]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[2, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "asymmetric m");
    }

    #[test]
    fn rectangular_images_with_overhang() {
        let img = test_img(1, 16, &[11, 17]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[4, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "overhang");
    }

    #[test]
    fn fx_mode_matches_training_mode() {
        let img = test_img(2, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let shape = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[4, 4], ConvOptions::default()).unwrap();
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let mut scratch = Scratch::new(&layer, 1);

        let mut out_train = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_train, &mut scratch, &SerialExecutor).unwrap();

        let tk = layer.prepare_kernels(&kernels, &mut scratch, &SerialExecutor).unwrap();
        let mut out_fx = layer.new_output().unwrap();
        layer.forward_fx(&input, &tk, &mut out_fx, &mut scratch, &SerialExecutor).unwrap();

        assert_eq!(out_train.as_slice(), out_fx.as_slice());
    }

    #[test]
    fn executors_agree() {
        let img = test_img(2, 32, &[9, 9]);
        let ker = test_ker(32, 32, &[3, 3]);
        let shape = ConvShape::new(2, 32, 32, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap();
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();

        let run = |exec: &dyn Executor| {
            let mut scratch = Scratch::new(&layer, exec.threads());
            let mut out = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
            out.to_simple()
        };
        let serial = run(&SerialExecutor);
        let stat = StaticExecutor::new(4);
        assert_eq!(run(&stat).data, serial.data);
        assert_eq!(run(&DynamicExecutor::new(4)).data, serial.data);
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        // A second forward with different data must not see stale state.
        let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        let img1 = test_img(1, 16, &[8, 8]);
        let img2 = SimpleImage::from_fn(1, 16, &[8, 8], |_, c, xy| (c + xy[0]) as f32 * 0.03);
        let ker = test_ker(16, 16, &[3, 3]);
        let kernels = BlockedKernels::from_simple(&ker).unwrap();

        let mut out = layer.new_output().unwrap();
        layer.forward(
            &BlockedImage::from_simple(&img1).unwrap(),
            &kernels,
            &mut out,
            &mut scratch,
            &SerialExecutor,
        )
        .unwrap();
        layer.forward(
            &BlockedImage::from_simple(&img2).unwrap(),
            &kernels,
            &mut out,
            &mut scratch,
            &SerialExecutor,
        )
        .unwrap();
        let want = direct_reference(&img2, &ker, &[1, 1]);
        assert_close(&out.to_simple(), &want, 1e-4, "scratch reuse");
    }

    #[test]
    fn jit_backend_matches_mono_backend() {
        if !wino_simd::cpu_has_avx512f() {
            eprintln!("skipping: no AVX-512F");
            return;
        }
        use crate::plan::Stage2Backend;
        // Shapes chosen to cover: single k-block + tail panel, multiple
        // k-blocks, 3-D, and the unfused path.
        #[allow(clippy::type_complexity)] // (out dims, tile dims, C, C', fused) case table
        let cases: Vec<(Vec<usize>, Vec<usize>, usize, usize, bool)> = vec![
            (vec![10, 10], vec![4, 4], 32, 32, true),   // tail panel likely
            (vec![10, 10], vec![2, 2], 64, 32, true),   // k_blocks > 1 possible
            (vec![6, 8, 8], vec![2, 2, 2], 16, 16, true),
            (vec![9, 9], vec![4, 4], 32, 48, false),    // unfused + jit blocks
        ];
        for (dims, m, c, cp, fused) in cases {
            let pad = vec![1usize; dims.len()];
            let kd = vec![3usize; dims.len()];
            let shape = ConvShape::new(1, c, cp, &dims, &kd, &pad).unwrap();
            let img = test_img(1, c, &dims);
            let ker = test_ker(cp, c, &kd);
            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = BlockedKernels::from_simple(&ker).unwrap();

            let run = |backend| {
                let schedule = if fused { Schedule::FusedScatter } else { Schedule::Unfused };
                let opts = ConvOptions { stage2: backend, schedule, ..Default::default() };
                let layer = WinogradLayer::new(shape.clone(), &m, opts).unwrap();
                let mut scratch = Scratch::new(&layer, 1);
                let mut out = layer.new_output().unwrap();
                layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
                out.as_slice().to_vec()
            };
            let mono = run(Stage2Backend::Mono);
            let jit = run(Stage2Backend::Jit);
            // The JIT and mono kernels schedule their FMAs differently, so
            // outputs may differ in the last bit — compare to 1e-5
            // relative, not bitwise.
            assert_eq!(mono.len(), jit.len());
            for (i, (a, b)) in mono.iter().zip(&jit).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                    "dims {dims:?} m {m:?} C={c} C'={cp} fused={fused} index {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn jit_backend_parallel_and_fx() {
        if !wino_simd::cpu_has_avx512f() {
            return;
        }
        use crate::plan::Stage2Backend;
        let shape = ConvShape::new(2, 32, 32, &[11, 11], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(2, 32, &[11, 11]);
        let ker = test_ker(32, 32, &[3, 3]);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let opts = ConvOptions { stage2: Stage2Backend::Jit, ..Default::default() };
        let layer = WinogradLayer::new(shape, &[4, 4], opts).unwrap();

        let pool = StaticExecutor::new(4);
        let mut s_par = Scratch::new(&layer, 4);
        let mut out_par = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_par, &mut s_par, &pool).unwrap();

        let mut s_ser = Scratch::new(&layer, 1);
        let mut out_ser = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_ser, &mut s_ser, &SerialExecutor).unwrap();
        assert_eq!(out_par.as_slice(), out_ser.as_slice());

        let tk = layer.prepare_kernels(&kernels, &mut s_ser, &SerialExecutor).unwrap();
        let mut out_fx = layer.new_output().unwrap();
        layer.forward_fx(&input, &tk, &mut out_fx, &mut s_ser, &SerialExecutor).unwrap();
        assert_eq!(out_fx.as_slice(), out_ser.as_slice());
    }

    #[test]
    fn ablation_toggles_do_not_change_results() {
        let img = test_img(1, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let mut results = Vec::new();
        for streaming in [true, false] {
            for schedule in crate::plan::Schedule::ALL {
                let opts = ConvOptions {
                    streaming_stores: streaming,
                    schedule,
                    ..Default::default()
                };
                let layer = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
                let input = BlockedImage::from_simple(&img).unwrap();
                let kernels = BlockedKernels::from_simple(&ker).unwrap();
                let mut out = layer.new_output().unwrap();
                let mut scratch = Scratch::new(&layer, 1);
                layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
                results.push(out.to_simple().data);
            }
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn compensated_reduction_is_no_less_accurate() {
        // Deep channel reduction (C = 256 ⇒ many k blocks) with the
        // smallest tile, so the channel-accumulation error dominates the
        // transform error and the Kahan fold has something to win.
        let dims = [10usize, 10];
        let img = test_img(1, 256, &dims);
        let ker = test_ker(16, 256, &[3, 3]);
        let shape = ConvShape::new(1, 256, 16, &dims, &[3, 3], &[1, 1]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);

        // Compensated plans run on the mono engine, so the plain baseline
        // is pinned to it too: the comparison is of the two reductions,
        // not of the two engines' FMA orders.
        let run = |compensated: bool| {
            let opts = ConvOptions {
                compensated,
                stage2: crate::plan::Stage2Backend::Mono,
                ..Default::default()
            };
            let layer = WinogradLayer::new(shape.clone(), &[2, 2], opts).unwrap();
            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = BlockedKernels::from_simple(&ker).unwrap();
            let mut out = layer.new_output().unwrap();
            let mut scratch = Scratch::new(&layer, 1);
            layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            out.to_simple()
        };
        let max_err = |got: &SimpleImage| {
            got.data
                .iter()
                .zip(&want.data)
                .map(|(&g, &w)| (g - w).abs() / w.abs().max(1.0))
                .fold(0.0f32, f32::max)
        };
        let plain = max_err(&run(false));
        let comp = max_err(&run(true));
        assert!(comp <= 1e-4, "compensated err {comp} too large");
        assert!(
            comp <= plain,
            "Kahan reduction lost accuracy: compensated {comp} > plain {plain}"
        );
    }

    #[test]
    fn compensated_agrees_across_schedules_and_executors() {
        // The compensated fold is order-deterministic, so every schedule
        // and executor must produce bitwise-identical output.
        let img = test_img(1, 64, &[10, 10]);
        let ker = test_ker(32, 64, &[3, 3]);
        let shape = ConvShape::new(1, 64, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let mut results = Vec::new();
        for schedule in crate::plan::Schedule::ALL {
            let opts = ConvOptions { compensated: true, schedule, ..Default::default() };
            let layer = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
            for threads in [1usize, 4] {
                let mut scratch = Scratch::new(&layer, threads);
                let mut out = layer.new_output().unwrap();
                if threads == 1 {
                    layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
                } else {
                    let pool = StaticExecutor::new(threads);
                    layer.forward(&input, &kernels, &mut out, &mut scratch, &pool).unwrap();
                }
                results.push(out.to_simple().data);
            }
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
