//! Integration of the parallel substrate and the JIT with the full
//! pipeline: every executor and every ablation toggle must produce
//! bit-identical outputs, and JIT-generated GEMM kernels must agree with
//! the monomorphised engine on convolution-shaped problems.

use winograd_nd_repro::conv::{ConvOptions, Scratch, Stage2Backend, WinogradLayer};
use winograd_nd_repro::gemm;
use winograd_nd_repro::jit::{jit_batched_gemm, JitKernelPair};
use winograd_nd_repro::sched::{DynamicExecutor, Executor, SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvShape, SimpleImage, SimpleKernels};

fn setup(shape: &ConvShape) -> (BlockedImage, BlockedKernels) {
    let img = SimpleImage::from_fn(shape.batch, shape.in_channels, &shape.image_dims, |b, c, xy| {
        ((b * 7 + c * 3 + xy.iter().sum::<usize>()) % 23) as f32 * 0.04 - 0.4
    });
    let ker = SimpleKernels::from_fn(
        shape.out_channels,
        shape.in_channels,
        &shape.kernel_dims,
        |co, ci, xy| ((co + ci * 5 + xy.iter().sum::<usize>() * 2) % 19) as f32 * 0.06 - 0.5,
    );
    (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

#[test]
fn all_executors_and_thread_counts_agree() {
    let shape = ConvShape::new(2, 32, 32, &[13, 13], &[3, 3], &[1, 1]).unwrap();
    let plan = WinogradLayer::new(shape.clone(), &[4, 4], ConvOptions::default()).unwrap();
    let (input, kernels) = setup(&shape);

    let run = |exec: &dyn Executor| {
        let mut scratch = Scratch::new(&plan, exec.threads());
        let mut out = plan.new_output().unwrap();
        plan.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
        out.as_slice().to_vec()
    };
    let reference = run(&SerialExecutor);
    for threads in [2, 3, 5, 8] {
        let exec = StaticExecutor::new(threads);
        assert_eq!(run(&exec), reference, "static executor with {threads} threads");
    }
    assert_eq!(run(&DynamicExecutor::new(4)), reference, "dynamic executor");
}

#[test]
fn ablation_toggles_preserve_results_in_parallel() {
    // Bitwise schedule invariance holds within each stage-2 engine (the
    // two engines order their FMAs differently, so not across them).
    let shape = ConvShape::new(1, 32, 48, &[12, 12], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = setup(&shape);
    let exec = StaticExecutor::new(4);
    let engines: &[Stage2Backend] = if winograd_nd_repro::simd::cpu_has_avx512f() {
        &[Stage2Backend::Mono, Stage2Backend::Jit]
    } else {
        &[Stage2Backend::Mono]
    };
    for &stage2 in engines {
        let mut outputs = Vec::new();
        for streaming in [true, false] {
            for schedule in wino_conv::Schedule::ALL {
                let opts = ConvOptions {
                    streaming_stores: streaming,
                    schedule,
                    stage2,
                    ..Default::default()
                };
                let plan = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
                assert_eq!(plan.opts.stage2, stage2);
                let mut scratch = Scratch::new(&plan, exec.threads());
                let mut out = plan.new_output().unwrap();
                plan.forward(&input, &kernels, &mut out, &mut scratch, &exec).unwrap();
                outputs.push(((streaming, schedule), out.as_slice().to_vec()));
            }
        }
        for (toggles, o) in &outputs[1..] {
            assert_eq!(o, &outputs[0].1, "{stage2:?} {toggles:?}");
        }
    }
}

#[test]
fn explicit_blockings_all_compute_the_same_conv() {
    // Sweep legal (n_blk, C_blk, C'_blk) for one layer; the result must
    // never depend on the blocking.
    let shape = ConvShape::new(1, 64, 64, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = setup(&shape);
    let mut reference: Option<Vec<f32>> = None;
    for n_blk in [1, 5, 8, 17, 30] {
        for (cb, cpb) in [(16, 16), (32, 64), (64, 32), (64, 64)] {
            let opts = ConvOptions {
                block: Some(gemm::BlockShape { n_blk, c_blk: cb, cp_blk: cpb }),
                ..Default::default()
            };
            let plan = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
            let mut scratch = Scratch::new(&plan, 1);
            let mut out = plan.new_output().unwrap();
            plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            match &reference {
                None => reference = Some(out.as_slice().to_vec()),
                Some(r) => assert_eq!(
                    out.as_slice(),
                    &r[..],
                    "blocking n_blk={n_blk} cb={cb} cpb={cpb} changed the result"
                ),
            }
        }
    }
}

#[test]
fn jit_gemm_agrees_with_mono_gemm_on_conv_shaped_problems() {
    if !winograd_nd_repro::simd::cpu_has_avx512f() {
        eprintln!("skipping: no AVX-512F");
        return;
    }
    // The stage-2 problems of a few real plans.
    for (t, rows, c, cp, nb, cb, cpb) in
        [(36usize, 98usize, 64usize, 64usize, 8usize, 64usize, 64usize), (16, 50, 32, 48, 5, 32, 16), (216, 24, 16, 16, 6, 16, 16)]
    {
        let mut u = BlockedMatrices::new(t, rows, c, nb, cb);
        let mut v = BlockedMatrices::new(t, c, cp, cb, cpb);
        for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 29) % 31) as f32 * 0.05 - 0.7;
        }
        for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 37) % 41) as f32 * 0.04 - 0.8;
        }
        let mut x_jit = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let mut x_mono = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let pair = JitKernelPair::compile(nb, cb, cpb).unwrap();
        jit_batched_gemm(&u, &v, &mut x_jit, &pair);
        gemm::batched_gemm(&u, &v, &mut x_mono, );
        for i in 0..x_jit.as_slice().len() {
            let (a, b) = (x_jit.as_slice()[i], x_mono.as_slice()[i]);
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "t={t} rows={rows} elem {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn scratch_is_shareable_across_same_shaped_layers() {
    // The paper's aux buffer is reused across layers; two different
    // kernel banks through one scratch must give independent results.
    let shape = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[1, 1]).unwrap();
    let plan = WinogradLayer::new(shape.clone(), &[2, 2], ConvOptions::default()).unwrap();
    let (input, k1) = setup(&shape);
    let ker2 = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
        ((co * 11 + ci + xy[0] * 2 + xy[1]) % 7) as f32 * 0.2 - 0.6
    });
    let k2 = BlockedKernels::from_simple(&ker2).unwrap();

    let mut scratch = Scratch::new(&plan, 1);
    let mut o_shared_1 = plan.new_output().unwrap();
    let mut o_shared_2 = plan.new_output().unwrap();
    plan.forward(&input, &k1, &mut o_shared_1, &mut scratch, &SerialExecutor).unwrap();
    plan.forward(&input, &k2, &mut o_shared_2, &mut scratch, &SerialExecutor).unwrap();

    let mut fresh = Scratch::new(&plan, 1);
    let mut o_fresh_2 = plan.new_output().unwrap();
    plan.forward(&input, &k2, &mut o_fresh_2, &mut fresh, &SerialExecutor).unwrap();
    assert_eq!(o_shared_2.as_slice(), o_fresh_2.as_slice());
    assert_ne!(o_shared_1.as_slice(), o_shared_2.as_slice());
}
