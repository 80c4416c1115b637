//! Property-style tests on the core invariants, driven by the seeded
//! [`winograd_nd_repro::rng`] generator (this workspace builds without
//! registry access, so `proptest` is not available):
//!
//! * Winograd convolution ≈ extended-precision direct convolution for
//!   *arbitrary* layer shapes, kernel sizes, tile sizes and paddings;
//! * the static grid partitioner covers every task exactly once for
//!   arbitrary grids and thread counts;
//! * the Cook–Toom identity holds exactly over the rationals for random
//!   inputs;
//! * blocked-layout conversions round-trip.
//!
//! Each test draws a fixed number of random cases from a fixed seed, so
//! failures are reproducible; the offending case's parameters are in the
//! assertion message.

use winograd_nd_repro::baseline::{direct_f64, element_errors};
use winograd_nd_repro::conv::convolve_simple;
use winograd_nd_repro::rng::Rng;
use winograd_nd_repro::sched::GridPartition;
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, SimpleImage, SimpleKernels};
use winograd_nd_repro::transforms::{direct_correlation, Rational, Transform1D};

fn arb_rational(rng: &mut Rng) -> Rational {
    let n = rng.range_usize(0, 40) as i128 - 20;
    let d = rng.range_usize(1, 6) as i128;
    Rational::new(n, d)
}

#[test]
fn winograd_matches_reference_2d() {
    let mut rng = Rng::seed_from_u64(0x2d2d);
    let mut cases = 0;
    while cases < 24 {
        let batch = rng.range_usize(1, 2);
        let c = rng.range_usize(1, 2) * 16;
        let cp = rng.range_usize(1, 2) * 16;
        let (h, w) = (rng.range_usize(6, 15), rng.range_usize(6, 15));
        let (rh, rw) = (rng.range_usize(1, 4), rng.range_usize(1, 4));
        let (mh, mw) = (rng.range_usize(1, 4), rng.range_usize(1, 4));
        let (ph, pw) = (rng.range_usize(0, 1), rng.range_usize(0, 1));
        let seed = rng.range_usize(0, 999);
        if h + 2 * ph < rh || w + 2 * pw < rw {
            continue;
        }
        cases += 1;
        let img = SimpleImage::from_fn(batch, c, &[h, w], |b, ch, xy| {
            let u = (b * 131 + ch * 17 + xy[0] * 7 + xy[1] * 3 + seed) % 211;
            u as f32 / 211.0 * 0.2 - 0.1
        });
        let ker = SimpleKernels::from_fn(cp, c, &[rh, rw], |co, ci, xy| {
            let u = (co * 19 + ci * 5 + xy[0] * 3 + xy[1] + seed) % 97;
            u as f32 / 97.0 * 0.4 - 0.2
        });
        let got = convolve_simple(&img, &ker, &[ph, pw], &[mh, mw]).unwrap();
        let want = direct_f64(&img, &ker, &[ph, pw]);
        let (max_err, _) = element_errors(&got, &want);
        // Scale-aware bound: values are O(1) sums of ≤ c·r² terms of O(0.02).
        assert!(max_err < 2e-3, "max err {max_err} for F(({mh},{mw}),({rh},{rw})) C={c}");
    }
}

#[test]
fn winograd_matches_reference_3d() {
    let mut rng = Rng::seed_from_u64(0x3d3d);
    for _ in 0..12 {
        let d = rng.range_usize(4, 7);
        let h = rng.range_usize(4, 8);
        let m = rng.range_usize(1, 2);
        let pad = rng.range_usize(0, 1);
        let seed = rng.range_usize(0, 99);
        if d + 2 * pad < 3 || h + 2 * pad < 3 {
            continue;
        }
        let img = SimpleImage::from_fn(1, 16, &[d, h, h], |_, ch, xyz| {
            ((ch * 3 + xyz[0] * 5 + xyz[1] * 2 + xyz[2] + seed) % 37) as f32 * 0.005
        });
        let ker = SimpleKernels::from_fn(16, 16, &[3, 3, 3], |co, ci, xyz| {
            ((co + ci * 2 + xyz[0] + xyz[1] + xyz[2] + seed) % 23) as f32 * 0.02 - 0.2
        });
        let got = convolve_simple(&img, &ker, &[pad, pad, pad], &[m, m, m]).unwrap();
        let want = direct_f64(&img, &ker, &[pad, pad, pad]);
        let (max_err, _) = element_errors(&got, &want);
        assert!(max_err < 1e-3, "max err {max_err} for m={m} pad={pad}");
    }
}

#[test]
fn grid_partition_exactly_covers() {
    let mut rng = Rng::seed_from_u64(0x941d);
    for _ in 0..200 {
        let rank = rng.range_usize(1, 4);
        let dims: Vec<usize> = (0..rank).map(|_| rng.range_usize(1, 8)).collect();
        let threads = rng.range_usize(1, 16);
        let p = GridPartition::new(&dims, threads);
        assert_eq!(p.boxes.len(), threads);
        let total: usize = dims.iter().product();
        let mut seen = vec![0u32; total];
        for b in &p.boxes {
            b.for_each_flat(&dims, |i| seen[i] += 1);
        }
        assert!(seen.iter().all(|&s| s == 1), "dims {dims:?} threads {threads}");
    }
}

#[test]
fn cook_toom_identity_is_exact() {
    let mut rng = Rng::seed_from_u64(0xc007);
    for _ in 0..48 {
        let m = rng.range_usize(1, 6);
        let r = rng.range_usize(1, 5);
        let t = Transform1D::generate(m, r);
        let d: Vec<Rational> = (0..t.alpha).map(|_| arb_rational(&mut rng)).collect();
        let g: Vec<Rational> = (0..r).map(|_| arb_rational(&mut rng)).collect();
        let got = t.apply_exact(&d, &g);
        let want = direct_correlation(&d, &g, m);
        assert_eq!(got, want, "F({m},{r})");
    }
}

#[test]
fn blocked_image_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xb10c);
    for _ in 0..50 {
        let batch = rng.range_usize(1, 2);
        let c = rng.range_usize(1, 3) * 16;
        let rank = rng.range_usize(1, 3);
        let dims: Vec<usize> = (0..rank).map(|_| rng.range_usize(1, 6)).collect();
        let seed = rng.range_usize(0, 999);
        let img = SimpleImage::from_fn(batch, c, &dims, |b, ch, xy| {
            (b * 1009 + ch * 31 + xy.iter().sum::<usize>() + seed) as f32 * 0.01
        });
        let blocked = BlockedImage::from_simple(&img).unwrap();
        assert_eq!(blocked.to_simple(), img, "dims {dims:?} C={c}");
    }
}

#[test]
fn blocked_kernel_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xb10d);
    for _ in 0..50 {
        let cin = rng.range_usize(1, 19);
        let cp = rng.range_usize(1, 2) * 16;
        let rank = rng.range_usize(1, 3);
        let kd: Vec<usize> = (0..rank).map(|_| rng.range_usize(1, 4)).collect();
        let k = SimpleKernels::from_fn(cp, cin, &kd, |co, ci, xy| {
            (co * 101 + ci * 13 + xy.iter().sum::<usize>()) as f32 * 0.1
        });
        let blocked = BlockedKernels::from_simple(&k).unwrap();
        assert_eq!(blocked.to_simple(), k, "kd {kd:?} cin={cin}");
    }
}

// ---------------------------------------------------------------------------
// Differential schedule sweep: random layers, all three stage schedules
// (unfused / fused-scatter / pipelined) on each pinned stage-2 engine
// against the extended-precision direct oracle, with a greedy
// minimal-shrink report on failure.
// ---------------------------------------------------------------------------

use winograd_nd_repro::baseline::direct_f64_geo;
use winograd_nd_repro::conv::{plan_dispatch, ConvOptions, FallbackPolicy, Schedule, Stage2Backend};
use winograd_nd_repro::sched::SerialExecutor;
use winograd_nd_repro::tensor::ConvShape;

/// Pinned default seed for the sweep; override with `WINO_SWEEP_SEED=<u64>`
/// to explore a different region of the case space.
const SWEEP_SEED: u64 = 0xd1ff_2026;
const SWEEP_CASES: usize = 320;

#[derive(Clone, Debug, PartialEq)]
struct SweepCase {
    batch: usize,
    c: usize,
    cp: usize,
    dims: Vec<usize>,
    kd: Vec<usize>,
    m: Vec<usize>,
    pad: Vec<usize>,
    stride: Vec<usize>,
    dilation: Vec<usize>,
    groups: usize,
    seed: usize,
}

impl SweepCase {
    /// Geometry the dispatcher is expected to accept: the padded image
    /// covers the *effective* (dilated) kernel in every dimension, and
    /// the group count divides both channel counts. Stride never affects
    /// representability — it only decimates the output.
    fn valid(&self) -> bool {
        let spatial = self
            .dims
            .iter()
            .zip(&self.kd)
            .zip(&self.pad)
            .zip(&self.dilation)
            .all(|(((&d, &r), &p), &dil)| {
                let effective_kernel = (r - 1) * dil + 1;
                d + 2 * p >= effective_kernel
            });
        spatial
            && self.c.is_multiple_of(self.groups)
            && self.cp.is_multiple_of(self.groups)
    }
}

fn draw_case(rng: &mut Rng) -> SweepCase {
    let rank = rng.range_usize(1, 3);
    let hi = if rank == 3 { 7 } else { 12 };
    let c = rng.range_usize(1, 2) * 16;
    SweepCase {
        batch: rng.range_usize(1, 2),
        c,
        cp: rng.range_usize(1, 2) * 16,
        dims: (0..rank).map(|_| rng.range_usize(3, hi)).collect(),
        kd: (0..rank).map(|_| rng.range_usize(1, 3)).collect(),
        m: (0..rank).map(|_| rng.range_usize(1, 4)).collect(),
        pad: (0..rank).map(|_| rng.range_usize(0, 1)).collect(),
        stride: (0..rank).map(|_| rng.range_usize(1, 2)).collect(),
        dilation: (0..rank).map(|_| rng.range_usize(1, 2)).collect(),
        // The issue's group lattice: dense, half-width, depthwise.
        groups: match rng.range_usize(0, 2) {
            0 => 1,
            1 => c / 2,
            _ => c,
        },
        seed: rng.range_usize(0, 999),
    }
}

/// Run one case through the dispatch layer under every schedule, once per
/// pinned stage-2 engine: the JIT (the default where AVX-512F is present)
/// and mono (the only engine elsewhere, and the serve breaker's rung).
/// `None` means it passed; `Some` carries the failure description. Every
/// route — direct Winograd, polyphase, grouped, im2col — is judged
/// against the same f64 oracle, and within each engine all schedules must
/// agree bitwise. (The engines schedule their FMAs differently, so they
/// may differ from each other in the last bit.)
fn sweep_failure(case: &SweepCase) -> Option<String> {
    let cg = case.c / case.groups;
    let img = SimpleImage::from_fn(case.batch, case.c, &case.dims, |b, ch, xy| {
        let mut h = b.wrapping_mul(131).wrapping_add(ch.wrapping_mul(17)).wrapping_add(case.seed);
        for &x in xy {
            h = h.wrapping_mul(31).wrapping_add(x);
        }
        (h % 211) as f32 / 211.0 * 0.2 - 0.1
    });
    // Grouped convention: kernels carry C/G input channels.
    let ker = SimpleKernels::from_fn(case.cp, cg, &case.kd, |co, ci, xy| {
        let mut h = co.wrapping_mul(19).wrapping_add(ci.wrapping_mul(5)).wrapping_add(case.seed);
        for &x in xy {
            h = h.wrapping_mul(13).wrapping_add(x);
        }
        (h % 97) as f32 / 97.0 * 0.4 - 0.2
    });
    let shape = match ConvShape::new(case.batch, case.c, case.cp, &case.dims, &case.kd, &case.pad)
    {
        Ok(s) => s,
        Err(e) => return Some(format!("shape rejected: {e:?}")),
    };
    let base_opts = ConvOptions::default()
        .with_stride(&case.stride)
        .with_dilation(&case.dilation)
        .with_groups(case.groups);
    let geo = base_opts.geometry(case.dims.len());
    let truth = direct_f64_geo(&img, &ker, &case.pad, &geo);
    let bi = match BlockedImage::from_simple(&img) {
        Ok(b) => b,
        Err(e) => return Some(format!("blocking rejected: {e:?}")),
    };
    let bk = match BlockedKernels::from_simple(&ker) {
        Ok(b) => b,
        Err(e) => return Some(format!("kernel blocking rejected: {e:?}")),
    };

    let policy = FallbackPolicy::default();
    let engines: &[Stage2Backend] = if winograd_nd_repro::simd::cpu_has_avx512f() {
        &[Stage2Backend::Jit, Stage2Backend::Mono]
    } else {
        &[Stage2Backend::Mono]
    };
    for &stage2 in engines {
        let mut outputs: Vec<(Schedule, Vec<f32>)> = Vec::new();
        for schedule in Schedule::ALL {
            let at = format!("{stage2:?}/{}", schedule.name());
            let opts = ConvOptions { schedule, stage2, ..base_opts };
            let (dp, _fb) = match plan_dispatch(&shape, &case.m, opts, &policy) {
                Ok(v) => v,
                Err(e) => return Some(format!("dispatch rejected [{at}]: {e:?}")),
            };
            let mut out = match dp.new_output() {
                Ok(o) => o,
                Err(e) => return Some(format!("output alloc [{at}]: {e:?}")),
            };
            if let Err(e) = dp.forward(&bi, &bk, &mut out, &SerialExecutor) {
                return Some(format!("forward failed [{at}]: {e:?}"));
            }
            let (max_err, _) = element_errors(&out.to_simple(), &truth);
            // Scale-aware fp32 bound: inputs are O(0.1)·O(0.2) products
            // summed over ≤ c·∏r terms, and the α ≤ 7 transforms amplify
            // roundoff.
            if max_err >= 5e-3 {
                return Some(format!("[{at}] max err {max_err} vs oracle"));
            }
            outputs.push((schedule, out.as_slice().to_vec()));
        }
        for (s, o) in &outputs[1..] {
            if o != &outputs[0].1 {
                return Some(format!(
                    "{stage2:?}: schedule {} diverged bitwise from {}",
                    s.name(),
                    outputs[0].0.name()
                ));
            }
        }
    }
    None
}

/// Greedy minimal shrink: repeatedly try the structured reductions below
/// and keep any that still satisfies `fails`, until a fixpoint.
fn shrink_case(start: SweepCase, fails: &dyn Fn(&SweepCase) -> bool) -> SweepCase {
    let mut cur = start;
    'outer: for _ in 0..1000 {
        let mut cands: Vec<SweepCase> = Vec::new();
        if cur.batch > 1 {
            cands.push(SweepCase { batch: 1, ..cur.clone() });
        }
        if cur.c > 16 {
            cands.push(SweepCase { c: 16, ..cur.clone() });
        }
        if cur.cp > 16 {
            cands.push(SweepCase { cp: 16, ..cur.clone() });
        }
        if cur.seed != 0 {
            cands.push(SweepCase { seed: 0, ..cur.clone() });
        }
        if cur.groups > 1 {
            cands.push(SweepCase { groups: 1, ..cur.clone() });
            // Half-way step for cases that only fail when grouped at all.
            if cur.groups.is_multiple_of(2) {
                cands.push(SweepCase { groups: cur.groups / 2, ..cur.clone() });
            }
        }
        for d in 0..cur.dims.len() {
            if cur.stride[d] > 1 {
                let mut c = cur.clone();
                c.stride[d] = 1;
                cands.push(c);
            }
            if cur.dilation[d] > 1 {
                let mut c = cur.clone();
                c.dilation[d] = 1;
                cands.push(c);
            }
            if cur.dims[d] > 1 {
                let mut c = cur.clone();
                c.dims[d] -= 1;
                cands.push(c);
            }
            if cur.pad[d] > 0 {
                let mut c = cur.clone();
                c.pad[d] -= 1;
                cands.push(c);
            }
            if cur.kd[d] > 1 {
                let mut c = cur.clone();
                c.kd[d] -= 1;
                cands.push(c);
            }
            if cur.m[d] > 1 {
                let mut c = cur.clone();
                c.m[d] -= 1;
                cands.push(c);
            }
        }
        for cand in cands {
            if cand.valid() && fails(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    cur
}

#[test]
fn differential_schedule_sweep() {
    let seed = std::env::var("WINO_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SWEEP_SEED);
    let mut rng = Rng::seed_from_u64(seed);
    let mut cases = 0usize;
    let mut drawn = 0usize;
    while cases < SWEEP_CASES {
        drawn += 1;
        assert!(drawn < SWEEP_CASES * 20, "case generator rejects too much");
        let case = draw_case(&mut rng);
        if !case.valid() {
            continue;
        }
        cases += 1;
        if let Some(err) = sweep_failure(&case) {
            let minimal = shrink_case(case.clone(), &|c| sweep_failure(c).is_some());
            let min_err = sweep_failure(&minimal).unwrap_or_default();
            panic!(
                "differential sweep failed (seed {seed:#x}, case {cases}/{SWEEP_CASES})\n\
                 original: {case:?}\n  -> {err}\n\
                 minimal:  {minimal:?}\n  -> {min_err}"
            );
        }
    }
}

#[test]
fn sweep_shrinker_finds_a_minimal_case() {
    // Self-test on a synthetic predicate: "fails" iff dims[0] ≥ 5 and
    // c ≥ 32. The shrinker must land exactly on the boundary.
    let start = SweepCase {
        batch: 2,
        c: 32,
        cp: 32,
        dims: vec![9, 7],
        kd: vec![3, 3],
        m: vec![2, 2],
        pad: vec![1, 1],
        stride: vec![2, 2],
        dilation: vec![2, 2],
        groups: 2,
        seed: 42,
    };
    let fails = |c: &SweepCase| c.dims[0] >= 5 && c.c >= 32;
    assert!(fails(&start));
    let min = shrink_case(start, &fails);
    assert_eq!(min.c, 32, "c cannot shrink below the failure threshold");
    assert_eq!(min.dims[0], 5, "dims[0] must shrink to the boundary");
    assert_eq!(min.batch, 1);
    assert_eq!(min.cp, 16);
    assert_eq!(min.seed, 0);
    assert_eq!(min.dims[1], 1);
    assert_eq!(min.kd, vec![1, 1]);
    assert_eq!(min.m, vec![1, 1]);
    assert_eq!(min.pad, vec![0, 0]);
    // The geometry fields shrink back to the identity too.
    assert_eq!(min.stride, vec![1, 1]);
    assert_eq!(min.dilation, vec![1, 1]);
    assert_eq!(min.groups, 1);
}

#[test]
fn sweep_case_validity_covers_the_geometry_lattice() {
    // The generator's rejection rules, pinned: dilation pushing the
    // effective kernel past the padded extent is invalid; stride never
    // is; group counts must divide both channel counts.
    let base = SweepCase {
        batch: 1,
        c: 32,
        cp: 32,
        dims: vec![4, 4],
        kd: vec![3, 3],
        m: vec![2, 2],
        pad: vec![0, 0],
        stride: vec![1, 1],
        dilation: vec![1, 1],
        groups: 1,
        seed: 0,
    };
    assert!(base.valid());
    assert!(!SweepCase { dilation: vec![2, 2], ..base.clone() }.valid(), "r_eff 5 > 4");
    assert!(SweepCase { dilation: vec![2, 2], pad: vec![1, 1], ..base.clone() }.valid());
    assert!(SweepCase { stride: vec![5, 5], ..base.clone() }.valid(), "stride can exceed extent");
    assert!(!SweepCase { groups: 3, ..base.clone() }.valid());
    assert!(!SweepCase { cp: 16, groups: 32, ..base.clone() }.valid(), "G must divide C'");
    assert!(SweepCase { groups: 32, ..base }.valid());
}
