//! The two closed-loop `Network` workloads: `fx2d_wide` (memoised-kernel
//! inference, GEMM-bound) and `train3d_encoder` (training mode, narrow
//! 3-D layers plus a strided, grouped layer on the dispatch route).

use std::time::{Duration, Instant};

use wino_conv::{
    stage1, stage2, stage3, ConvOptions, ExecutionReport, FallbackPolicy, LayerPlan, LayerSpec,
    Network, Route, Scratch, TransformedKernels, WinoError,
};
use wino_probe::Json;
use wino_sched::{Executor, SerialExecutor, StaticExecutor};
use wino_simd::{thread_alloc_bytes, thread_alloc_calls};
use wino_tensor::{
    BlockedImage, BlockedKernels, ConvGeometry, ConvShape, SimpleImage, SimpleKernels,
};

use crate::report::{obj, Report};
use crate::stats::{median, percentile, samples_for, sorted, tail_supported, GATED_P, TAIL_P};
use crate::trace::{SchedTotals, TimedExec, Tracer};
use crate::{inputs, machine, oracle, RunCfg, SetupTimes};

/// Stretches an untraced run is split into. Set-up is timed in fresh
/// processes (see [`crate::time_setups`]) before the first stretch and
/// between stretches, so it is sampled across the whole run, as the
/// forwards are; `setup_s` is the median.
const SEGMENTS: usize = 10;
/// Set-ups timed before each stretch.
const SETUPS_PER_STRETCH: usize = 2;
/// Set-ups timed per run; a traced run times them all before it starts.
const SETUPS: usize = SEGMENTS * SETUPS_PER_STRETCH;
/// Untimed forwards before measuring.
const WARMUP: usize = 3;
/// Repetitions of each call in the traced layer pass.
const LAYER_REPS: usize = 7;

/// One `Network`: a stack of layers sharing one conv geometry.
pub struct NetSpec {
    pub stride: usize,
    pub groups: usize,
    pub layers: Vec<LayerSpec>,
}

pub struct NetWorkload {
    pub name: &'static str,
    pub batch: usize,
    pub in_ch: usize,
    pub dims: Vec<usize>,
    /// Networks applied in sequence, each to the previous one's output.
    pub nets: Vec<NetSpec>,
    /// Inference with memoised kernel transforms (`forward_fx`) rather
    /// than training mode (`run_net`).
    pub fx: bool,
}

impl NetWorkload {
    /// Batch 4, 64→128→128→128 channels, 3×3 "same", 28×28, F(4×4, 3×3).
    pub fn fx2d_wide(tiny: bool) -> NetWorkload {
        let (batch, in_ch, width, dims) = if tiny {
            (1, 16, 32, vec![8, 8])
        } else {
            (4, 64, 128, vec![28, 28])
        };
        NetWorkload {
            name: "fx2d_wide",
            batch,
            in_ch,
            dims,
            nets: vec![NetSpec {
                stride: 1,
                groups: 1,
                layers: (0..3).map(|_| LayerSpec::same(width, 2, 3, 4)).collect(),
            }],
            fx: true,
        }
    }

    /// Batch 1, 16→16→16→32 channels, 3×3×3 "same", F(2³, 3³), then a
    /// stride-2, 2-group 3×3×3 layer 32→64.
    pub fn train3d_encoder(tiny: bool) -> NetWorkload {
        let dims = if tiny {
            vec![4, 6, 6]
        } else {
            vec![16, 40, 40]
        };
        NetWorkload {
            name: "train3d_encoder",
            batch: 1,
            in_ch: 16,
            dims,
            nets: vec![
                NetSpec {
                    stride: 1,
                    groups: 1,
                    layers: vec![
                        LayerSpec::same(16, 3, 3, 2),
                        LayerSpec::same(16, 3, 3, 2),
                        LayerSpec::same(32, 3, 3, 2),
                    ],
                },
                NetSpec {
                    stride: 2,
                    groups: 2,
                    layers: vec![LayerSpec::same(64, 3, 3, 2)],
                },
            ],
            fx: false,
        }
    }

    fn rank(&self) -> usize {
        self.dims.len()
    }

    fn opts(&self, net: &NetSpec) -> ConvOptions {
        ConvOptions::default()
            .with_stride(&vec![net.stride; self.rank()])
            .with_groups(net.groups)
    }

    fn geometry(&self, net: &NetSpec) -> ConvGeometry {
        self.opts(net).geometry(self.rank())
    }

    /// The model's kernels per network and layer, in the grouped
    /// convention.
    fn kernels(&self) -> Vec<Vec<SimpleKernels>> {
        let mut c = self.in_ch;
        let mut idx = 0;
        self.nets
            .iter()
            .map(|net| {
                net.layers
                    .iter()
                    .map(|l| {
                        idx += 1;
                        let mut rng = inputs::stream(inputs::MODEL_SEED, idx);
                        let k =
                            inputs::kernels(&mut rng, l.out_channels, c / net.groups, &l.kernel);
                        c = l.out_channels;
                        k
                    })
                    .collect()
            })
            .collect()
    }
}

/// The built program: planned networks, blocked kernels and, for FX,
/// the memoised kernel transforms.
pub(crate) struct Model {
    pub(crate) nets: Vec<Network>,
    pub(crate) kernels: Vec<Vec<BlockedKernels>>,
    pub(crate) fx: Option<Vec<TransformedKernels>>,
}

/// Blocked copies of per-network kernels.
fn blocked(sk: &[Vec<SimpleKernels>]) -> Vec<Vec<BlockedKernels>> {
    sk.iter()
        .map(|v| {
            v.iter()
                .map(|k| BlockedKernels::from_simple(k).expect("blockable kernels"))
                .collect()
        })
        .collect()
}

/// One set-up on a new pinned pool, as a run builds its model: the
/// `--setup-only` mode of a fresh process.
pub fn setup_once(w: &NetWorkload) -> Result<SetupTimes, String> {
    let cpus = machine::allowed_cpus();
    let exec = StaticExecutor::new(cpus.len());
    machine::pin_slots(&exec, &cpus);
    build(w, &blocked(&w.kernels()), cpus.len(), &exec)
        .map(|(_, t)| t)
        .map_err(|e| e.to_string())
}

fn build(
    w: &NetWorkload,
    kernels: &[Vec<BlockedKernels>],
    threads: usize,
    exec: &dyn Executor,
) -> Result<(Model, SetupTimes), WinoError> {
    let policy = FallbackPolicy::default();
    let mut nets = Vec::with_capacity(w.nets.len());
    let mut dims = w.dims.clone();
    let mut c = w.in_ch;
    let mut plan_s = 0.0;
    for spec in &w.nets {
        let t = Instant::now();
        let net = Network::with_policy(
            w.batch,
            c,
            &dims,
            &spec.layers,
            w.opts(spec),
            threads,
            &policy,
        )?;
        plan_s += t.elapsed().as_secs_f64();
        let last = net.layers().last().expect("networks have layers");
        dims = last.plan.out_dims();
        c = last.plan.shape().out_channels;
        nets.push(net);
    }
    let mut prepare_s = 0.0;
    let fx = if w.fx {
        let t = Instant::now();
        let fx = nets[0].prepare_kernels(&kernels[0], exec)?;
        prepare_s = t.elapsed().as_secs_f64();
        Some(fx)
    } else {
        None
    };
    Ok((
        Model {
            nets,
            kernels: kernels.to_vec(),
            fx,
        },
        SetupTimes { plan_s, prepare_s },
    ))
}

/// One forward of the workload's path. Training mode returns the
/// per-layer execution reports; FX has none.
pub(crate) fn forward(
    model: &mut Model,
    input: &BlockedImage,
    exec: &dyn Executor,
) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
    if let Some(fx) = &model.fx {
        return Ok((model.nets[0].forward_fx(input, fx, exec)?, Vec::new()));
    }
    train_forward(model, input, exec)
}

fn train_forward(
    model: &mut Model,
    input: &BlockedImage,
    exec: &dyn Executor,
) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
    let policy = FallbackPolicy::default();
    let mut cur: Option<BlockedImage> = None;
    let mut reports = Vec::new();
    for (net, k) in model.nets.iter_mut().zip(&model.kernels) {
        let (out, r) = net.run_net(cur.as_ref().unwrap_or(input), k, exec, &policy)?;
        reports.extend(r);
        cur = Some(out);
    }
    Ok((cur.expect("at least one network"), reports))
}

fn bitwise_eq(a: &BlockedImage, b: &BlockedImage) -> bool {
    a.dims == b.dims
        && a.channels == b.channels
        && a.as_slice().len() == b.as_slice().len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Direct-convolution FLOPs of one forward (the paper's normaliser).
fn direct_flops(model: &Model) -> f64 {
    let mut f = 0u128;
    for net in &model.nets {
        for l in net.layers() {
            f += match &l.plan {
                LayerPlan::Winograd(p) => p.direct_flops(),
                LayerPlan::Dispatch(dp) => dp.direct_flops(),
                LayerPlan::Im2col { shape } => shape.direct_flops(),
            };
        }
    }
    f as f64
}

fn im2col_bound(shape: &ConvShape) -> f64 {
    let taps: usize = shape.kernel_dims.iter().product();
    f64::from(f32::EPSILON) * (shape.in_channels * taps) as f64
}

/// A-priori relative error bound of one planned layer.
pub(crate) fn layer_bound(plan: &LayerPlan) -> f64 {
    match plan {
        LayerPlan::Winograd(p) => p.predicted_bound(),
        LayerPlan::Im2col { shape } => im2col_bound(shape),
        LayerPlan::Dispatch(dp) => match &dp.route {
            Route::Direct(p) => p.predicted_bound(),
            Route::Grouped { plan } => plan.predicted_bound(),
            Route::Polyphase { phases } => phases.iter().map(|ph| ph.plan.predicted_bound()).sum(),
            Route::Im2col => im2col_bound(&dp.shape),
        },
    }
}

/// The f64 oracle chained through every layer with the specs' ReLU.
fn oracle_chain(
    w: &NetWorkload,
    img: &SimpleImage,
    ks: &[Vec<SimpleKernels>],
    cpus: &[usize],
) -> SimpleImage {
    let mut cur = img.clone();
    for (spec, kl) in w.nets.iter().zip(ks) {
        let geo = w.geometry(spec);
        for (l, k) in spec.layers.iter().zip(kl) {
            let relu = l.activation == wino_conv::Activation::Relu;
            cur = oracle::layer(&cur, k, &l.padding, &geo, relu, cpus);
        }
    }
    cur
}

/// Per layer: the backend that ran, its fallback code and the stage-2
/// engine.
pub(crate) fn layer_provenance(nets: &[Network], reports: &[ExecutionReport]) -> Json {
    let mut out = Vec::new();
    let mut i = 0;
    for net in nets {
        for l in net.layers() {
            let stage2 = match &l.plan {
                LayerPlan::Winograd(p) => format!("{:?}", p.opts.stage2),
                LayerPlan::Dispatch(dp) => match &dp.route {
                    Route::Direct(p) | Route::Grouped { plan: p } => format!("{:?}", p.opts.stage2),
                    Route::Polyphase { phases } => phases
                        .first()
                        .map_or("none".into(), |ph| format!("{:?}", ph.plan.opts.stage2)),
                    Route::Im2col => "none".into(),
                },
                LayerPlan::Im2col { .. } => "none".into(),
            };
            let (backend, fallback) = match reports.get(i) {
                Some(r) => (r.backend.name(), r.fallback.map_or("none", |f| f.code())),
                None => ("unreported", "none"),
            };
            out.push(obj([
                ("layer", Json::Num(i as f64)),
                ("backend", Json::Str(backend.into())),
                ("fallback", Json::Str(fallback.into())),
                ("stage2", Json::Str(stage2.into())),
            ]));
            i += 1;
        }
    }
    Json::Arr(out)
}

/// What the timed loop saw.
#[derive(Default)]
struct Loop {
    ms: Vec<f64>,
    failed: u64,
    /// Closed-loop lateness: from one forward's end to the next one's
    /// start, the benchmark's own bookkeeping.
    gap_ms: Vec<f64>,
}

impl Loop {
    fn absorb(&mut self, other: Loop) {
        self.ms.extend(other.ms);
        self.failed += other.failed;
        self.gap_ms.extend(other.gap_ms);
    }
}

/// Run forwards for `budget`, and on until `min_samples` are taken (at
/// most `4 × budget` in all). Each output is checked bitwise against
/// `reference` outside the timed interval.
fn timed_loop(
    model: &mut Model,
    input: &BlockedImage,
    exec: &dyn Executor,
    reference: &BlockedImage,
    budget: Duration,
    min_samples: usize,
    spans: Option<(&Tracer, &TimedExec, u64)>,
) -> Loop {
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut failed = 0;
    let mut gap_ms = Vec::new();
    let mut prev_end: Option<Instant> = None;
    // Span ids number the forwards of a traced run from `first`.
    let mut i = spans.map_or(0, |(_, _, first)| first);
    loop {
        let el = start.elapsed();
        if (el >= budget && ms.len() >= min_samples) || el >= budget * 4 {
            break;
        }
        let t0 = Instant::now();
        if let Some(end) = prev_end {
            gap_ms.push((t0 - end).as_secs_f64() * 1e3);
        }
        let span = spans.map(|(tracer, timed, _)| {
            let span = tracer.open("forward", t0, None, i);
            timed.set_parent(Some(span), i);
            (tracer, span)
        });
        let r = forward(model, input, exec);
        let t1 = Instant::now();
        if let Some((tracer, span)) = span {
            tracer.close(span, t1);
        }
        i += 1;
        ms.push((t1 - t0).as_secs_f64() * 1e3);
        prev_end = Some(t1);
        match r {
            Ok((out, _)) if bitwise_eq(&out, reference) => {}
            _ => failed += 1,
        }
    }
    Loop { ms, failed, gap_ms }
}

pub fn run(w: &NetWorkload, cfg: &RunCfg) -> Report {
    let mut rep = Report::new(w.name, cfg.trace);
    let cpus = machine::allowed_cpus();
    let threads = cpus.len();

    // Seeded inputs.
    let img = inputs::image(&mut inputs::stream(cfg.seed, 1), w.batch, w.in_ch, &w.dims);
    let sk = w.kernels();
    let bk = blocked(&sk);
    let input = BlockedImage::from_simple(&img).expect("blockable input");

    // Set-ups are timed before the pool exists: all of a traced run's,
    // and an untraced run's first; it times the rest between stretches.
    let first = if cfg.trace {
        SETUPS
    } else {
        SETUPS_PER_STRETCH
    };
    let mut setups = match crate::time_setups(cfg, w.name, first, || setup_once(w)) {
        Ok(t) => t,
        Err(e) => return rep.abort(format!("set-up failed: {e}")),
    };

    let mut exec = StaticExecutor::new(threads);
    let pinned = machine::pin_slots(&exec, &cpus);
    crate::provenance(&mut rep, threads, pinned);
    let mut model = match build(w, &bk, threads, &exec) {
        Ok((m, _)) => m,
        Err(e) => return rep.abort(format!("set-up failed: {e}")),
    };
    let flops = direct_flops(&model);

    // Warm-up; the last warm-up output is the reference every timed
    // output must reproduce bit for bit.
    let mut reference = None;
    for _ in 0..WARMUP {
        match forward(&mut model, &input, &exec) {
            Ok((out, _)) => reference = Some(out),
            Err(e) => return rep.abort(format!("warm-up forward failed: {e}")),
        }
    }
    let reference = reference.expect("warm-up ran");

    if cfg.trace {
        traced(w, cfg, &mut rep, &mut model, &input, &reference, &exec);
        let (plan, prepare): (Vec<f64>, Vec<f64>) = setups
            .iter()
            .map(|t| (t.plan_s * 1e3, t.prepare_s * 1e3))
            .unzip();
        rep.set("setup.plan_ms", median(&plan), plan.len());
        rep.set("setup.prepare_ms", median(&prepare), prepare.len());
    } else {
        let budget = Duration::from_secs_f64(cfg.seconds) / SEGMENTS as u32;
        let min_samples = (samples_for(GATED_P) + 10).div_ceil(SEGMENTS);
        let mut ms = Vec::new();
        let mut peak_rss = 0.0;
        for seg in 0..SEGMENTS {
            if seg > 0 {
                // The pool stops while set-up is timed: idle, its workers
                // spin.
                drop(exec);
                match crate::time_setups(cfg, w.name, SETUPS_PER_STRETCH, || setup_once(w)) {
                    Ok(t) => setups.extend(t),
                    Err(e) => return rep.abort(format!("set-up failed: {e}")),
                }
                exec = StaticExecutor::new(threads);
                machine::pin_slots(&exec, &cpus);
                // The new pool's first forward is checked but not timed.
                let first = forward(&mut model, &input, &exec);
                rep.attempted += 1;
                if !matches!(&first, Ok((out, _)) if bitwise_eq(out, &reference)) {
                    rep.failed += 1;
                }
            }
            let lp = timed_loop(
                &mut model,
                &input,
                &exec,
                &reference,
                budget,
                min_samples,
                None,
            );
            rep.attempted += lp.ms.len() as u64;
            rep.failed += lp.failed;
            ms.extend(lp.ms);
            if seg == 0 {
                // The workload's own peak. New pools' threads take new
                // allocator arenas, so later readings would count the
                // benchmark's pool restarts.
                peak_rss = machine::peak_rss_mib();
            }
        }
        let s = sorted(&ms);
        let n = s.len();
        rep.check("p95 has ten forwards beyond it", tail_supported(n, GATED_P));
        forward_metrics(&mut rep, &s, flops);
        let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
        rep.set("setup_s", median(&setup_s), setup_s.len());
        rep.set("peak_rss_mib", peak_rss, 1);
    }

    // Correctness, outside every timed interval.
    let train = train_forward(&mut model, &input, &exec);
    rep.attempted += 1;
    let reports = match &train {
        Ok((out, reports)) => {
            if w.fx {
                rep.check(
                    "fx output bitwise equals training output",
                    bitwise_eq(out, &reference),
                );
            } else {
                rep.check(
                    "run_net output is deterministic",
                    bitwise_eq(out, &reference),
                );
            }
            reports.clone()
        }
        Err(e) => {
            eprintln!("training forward failed: {e}");
            rep.failed += 1;
            Vec::new()
        }
    };
    rep.prov("layers", layer_provenance(&model.nets, &reports));
    let tol: f64 = model
        .nets
        .iter()
        .flat_map(|n| n.layers())
        .map(|l| layer_bound(&l.plan))
        .sum();
    // The oracle gets the CPUs to itself: an idle pool's workers spin.
    drop(model);
    drop(exec);
    let t = Instant::now();
    let truth = oracle_chain(w, &img, &sk, &cpus);
    eprintln!("oracle: {:.1} s", t.elapsed().as_secs_f64());
    let got = reference.to_simple();
    let err = oracle::rel_err(&got, &truth);
    let within = err <= tol;
    rep.attempted += 1;
    rep.failed += u64::from(!within);
    rep.check(
        format!("output within the predicted bound ({err:.3e} <= {tol:.3e})"),
        within,
    );
    if !cfg.trace {
        rep.set(
            "rel_err_rms",
            oracle::rms_rel_err([(&got, &truth)]),
            got.data.len(),
        );
    } else {
        rep.set("max_rel_err", err, got.data.len());
        let ff = rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.set("fail_frac", ff, rep.attempted as usize);
    }
    rep
}

/// Per-layer timings of the traced layer pass, ms per call (medians).
#[derive(Default)]
struct LayerTimes {
    run_layer: f64,
    input: f64,
    kernel: f64,
    gemm: f64,
    inverse: f64,
    dispatch: f64,
    dispatch_allocs: f64,
    gemm_flops: f64,
    gemm_bytes: f64,
}

impl LayerTimes {
    fn stage_sum(&self) -> f64 {
        self.input + self.kernel + self.gemm + self.inverse + self.dispatch
    }
}

/// Time `Network::run_layer` and the stage functions of every layer on
/// the layer's actual input, with a benchmark-owned [`Scratch`].
fn layer_pass(
    model: &mut Model,
    input: &BlockedImage,
    exec: &dyn Executor,
    tracer: &Tracer,
) -> Result<Vec<LayerTimes>, WinoError> {
    let policy = FallbackPolicy::default();
    let mut out = Vec::new();
    let mut cur: Option<BlockedImage> = None;
    let mut gid = 0u64;
    for (net, kernels) in model.nets.iter_mut().zip(&model.kernels) {
        for (li, k) in kernels.iter().enumerate() {
            let inp = cur.take().unwrap_or_else(|| input.clone());
            let parent = tracer.open("layer", Instant::now(), None, gid);
            let mut t = LayerTimes::default();
            let mut samples = Vec::new();
            let mut next = None;
            for _ in 0..LAYER_REPS {
                let t0 = Instant::now();
                let (o, _) = net.run_layer(li, &inp, k, exec, &policy)?;
                let t1 = Instant::now();
                tracer.record("net.run_layer", t0, t1, Some(parent), gid);
                samples.push((t1 - t0).as_secs_f64() * 1e3);
                next = Some(o);
            }
            t.run_layer = median(&samples);
            let threads = exec.threads();
            match &net.layers()[li].plan {
                LayerPlan::Winograd(p) => {
                    let mut sc = Scratch::new(p, threads);
                    let mut o = p.new_output()?;
                    let mut ts: [Vec<f64>; 4] = Default::default();
                    for _ in 0..LAYER_REPS {
                        let mut done = |j: usize, name: &'static str, t0: Instant| {
                            let t1 = Instant::now();
                            tracer.record(name, t0, t1, Some(parent), gid);
                            ts[j].push((t1 - t0).as_secs_f64() * 1e3);
                        };
                        let t0 = Instant::now();
                        stage1::transform_inputs(p, &inp, &mut sc, exec)?;
                        done(0, "stage1.input", t0);
                        let t0 = Instant::now();
                        stage1::transform_kernels(p, k, &mut sc, exec)?;
                        done(1, "stage1.kernel", t0);
                        let t0 = Instant::now();
                        stage2::multiply(p, &mut sc, exec)?;
                        done(2, "stage2.multiply", t0);
                        let t0 = Instant::now();
                        stage3::inverse_transform(p, &mut sc, &mut o, exec)?;
                        done(3, "stage3.inverse", t0);
                    }
                    t.input = median(&ts[0]);
                    t.kernel = median(&ts[1]);
                    t.gemm = median(&ts[2]);
                    t.inverse = median(&ts[3]);
                    let (rows, tv) = (p.rows() as f64, p.t_vol() as f64);
                    let (c, cp) = (p.shape.in_channels as f64, p.shape.out_channels as f64);
                    t.gemm_flops = 2.0 * tv * rows * c * cp;
                    t.gemm_bytes = 4.0 * tv * (rows * c + c * cp + rows * cp);
                }
                LayerPlan::Dispatch(dp) => {
                    let mut o = dp.new_output()?;
                    let (mut ts, mut allocs) = (Vec::new(), Vec::new());
                    for _ in 0..LAYER_REPS {
                        let a0 = thread_alloc_calls();
                        let t0 = Instant::now();
                        dp.forward(&inp, k, &mut o, exec)?;
                        let t1 = Instant::now();
                        allocs.push((thread_alloc_calls() - a0) as f64);
                        tracer.record("dispatch.forward", t0, t1, Some(parent), gid);
                        ts.push((t1 - t0).as_secs_f64() * 1e3);
                    }
                    t.dispatch = median(&ts);
                    t.dispatch_allocs = median(&allocs);
                }
                LayerPlan::Im2col { .. } => {}
            }
            tracer.close(parent, Instant::now());
            out.push(t);
            cur = next;
            gid += 1;
        }
    }
    Ok(out)
}

fn traced(
    w: &NetWorkload,
    cfg: &RunCfg,
    rep: &mut Report,
    model: &mut Model,
    input: &BlockedImage,
    reference: &BlockedImage,
    exec: &StaticExecutor,
) {
    let tracer = Tracer::new();
    let timed = TimedExec::new(exec, Some(&tracer));

    // Untraced and traced end to end, taking turns in short stretches so
    // that both see the same mix of the host's fast and slow spells.
    let stretch = Duration::from_secs_f64(cfg.seconds) / (2 * SEGMENTS) as u32;
    let (mut base, mut lp) = (Loop::default(), Loop::default());
    for _ in 0..SEGMENTS {
        base.absorb(timed_loop(model, input, exec, reference, stretch, 2, None));
        lp.absorb(timed_loop(
            model,
            input,
            &timed,
            reference,
            stretch,
            2,
            Some((&tracer, &timed, lp.ms.len() as u64)),
        ));
    }
    rep.attempted += (base.ms.len() + lp.ms.len()) as u64;
    rep.failed += base.failed + lp.failed;
    let (base_ms, traced_ms) = (median(&base.ms), median(&lp.ms));
    // One closed-loop client: a request is due when it is sent.
    let base_p90 = percentile(&sorted(&base.ms), TAIL_P);
    forward_metrics(rep, &sorted(&base.ms), direct_flops(model));
    rep.set("serve_ms_p50", base_ms, base.ms.len());
    rep.set("serve_ms_p90", base_p90, base.ms.len());
    rep.set("goodput_rps", 1e3 / base_p90, base.ms.len());
    let n = lp.ms.len();
    rep.set("trace.overhead_frac", traced_ms / base_ms - 1.0, n);
    sched_metrics(rep, timed.totals(), n, exec.threads());
    let gaps = sorted(&lp.gap_ms);
    rep.set("loadgen.lag_ms", percentile(&gaps, TAIL_P), gaps.len());

    let flags = engine_metrics(rep, model, input, exec, &tracer, base_ms);
    finish_trace(rep, flags);

    // Layers this workload does not pass through.
    for name in [
        "serve.queue_wait_ms",
        "serve.service_ms",
        "serve.batch_mean",
        "serve.shed_frac.overloaded",
        "serve.shed_frac.predicted",
        "serve.shed_frac.deadline",
        "serve.shed_frac.memory",
        "serve.model_err",
        "serve.batcher_allocs",
        "setup.start_ms",
    ] {
        rep.set(name, 0.0, 0);
    }
    crate::write_spans(cfg, w.name, &tracer);
}

/// Tracing overhead is flagged past 10% like a stage sum that does not
/// reconcile; `flags` counts the layers already flagged.
pub(crate) fn finish_trace(rep: &mut Report, mut flags: usize) {
    let overhead = rep.get("trace.overhead_frac").unwrap_or(0.0);
    if overhead.abs() > 0.10 {
        eprintln!(
            "FLAG: tracing overhead {:.1}% exceeds 10%",
            overhead * 100.0
        );
        flags += 1;
    }
    rep.set("trace.flags", flags as f64, 1);
}

/// The forward-time figures of one run from its sorted forward times:
/// median, p90 and p95 latency, and `eff_gflops` at the median.
pub(crate) fn forward_metrics(rep: &mut Report, sorted_ms: &[f64], flops: f64) {
    let n = sorted_ms.len();
    let p50 = percentile(sorted_ms, 50.0);
    rep.set("fwd_ms_p50", p50, n);
    rep.set("fwd_ms_p90", percentile(sorted_ms, TAIL_P), n);
    rep.set("fwd_ms_p95", percentile(sorted_ms, GATED_P), n);
    rep.set("eff_gflops", flops / (p50 * 1e-3) / 1e9, n);
}

/// Sched metrics per forward from a [`TimedExec`]'s totals over `n`
/// forwards.
pub(crate) fn sched_metrics(rep: &mut Report, st: SchedTotals, n: usize, threads: usize) {
    rep.set("sched.forkjoins", st.forkjoins as f64 / n as f64, n);
    rep.set(
        "sched.forkjoin_ms",
        st.forkjoin_ns as f64 / 1e6 / n as f64,
        n,
    );
    rep.set("sched.busy_frac", st.busy_frac(threads), n);
    rep.set("sched.imbalance", st.imbalance(threads), n);
}

/// Allocation counts of one forward, scaling efficiency against one
/// serial forward (`base_ms` is the median forward on `exec`), and the
/// layer pass with its reconciliation. Returns the layers flagged.
pub(crate) fn engine_metrics(
    rep: &mut Report,
    model: &mut Model,
    input: &BlockedImage,
    exec: &dyn Executor,
    tracer: &Tracer,
    base_ms: f64,
) -> usize {
    let threads = exec.threads();
    // Allocations of one forward on this thread (exact counts).
    let (a0, b0) = (thread_alloc_calls(), thread_alloc_bytes());
    let ok = forward(model, input, exec).is_ok();
    let (a1, b1) = (thread_alloc_calls(), thread_alloc_bytes());
    rep.attempted += 1;
    rep.failed += u64::from(!ok);
    rep.set("alloc.calls_per_fwd", (a1 - a0) as f64, 1);
    rep.set("alloc.mib_per_fwd", (b1 - b0) as f64 / (1024.0 * 1024.0), 1);

    // One serial pass: parallel scaling efficiency of the forward.
    let t0 = Instant::now();
    let ok = forward(model, input, &SerialExecutor).is_ok();
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    rep.attempted += 1;
    rep.failed += u64::from(!ok);
    rep.set(
        "sched.scaling_eff",
        serial_ms / (threads as f64 * base_ms),
        1,
    );

    // The layer pass and its reconciliation against run_layer.
    let layers = match layer_pass(model, input, exec, tracer) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("layer pass failed: {e}");
            rep.attempted += 1;
            rep.failed += 1;
            Vec::new()
        }
    };
    let sum = |f: fn(&LayerTimes) -> f64| layers.iter().map(f).sum::<f64>();
    let (run_layer, stage_sum) = (sum(|t| t.run_layer), sum(LayerTimes::stage_sum));
    let reps = LAYER_REPS * layers.len();
    rep.set("stage1.input_ms", sum(|t| t.input), reps);
    // FX forwards run no kernel transform: it happens once, in set-up.
    rep.set(
        "stage1.kernel_ms",
        if model.fx.is_some() {
            0.0
        } else {
            sum(|t| t.kernel)
        },
        reps,
    );
    rep.set("stage2.ms", sum(|t| t.gemm), reps);
    rep.set(
        "stage2.gflops",
        sum(|t| t.gemm_flops) / (sum(|t| t.gemm) * 1e-3) / 1e9,
        reps,
    );
    rep.set(
        "stage2.flop_per_byte",
        sum(|t| t.gemm_flops) / sum(|t| t.gemm_bytes),
        layers.len(),
    );
    rep.set("stage3.ms", sum(|t| t.inverse), reps);
    rep.set("dispatch.ms", sum(|t| t.dispatch), reps);
    rep.set("dispatch.alloc_calls", sum(|t| t.dispatch_allocs), reps);
    rep.set("net.layer_ms", run_layer, reps);
    rep.set("net.stage_sum_frac", stage_sum / run_layer, reps);
    rep.set(
        "net.overhead_frac",
        (run_layer - stage_sum) / run_layer,
        reps,
    );

    let mut flags = 0;
    let mut detail = Vec::new();
    for (i, t) in layers.iter().enumerate() {
        let frac = t.stage_sum() / t.run_layer;
        let off = (frac - 1.0).abs() > 0.10;
        flags += usize::from(off);
        eprintln!(
            "layer {i}: run_layer {:.3} ms, stage sum {:.3} ms ({:.1}%){}",
            t.run_layer,
            t.stage_sum(),
            frac * 100.0,
            if off {
                "  FLAG: off by more than 10%"
            } else {
                ""
            }
        );
        detail.push(obj([
            ("layer", Json::Num(i as f64)),
            ("run_layer_ms", Json::Num(t.run_layer)),
            ("input_ms", Json::Num(t.input)),
            ("kernel_ms", Json::Num(t.kernel)),
            ("gemm_ms", Json::Num(t.gemm)),
            ("inverse_ms", Json::Num(t.inverse)),
            ("dispatch_ms", Json::Num(t.dispatch)),
            ("stage_sum_frac", Json::Num(frac)),
            ("flag", Json::Bool(off)),
        ]));
    }
    rep.prov("reconciliation", Json::Arr(detail));
    flags
}
