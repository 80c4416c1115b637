//! `serve_open`: an open-loop Poisson load on `wino-serve::Server` from
//! one generator thread, at two fixed absolute rates.
//!
//! The rates are constants of the benchmark, never derived from a
//! capacity measured in the same run, so a faster engine is offered the
//! same load and its gain shows as lower latency and higher goodput.
//! Every request is timed from the moment it was due, not from when the
//! generator got round to sending it.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use wino_conv::{ConvOptions, FallbackPolicy, LayerSpec, Network};
use wino_probe::Json;
use wino_sched::{Executor, SerialExecutor};
use wino_serve::{
    ModelSpec, ServeError, ServeOptions, ServeResponse, Server, ServiceModel, Ticket,
};
use wino_tensor::{BlockedImage, BlockedKernels, ConvGeometry, SimpleImage, SimpleKernels};

use crate::netbench::{self, Model};
use crate::report::{obj, Report};
use crate::stats::{median, percentile, samples_for, sorted, tail_supported, GATED_P, TAIL_P};
use crate::trace::{TimedExec, Tracer};
use crate::{inputs, machine, oracle, RunCfg, SetupTimes};

/// Serving capacity the rates are set from, requests per second: the
/// median over 56 runs of `max_batch / ServiceModel::batch_ms(max_batch)`
/// (the `service_model_*` provenance fields) on a 2-vCPU Xeon VM with
/// the scalar SIMD backend. It is a fixed number, not re-measured per
/// run, so a faster engine is offered the same load.
pub const CAPACITY_RPS: f64 = 540.0;
/// Offered load of the `light` phase: a quarter of capacity.
pub const LIGHT_RPS: f64 = 0.25 * CAPACITY_RPS;
/// Offered load of the `overload` phase: twice capacity.
pub const OVERLOAD_RPS: f64 = 2.0 * CAPACITY_RPS;
/// `Server::start` calls timed, each in a fresh process, before each
/// block of a phase; `setup_s` is the median of all of them.
const START_REPS: usize = 2;
/// Blocks each phase is split into, the phases taking turns, so both
/// sample the whole run rather than one half of it (the host's speed
/// drifts over seconds).
const BLOCKS: usize = 4;
/// Relative tolerance of a served output against the local reference.
const SERVED_TOL: f64 = 1e-5;
/// Served outputs checked against the f64 oracle as well.
const ORACLE_SAMPLES: usize = 16;
/// At most this many served outputs are kept for checking.
const MAX_SAMPLES: usize = 64;

pub struct ServeWorkload {
    pub name: &'static str,
    pub channels: usize,
    pub dims: Vec<usize>,
    pub layers: Vec<LayerSpec>,
    pub max_batch: usize,
    pub deadline: Duration,
    pub light_rps: f64,
    pub overload_rps: f64,
    /// Distinct seeded request images, cycled through by the generator.
    pub pool: usize,
}

impl ServeWorkload {
    /// 32 channels, 24×24, three F(4×4, 3×3) "same" layers, batches of
    /// up to 8, 50 ms deadline.
    pub fn serve_open(tiny: bool) -> ServeWorkload {
        let (channels, dims, n_layers, pool) = if tiny {
            (16, vec![8, 8], 2, 4)
        } else {
            (32, vec![24, 24], 3, 32)
        };
        ServeWorkload {
            name: "serve_open",
            channels,
            dims,
            layers: (0..n_layers)
                .map(|_| LayerSpec::same(channels, 2, 3, 4))
                .collect(),
            // Tiny requests are too quick to fill batches of 8.
            max_batch: if tiny { 2 } else { 8 },
            deadline: Duration::from_millis(50),
            light_rps: if tiny { 200.0 } else { LIGHT_RPS },
            overload_rps: if tiny { 800.0 } else { OVERLOAD_RPS },
            pool,
        }
    }

    /// The served model's kernels (fixed weights), plain and blocked.
    fn kernels(&self) -> (Vec<SimpleKernels>, Vec<BlockedKernels>) {
        let mut c = self.channels;
        let sk: Vec<SimpleKernels> = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut rng = inputs::stream(inputs::MODEL_SEED, i as u64);
                let k = inputs::kernels(&mut rng, l.out_channels, c, &l.kernel);
                c = l.out_channels;
                k
            })
            .collect();
        let bk = sk
            .iter()
            .map(|k| BlockedKernels::from_simple(k).expect("blockable kernels"))
            .collect();
        (sk, bk)
    }

    fn spec(&self) -> ModelSpec {
        ModelSpec::new(self.channels, self.dims.clone(), self.layers.clone())
    }

    fn options(&self, service: ServiceModel) -> ServeOptions {
        ServeOptions {
            // One queued batch behind the one in flight: whatever is
            // admitted can be served within the deadline, so overload
            // goodput follows engine speed rather than queue build-up.
            queue_capacity: self.max_batch,
            max_batch: self.max_batch,
            threads: 1,
            service: Some(service),
            policy: FallbackPolicy::default(),
            ..ServeOptions::default()
        }
    }

    fn local_net(&self, batch: usize) -> Result<Network, wino_conv::PlanError> {
        Network::with_policy(
            batch,
            self.channels,
            &self.dims,
            &self.layers,
            ConvOptions::default(),
            1,
            &FallbackPolicy::default(),
        )
    }
}

/// Shed-fraction metrics, indexed by [`shed_reason`].
const SHED_METRICS: [&str; 4] = [
    "serve.shed_frac.overloaded",
    "serve.shed_frac.predicted",
    "serve.shed_frac.deadline",
    "serve.shed_frac.memory",
];

fn shed_reason(e: &ServeError) -> Option<usize> {
    match e {
        ServeError::Overloaded { .. } => Some(0),
        ServeError::PredictedMiss { .. } => Some(1),
        ServeError::DeadlineExceeded { .. } => Some(2),
        ServeError::MemoryPressure { .. } => Some(3),
        ServeError::Failed(_) | ServeError::ShutDown => None,
    }
}

/// What one phase of the open loop saw.
#[derive(Default)]
struct PhaseOut {
    duration_s: f64,
    offered: usize,
    /// Served within the deadline.
    good: usize,
    /// Errors that are not load shedding.
    failed: usize,
    shed: [usize; 4],
    /// Due-to-resolution latency per request; a miss counts as at least
    /// the deadline.
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    /// batch id → (size, service ms).
    batches: BTreeMap<u64, (usize, f64)>,
    /// (pool image, served output) for checking.
    samples: Vec<(usize, BlockedImage)>,
}

struct InFlight {
    index: usize,
    image: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

impl PhaseOut {
    fn resolve(
        &mut self,
        p: &InFlight,
        resp: ServeResponse,
        deadline_ms: f64,
        tracer: Option<&Tracer>,
    ) {
        let r = &resp.report;
        let lag = (p.submitted - p.due).as_secs_f64() * 1e3;
        let lat = lag + r.total_ms;
        if let Some(b) = r.batch_id {
            self.batches.insert(b, (r.batch_size, r.service_ms));
            self.queue_wait_ms.push(r.queue_wait_ms);
        }
        if let Some(t) = tracer {
            let id = p.index as u64;
            let end = p.submitted + Duration::from_secs_f64(r.total_ms / 1e3);
            let req = t.record("request", p.due, end, None, id);
            let enq_end = p.submitted + Duration::from_secs_f64(r.queue_wait_ms / 1e3);
            t.record("serve.queue_wait", p.submitted, enq_end, Some(req), id);
            if r.batch_id.is_some() {
                let svc_end = enq_end + Duration::from_secs_f64(r.service_ms / 1e3);
                t.record("serve.service", enq_end, svc_end, Some(req), id);
            }
        }
        match resp.output {
            Ok(out) => {
                if r.deadline_met {
                    self.good += 1;
                    self.lat_ms.push(lat);
                } else {
                    self.lat_ms.push(lat.max(deadline_ms));
                }
                // Sampled by a fixed rule over the seeded schedule.
                if self.samples.len() < MAX_SAMPLES && p.index.is_multiple_of(7) {
                    self.samples.push((p.image, out));
                }
            }
            Err(e) => {
                self.lat_ms.push(lat.max(deadline_ms));
                match shed_reason(&e) {
                    Some(k) => self.shed[k] += 1,
                    None => self.failed += 1,
                }
            }
        }
    }

    /// Fold in another block of the same phase.
    fn absorb(&mut self, o: PhaseOut) {
        self.duration_s += o.duration_s;
        self.offered += o.offered;
        self.good += o.good;
        self.failed += o.failed;
        for (a, b) in self.shed.iter_mut().zip(o.shed) {
            *a += b;
        }
        self.lat_ms.extend(o.lat_ms);
        self.lag_ms.extend(o.lag_ms);
        self.queue_wait_ms.extend(o.queue_wait_ms);
        self.batches.extend(o.batches);
        let room = MAX_SAMPLES.saturating_sub(self.samples.len());
        self.samples.extend(o.samples.into_iter().take(room));
    }

    fn misses(&self) -> usize {
        self.offered - self.good
    }
}

/// Drive one phase: submit each request when it is due, collecting
/// responses in between, then wait for the stragglers.
fn run_phase(
    server: &Server,
    pool: &[BlockedImage],
    schedule: &[f64],
    duration_s: f64,
    deadline: Duration,
    tracer: Option<&Tracer>,
    first_index: usize,
) -> PhaseOut {
    const SPIN: Duration = Duration::from_micros(50);
    let deadline_ms = deadline.as_secs_f64() * 1e3;
    let mut out = PhaseOut {
        duration_s,
        offered: schedule.len(),
        ..PhaseOut::default()
    };
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(5);
    for (i, &off) in schedule.iter().enumerate() {
        let index = first_index + i;
        let image = index % pool.len();
        let img = pool[image].clone();
        let due = start + Duration::from_secs_f64(off);
        loop {
            while let Some(resp) = pending
                .front()
                .and_then(|p| p.ticket.wait_for(Duration::ZERO))
            {
                let p = pending.pop_front().expect("front exists");
                out.resolve(&p, resp, deadline_ms, tracer);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > SPIN {
                std::thread::sleep((left - SPIN).min(Duration::from_millis(1)));
            } else {
                std::hint::spin_loop();
            }
        }
        let submitted = Instant::now();
        out.lag_ms.push((submitted - due).as_secs_f64() * 1e3);
        match server.submit_with_deadline(img, due + deadline) {
            Ok(ticket) => pending.push_back(InFlight {
                index,
                image,
                due,
                submitted,
                ticket,
            }),
            Err(e) => {
                out.lat_ms.push(deadline_ms);
                match shed_reason(&e) {
                    Some(k) => out.shed[k] += 1,
                    None => out.failed += 1,
                }
                if let Some(t) = tracer {
                    t.record("request.shed", due, Instant::now(), None, index as u64);
                }
            }
        }
    }
    for p in pending {
        let resp = loop {
            if let Some(r) = p.ticket.wait_for(Duration::from_secs(1)) {
                break r;
            }
        };
        out.resolve(&p, resp, deadline_ms, tracer);
    }
    out
}

/// Latency of the light phase `light` and goodput of the overload phase.
fn serving_metrics(rep: &mut Report, light: &PhaseOut, over: &PhaseOut) {
    let lat = sorted(&light.lat_ms);
    rep.set("serve_ms_p50", percentile(&lat, 50.0), lat.len());
    rep.set("serve_ms_p90", percentile(&lat, TAIL_P), lat.len());
    rep.set(
        "goodput_rps",
        over.good as f64 / over.duration_s,
        over.offered,
    );
}

/// One timed `Server::start`, from the CPU a run starts its server on:
/// the `--setup-only` mode of a fresh process. Start-up only stores the
/// admission model, so a nominal one stands in for the measured one.
pub fn start_once(w: &ServeWorkload) -> Result<SetupTimes, String> {
    let cpus = machine::allowed_cpus();
    machine::pin_self(cpus[cpus.len() - 1]);
    let (_, bk) = w.kernels();
    let opts = w.options(ServiceModel::from_measurement(1.0, 0.0));
    let t = Instant::now();
    let server = Server::start(w.spec(), bk, opts).map_err(|e| e.to_string())?;
    let start_s = t.elapsed().as_secs_f64();
    server.shutdown();
    Ok(SetupTimes {
        plan_s: start_s,
        prepare_s: 0.0,
    })
}

/// Median of `reps` timed forwards of `net` on `exec`, after one warm-up.
fn median_forward_ms(
    net: &mut Network,
    input: &BlockedImage,
    kernels: &[BlockedKernels],
    exec: &dyn Executor,
    reps: usize,
) -> Result<f64, wino_conv::WinoError> {
    let policy = FallbackPolicy::default();
    net.run_net(input, kernels, exec, &policy)?;
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let out = net.run_net(input, kernels, exec, &policy)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&out);
    }
    Ok(median(&ms))
}

fn batch_image(pool: &[SimpleImage], n: usize) -> BlockedImage {
    let first = &pool[0];
    let vol = first.data.len();
    let mut img = SimpleImage::zeros(n, first.channels, &first.dims);
    for b in 0..n {
        img.data[b * vol..(b + 1) * vol].copy_from_slice(&pool[b % pool.len()].data);
    }
    BlockedImage::from_simple(&img).expect("blockable batch")
}

pub fn run(w: &ServeWorkload, cfg: &RunCfg) -> Report {
    let mut rep = Report::new(w.name, cfg.trace);
    let cpus = machine::allowed_cpus();
    let (gen_cpu, server_cpu) = (cpus[0], cpus[cpus.len() - 1]);
    // The batcher thread inherits the affinity of the thread that starts
    // the server: start it from the server CPU, generate from another.
    let pinned = usize::from(machine::pin_self(server_cpu));
    crate::provenance(&mut rep, 1, pinned);
    rep.prov("generator_threads", Json::Num(1.0));
    rep.prov("light_rps", Json::Num(w.light_rps));
    rep.prov("overload_rps", Json::Num(w.overload_rps));

    // The model, and the seeded request pool.
    let spec = w.spec();
    let (sk, bk) = w.kernels();
    let mut rng = inputs::stream(cfg.seed, 1);
    let simple_pool: Vec<SimpleImage> = (0..w.pool)
        .map(|_| inputs::image(&mut rng, 1, w.channels, &w.dims))
        .collect();
    let pool: Vec<BlockedImage> = simple_pool
        .iter()
        .map(|i| BlockedImage::from_simple(i).expect("blockable image"))
        .collect();

    // Admission model, measured once before serving: batch-1 and
    // full-batch forwards on the server's (serial) executor.
    let t = Instant::now();
    let net1 = w.local_net(1);
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let (Ok(mut net1), Ok(mut net_b)) = (net1, w.local_net(w.max_batch)) else {
        return rep.abort("the served model does not plan");
    };
    let batch_in = batch_image(&simple_pool, w.max_batch);
    let (Ok(t1), Ok(tb)) = (
        median_forward_ms(&mut net1, &pool[0], &bk, &SerialExecutor, 21),
        median_forward_ms(&mut net_b, &batch_in, &bk, &SerialExecutor, 11),
    ) else {
        return rep.abort("admission-model forwards failed");
    };
    // Per image from the full batch (a difference of two noisy timings
    // would swing admission from run to run); the rest of a batch-1
    // forward is the per-batch overhead.
    let per_image_ms = tb / w.max_batch as f64;
    let model = ServiceModel::from_measurement(per_image_ms, (t1 - per_image_ms).max(0.0));
    rep.prov("service_model_per_image_ms", Json::Num(model.per_image_ms));
    rep.prov(
        "service_model_batch_overhead_ms",
        Json::Num(model.batch_overhead_ms),
    );

    // The server measured; its start is timed in fresh processes below.
    let server = match Server::start(spec.clone(), bk.clone(), w.options(model)) {
        Ok(s) => s,
        Err(e) => return rep.abort(format!("Server::start failed: {e}")),
    };
    machine::pin_self(gen_cpu);
    let mut starts = Vec::new();

    // Warm-up: bursts of every size up to the batch ceiling, so the
    // server has planned each batch size before anything is measured.
    for k in (1..=w.max_batch).chain(1..=w.max_batch) {
        let tickets: Vec<Ticket> = (0..k)
            .filter_map(|i| {
                server
                    .submit(pool[i % pool.len()].clone(), Duration::from_secs(5))
                    .ok()
            })
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
    }

    let tracer = cfg.trace.then(Tracer::new);
    // Phase lengths: a quarter of the run light, the rest overload, whose
    // full batches give the gated engine figures. A traced run splits the
    // overload share with an untraced light phase, the base of the
    // tracing overhead and of the untraced serving latencies. Each is long
    // enough for its tail percentile, however short the run.
    let secs = cfg.seconds;
    let len = |share: f64, rate: f64| (secs * share).max((samples_for(TAIL_P) + 50) as f64 / rate);
    let over_share = if cfg.trace { 0.5 } else { 0.75 };
    let plan = [
        (
            w.light_rps,
            if cfg.trace {
                len(0.25, w.light_rps)
            } else {
                0.0
            },
            None,
        ),
        (w.light_rps, len(0.25, w.light_rps), tracer.as_ref()),
        (
            w.overload_rps,
            len(over_share, w.overload_rps),
            tracer.as_ref(),
        ),
    ];
    let mut outs: [PhaseOut; 3] = Default::default();
    for b in 0..BLOCKS {
        for (kind, &(rate, total, tracer)) in plan.iter().enumerate() {
            if total == 0.0 {
                continue;
            }
            // Set-ups are sampled across the run, as the phases are.
            match crate::time_setups(cfg, w.name, START_REPS, || start_once(w)) {
                Ok(t) => starts.extend(t.iter().map(SetupTimes::total_s)),
                Err(e) => return rep.abort(format!("Server::start failed: {e}")),
            }
            let stream = 10 + (BLOCKS * kind + b) as u64;
            let dur = total / BLOCKS as f64;
            let schedule = inputs::arrivals(&mut inputs::stream(cfg.seed, stream), rate, dur);
            let first = kind * 1_000_000 + b * 100_000;
            let out = run_phase(&server, &pool, &schedule, dur, w.deadline, tracer, first);
            outs[kind].absorb(out);
        }
    }
    let stats = server.shutdown();
    let [base, light, over] = outs;

    let phases: Vec<&PhaseOut> = [&base, &light, &over]
        .into_iter()
        .filter(|p| p.offered > 0)
        .collect();
    let offered: usize = phases.iter().map(|p| p.offered).sum();
    let hard: usize = phases.iter().map(|p| p.failed).sum();
    let misses: usize = phases.iter().map(|p| p.misses()).sum();
    rep.attempted += offered as u64;
    rep.failed += hard as u64;
    eprintln!(
        "light: {} offered, {} good; overload: {} offered, {} good, shed {:?}",
        light.offered, light.good, over.offered, over.good, over.shed
    );

    // Served outputs: against the local batch-1 reference and, for a few
    // images, the f64 oracle.
    let policy = FallbackPolicy::default();
    let mut refs: BTreeMap<usize, BlockedImage> = BTreeMap::new();
    let mut worst_local = 0.0f64;
    match net1.run_net(&pool[0], &bk, &SerialExecutor, &policy) {
        Ok((_, reports)) => rep.prov(
            "layers",
            netbench::layer_provenance(std::slice::from_ref(&net1), &reports),
        ),
        Err(e) => eprintln!("reference forward failed: {e}"),
    }
    let samples: Vec<&(usize, BlockedImage)> = phases.iter().flat_map(|p| &p.samples).collect();
    for (image, out) in &samples {
        if !refs.contains_key(image) {
            match net1.run_net(&pool[*image], &bk, &SerialExecutor, &policy) {
                Ok((r, _)) => {
                    refs.insert(*image, r);
                }
                Err(e) => {
                    eprintln!("reference forward failed: {e}");
                    rep.failed += 1;
                    continue;
                }
            }
        }
        let e = oracle::rel_err(&out.to_simple(), &refs[image].to_simple());
        rep.attempted += 1;
        let ok = e <= SERVED_TOL;
        rep.failed += u64::from(!ok);
        worst_local = worst_local.max(e);
    }
    rep.check(
        format!(
            "{} served outputs match the local reference ({worst_local:.2e} <= {SERVED_TOL:.0e})",
            samples.len()
        ),
        !samples.is_empty() && worst_local <= SERVED_TOL,
    );
    let tol: f64 = net1
        .layers()
        .iter()
        .map(|l| netbench::layer_bound(&l.plan))
        .sum();
    let geo = ConvGeometry::identity(w.dims.len());
    let checked: Vec<(SimpleImage, SimpleImage)> = samples
        .iter()
        .take(ORACLE_SAMPLES)
        .map(|(image, out)| {
            let mut truth = simple_pool[*image].clone();
            for (l, k) in w.layers.iter().zip(&sk) {
                let relu = l.activation == wino_conv::Activation::Relu;
                truth = oracle::layer(&truth, k, &l.padding, &geo, relu, &cpus);
            }
            (out.to_simple(), truth)
        })
        .collect();
    let worst = checked
        .iter()
        .map(|(got, truth)| oracle::rel_err(got, truth))
        .fold(0.0, f64::max);
    let rms = oracle::rms_rel_err(checked.iter().map(|(g, t)| (g, t)));
    let within = worst <= tol;
    rep.attempted += 1;
    rep.failed += u64::from(!within);
    rep.check(
        format!("served outputs within the predicted bound ({worst:.3e} <= {tol:.3e})"),
        within,
    );
    rep.prov(
        "serve_stats",
        obj([
            ("submitted", Json::Num(stats.submitted as f64)),
            ("completed", Json::Num(stats.completed as f64)),
            ("failed", Json::Num(stats.failed as f64)),
            ("batches", Json::Num(stats.batches as f64)),
            ("breaker_trips", Json::Num(stats.breaker_trips as f64)),
            ("peak_depth", Json::Num(stats.peak_depth as f64)),
            ("level", Json::Str(stats.level.name().into())),
        ]),
    );

    // The engine as served: full batches of the overload phase.
    let flops_per_batch = spec.direct_flops(w.max_batch).map_or(0.0, |f| f as f64);
    let batch_ms: Vec<f64> = over
        .batches
        .values()
        .filter(|&&(n, _)| n == w.max_batch)
        .map(|&(_, ms)| ms)
        .collect();

    if !cfg.trace {
        let lat = sorted(&light.lat_ms);
        let bms = sorted(&batch_ms);
        rep.check(
            "light-phase p90 has ten requests beyond it",
            tail_supported(lat.len(), TAIL_P),
        );
        rep.check(
            "batch-service p95 has ten batches beyond it",
            tail_supported(bms.len(), GATED_P),
        );
        netbench::forward_metrics(&mut rep, &bms, flops_per_batch);
        serving_metrics(&mut rep, &light, &over);
        rep.set("setup_s", median(&starts), starts.len());
        rep.set("peak_rss_mib", machine::peak_rss_mib(), 1);
        rep.set("rel_err_rms", rms, checked.len());
        return rep;
    }

    // Traced: the serving layers, then the engine under the server's
    // batch on its serial executor.
    let tracer = tracer.expect("traced run");
    let served: Vec<&PhaseOut> = [&light, &over].into_iter().collect();
    let waits: Vec<f64> = served
        .iter()
        .flat_map(|p| p.queue_wait_ms.iter().copied())
        .collect();
    let batches: Vec<(usize, f64)> = served
        .iter()
        .flat_map(|p| p.batches.values().copied())
        .collect();
    let lags: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let nb = batches.len();
    rep.set("serve.queue_wait_ms", median(&waits), waits.len());
    rep.set(
        "serve.service_ms",
        median(&batches.iter().map(|b| b.1).collect::<Vec<_>>()),
        nb,
    );
    rep.set(
        "serve.batch_mean",
        batches.iter().map(|b| b.0 as f64).sum::<f64>() / nb.max(1) as f64,
        nb,
    );
    for (k, name) in SHED_METRICS.into_iter().enumerate() {
        let shed: usize = phases.iter().map(|p| p.shed[k]).sum();
        rep.set(name, shed as f64 / offered.max(1) as f64, offered);
    }
    let model_err: Vec<f64> = batches
        .iter()
        .map(|&(n, ms)| ms / model.batch_ms(n) - 1.0)
        .collect();
    rep.set("serve.model_err", median(&model_err), nb);
    rep.set(
        "serve.batcher_allocs",
        stats.batcher_alloc_calls as f64 / stats.batches.max(1) as f64,
        stats.batches as usize,
    );
    rep.set(
        "loadgen.lag_ms",
        percentile(&sorted(&lags), TAIL_P),
        lags.len(),
    );
    rep.set("setup.start_ms", median(&starts) * 1e3, starts.len());
    rep.set("setup.plan_ms", plan_ms, 1);
    rep.set("setup.prepare_ms", 0.0, 0);
    serving_metrics(&mut rep, &base, &over);
    let t50 = percentile(&sorted(&light.lat_ms), 50.0);
    let b50 = rep.get("serve_ms_p50").unwrap_or(f64::NAN);
    rep.set("trace.overhead_frac", t50 / b50 - 1.0, light.lat_ms.len());
    netbench::forward_metrics(&mut rep, &sorted(&batch_ms), flops_per_batch);
    rep.set("fail_frac", misses as f64 / offered.max(1) as f64, offered);
    rep.set("max_rel_err", worst, checked.len());
    rep.set("dispatch.ms", 0.0, 0);
    rep.set("dispatch.alloc_calls", 0.0, 0);

    let mut engine = Model {
        nets: vec![net_b],
        kernels: vec![bk.clone()],
        fx: None,
    };
    let base_ms = tb;
    let timed = TimedExec::new(&SerialExecutor, Some(&tracer));
    let mut n = 0;
    for i in 0..5 {
        timed.set_parent(None, i);
        n += usize::from(netbench::forward(&mut engine, &batch_in, &timed).is_ok());
    }
    netbench::sched_metrics(&mut rep, timed.totals(), n.max(1), 1);
    let flags = netbench::engine_metrics(
        &mut rep,
        &mut engine,
        &batch_in,
        &SerialExecutor,
        &tracer,
        base_ms,
    );
    netbench::finish_trace(&mut rep, flags);
    crate::write_spans(cfg, w.name, &tracer);
    rep
}
