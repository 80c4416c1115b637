//! Multi-layer network execution with shared auxiliary memory (§4.4).
//!
//! "While the size of the auxiliary buffer can be a couple of times larger
//! than the memory required for storing the computed images, the same
//! memory buffer can be reused for the computation of each layer." —
//! [`Network`] realises that: it plans a sequence of convolutional layers
//! (each with its own `F(m, r)`), allocates **one** [`Scratch`] sized to
//! the maximum requirement, and runs the whole net through it. Layer
//! outputs stay in the blocked layout, so no reshuffling happens between
//! layers (§4.1).
//!
//! The module also owns the *execution-time* half of the
//! graceful-degradation chain (`Jit → Mono → im2col`,
//! [`crate::FallbackPolicy`]): a layer whose Winograd plan cannot be built
//! is planned as an im2col layer instead ([`LayerPlan::Im2col`]), and a
//! layer whose output trips the numeric guard is re-executed through
//! `wino-baseline`'s im2col convolution. Every [`Network::run_layer`] /
//! [`Network::run_net`] call reports which backend actually ran and why
//! via [`ExecutionReport`].

use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvShape};

use crate::conv::TransformedKernels;
use crate::dispatch::{plan_dispatch, DispatchPlan, Route};
use crate::error::{check_finite, NumericError, WinoError};
use crate::plan::{ConvOptions, PlanError, Scratch, WinogradLayer};
use crate::select::{plan_with_fallback, FallbackPolicy};
use crate::sentinel::{verify_sample, SentinelError};

/// Pointwise activation applied between layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Activation {
    #[default]
    None,
    Relu,
}

impl Activation {
    fn apply(self, img: &mut BlockedImage) {
        if self == Activation::Relu {
            for v in img.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
    }
}

/// How a layer is planned to execute. One value exists per network
/// layer, so the size skew between the variants is irrelevant.
#[allow(clippy::large_enum_variant)] // one value per layer; Box would only add a pointer chase
pub enum LayerPlan {
    /// The paper's three-stage Winograd pipeline.
    Winograd(WinogradLayer),
    /// The `wino-baseline` im2col convolution — the end of the
    /// degradation chain, planned when no Winograd plan exists and the
    /// policy allows absorbing that.
    Im2col { shape: ConvShape },
    /// A non-identity (stride/dilation/groups) geometry routed through
    /// [`crate::dispatch`]: polyphase Winograd, grouped Winograd, or the
    /// geometry-aware im2col fallback.
    Dispatch(DispatchPlan),
}

impl LayerPlan {
    /// The layer geometry, whichever backend executes it.
    pub fn shape(&self) -> &ConvShape {
        match self {
            LayerPlan::Winograd(p) => &p.shape,
            LayerPlan::Im2col { shape } => shape,
            LayerPlan::Dispatch(p) => &p.shape,
        }
    }

    /// The Winograd plan, if this layer has one.
    pub fn winograd(&self) -> Option<&WinogradLayer> {
        match self {
            LayerPlan::Winograd(p) => Some(p),
            LayerPlan::Im2col { .. } | LayerPlan::Dispatch(_) => None,
        }
    }

    /// The dispatch route, for layers with a non-identity geometry.
    pub fn dispatch(&self) -> Option<&DispatchPlan> {
        match self {
            LayerPlan::Dispatch(p) => Some(p),
            _ => None,
        }
    }

    /// Output extent per dimension — geometry-aware, unlike
    /// `shape().out_dims()`.
    pub fn out_dims(&self) -> Vec<usize> {
        match self {
            LayerPlan::Dispatch(p) => p.out_dims().to_vec(),
            other => other.shape().out_dims(),
        }
    }
}

/// Which implementation computed a layer's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerBackend {
    WinogradJit,
    WinogradMono,
    /// Winograd re-run with a re-tiled plan: every tile dimension demoted
    /// by 2 after an accuracy-sentinel trip (better-conditioned
    /// transforms), or grown by 2 after a refused allocation (smaller
    /// transformed-data scratch). The paired [`FallbackReason`] says
    /// which ladder ran.
    WinogradDemoted,
    /// Stride ≥ 2 executed as a sum of per-phase stride-1 Winograd
    /// convolutions (the sub-lattice / polyphase decomposition).
    WinogradPoly,
    /// Grouped convolution executed by blocking the C/C' loops around a
    /// shared per-group Winograd plan.
    WinogradGrouped,
    Im2col,
}

impl LayerBackend {
    /// Stable serialization name — one of
    /// [`wino_probe::BACKEND_NAMES`], as emitted into
    /// `layers[i].execution.backend` of a `BENCH_*.json` report.
    pub fn name(self) -> &'static str {
        match self {
            LayerBackend::WinogradJit => "winograd-jit",
            LayerBackend::WinogradMono => "winograd-mono",
            LayerBackend::WinogradDemoted => "winograd-demoted",
            LayerBackend::WinogradPoly => "winograd-poly",
            LayerBackend::WinogradGrouped => "winograd-grouped",
            LayerBackend::Im2col => "im2col",
        }
    }
}

/// Why a layer ran on something other than what was asked for.
/// (`PartialEq` only: [`SentinelError`] carries measured f64 errors.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FallbackReason {
    /// The JIT stage-2 backend could not be built; the layer uses the
    /// monomorphised backend instead.
    JitUnavailable(PlanError),
    /// No Winograd plan exists for this layer; it runs via im2col.
    PlanFailed(PlanError),
    /// The Winograd output contained NaN/Inf; the layer was re-executed
    /// via im2col.
    NumericGuard(NumericError),
    /// A sampled output tile exceeded the layer's a-priori error bound;
    /// the layer was re-executed demoted (or via im2col — see the
    /// [`ExecutionReport::backend`]).
    SentinelTrip(SentinelError),
    /// The layer is dilated, which the Winograd transform stencils cannot
    /// express; it runs via the geometry-aware im2col baseline. A
    /// designed route, reported under every policy.
    Dilated,
    /// The layer's per-group channel width is narrower than the vector
    /// width (depthwise included), so the blocked Winograd layout cannot
    /// carry it; it runs via the geometry-aware im2col baseline.
    GroupTooNarrow { c_per_group: usize },
    /// The layer could not be executed (or planned) within available
    /// memory: the plan exceeded a [`crate::MemoryBudget`] or the
    /// allocator refused a buffer at run time. `bytes` is the offending
    /// request — the plan footprint at plan time, the refused allocation
    /// at run time. The memory ladder re-tiled the layer or rescued it
    /// through im2col (see [`ExecutionReport::backend`]).
    Memory { bytes: usize },
}

impl FallbackReason {
    /// Stable serialization code — one of
    /// [`wino_probe::FALLBACK_CODES`], as emitted into
    /// `layers[i].execution.fallback` of a `BENCH_*.json` report. The
    /// inner error detail is for `Display`, not the machine-readable
    /// shape.
    pub fn code(&self) -> &'static str {
        match self {
            FallbackReason::JitUnavailable(_) => "jit-unavailable",
            FallbackReason::PlanFailed(_) => "plan-failed",
            FallbackReason::NumericGuard(_) => "numeric-guard",
            FallbackReason::SentinelTrip(_) => "sentinel-trip",
            FallbackReason::Dilated => "dilated",
            FallbackReason::GroupTooNarrow { .. } => "group-narrow",
            FallbackReason::Memory { .. } => "memory",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::JitUnavailable(e) => write!(f, "jit unavailable ({e}); using mono"),
            FallbackReason::PlanFailed(e) => write!(f, "no winograd plan ({e}); using im2col"),
            FallbackReason::NumericGuard(e) => write!(f, "numeric guard tripped ({e}); using im2col"),
            FallbackReason::SentinelTrip(e) => write!(f, "accuracy {e}; re-executed"),
            FallbackReason::Dilated => {
                write!(f, "dilated layer outside the Winograd stencils; using im2col")
            }
            FallbackReason::GroupTooNarrow { c_per_group } => {
                write!(f, "per-group channel width {c_per_group} below the vector width; using im2col")
            }
            FallbackReason::Memory { bytes } => {
                write!(f, "memory pressure ({bytes} B refused); degraded")
            }
        }
    }
}

/// What actually happened when one layer executed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionReport {
    /// Layer index within the network.
    pub layer: usize,
    /// The backend that produced the returned output.
    pub backend: LayerBackend,
    /// The degradation applied, if any (plan-time or execution-time).
    pub fallback: Option<FallbackReason>,
}

/// One planned layer of a [`Network`].
pub struct NetLayer {
    pub plan: LayerPlan,
    pub activation: Activation,
    /// Downgrade recorded at plan time (`Jit → Mono` or
    /// `plan failure → im2col`); echoed into every [`ExecutionReport`].
    pub planned_fallback: Option<FallbackReason>,
}

/// A sequential stack of convolution layers with per-layer resident
/// scratch.
pub struct Network {
    layers: Vec<NetLayer>,
    /// One scratch slot per layer, built once at plan time and reused on
    /// every pass. Per-layer slots (rather than one shared arena rebuilt
    /// per transition) keep repeat forwards allocation-free — the serving
    /// hot path's invariant — at the cost of summing, not maxing, the
    /// scratch footprint. A slot is `None` when the layer has no Winograd
    /// plan or its seeding allocation was refused (the execution-time
    /// ladder then deals with it when the layer runs).
    scratch: Vec<Option<Scratch>>,
}

impl Network {
    /// Plan a network from `(out_channels, kernel_dims, padding, m,
    /// activation)` layer specs applied successively to an input of shape
    /// `(batch, in_channels, image_dims)`.
    ///
    /// Strict planning: any plan failure is returned as an error. Use
    /// [`Network::with_policy`] to absorb failures into fallbacks.
    pub fn new(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
    ) -> Result<Network, PlanError> {
        Self::with_policy(
            batch,
            in_channels,
            image_dims,
            specs,
            opts,
            threads,
            &FallbackPolicy::strict(),
        )
    }

    /// Plan a network, degrading per `policy` instead of failing where the
    /// policy allows it: a JIT plan failure retries with
    /// [`crate::Stage2Backend::Mono`], and a layer with no Winograd plan at all
    /// is planned as an im2col layer. Downgrades are recorded on the
    /// [`NetLayer`] and surface in every [`ExecutionReport`].
    ///
    /// Geometry errors ([`PlanError::Shape`]) always fail: no backend can
    /// execute an ill-formed layer.
    pub fn with_policy(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
        policy: &FallbackPolicy,
    ) -> Result<Network, PlanError> {
        assert!(!specs.is_empty(), "network needs at least one layer");
        let mut layers = Vec::with_capacity(specs.len());
        let mut c = in_channels;
        let mut dims = image_dims.to_vec();
        let identity = opts.has_identity_geometry(image_dims.len());
        for spec in specs {
            let shape =
                ConvShape::new(batch, c, spec.out_channels, &dims, &spec.kernel, &spec.padding)?;
            c = spec.out_channels;
            let (plan, planned_fallback) = if identity {
                dims = shape.out_dims();
                match plan_with_fallback(&shape, &spec.m, opts, policy) {
                    Ok((p, None)) => (LayerPlan::Winograd(p), None),
                    Ok((p, Some(PlanError::MemoryBudget { need_bytes, .. }))) => {
                        (LayerPlan::Winograd(p), Some(FallbackReason::Memory { bytes: need_bytes }))
                    }
                    Ok((p, Some(e))) => {
                        (LayerPlan::Winograd(p), Some(FallbackReason::JitUnavailable(e)))
                    }
                    Err(e @ PlanError::Shape(_)) => return Err(e),
                    Err(PlanError::MemoryBudget { need_bytes, .. })
                        if policy.im2col_on_plan_failure =>
                    {
                        // No supported tile fits the budget: the im2col
                        // rescue ends the plan-time memory ladder.
                        (LayerPlan::Im2col { shape }, Some(FallbackReason::Memory { bytes: need_bytes }))
                    }
                    Err(e) if policy.im2col_on_plan_failure => {
                        (LayerPlan::Im2col { shape }, Some(FallbackReason::PlanFailed(e)))
                    }
                    Err(e) => return Err(e),
                }
            } else {
                // Non-identity geometry: route through the dispatch
                // layer. Chaining uses the geometry's output extents.
                let (dp, fb) = plan_dispatch(&shape, &spec.m, opts, policy)?;
                dims = dp.out_dims().to_vec();
                match dp {
                    // An identity-geometry route can't reach here, but a
                    // Direct plan still executes through the ordinary
                    // Winograd machinery (scratch reuse, sentinels).
                    DispatchPlan { route: Route::Direct(p), .. } => {
                        (LayerPlan::Winograd(*p), fb)
                    }
                    dp => (LayerPlan::Dispatch(dp), fb),
                }
            };
            layers.push(NetLayer { plan, activation: spec.activation, planned_fallback });
        }

        // One resident scratch per layer, so repeat passes never rebuild.
        let scratch = Self::seed_scratches(&layers, threads);
        Ok(Network { layers, scratch })
    }

    fn seed_scratches(layers: &[NetLayer], threads: usize) -> Vec<Option<Scratch>> {
        // Pre-seeding is an optimisation, not a requirement: a refused
        // allocation leaves the slot empty and the execution-time ladder
        // (`ensure_scratch` + `exec_layer`) deals with memory pressure
        // when the layer actually runs.
        layers
            .iter()
            .map(|l| match &l.plan {
                LayerPlan::Winograd(p) => Scratch::try_new(p, threads).ok(),
                _ => None,
            })
            .collect()
    }

    /// The network's analytic memory footprint at `threads` thread slots:
    /// every component is a *sum* over the layers — each layer holds its
    /// own resident scratch slot (the price of allocation-free repeat
    /// forwards), its own memoised kernels and its own output. Layers
    /// without a Winograd plan contribute their output (and, for dispatch
    /// routes, the route's own model — see [`DispatchPlan::footprint`]).
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        let mut acc = crate::MemoryFootprint {
            scratch_bytes: 0,
            tile_major_bytes: 0,
            transformed_kernel_bytes: 0,
            per_thread_bytes: 0,
            output_bytes: 0,
            threads,
        };
        for l in &self.layers {
            let fp = match &l.plan {
                LayerPlan::Winograd(p) => p.footprint(threads),
                LayerPlan::Dispatch(dp) => dp.footprint(threads),
                LayerPlan::Im2col { shape } => crate::MemoryFootprint {
                    scratch_bytes: 0,
                    tile_major_bytes: 0,
                    transformed_kernel_bytes: 0,
                    per_thread_bytes: 0,
                    output_bytes: BlockedImage::bytes_for(
                        shape.batch,
                        shape.out_channels,
                        &shape.out_dims(),
                    ),
                    threads,
                },
            };
            acc.scratch_bytes += fp.scratch_bytes;
            acc.tile_major_bytes += fp.tile_major_bytes;
            acc.per_thread_bytes += fp.per_thread_bytes;
            acc.transformed_kernel_bytes += fp.transformed_kernel_bytes;
            acc.output_bytes += fp.output_bytes;
        }
        acc
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn layers(&self) -> &[NetLayer] {
        &self.layers
    }

    /// Auxiliary bytes currently held across all layer slots.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.iter().flatten().map(Scratch::bytes).sum()
    }

    /// Memoise all kernel transforms for inference (§4.2 "Inference
    /// only"); pass the result to [`Self::forward_fx`]. Layers planned as
    /// im2col have no kernel transform and make this an
    /// [`WinoError::Unsupported`] error.
    pub fn prepare_kernels(
        &mut self,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
    ) -> Result<Vec<TransformedKernels>, WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let mut out = Vec::with_capacity(kernels.len());
        for (i, (layer, kernel)) in self.layers.iter().zip(kernels).enumerate() {
            let Some(plan) = layer.plan.winograd() else {
                return Err(WinoError::Unsupported(
                    "kernel transforms for an im2col-planned layer",
                ));
            };
            Self::ensure_scratch(&mut self.scratch[i], plan, exec.threads())?;
            let sc = self.scratch[i].as_mut().expect("scratch ensured above");
            out.push(plan.prepare_kernels(kernel, sc, exec)?);
        }
        Ok(out)
    }

    fn ensure_scratch(
        scratch: &mut Option<Scratch>,
        p: &WinogradLayer,
        threads: usize,
    ) -> Result<(), WinoError> {
        let need_u = |m: &BlockedMatrices, t, rows, cols, rb, cb| -> bool {
            m.t_count() == t && m.rows() == rows && m.cols() == cols && m.rb() == rb && m.cb() == cb
        };
        let b = p.block;
        let ok = scratch.as_ref().is_some_and(|sc| {
            need_u(&sc.u, p.t_vol(), p.rows(), p.shape.in_channels, b.n_blk, b.c_blk)
                && need_u(
                    &sc.v,
                    p.t_vol(),
                    p.shape.in_channels,
                    p.shape.out_channels,
                    b.c_blk,
                    b.cp_blk,
                )
                && sc.y.n_tiles() == p.n_tiles()
                && sc.y.batch() == p.shape.batch
                && sc.y.channel_groups() == p.shape.out_channels / wino_simd::S
                && sc.y.t_vol() == p.t_vol()
                && sc.thread_slots() >= threads
        });
        if !ok {
            // Release the mismatched scratch before allocating the new
            // one: under memory pressure holding both arenas at once is
            // exactly what pushes the allocator over the edge.
            *scratch = None;
            *scratch = Some(Scratch::try_new(p, threads)?);
        }
        Ok(())
    }

    /// Execute one layer: Winograd forward plus the policy's
    /// execution-time degradations (numeric guard, im2col re-execution).
    ///
    /// Pool errors ([`WinoError::Pool`]) are **not** absorbed by im2col —
    /// a panicked worker or tripped watchdog means the executor itself is
    /// suspect, so they always propagate.
    pub fn run_layer(
        &mut self,
        index: usize,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, ExecutionReport), WinoError> {
        let layer = self
            .layers
            .get(index)
            .ok_or(WinoError::Unsupported("layer index out of range"))?;
        Self::exec_layer(&mut self.scratch[index], layer, index, input, kernels, exec, policy)
    }

    /// Run the whole network (training mode: kernels transformed every
    /// call), returning the final activation plus one [`ExecutionReport`]
    /// per layer.
    pub fn run_net(
        &mut self,
        input: &BlockedImage,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let mut reports = Vec::with_capacity(self.layers.len());
        let mut current: Option<BlockedImage> = None;
        for (i, (layer, kernel)) in self.layers.iter().zip(kernels).enumerate() {
            let inp = current.as_ref().unwrap_or(input);
            let (out, report) =
                Self::exec_layer(&mut self.scratch[i], layer, i, inp, kernel, exec, policy)?;
            reports.push(report);
            current = Some(out);
        }
        Ok((current.expect("at least one layer"), reports))
    }

    /// Run the network strictly (training mode; no degradation, no
    /// numeric guard). Returns the final activation.
    pub fn forward(
        &mut self,
        input: &BlockedImage,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        self.run_net(input, kernels, exec, &FallbackPolicy::strict()).map(|(out, _)| out)
    }

    /// Run the network in inference mode with memoised kernel transforms.
    pub fn forward_fx(
        &mut self,
        input: &BlockedImage,
        kernels: &[TransformedKernels],
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let mut current: Option<BlockedImage> = None;
        for (i, (layer, kernel)) in self.layers.iter().zip(kernels).enumerate() {
            let Some(plan) = layer.plan.winograd() else {
                return Err(WinoError::Unsupported(
                    "memoised kernel transforms for an im2col-planned layer",
                ));
            };
            Self::ensure_scratch(&mut self.scratch[i], plan, exec.threads())?;
            let sc = self.scratch[i].as_mut().expect("scratch ensured above");
            let mut out = plan.try_new_output()?;
            {
                let inp = current.as_ref().unwrap_or(input);
                plan.forward_fx(inp, kernel, &mut out, sc, exec)?;
            }
            layer.activation.apply(&mut out);
            current = Some(out);
        }
        Ok(current.expect("at least one layer"))
    }

    fn exec_layer(
        scratch: &mut Option<Scratch>,
        layer: &NetLayer,
        index: usize,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, ExecutionReport), WinoError> {
        let mut report =
            ExecutionReport { layer: index, backend: LayerBackend::Im2col, fallback: layer.planned_fallback };
        // Subnormal operands put x86 cores into microcode assists (50–100×
        // per affected FMA); flush them for the duration of the layer.
        // MXCSR is per-thread, so this covers the coordinator's share of
        // the work — full coverage under a serial executor (see
        // `wino_simd::denormals` for the model).
        let _ftz = wino_simd::FlushDenormals::engage();
        let mut out = match &layer.plan {
            LayerPlan::Winograd(plan) => {
                report.backend = plan.opts.winograd_backend();
                let out = match Self::winograd_attempt(scratch, plan, input, kernels, exec) {
                    Ok(out) => out,
                    Err(WinoError::Alloc(cause)) => {
                        // Run-time memory ladder: re-tile, then im2col,
                        // then the typed failure. The replacement output
                        // is already guarded; skip the normal guard flow.
                        let (out, backend, reason) = Self::memory_ladder(
                            scratch, plan, cause, input, kernels, exec, policy,
                        )?;
                        report.backend = backend;
                        report.fallback = Some(reason);
                        let mut out = out;
                        layer.activation.apply(&mut out);
                        return Ok((out, report));
                    }
                    Err(e) => return Err(e),
                };
                // The guard must run BEFORE the activation: ReLU computes
                // `f32::max(x, 0.0)`, which maps NaN to 0.0 and would hide
                // the corruption.
                let guard = if policy.check_numerics {
                    check_finite("output", out.as_slice())
                } else {
                    Ok(())
                };
                match guard {
                    Ok(()) => {
                        // Guard passed: the output is finite — now the
                        // accuracy sentinels check it is also *right*.
                        match Self::sentinel_check(plan, index, input, kernels, &out, exec, policy)? {
                            None => out,
                            Some((replaced, backend, reason)) => {
                                report.backend = backend;
                                report.fallback = Some(reason);
                                replaced
                            }
                        }
                    }
                    Err(e) if policy.im2col_on_numeric => {
                        report.backend = LayerBackend::Im2col;
                        report.fallback = Some(FallbackReason::NumericGuard(e));
                        let rescue_start = crate::spans::span_start();
                        let rescued = Self::im2col_layer(&plan.shape, input, kernels, exec)?;
                        crate::spans::record_coord(
                            exec,
                            wino_probe::SpanCategory::FallbackRescue,
                            rescue_start,
                        );
                        // A second trip proves the corruption is not
                        // Winograd-specific (e.g. non-finite layer input);
                        // surface it instead of letting the activation
                        // below map the NaNs to 0.0.
                        check_finite("im2col rescue output", rescued.as_slice())?;
                        rescued
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            LayerPlan::Im2col { shape } => Self::im2col_layer(shape, input, kernels, exec)?,
            LayerPlan::Dispatch(dp) => {
                report.backend = dp.backend();
                let mut out = dp.new_output()?;
                dp.forward(input, kernels, &mut out, exec)?;
                let guard = if policy.check_numerics {
                    check_finite("output", out.as_slice())
                } else {
                    Ok(())
                };
                match guard {
                    Ok(()) => out,
                    Err(e)
                        if policy.im2col_on_numeric && !matches!(dp.route, Route::Im2col) =>
                    {
                        report.backend = LayerBackend::Im2col;
                        report.fallback = Some(FallbackReason::NumericGuard(e));
                        let rescue_start = crate::spans::span_start();
                        let mut rescued = dp.new_output()?;
                        wino_baseline::im2col_conv_geo(
                            input,
                            kernels,
                            &dp.shape.padding,
                            &dp.geo,
                            &mut rescued,
                            exec,
                        )?;
                        crate::spans::record_coord(
                            exec,
                            wino_probe::SpanCategory::FallbackRescue,
                            rescue_start,
                        );
                        // As with the identity path: a second trip means
                        // the corruption is not Winograd-specific.
                        check_finite("im2col rescue output", rescued.as_slice())?;
                        rescued
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        };
        layer.activation.apply(&mut out);
        Ok((out, report))
    }

    /// The sentinel half of the execution-time degradation ladder. `None`
    /// means the output passed (or sampling is off); `Some` carries the
    /// replacement output plus how it was produced. The ladder: demote
    /// every tile dimension by 2 and re-run (better-conditioned
    /// transforms; skipped when `demote_tile` is off or the tile is
    /// already minimal), re-verify the demoted output, and if it still
    /// trips, rescue through im2col — whose longer f32 accumulation the
    /// sentinels do not judge, but whose arithmetic contains no transform
    /// amplification to corrupt.
    #[allow(clippy::too_many_arguments)] // mirrors exec_layer's context
    fn sentinel_check(
        plan: &WinogradLayer,
        index: usize,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        out: &BlockedImage,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<Option<(BlockedImage, LayerBackend, FallbackReason)>, WinoError> {
        let cfg = &policy.sentinel;
        if cfg.samples == 0 {
            // Disabled: no RNG, no oracle, no counters — provably free.
            return Ok(None);
        }
        let t0 = crate::spans::span_start();
        let verdict = verify_sample(plan, input, kernels, out, cfg, index);
        crate::spans::record_coord(exec, wino_probe::SpanCategory::SentinelVerify, t0);
        let trip = match verdict {
            Ok(checked) => {
                wino_probe::Counter::SentinelTilesChecked.add(checked as u64);
                return Ok(None);
            }
            Err(e) => e,
        };
        wino_probe::Counter::SentinelTrips.add(1);
        let reason = FallbackReason::SentinelTrip(trip);

        if cfg.demote_tile {
            let dm: Vec<usize> = plan
                .grid
                .m
                .iter()
                .map(|&m| if m <= 2 { m } else { (m - 2).max(2) })
                .collect();
            if dm != plan.grid.m {
                if let Ok(demoted) = WinogradLayer::new(plan.shape.clone(), &dm, plan.opts) {
                    let mut sc = Scratch::new(&demoted, exec.threads());
                    let mut out2 = demoted.new_output()?;
                    demoted.forward(input, kernels, &mut out2, &mut sc, exec)?;
                    let t0 = crate::spans::span_start();
                    let verdict = check_finite("demoted output", out2.as_slice())
                        .map_err(|_| ())
                        .and_then(|()| {
                            verify_sample(&demoted, input, kernels, &out2, cfg, index)
                                .map_err(|_| ())
                        });
                    crate::spans::record_coord(
                        exec,
                        wino_probe::SpanCategory::SentinelVerify,
                        t0,
                    );
                    if let Ok(checked) = verdict {
                        wino_probe::Counter::SentinelTilesChecked.add(checked as u64);
                        wino_probe::Counter::SentinelDemotions.add(1);
                        return Ok(Some((out2, LayerBackend::WinogradDemoted, reason)));
                    }
                }
            }
        }

        let t0 = crate::spans::span_start();
        let rescued = Self::im2col_layer(&plan.shape, input, kernels, exec)?;
        crate::spans::record_coord(exec, wino_probe::SpanCategory::FallbackRescue, t0);
        check_finite("im2col rescue output", rescued.as_slice())?;
        wino_probe::Counter::SentinelRescues.add(1);
        Ok(Some((rescued, LayerBackend::Im2col, reason)))
    }

    /// One Winograd forward through the fallible allocation seams: any
    /// refused buffer (scratch regrow, output image) surfaces as
    /// [`WinoError::Alloc`] for the memory ladder instead of aborting.
    fn winograd_attempt(
        scratch: &mut Option<Scratch>,
        plan: &WinogradLayer,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        Self::ensure_scratch(scratch, plan, exec.threads())?;
        let sc = scratch.as_mut().expect("scratch ensured above");
        let mut out = plan.try_new_output()?;
        plan.forward(input, kernels, &mut out, sc, exec)?;
        Ok(out)
    }

    /// The run-time memory degradation ladder, entered when an allocation
    /// is refused mid-execution: (1) drop the resident scratch and re-tile
    /// towards larger `m` — the memory-cheap direction, see
    /// [`crate::select::fit_tile_to_memory`] — retrying each supported
    /// tile through the fallible seams; (2) rescue through im2col, whose
    /// footprint has no transformed-data scratch; (3) surface the typed
    /// [`WinoError::Alloc`]. Non-allocation errors (pool failures) always
    /// propagate. The returned output is numeric-guarded here because the
    /// caller's guard flow is bypassed.
    #[allow(clippy::too_many_arguments)] // mirrors exec_layer's context
    fn memory_ladder(
        scratch: &mut Option<Scratch>,
        plan: &WinogradLayer,
        cause: wino_simd::AllocError,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, LayerBackend, FallbackReason), WinoError> {
        let reason = FallbackReason::Memory { bytes: cause.bytes };
        // The resident arena may be most of the pressure; release it
        // before any retry.
        *scratch = None;
        if policy.retile_on_memory {
            let out_dims = plan.shape.out_dims();
            let mut mm = plan.grid.m.clone();
            loop {
                let mut grew = false;
                for (d, v) in mm.iter_mut().enumerate() {
                    if *v + 2 <= crate::select::SEARCH_MAX_M.min(out_dims[d]) {
                        *v += 2;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
                let Ok(retiled) = WinogradLayer::new(plan.shape.clone(), &mm, plan.opts) else {
                    continue;
                };
                let Ok(mut sc) = Scratch::try_new(&retiled, exec.threads()) else {
                    continue;
                };
                let mut out = match retiled.try_new_output() {
                    Ok(out) => out,
                    Err(_) => continue,
                };
                match retiled.forward(input, kernels, &mut out, &mut sc, exec) {
                    Ok(()) => {
                        if policy.check_numerics {
                            check_finite("output", out.as_slice())?;
                        }
                        wino_probe::Counter::MemoryDemotions.add(1);
                        return Ok((out, LayerBackend::WinogradDemoted, reason));
                    }
                    Err(WinoError::Alloc(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        if policy.im2col_on_plan_failure {
            let rescue_start = crate::spans::span_start();
            let rescued = Self::im2col_layer(&plan.shape, input, kernels, exec)?;
            crate::spans::record_coord(
                exec,
                wino_probe::SpanCategory::FallbackRescue,
                rescue_start,
            );
            if policy.check_numerics {
                check_finite("im2col rescue output", rescued.as_slice())?;
            }
            wino_probe::Counter::MemoryRescues.add(1);
            return Ok((rescued, LayerBackend::Im2col, reason));
        }
        Err(WinoError::Alloc(cause))
    }

    fn im2col_layer(
        shape: &ConvShape,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        // `try_zeros`: the im2col rescue is the second rung of the memory
        // ladder, so its own output allocation must stay fallible too.
        let mut out =
            BlockedImage::try_zeros(shape.batch, shape.out_channels, &shape.out_dims())?;
        wino_baseline::im2col_conv(input, kernels, &shape.padding, &mut out, exec)?;
        Ok(out)
    }
}

/// Specification of one network layer.
#[derive(Clone, Debug)]
pub struct LayerSpec {
    pub out_channels: usize,
    pub kernel: Vec<usize>,
    pub padding: Vec<usize>,
    /// Winograd output-tile size per dimension.
    pub m: Vec<usize>,
    pub activation: Activation,
}

impl LayerSpec {
    /// A "same"-padded layer with cubic kernels and tiles.
    pub fn same(out_channels: usize, rank: usize, r: usize, m: usize) -> LayerSpec {
        LayerSpec {
            out_channels,
            kernel: vec![r; rank],
            padding: vec![r / 2; rank],
            m: vec![m; rank],
            activation: Activation::Relu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::SerialExecutor;
    use wino_tensor::{SimpleImage, SimpleKernels};

    #[test]
    fn serialization_names_match_schema_sets() {
        // The schema validator (wino-probe) pins the wire names; the
        // producers here must stay inside those sets or reports fail
        // validation at emit time.
        for b in [
            LayerBackend::WinogradJit,
            LayerBackend::WinogradMono,
            LayerBackend::WinogradDemoted,
            LayerBackend::WinogradPoly,
            LayerBackend::WinogradGrouped,
            LayerBackend::Im2col,
        ] {
            assert!(
                wino_probe::BACKEND_NAMES.contains(&b.name()),
                "{:?} serializes to unknown name {}",
                b,
                b.name()
            );
        }
        let reasons = [
            FallbackReason::JitUnavailable(PlanError::RankTooHigh { rank: 9 }),
            FallbackReason::PlanFailed(PlanError::RankTooHigh { rank: 9 }),
            FallbackReason::NumericGuard(NumericError { stage: "output", index: 0 }),
            FallbackReason::SentinelTrip(SentinelError { unit: 0, rel_err: 1.0, bound: 0.5 }),
            FallbackReason::Dilated,
            FallbackReason::GroupTooNarrow { c_per_group: 1 },
            FallbackReason::Memory { bytes: 4096 },
        ];
        for r in &reasons {
            assert!(
                wino_probe::FALLBACK_CODES.contains(&r.code()),
                "{r:?} serializes to unknown code {}",
                r.code()
            );
        }
    }

    fn kernels_for(net: &Network, seed: usize) -> Vec<BlockedKernels> {
        net.layers()
            .iter()
            .map(|l| {
                let s = l.plan.shape();
                let k = SimpleKernels::from_fn(s.out_channels, s.in_channels, &s.kernel_dims, |co, ci, xy| {
                    ((co * 7 + ci * 3 + xy.iter().sum::<usize>() + seed) % 13) as f32 * 0.05 - 0.3
                });
                BlockedKernels::from_simple(&k).unwrap()
            })
            .collect()
    }

    #[test]
    fn steady_state_run_allocates_one_output_per_layer() {
        // The serving hot path relies on this: once the scratch arena
        // and memoised transforms are resident, a repeat forward pass
        // allocates exactly the per-layer output images and nothing
        // else (no scratch regrow, no hidden temporaries).
        let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 0);
        let policy = FallbackPolicy::default();
        net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
        for round in 0..3 {
            let before = wino_simd::thread_alloc_calls();
            net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
            let delta = wino_simd::thread_alloc_calls() - before;
            assert_eq!(delta, 2, "round {round}: expected one output per layer");
        }
    }

    #[test]
    fn footprint_predicts_observed_bytes_within_ten_percent() {
        // The end-to-end accounting gate: the analytic model must price
        // a whole cold start — plan (scratch seeding), kernel
        // memoisation, one forward (per-layer outputs) — within 10% of
        // what the allocator actually handed out. Everything runs on
        // this thread (serial executor), so the per-thread byte tally
        // is exact and immune to concurrent tests.
        let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)];
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();

        let before = wino_simd::thread_alloc_bytes();
        let mut net =
            Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        let kernels = kernels_for(&net, 3);
        let kernel_bytes: usize = kernels.iter().map(|k| k.as_slice().len() * 4).sum();
        let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        let _out = net.forward_fx(&input, &fx, &SerialExecutor).unwrap();
        // The raw kernel tensors are inputs, not part of the plan's
        // footprint — subtract them from the observation.
        let observed =
            (wino_simd::thread_alloc_bytes() - before) as usize - kernel_bytes;

        let modeled = net.footprint(1).total();
        let ratio = observed as f64 / modeled as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "modeled {modeled} vs observed {observed} bytes (ratio {ratio:.3})"
        );
    }

    #[test]
    fn two_layer_net_matches_manual_chaining() {
        let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net =
            Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        assert_eq!(net.num_layers(), 2);
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 0);
        let out = net.forward(&input, &kernels, &SerialExecutor).unwrap();

        // Manual chaining with fresh plans and scratches.
        let s1 = ConvShape::new(1, 16, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let p1 = WinogradLayer::new(s1.clone(), &[2, 2], ConvOptions::default()).unwrap();
        let s2 = ConvShape::new(1, 32, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let p2 = WinogradLayer::new(s2, &[2, 2], ConvOptions::default()).unwrap();
        let mut sc1 = Scratch::new(&p1, 1);
        let mut sc2 = Scratch::new(&p2, 1);
        let mut a1 = p1.new_output().unwrap();
        p1.forward(&input, &kernels[0], &mut a1, &mut sc1, &SerialExecutor).unwrap();
        for v in a1.as_mut_slice() {
            *v = v.max(0.0);
        }
        let mut a2 = p2.new_output().unwrap();
        p2.forward(&a1, &kernels[1], &mut a2, &mut sc2, &SerialExecutor).unwrap();
        for v in a2.as_mut_slice() {
            *v = v.max(0.0);
        }
        assert_eq!(out.as_slice(), a2.as_slice());
    }

    #[test]
    fn fx_mode_matches_training_mode() {
        let specs = vec![LayerSpec::same(16, 2, 3, 4), LayerSpec::same(16, 2, 3, 4)];
        let mut net = Network::new(1, 16, &[14, 14], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[14, 14], |_, c, xy| (c + xy[0] + xy[1]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 5);
        let train = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let tks = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        let fx = net.forward_fx(&input, &tks, &SerialExecutor).unwrap();
        assert_eq!(train.as_slice(), fx.as_slice());
    }

    #[test]
    fn pipelined_network_matches_default_schedule() {
        // The whole network runs under the superblock pipeline — each
        // layer collapses to one stage fork–join — and must match the
        // monolithic schedule bitwise, in training and FX mode alike.
        let specs = vec![LayerSpec::same(32, 2, 3, 4), LayerSpec::same(16, 2, 3, 2)];
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 5 + xy[1]) % 9) as f32 * 0.07 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();

        let mut mono = Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        let kernels = kernels_for(&mono, 3);
        let want = mono.forward(&input, &kernels, &SerialExecutor).unwrap();

        let opts = ConvOptions { schedule: crate::Schedule::Pipelined, ..Default::default() };
        let mut pipe = Network::new(1, 16, &[12, 12], &specs, opts, 2).unwrap();
        let pool = wino_sched::StaticExecutor::new(2);
        let got = pipe.forward(&input, &kernels, &pool).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());

        let tks = pipe.prepare_kernels(&kernels, &pool).unwrap();
        let fx = pipe.forward_fx(&input, &tks, &pool).unwrap();
        assert_eq!(fx.as_slice(), want.as_slice());
    }

    #[test]
    fn valid_padding_shrinks_through_layers() {
        let specs = vec![
            LayerSpec {
                out_channels: 16,
                kernel: vec![3, 3],
                padding: vec![0, 0],
                m: vec![2, 2],
                activation: Activation::None,
            };
            3
        ];
        let mut net = Network::new(1, 16, &[16, 16], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[16, 16], |_, c, xy| (c + xy[0]) as f32 * 0.01);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 9);
        let out = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(out.dims, vec![10, 10]); // 16 -> 14 -> 12 -> 10
    }

    #[test]
    fn wider_executor_than_planned_regrows_scratch() {
        // Regression: Network planned with 1 thread must still run on a
        // 4-slot executor (scratch thread slots regrow on demand).
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 4);
        let serial = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let pool = wino_sched::StaticExecutor::new(4);
        let parallel = net.forward(&input, &kernels, &pool).unwrap();
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn repeated_forwards_are_deterministic() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(2, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(2, 16, &[10, 10], |b, c, xy| (b + c + xy[1]) as f32 * 0.03);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 2);
        let a = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let b = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn layer_count_mismatch_is_typed() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let err = net.forward(&input, &[], &SerialExecutor).unwrap_err();
        assert!(matches!(err, WinoError::LayerCount { expected: 1, got: 0 }));
        let err = net.run_net(&input, &[], &SerialExecutor, &FallbackPolicy::default()).unwrap_err();
        assert!(matches!(err, WinoError::LayerCount { expected: 1, got: 0 }));
    }

    #[test]
    fn clean_net_reports_winograd_backend() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net =
            Network::with_policy(1, 16, &[10, 10], &specs, ConvOptions::default(), 1, &FallbackPolicy::default())
                .unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[1]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 3);
        let (_, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.layer, i);
            assert_eq!(r.backend, ConvOptions::default().winograd_backend());
            assert!(r.fallback.is_none());
        }
    }

    #[test]
    fn unplannable_layer_degrades_to_im2col() {
        // m = 40 on a 10×10 output is BadTileSize: strict planning fails…
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![1, 1],
            m: vec![40, 40],
            activation: Activation::Relu,
        }];
        assert!(matches!(
            Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1),
            Err(PlanError::BadTileSize { .. })
        ));

        // …while the permissive policy plans the layer as im2col and the
        // result matches a well-planned Winograd net within 1e-4.
        let mut net = Network::with_policy(
            1,
            16,
            &[10, 10],
            &specs,
            ConvOptions::default(),
            1,
            &FallbackPolicy::default(),
        )
        .unwrap();
        assert!(net.layers()[0].plan.winograd().is_none());
        assert!(matches!(
            net.layers()[0].planned_fallback,
            Some(FallbackReason::PlanFailed(PlanError::BadTileSize { .. }))
        ));
        assert_eq!(net.scratch_bytes(), 0); // no Winograd layer, no scratch

        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.07 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 6);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(reports[0].fallback, Some(FallbackReason::PlanFailed(_))));

        let good = vec![LayerSpec { m: vec![2, 2], ..specs[0].clone() }];
        let mut wino = Network::new(1, 16, &[10, 10], &good, ConvOptions::default(), 1).unwrap();
        let reference = wino.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(out.as_slice().len(), reference.as_slice().len());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "im2col fallback diverged: {a} vs {b}");
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_silent_rescue() {
        // A NaN in the *layer input* trips the output guard, but the
        // im2col rescue reproduces it — the second guard trip must
        // surface as an error instead of ReLU mapping the NaN to 0.0.
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            if c == 3 && xy == [5, 5] {
                f32::NAN
            } else {
                (c + xy[0]) as f32 * 0.02
            }
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 4);
        let err = net
            .run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default())
            .expect_err("a NaN input must not be silently absorbed");
        match err {
            WinoError::Numeric(e) => assert_eq!(e.stage, "im2col rescue output"),
            other => panic!("expected Numeric, got {other:?}"),
        }
    }

    #[test]
    fn im2col_layer_rejects_kernel_memoisation() {
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![1, 1],
            m: vec![40, 40],
            activation: Activation::None,
        }];
        let mut net = Network::with_policy(
            1,
            16,
            &[10, 10],
            &specs,
            ConvOptions::default(),
            1,
            &FallbackPolicy::default(),
        )
        .unwrap();
        let kernels = kernels_for(&net, 1);
        assert!(matches!(
            net.prepare_kernels(&kernels, &SerialExecutor),
            Err(WinoError::Unsupported(_))
        ));
    }

    #[test]
    fn run_layer_executes_one_layer() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 8);
        let policy = FallbackPolicy::default();
        let (a1, r1) = net.run_layer(0, &input, &kernels[0], &SerialExecutor, &policy).unwrap();
        let (a2, r2) = net.run_layer(1, &a1, &kernels[1], &SerialExecutor, &policy).unwrap();
        assert_eq!(r1.layer, 0);
        assert_eq!(r2.layer, 1);
        let full = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(a2.as_slice(), full.as_slice());
        // Out-of-range index is a typed error, not a panic.
        assert!(net.run_layer(9, &input, &kernels[0], &SerialExecutor, &policy).is_err());
    }

    /// One oracle layer: f64 direct conv over the full geometry, then
    /// (optionally) ReLU — the ground truth the dispatch-backed network
    /// paths are compared against.
    fn oracle_layer(
        img: &SimpleImage,
        ker: &BlockedKernels,
        padding: &[usize],
        geo: &wino_tensor::ConvGeometry,
        relu: bool,
    ) -> SimpleImage {
        let mut out = wino_baseline::direct_f64_geo(img, &ker.to_simple(), padding, geo);
        if relu {
            for v in &mut out.data {
                *v = v.max(0.0);
            }
        }
        out
    }

    fn assert_close(got: &BlockedImage, want: &SimpleImage, tol: f32, what: &str) {
        let got = got.to_simple();
        assert_eq!(got.dims, want.dims, "{what}: dims");
        assert_eq!(got.channels, want.channels, "{what}: channels");
        for (i, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
            assert!((a - b).abs() <= tol, "{what}: [{i}] {a} vs {b}");
        }
    }

    #[test]
    fn strided_network_chains_geometry_and_reports_polyphase() {
        // Two stride-2 layers: 12×12 → 6×6 → 3×3, every layer executed by
        // the polyphase route and reported as such.
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let mut net =
            Network::with_policy(1, 16, &[12, 12], &specs, opts, 1, &FallbackPolicy::default())
                .unwrap();
        assert_eq!(net.layers()[0].plan.out_dims(), vec![6, 6]);
        assert_eq!(net.layers()[1].plan.out_dims(), vec![3, 3]);

        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 7);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        for r in &reports {
            assert_eq!(r.backend, LayerBackend::WinogradPoly);
            assert!(r.fallback.is_none(), "polyphase is a first-class route, not a fallback");
        }
        assert_eq!(out.dims, vec![3, 3]);

        let geo = opts.geometry(2);
        let a1 = oracle_layer(&img, &kernels[0], &[1, 1], &geo, true);
        let want = oracle_layer(&a1, &kernels[1], &[1, 1], &geo, true);
        assert_close(&out, &want, 1e-3, "strided net");
    }

    #[test]
    fn grouped_network_reports_grouped_backend() {
        // C = C' = 32, groups = 2: each group is a 16→16 sub-conv — wide
        // enough for the blocked layouts, so the grouped Winograd route
        // runs (and reports) rather than falling back.
        let specs = vec![LayerSpec::same(32, 2, 3, 2)];
        let opts = ConvOptions::default().with_groups(2);
        let mut net =
            Network::with_policy(1, 32, &[10, 10], &specs, opts, 1, &FallbackPolicy::default())
                .unwrap();
        let dp = net.layers()[0].plan.dispatch().expect("grouped layer routes via dispatch");
        assert!(matches!(dp.route, crate::dispatch::Route::Grouped { .. }));
        assert_eq!(dp.kernel_in_channels(), 16);

        let img = SimpleImage::from_fn(1, 32, &[10, 10], |_, c, xy| {
            ((c * 2 + xy[0] + xy[1] * 3) % 13) as f32 * 0.06 - 0.4
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        // Grouped kernels carry C/G input channels; the dense helper
        // above would build the wrong shape.
        let k = SimpleKernels::from_fn(32, 16, &[3, 3], |co, ci, xy| {
            ((co * 5 + ci * 3 + xy[0] + xy[1]) % 11) as f32 * 0.05 - 0.25
        });
        let kernels = vec![BlockedKernels::from_simple(&k).unwrap()];
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::WinogradGrouped);
        assert!(reports[0].fallback.is_none());

        let want = oracle_layer(&img, &kernels[0], &[1, 1], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-3, "grouped net");

        // Memoised kernel transforms are a dense-Winograd feature; a
        // dispatch-planned layer declines them with a typed error.
        assert!(matches!(
            net.prepare_kernels(&kernels, &SerialExecutor),
            Err(WinoError::Unsupported(_))
        ));
    }

    #[test]
    fn dilated_network_takes_the_designed_im2col_route() {
        // Dilation 2 with "same" padding (effective kernel 5, pad 2).
        // The designed route is im2col with a typed provenance — even
        // under the strict policy `Network::new` uses, because this is
        // routing, not degradation.
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![2, 2],
            m: vec![2, 2],
            activation: Activation::Relu,
        }];
        let opts = ConvOptions::default().with_dilation(&[2, 2]);
        let mut net = Network::new(1, 16, &[12, 12], &specs, opts, 1).unwrap();
        assert_eq!(net.layers()[0].plan.out_dims(), vec![12, 12]);
        assert!(matches!(net.layers()[0].planned_fallback, Some(FallbackReason::Dilated)));

        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.08 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 11);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::strict()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(reports[0].fallback, Some(FallbackReason::Dilated)));

        let want = oracle_layer(&img, &kernels[0], &[2, 2], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-4, "dilated net");
    }

    #[test]
    fn depthwise_network_reports_group_too_narrow() {
        // groups == C: one input channel per group — far below the S=16
        // channel block, so the dispatch layer routes to im2col and says
        // exactly why.
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let opts = ConvOptions::default().with_groups(16);
        let mut net = Network::new(1, 16, &[10, 10], &specs, opts, 1).unwrap();
        assert!(matches!(
            net.layers()[0].planned_fallback,
            Some(FallbackReason::GroupTooNarrow { c_per_group: 1 })
        ));

        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            ((c * 3 + xy[0] + xy[1]) % 7) as f32 * 0.09 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let k = SimpleKernels::from_fn(16, 1, &[3, 3], |co, _, xy| {
            ((co + xy[0] * 2 + xy[1]) % 5) as f32 * 0.1 - 0.2
        });
        let kernels = vec![BlockedKernels::from_simple(&k).unwrap()];
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::strict()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(
            reports[0].fallback,
            Some(FallbackReason::GroupTooNarrow { c_per_group: 1 })
        ));

        let want = oracle_layer(&img, &kernels[0], &[1, 1], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-4, "depthwise net");
    }
}
