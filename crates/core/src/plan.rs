//! Layer plans and scratch buffers.
//!
//! A [`WinogradLayer`] fixes everything known at "instantiation time" in
//! the paper's C++ artifact: the layer shape, the `F(m, r)` transform
//! programs per dimension, and the stage-2 blocking parameters. A
//! [`Scratch`] is the paper's auxiliary buffer (§4.4 "Memory overhead"):
//! it holds `I` (transformed inputs), `W` (transformed kernels), `I'_tmp`
//! and tile-major `I'`, and is reused across layers.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use std::cell::UnsafeCell;

use wino_gemm::{default_shape, BlockShape};
use wino_simd::{AlignedVec, S};
use wino_tensor::{BlockedMatrices, ConvShape, ShapeError, TileGrid};
use wino_transforms::{FmrPlan, PointSchedule};

use crate::layout::TileMajor;
use crate::net::LayerBackend;

/// Maximum supported spatial rank (the stages use fixed-size index
/// buffers; 6 covers any practical ConvNet with room to spare).
pub const MAX_RANK: usize = 6;

/// A target on the numerical quality of a plan: the worst relative
/// error the caller is willing to accept from the Winograd evaluation,
/// enforced a priori from the exact-rational conditioning of the
/// transforms ([`wino_transforms::Conditioning`]).
///
/// The check is per dimension: a plan is admitted only if every
/// dimension's amplification factor satisfies `γ(m_d, r_d) · ε ≤
/// max_rel_error` (ε = [`f32::EPSILON`]). Because γ is strictly
/// increasing over the practical even tile sizes, a budget induces a
/// per-(r, point-schedule) *derived* maximum tile size — this is what
/// replaced the old hard-coded `Purpose::max_m` table (the presets in
/// [`crate::select::Purpose::budget`] reproduce it exactly for r = 3).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct AccuracyBudget {
    /// Target worst-case relative error (> 0).
    pub max_rel_error: f64,
}

impl AccuracyBudget {
    /// Budget admitting tiles whose per-dimension amplification fits
    /// `max_rel_error`.
    pub fn new(max_rel_error: f64) -> AccuracyBudget {
        AccuracyBudget { max_rel_error }
    }

    /// Whether a 1-D transform with amplification factor `gamma`
    /// fits this budget.
    pub fn admits_gamma(self, gamma: f64) -> bool {
        gamma * f64::from(f32::EPSILON) <= self.max_rel_error
    }
}

/// A ceiling on the bytes a plan may allocate — the memory twin of
/// [`AccuracyBudget`]. Enforced at plan time from the analytic
/// [`crate::MemoryFootprint`]: a plan whose footprint (scratch,
/// tile-major, per-thread and output buffers, at [`MemoryBudget::threads`]
/// thread slots) exceeds `max_bytes` fails with
/// [`PlanError::MemoryBudget`]; [`crate::select::plan_with_fallback`]
/// then re-tiles towards *larger* `m` until the plan fits — the
/// transformed-data inflation factor `∏((m_d+r_d−1)/m_d)` shrinks as the
/// tile grows, so larger tiles are the memory-cheap direction (the
/// opposite of the accuracy ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Largest admissible plan footprint in bytes.
    pub max_bytes: usize,
    /// Thread-slot count the footprint is evaluated at (per-thread
    /// codelet buffers scale with it). Defaults to 1.
    pub threads: usize,
}

impl MemoryBudget {
    /// A budget of `max_bytes`, evaluated at one thread slot.
    pub fn new(max_bytes: usize) -> MemoryBudget {
        MemoryBudget { max_bytes, threads: 1 }
    }

    /// The same budget evaluated at `threads` thread slots.
    pub fn with_threads(mut self, threads: usize) -> MemoryBudget {
        self.threads = threads.max(1);
        self
    }

    /// Whether a plan needing `bytes` fits this budget.
    pub fn admits(self, bytes: usize) -> bool {
        bytes <= self.max_bytes
    }
}

/// Which engine executes stage 2's micro-kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stage2Backend {
    /// Let the planner choose (the default): [`WinogradLayer::new`]
    /// resolves it to [`Stage2Backend::Jit`] when the running CPU has
    /// AVX-512F and the plan is not [`ConvOptions::compensated`], to
    /// [`Stage2Backend::Mono`] otherwise, and stores the result in the
    /// plan's `opts.stage2`. A plan never carries `Auto`. Resolving to
    /// `Mono` is a selection, not a degradation: no
    /// [`crate::FallbackReason`] is recorded for it.
    #[default]
    Auto,
    /// Const-generic monomorphised Rust kernels (`wino-gemm`), running on
    /// the compile-time [`wino_simd::F32x16`] backend.
    Mono,
    /// Run-time generated AVX-512 machine code (`wino-jit`) — the paper's
    /// JIT, including the in-kernel scatter. Independent of the
    /// compile-time ISA, but requires AVX-512F at run time; planning
    /// fails with [`PlanError::Jit`] otherwise.
    Jit,
}

impl Stage2Backend {
    /// The engine a plan runs on: `Auto` becomes `Jit` when the running
    /// CPU has AVX-512F and the reduction is not `compensated` (the JIT
    /// kernels have no compensated variant), `Mono` otherwise. Explicit
    /// `Mono` and `Jit` are pins and are returned unchanged.
    pub(crate) fn resolve(self, compensated: bool) -> Stage2Backend {
        match self {
            Stage2Backend::Auto if !compensated && wino_simd::cpu_has_avx512f() => {
                Stage2Backend::Jit
            }
            Stage2Backend::Auto => Stage2Backend::Mono,
            pinned => pinned,
        }
    }
}

/// How the three pipeline stages are scheduled across fork–joins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// One fork–join per stage plus a separate ⑥ scatter pass: stage 2
    /// writes the blocked `I'_tmp`, a fourth fork–join copies it into the
    /// tile-major layout. The ablation baseline.
    Unfused,
    /// One fork–join per stage, with operation ⑥ fused into the last
    /// reduction block of the stage-2 micro-kernel (>20 % overall in the
    /// paper). Default.
    #[default]
    FusedScatter,
    /// Stages 1→2→3 executed per L2-resident superblock inside a single
    /// fork–join: each task transforms, multiplies and inverse-transforms
    /// its own slice of panel rows while the data is still cache-hot,
    /// instead of streaming `Î`/`X̂` through DRAM between barriers.
    Pipelined,
}

impl Schedule {
    /// Every schedule, in ablation order.
    pub const ALL: [Schedule; 3] = [Schedule::Unfused, Schedule::FusedScatter, Schedule::Pipelined];

    /// Stable kebab-case name for reports and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Unfused => "unfused",
            Schedule::FusedScatter => "fused-scatter",
            Schedule::Pipelined => "pipelined",
        }
    }

    /// Whether operation ⑥ (the tile-major scatter) runs inside the
    /// stage-2 micro-kernel rather than as a separate copy pass.
    pub fn fuses_scatter(self) -> bool {
        !matches!(self, Schedule::Unfused)
    }
}

/// Tuning and ablation switches.
#[derive(Clone, Copy, Debug)]
pub struct ConvOptions {
    /// Use non-temporal streaming stores in the transform stages
    /// (§4.2.1; the paper credits them with ~25 % on those stages).
    pub streaming_stores: bool,
    /// Stage scheduling: how many fork–joins per layer and where
    /// operation ⑥ runs. See [`Schedule`].
    pub schedule: Schedule,
    /// Explicit blocking parameters; `None` uses the Eq. 11 model default
    /// (or wisdom, via the higher-level API).
    pub block: Option<BlockShape>,
    /// Explicit superblock extent (row blocks per superblock) for the
    /// pipelined schedule; `None` uses the L2 footprint model
    /// ([`wino_gemm::SUPERBLOCK_L2_BYTES`]) or a wisdom hint.
    pub superblock: Option<usize>,
    /// Interpolation-point schedule for the transform generation (the
    /// Table 3 conditioning ablation).
    pub points: PointSchedule,
    /// Stage-2 kernel engine; [`Stage2Backend::Auto`] by default, which
    /// planning resolves to the engine that actually runs.
    pub stage2: Stage2Backend,
    /// A-priori accuracy budget. `None` (the default) admits any tile;
    /// `Some(b)` makes planning fail with [`PlanError::AccuracyBudget`]
    /// when a dimension's predicted amplification exceeds the budget.
    pub budget: Option<AccuracyBudget>,
    /// Memory budget. `None` (the default) admits any footprint;
    /// `Some(b)` makes planning fail with [`PlanError::MemoryBudget`]
    /// when the plan's analytic [`crate::MemoryFootprint`] exceeds it
    /// (`plan_with_fallback` re-tiles until the plan fits).
    pub memory: Option<MemoryBudget>,
    /// Opt-in compensated (Kahan–Neumaier) channel reduction in stage 2
    /// for high-accuracy plans: each `C_blk` reduction block is computed
    /// separately and folded into the accumulator with an error-
    /// compensation term instead of the plain β-accumulating
    /// micro-kernel. Mono backend only: the default engine resolves to
    /// mono for these plans, and a `Jit` pin fails to plan.
    pub compensated: bool,
    /// Barrier watchdog deadline for fork–join pools built on behalf of
    /// this configuration (e.g. by the serving layer's worker executor).
    /// `None` (the default) defers to [`wino_sched::default_deadline`] —
    /// the `WINO_WATCHDOG_MS` environment override, or the built-in
    /// 30 s default — so soak tests on contended CI machines can widen
    /// the watchdog without spurious timeouts. Plans themselves never
    /// build pools; executors constructed by callers keep whatever
    /// deadline they were given.
    pub watchdog: Option<std::time::Duration>,
    /// Output sampling step per spatial dimension (entries beyond the
    /// layer's rank are ignored; all 1s by default). Stride-2 layers
    /// still run Winograd, via the sub-lattice (polyphase) decomposition
    /// in [`crate::dispatch`]; [`WinogradLayer::new`] itself only accepts
    /// the identity geometry.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_stride(&[2, 2]);
    /// assert_eq!(opts.stride[..2], [2, 2]);
    /// assert_eq!(opts.stride[2..], [1, 1, 1, 1]); // beyond-rank entries stay 1
    /// assert!(!opts.geometry(2).is_identity());
    /// ```
    pub stride: [usize; MAX_RANK],
    /// Kernel tap spacing per spatial dimension (entries beyond the
    /// layer's rank are ignored; all 1s by default). Dilation is outside
    /// what the Winograd transform stencils can express, so dilated
    /// layers dispatch to the im2col baseline with typed provenance.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_dilation(&[2]);
    /// assert_eq!(opts.geometry(1).dilation, vec![2]);
    /// ```
    pub dilation: [usize; MAX_RANK],
    /// Channel group count (1 = dense). Input channels `[g·C/G, (g+1)·C/G)`
    /// feed only output channels `[g·C'/G, (g+1)·C'/G)`; `groups == C` is
    /// depthwise. Groups whose per-group channel width is a multiple of
    /// the vector width still run Winograd (blocked C/C' loops); narrower
    /// groups dispatch to im2col.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_groups(4);
    /// assert_eq!(opts.geometry(2).groups, 4);
    /// assert!(ConvOptions::default().geometry(3).is_identity());
    /// ```
    pub groups: usize,
}

impl ConvOptions {
    /// Builder-style stride override (remaining dimensions keep 1).
    pub fn with_stride(mut self, stride: &[usize]) -> ConvOptions {
        self.stride[..stride.len()].copy_from_slice(stride);
        self
    }

    /// Builder-style dilation override (remaining dimensions keep 1).
    pub fn with_dilation(mut self, dilation: &[usize]) -> ConvOptions {
        self.dilation[..dilation.len()].copy_from_slice(dilation);
        self
    }

    /// Builder-style group-count override.
    pub fn with_groups(mut self, groups: usize) -> ConvOptions {
        self.groups = groups;
        self
    }

    /// The geometry these options describe for a layer of the given rank.
    pub fn geometry(&self, rank: usize) -> wino_tensor::ConvGeometry {
        let rank = rank.min(MAX_RANK);
        wino_tensor::ConvGeometry {
            stride: self.stride[..rank].to_vec(),
            dilation: self.dilation[..rank].to_vec(),
            groups: self.groups,
        }
    }

    /// True when stride/dilation/groups are all 1 over the first `rank`
    /// dimensions — the only geometry the monolithic planner accepts.
    pub fn has_identity_geometry(&self, rank: usize) -> bool {
        self.geometry(rank).is_identity()
    }

    /// The backend a direct Winograd plan of these options reports as: its
    /// stage-2 engine, with [`Stage2Backend::Auto`] resolved as planning
    /// resolves it. On a plan's own `opts` this is the engine that ran.
    pub fn winograd_backend(&self) -> LayerBackend {
        match self.stage2.resolve(self.compensated) {
            Stage2Backend::Jit => LayerBackend::WinogradJit,
            _ => LayerBackend::WinogradMono,
        }
    }

    /// Whether stage 2's fused ⑥ scatter uses non-temporal stores: the
    /// monolithic schedules follow [`Self::streaming_stores`]; the
    /// pipelined schedule never streams, so `y` stays cache-resident for
    /// its own stage 3. Both engines take the policy from here.
    pub(crate) fn scatter_streaming(&self) -> bool {
        self.streaming_stores && self.schedule != Schedule::Pipelined
    }

    /// These options with the geometry fields reset to the identity — the
    /// form the dispatch layer hands to stride-1 sub-plans.
    pub fn with_identity_geometry(mut self) -> ConvOptions {
        self.stride = [1; MAX_RANK];
        self.dilation = [1; MAX_RANK];
        self.groups = 1;
        self
    }
}

impl Default for ConvOptions {
    fn default() -> Self {
        ConvOptions {
            streaming_stores: true,
            schedule: Schedule::default(),
            block: None,
            superblock: None,
            points: PointSchedule::default(),
            stage2: Stage2Backend::default(),
            budget: None,
            memory: None,
            compensated: false,
            watchdog: None,
            stride: [1; MAX_RANK],
            dilation: [1; MAX_RANK],
            groups: 1,
        }
    }
}

/// Errors from plan construction.
///
/// `Copy` by design: fallback decisions record the original error in an
/// [`crate::net::ExecutionReport`] while also propagating it, so the type
/// must be freely duplicable. The `reason` fields are static reason codes,
/// not formatted strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    Shape(ShapeError),
    /// Rank exceeds [`MAX_RANK`].
    RankTooHigh { rank: usize },
    /// Requested tile size is numerically or structurally unusable.
    BadTileSize { dim: usize, m: usize },
    /// Blocking parameters incompatible with the channel counts.
    BadBlocking { reason: &'static str },
    /// JIT stage-2 backend requested but unavailable (no AVX-512F, or
    /// code emission failed).
    Jit { reason: &'static str },
    /// The requested tile's a-priori error bound exceeds the plan's
    /// [`AccuracyBudget`] in dimension `dim` — demote `m` (the planner's
    /// `candidate_tiles` does this automatically).
    AccuracyBudget { dim: usize, m: usize },
    /// The plan's analytic footprint exceeds its [`MemoryBudget`] —
    /// demote `m` ([`crate::select::plan_with_fallback`] does this
    /// automatically).
    MemoryBudget { need_bytes: usize, budget_bytes: usize },
    /// The options carry a non-identity stride/dilation/groups geometry,
    /// which the monolithic planner does not execute — route the layer
    /// through [`crate::dispatch`] instead.
    Geometry { reason: &'static str },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Shape(e) => write!(f, "{e}"),
            PlanError::RankTooHigh { rank } => {
                write!(f, "rank {rank} exceeds supported maximum {MAX_RANK}")
            }
            PlanError::BadTileSize { dim, m } => {
                write!(f, "output tile size m={m} for dimension {dim} is unusable")
            }
            PlanError::BadBlocking { reason } => write!(f, "bad blocking: {reason}"),
            PlanError::Jit { reason } => write!(f, "jit backend unavailable: {reason}"),
            PlanError::AccuracyBudget { dim, m } => write!(
                f,
                "tile size m={m} for dimension {dim} exceeds the accuracy budget"
            ),
            PlanError::MemoryBudget { need_bytes, budget_bytes } => write!(
                f,
                "plan footprint {need_bytes} B exceeds the memory budget {budget_bytes} B"
            ),
            PlanError::Geometry { reason } => {
                write!(f, "non-identity conv geometry: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ShapeError> for PlanError {
    fn from(e: ShapeError) -> Self {
        PlanError::Shape(e)
    }
}

/// Pre-compiled machine-code kernels for the JIT stage-2 backend: the
/// β = 0/1 block kernels for intermediate reduction blocks and the
/// scatter kernels (full-height and tail panels, with the plan's
/// [`ConvOptions::scatter_streaming`] store policy) for the final one.
pub(crate) struct JitStage2 {
    pub block0: Option<wino_jit::JitKernel>,
    pub block1: Option<wino_jit::JitKernel>,
    pub scatter_full: Option<wino_jit::JitKernel>,
    pub scatter_tail: Option<wino_jit::JitKernel>,
    /// Rows of the final, partially filled panel (0 = all panels full).
    pub tail: usize,
}

impl std::fmt::Debug for JitStage2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitStage2 {{ tail: {} }}", self.tail)
    }
}

/// A fully planned N-D Winograd convolution for one layer shape and one
/// choice of `F(m, r)`.
#[derive(Debug)]
pub struct WinogradLayer {
    pub shape: ConvShape,
    pub grid: TileGrid,
    /// Per-dimension transform plans `F(m_d, r_d)`.
    pub plans: Vec<FmrPlan>,
    /// Stage-2 blocking `(n_blk, C_blk, C'_blk)`.
    pub block: BlockShape,
    /// Row blocks per superblock of the pipelined schedule (≥ 1), from
    /// the L2 footprint model unless overridden via
    /// [`ConvOptions::superblock`]. Unused by the monolithic schedules.
    pub superblock: usize,
    pub opts: ConvOptions,
    pub(crate) jit: Option<JitStage2>,
}

impl WinogradLayer {
    /// Plan `F(m₁×…×m_n, r₁×…×r_n)` for the given layer.
    pub fn new(shape: ConvShape, m: &[usize], mut opts: ConvOptions) -> Result<WinogradLayer, PlanError> {
        opts.stage2 = opts.stage2.resolve(opts.compensated);
        let rank = shape.rank();
        if rank > MAX_RANK {
            return Err(PlanError::RankTooHigh { rank });
        }
        if !opts.has_identity_geometry(rank) {
            // Stride/dilation/groups are the dispatch layer's job: the
            // monolithic three-stage pipeline is a stride-1 algorithm.
            return Err(PlanError::Geometry {
                reason: "WinogradLayer is stride-1/dense; use dispatch::plan_dispatch",
            });
        }
        if !shape.in_channels.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: shape.in_channels }.into());
        }
        if !shape.out_channels.is_multiple_of(S) {
            return Err(
                ShapeError::ChannelsNotVectorMultiple { channels: shape.out_channels }.into()
            );
        }
        let grid = TileGrid::new(&shape, m)?;
        let mut plans = Vec::with_capacity(rank);
        for d in 0..rank {
            if m[d] == 0 || m[d] + shape.kernel_dims[d] - 1 > wino_transforms::points::MAX_FINITE_POINTS + 1 {
                return Err(PlanError::BadTileSize { dim: d, m: m[d] });
            }
            let plan = FmrPlan::with_schedule(m[d], shape.kernel_dims[d], opts.points);
            if let Some(budget) = opts.budget {
                if !budget.admits_gamma(plan.conditioning().gamma) {
                    return Err(PlanError::AccuracyBudget { dim: d, m: m[d] });
                }
            }
            plans.push(plan);
        }
        if opts.compensated && opts.stage2 == Stage2Backend::Jit {
            return Err(PlanError::Jit {
                reason: "compensated accumulation requires the mono stage-2 backend",
            });
        }
        let rows = grid.total_tiles() * shape.batch;
        let block = match opts.block {
            Some(b) => {
                if !shape.in_channels.is_multiple_of(b.c_blk) {
                    return Err(PlanError::BadBlocking {
                        reason: "C not divisible by C_blk",
                    });
                }
                if !shape.out_channels.is_multiple_of(b.cp_blk) {
                    return Err(PlanError::BadBlocking {
                        reason: "C' not divisible by C'_blk",
                    });
                }
                if b.n_blk == 0 || b.n_blk > wino_gemm::MAX_N_BLK {
                    return Err(PlanError::BadBlocking { reason: "n_blk out of range" });
                }
                if b.c_blk % S != 0 || b.cp_blk % S != 0 {
                    return Err(PlanError::BadBlocking {
                        reason: "C_blk and C'_blk must be multiples of 16",
                    });
                }
                b
            }
            None => default_shape(shape.in_channels, shape.out_channels, rows),
        };
        let t_vol = grid.tile_volume();
        let superblock = match opts.superblock {
            Some(sb) => {
                if sb == 0 {
                    return Err(PlanError::BadBlocking { reason: "superblock must be ≥ 1" });
                }
                sb
            }
            None => block.superblock_row_blocks(
                t_vol,
                shape.in_channels,
                shape.out_channels,
                wino_gemm::SUPERBLOCK_L2_BYTES,
            ),
        };
        let mut layer = WinogradLayer { shape, grid, plans, block, superblock, opts, jit: None };
        if let Some(mb) = opts.memory {
            let need_bytes = layer.footprint(mb.threads).total();
            if !mb.admits(need_bytes) {
                return Err(PlanError::MemoryBudget { need_bytes, budget_bytes: mb.max_bytes });
            }
        }
        // Compile last, so plans rejected above emit no machine code.
        if opts.stage2 == Stage2Backend::Jit {
            layer.jit = Some(Self::build_jit(&layer.shape, &layer.grid, block, rows, opts)?);
        }
        Ok(layer)
    }

    /// Compile the stage-2 machine-code kernels (the paper generates them
    /// "on demand, … compiled to a shared library, and loaded" — here they
    /// are emitted straight into executable pages at plan time).
    fn build_jit(
        shape: &ConvShape,
        grid: &TileGrid,
        block: BlockShape,
        rows: usize,
        opts: ConvOptions,
    ) -> Result<JitStage2, PlanError> {
        use wino_jit::{JitError, JitKernel, JitOutput};
        let jit_err = |e: JitError| PlanError::Jit {
            reason: match e {
                JitError::Avx512Unavailable => "AVX-512F not available on this CPU",
                JitError::BadParams(reason) => reason,
                JitError::Os(_) => "executable mapping failed",
            },
        };
        let k_blocks = shape.in_channels / block.c_blk;
        let tail = rows % block.n_blk;
        let t_vol = grid.tile_volume();
        let n_tiles: usize = grid.counts.iter().product();
        // Tile-major group stride (floats): see `TileMajor::group_stride`.
        let group_stride = n_tiles * t_vol * S;
        let (nb, cb, cpb) = (block.n_blk, block.c_blk, block.cp_blk);

        let fused = opts.schedule.fuses_scatter();
        let scatter = JitOutput::Scatter { group_stride, streaming: opts.scatter_streaming() };
        let need_block0 = !fused || k_blocks > 1;
        let need_block1 = k_blocks > 1 && (!fused || k_blocks > 2);
        let scatter_beta = k_blocks > 1;
        let block0 = if need_block0 {
            Some(JitKernel::compile(nb, cb, cpb, false).map_err(jit_err)?)
        } else {
            None
        };
        let block1 = if need_block1 {
            Some(JitKernel::compile(nb, cb, cpb, true).map_err(jit_err)?)
        } else {
            None
        };
        let (scatter_full, scatter_tail) = if fused {
            let full =
                JitKernel::compile_with_output(nb, cb, cpb, scatter_beta, scatter).map_err(jit_err)?;
            let tail_kernel = if tail != 0 {
                Some(
                    JitKernel::compile_with_output(tail, cb, cpb, scatter_beta, scatter)
                        .map_err(jit_err)?,
                )
            } else {
                None
            };
            (Some(full), tail_kernel)
        } else {
            (None, None)
        };
        Ok(JitStage2 { block0, block1, scatter_full, scatter_tail, tail })
    }

    /// Number of spatial dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Tile volume `T = ∏(m_d + r_d − 1)` — the number of batched matrix
    /// multiplications in stage 2.
    pub fn t_vol(&self) -> usize {
        self.grid.tile_volume()
    }

    /// Tiles per image `N`.
    pub fn n_tiles(&self) -> usize {
        self.grid.total_tiles()
    }

    /// Panel rows of the transformed matrices: `N·B`.
    pub fn rows(&self) -> usize {
        self.n_tiles() * self.shape.batch
    }

    /// `n_blk`-row panels per transformed matrix (the unit the pipelined
    /// schedule groups into superblocks).
    pub fn row_blocks(&self) -> usize {
        self.rows().div_ceil(self.block.n_blk)
    }

    /// Superblocks the pipelined schedule partitions this layer into —
    /// the task-grid extent of its single fork–join.
    pub fn num_superblocks(&self) -> usize {
        self.row_blocks().div_ceil(self.superblock)
    }

    /// Allocate the output image for this layer.
    pub fn new_output(&self) -> Result<wino_tensor::BlockedImage, ShapeError> {
        wino_tensor::BlockedImage::zeros(self.shape.batch, self.shape.out_channels, &self.shape.out_dims())
    }

    /// Fallible [`Self::new_output`]: a typed allocation failure instead
    /// of an abort when the allocator refuses the buffer.
    pub fn try_new_output(&self) -> Result<wino_tensor::BlockedImage, wino_tensor::TensorError> {
        wino_tensor::BlockedImage::try_zeros(
            self.shape.batch,
            self.shape.out_channels,
            &self.shape.out_dims(),
        )
    }

    /// The plan's analytic memory footprint at `threads` thread slots —
    /// exactly the bytes [`Scratch::new`], [`Self::new_output`] and the
    /// memoised kernel transform would allocate, computed without
    /// allocating anything. See [`crate::MemoryFootprint`].
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        crate::MemoryFootprint::of_layer(self, threads)
    }

    /// FLOPs the equivalent direct convolution would perform (the
    /// normaliser for effective-GFLOP/s reporting, as in Fig. 5).
    pub fn direct_flops(&self) -> u128 {
        self.shape.direct_flops()
    }

    /// A-priori worst-case bound on this layer's relative output error
    /// against an exact evaluation:
    ///
    /// ```text
    /// bound = ε · (∏_d γ(m_d, r_d)) · C · ∏_d r_d
    /// ```
    ///
    /// where γ is the exact-rational amplification factor of each
    /// dimension's transforms ([`wino_transforms::Conditioning`]) and
    /// `C · ∏ r` counts the accumulation length of the channel/tap
    /// reduction. Deliberately conservative (a guaranteed no-false-trip
    /// threshold for the runtime accuracy sentinels, often orders of
    /// magnitude above typical error) but strictly monotone in every
    /// `m_d`, which is what bound-driven tile demotion needs.
    pub fn predicted_bound(&self) -> f64 {
        let gamma: f64 = self.plans.iter().map(|p| p.conditioning().gamma).product();
        let taps: usize = self.shape.kernel_dims.iter().product();
        let terms = (self.shape.in_channels * taps) as f64;
        f64::from(f32::EPSILON) * gamma * terms
    }
}

/// Per-thread ping-pong tile buffers (each `T·S` floats).
pub(crate) struct ThreadBuf {
    pub a: AlignedVec,
    pub b: AlignedVec,
}

/// Per-thread buffers for the compensated stage-2 reduction
/// ([`ConvOptions::compensated`]): one panel-sized product buffer and one
/// panel-sized Kahan compensation buffer. Allocated only for compensated
/// plans.
pub(crate) struct CompBuf {
    /// One reduction block's product `U_k · V_k` (β = 0 target).
    pub tmp: AlignedVec,
    /// Running Kahan–Neumaier compensation for the panel accumulator.
    pub comp: AlignedVec,
}

/// One thread slot's [`CompBuf`], shareable across the executor's workers.
pub(crate) struct CompBufCell(UnsafeCell<CompBuf>);

// SAFETY: each executor thread slot accesses only its own cell (the
// Executor slot contract); see `Scratch::thread_buf` for the same pattern.
unsafe impl Sync for CompBufCell {}

impl CompBufCell {
    /// Raw pointer to the slot's buffers; the caller upholds the slot
    /// exclusivity contract before dereferencing.
    pub(crate) fn get(&self) -> *mut CompBuf {
        self.0.get()
    }
}

/// The paper's auxiliary memory: transformed inputs `I` (`u`), transformed
/// kernels `W` (`v`), blocked intermediate `I'_tmp` (`x`), tile-major
/// transformed outputs `I'` (`y`), plus per-thread codelet buffers.
///
/// Reused across invocations (and across layers of the same plan); sized
/// once at construction.
pub struct Scratch {
    pub u: BlockedMatrices,
    pub v: BlockedMatrices,
    pub x: BlockedMatrices,
    pub y: TileMajor,
    bufs: Vec<UnsafeCell<ThreadBuf>>,
    /// Compensated-reduction panels, one per thread slot; empty unless
    /// the layer was planned with [`ConvOptions::compensated`].
    cbufs: Vec<CompBufCell>,
}

// SAFETY: each executor thread slot accesses only its own `bufs[slot]`
// and `cbufs[slot]` (guaranteed by the Executor contract), and the
// matrices are written at disjoint offsets per task.
unsafe impl Sync for Scratch {}

impl Scratch {
    /// Allocate scratch for `layer`, usable with executors of up to
    /// `threads` thread slots.
    pub fn new(layer: &WinogradLayer, threads: usize) -> Scratch {
        Scratch::build(layer, threads, None)
    }

    /// As [`Scratch::new`], but the four large transformed-data buffers
    /// (`u`, `v`, `x`, `y`) are zeroed — and therefore NUMA-placed —
    /// through `exec` (`wino_tensor::first_touch`): each executor thread
    /// first-touches the region of scratch that the same executor's
    /// partition will steer it at during the forward pass. Thread-slot
    /// count is taken from `exec.threads()`.
    pub fn new_first_touch(layer: &WinogradLayer, exec: &dyn wino_sched::Executor) -> Scratch {
        Scratch::build(layer, exec.threads(), Some(exec))
    }

    /// Fallible [`Scratch::new`]: a typed [`wino_simd::AllocError`]
    /// instead of an abort when any of the scratch buffers is refused.
    /// The run-time memory degradation ladder (`Network::ensure_scratch`)
    /// allocates through this seam.
    pub fn try_new(layer: &WinogradLayer, threads: usize) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::try_build(layer, threads, None)
    }

    /// Fallible [`Scratch::new_first_touch`].
    pub fn try_new_first_touch(
        layer: &WinogradLayer,
        exec: &dyn wino_sched::Executor,
    ) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::try_build(layer, exec.threads(), Some(exec))
    }

    fn try_build(
        layer: &WinogradLayer,
        threads: usize,
        exec: Option<&dyn wino_sched::Executor>,
    ) -> Result<Scratch, wino_simd::AllocError> {
        let t = layer.t_vol();
        let rows = layer.rows();
        let (c, cp) = (layer.shape.in_channels, layer.shape.out_channels);
        let b = layer.block;
        let (u, v, x, y) = match exec {
            Some(e) => (
                BlockedMatrices::try_new_first_touch(t, rows, c, b.n_blk, b.c_blk, e)?,
                BlockedMatrices::try_new_first_touch(t, c, cp, b.c_blk, b.cp_blk, e)?,
                BlockedMatrices::try_new_first_touch(t, rows, cp, b.n_blk, b.cp_blk, e)?,
                TileMajor::try_new_first_touch(layer.shape.batch, cp, layer.n_tiles(), t, e)?,
            ),
            None => (
                BlockedMatrices::try_new(t, rows, c, b.n_blk, b.c_blk)?,
                BlockedMatrices::try_new(t, c, cp, b.c_blk, b.cp_blk)?,
                BlockedMatrices::try_new(t, rows, cp, b.n_blk, b.cp_blk)?,
                TileMajor::try_new(layer.shape.batch, cp, layer.n_tiles(), t)?,
            ),
        };
        let mut bufs = Vec::with_capacity(threads.max(1));
        for _ in 0..threads.max(1) {
            bufs.push(UnsafeCell::new(ThreadBuf {
                a: AlignedVec::try_zeroed(t * S)?,
                b: AlignedVec::try_zeroed(t * S)?,
            }));
        }
        let mut cbufs = Vec::new();
        if layer.opts.compensated {
            let panel = b.n_blk * b.cp_blk;
            for _ in 0..threads.max(1) {
                cbufs.push(CompBufCell(UnsafeCell::new(CompBuf {
                    tmp: AlignedVec::try_zeroed(panel)?,
                    comp: AlignedVec::try_zeroed(panel)?,
                })));
            }
        }
        Ok(Scratch { u, v, x, y, bufs, cbufs })
    }

    fn build(
        layer: &WinogradLayer,
        threads: usize,
        exec: Option<&dyn wino_sched::Executor>,
    ) -> Scratch {
        let t = layer.t_vol();
        let rows = layer.rows();
        let (c, cp) = (layer.shape.in_channels, layer.shape.out_channels);
        let b = layer.block;
        let (u, v, x, y) = match exec {
            Some(e) => (
                BlockedMatrices::new_first_touch(t, rows, c, b.n_blk, b.c_blk, e),
                BlockedMatrices::new_first_touch(t, c, cp, b.c_blk, b.cp_blk, e),
                BlockedMatrices::new_first_touch(t, rows, cp, b.n_blk, b.cp_blk, e),
                TileMajor::new_first_touch(layer.shape.batch, cp, layer.n_tiles(), t, e),
            ),
            None => (
                BlockedMatrices::new(t, rows, c, b.n_blk, b.c_blk),
                BlockedMatrices::new(t, c, cp, b.c_blk, b.cp_blk),
                BlockedMatrices::new(t, rows, cp, b.n_blk, b.cp_blk),
                TileMajor::new(layer.shape.batch, cp, layer.n_tiles(), t),
            ),
        };
        let bufs = (0..threads.max(1))
            .map(|_| {
                UnsafeCell::new(ThreadBuf {
                    // ALLOC: `build` is the infallible Scratch half;
                    // `try_build` below is the accounted path.
                    a: AlignedVec::zeroed(t * S),
                    b: AlignedVec::zeroed(t * S), // ALLOC: as above
                })
            })
            .collect();
        let cbufs = if layer.opts.compensated {
            let panel = b.n_blk * b.cp_blk;
            (0..threads.max(1))
                .map(|_| {
                    CompBufCell(UnsafeCell::new(CompBuf {
                        tmp: AlignedVec::zeroed(panel), // ALLOC: as above
                        comp: AlignedVec::zeroed(panel), // ALLOC: as above
                    }))
                })
                .collect()
        } else {
            Vec::new()
        };
        Scratch { u, v, x, y, bufs, cbufs }
    }

    /// Total auxiliary bytes (the paper's memory-overhead number).
    pub fn bytes(&self) -> usize {
        self.u.bytes() + self.v.bytes() + self.x.bytes() + self.y.bytes()
    }

    pub(crate) fn thread_slots(&self) -> usize {
        self.bufs.len()
    }

    /// Exclusive access to thread `slot`'s ping-pong buffers.
    ///
    /// # Safety
    /// At most one task may hold a given slot's buffers at a time (the
    /// Executor slot contract).
    // Audited (PR 2): clippy::mut_from_ref targets *safe* fns minting
    // `&mut` from `&`; here the `&mut` derives from an `UnsafeCell` and the
    // fn is `unsafe` with the exclusivity contract stated above, which is
    // exactly the sanctioned interior-mutability escape hatch. Keep.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn thread_buf(&self, slot: usize) -> &mut ThreadBuf {
        &mut *self.bufs[slot].get()
    }

    /// The compensated-reduction buffers, or `None` for plans without
    /// [`ConvOptions::compensated`]. Each slot's buffer is subject to the
    /// same Executor slot-exclusivity contract as [`Scratch::thread_buf`].
    pub(crate) fn comp_bufs(&self) -> Option<&[CompBufCell]> {
        if self.cbufs.is_empty() {
            None
        } else {
            Some(&self.cbufs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape2d() -> ConvShape {
        ConvShape::new(2, 32, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap()
    }

    #[test]
    fn plan_basics() {
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert_eq!(layer.rank(), 2);
        assert_eq!(layer.t_vol(), 36);
        assert_eq!(layer.grid.counts, vec![3, 3]);
        assert_eq!(layer.rows(), 2 * 9);
        assert_eq!(layer.shape.out_dims(), vec![12, 12]);
        // Blocking legality.
        assert_eq!(32 % layer.block.c_blk, 0);
        assert_eq!(32 % layer.block.cp_blk, 0);
    }

    #[test]
    fn plan_rejects_bad_channels() {
        let s = ConvShape::new(1, 24, 32, &[8, 8], &[3, 3], &[0, 0]).unwrap();
        assert!(matches!(
            WinogradLayer::new(s, &[2, 2], ConvOptions::default()),
            Err(PlanError::Shape(ShapeError::ChannelsNotVectorMultiple { .. }))
        ));
    }

    #[test]
    fn plan_rejects_bad_blocking() {
        let opts = ConvOptions {
            block: Some(BlockShape { n_blk: 8, c_blk: 48, cp_blk: 16 }),
            ..Default::default()
        };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[2, 2], opts),
            Err(PlanError::BadBlocking { .. })
        ));
        let opts = ConvOptions {
            block: Some(BlockShape { n_blk: 40, c_blk: 16, cp_blk: 16 }),
            ..Default::default()
        };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[2, 2], opts),
            Err(PlanError::BadBlocking { .. })
        ));
    }

    #[test]
    fn plan_rejects_huge_tiles() {
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[40, 4], ConvOptions::default()),
            Err(PlanError::BadTileSize { dim: 0, .. })
        ));
    }

    #[test]
    fn scratch_sizes() {
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        let scratch = Scratch::new(&layer, 4);
        assert_eq!(scratch.u.t_count(), 36);
        assert_eq!(scratch.u.rows(), 18);
        assert_eq!(scratch.u.cols(), 32);
        assert_eq!(scratch.v.rows(), 32);
        assert_eq!(scratch.v.cols(), 32);
        assert_eq!(scratch.y.n_tiles(), 9);
        assert_eq!(scratch.thread_slots(), 4);
        assert!(scratch.bytes() > 0);
    }

    #[test]
    fn scratch_first_touch_matches_plain_scratch() {
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        let exec = wino_sched::StaticExecutor::new(3);
        let ft = Scratch::new_first_touch(&layer, &exec);
        let plain = Scratch::new(&layer, 3);
        assert_eq!(ft.bytes(), plain.bytes());
        assert_eq!(ft.thread_slots(), 3);
        // First-touch zeroing must produce exactly the all-zero state the
        // plain constructor guarantees.
        assert!(ft.u.as_slice().iter().all(|&x| x == 0.0));
        assert!(ft.x.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn three_d_plan() {
        let s = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[2, 4, 4], ConvOptions::default()).unwrap();
        assert_eq!(layer.t_vol(), 4 * 6 * 6);
        assert_eq!(layer.grid.counts, vec![3, 2, 2]);
    }

    #[test]
    fn superblock_geometry_is_planned() {
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert!(layer.superblock >= 1);
        assert!(layer.num_superblocks() >= 1);
        // Superblocks tile the row blocks exactly.
        assert!(layer.num_superblocks() * layer.superblock >= layer.row_blocks());
        assert!((layer.num_superblocks() - 1) * layer.superblock < layer.row_blocks());
    }

    #[test]
    fn superblock_override_is_honoured_and_validated() {
        let opts = ConvOptions { superblock: Some(2), ..Default::default() };
        let layer = WinogradLayer::new(shape2d(), &[4, 4], opts).unwrap();
        assert_eq!(layer.superblock, 2);
        let opts = ConvOptions { superblock: Some(0), ..Default::default() };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[4, 4], opts),
            Err(PlanError::BadBlocking { .. })
        ));
    }

    #[test]
    fn default_engine_resolves_at_plan_time() {
        use crate::select::{plan_with_fallback, FallbackPolicy};
        let avx512 = wino_simd::cpu_has_avx512f();
        let default = ConvOptions::default();
        let compensated = ConvOptions { compensated: true, ..Default::default() };
        let pin = |stage2| ConvOptions { stage2, ..Default::default() };
        assert_eq!(default.stage2, Stage2Backend::Auto);

        // Default → Jit if and only if the CPU has AVX-512F; the plan
        // carries the resolved engine, never `Auto`.
        let plan = WinogradLayer::new(shape2d(), &[4, 4], default).unwrap();
        let want = if avx512 { Stage2Backend::Jit } else { Stage2Backend::Mono };
        assert_eq!(plan.opts.stage2, want);
        assert_eq!(plan.jit.is_some(), avx512);

        // Compensated → Mono, on every CPU.
        let plan = WinogradLayer::new(shape2d(), &[4, 4], compensated).unwrap();
        assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
        assert!(plan.jit.is_none());

        // Explicit pins are honoured.
        let plan = WinogradLayer::new(shape2d(), &[4, 4], pin(Stage2Backend::Mono)).unwrap();
        assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
        match WinogradLayer::new(shape2d(), &[4, 4], pin(Stage2Backend::Jit)) {
            Ok(plan) => assert!(avx512 && plan.opts.stage2 == Stage2Backend::Jit),
            Err(e) => assert!(!avx512 && matches!(e, PlanError::Jit { .. })),
        }

        // Resolving is a selection, not a degradation: no fallback reason,
        // and the reported backend is the one the rule predicts.
        for opts in [default, compensated, pin(Stage2Backend::Mono)] {
            let (plan, fb) =
                plan_with_fallback(&shape2d(), &[4, 4], opts, &FallbackPolicy::default()).unwrap();
            assert!(fb.is_none(), "{:?}", opts.stage2);
            assert_eq!(plan.opts.winograd_backend(), opts.winograd_backend());
        }
    }

    #[test]
    fn schedule_names_and_fusion() {
        assert_eq!(Schedule::ALL.len(), 3);
        assert_eq!(Schedule::default(), Schedule::FusedScatter);
        assert!(!Schedule::Unfused.fuses_scatter());
        assert!(Schedule::FusedScatter.fuses_scatter());
        assert!(Schedule::Pipelined.fuses_scatter());
        let names: Vec<&str> = Schedule::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["unfused", "fused-scatter", "pipelined"]);
    }

    #[test]
    fn budget_admits_and_rejects_by_conditioning() {
        // γ(4,3)·ε ≈ 5.72e-6, γ(6,3)·ε ≈ 8.07e-6, γ(8,3)·ε ≈ 1.07e-4
        // (mixed points). A 6e-6 budget sits between m=4 and m=5.
        let tight = ConvOptions {
            budget: Some(AccuracyBudget::new(6e-6)),
            ..Default::default()
        };
        let s = ConvShape::new(1, 32, 32, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        assert!(WinogradLayer::new(s.clone(), &[4, 4], tight).is_ok());
        assert!(matches!(
            WinogradLayer::new(s.clone(), &[8, 8], tight),
            Err(PlanError::AccuracyBudget { dim: 0, m: 8 })
        ));
        // No budget (the default): any structurally valid tile plans.
        assert!(WinogradLayer::new(s, &[8, 8], ConvOptions::default()).is_ok());
    }

    #[test]
    fn predicted_bound_is_monotone_in_tile_size() {
        let mut last = 0.0;
        for m in [2, 4, 6, 8] {
            let s = ConvShape::new(1, 32, 32, &[20, 20], &[3, 3], &[1, 1]).unwrap();
            let layer = WinogradLayer::new(s, &[m, m], ConvOptions::default()).unwrap();
            let b = layer.predicted_bound();
            assert!(b > last, "bound not monotone at m={m}: {b} ≤ {last}");
            assert!(b.is_finite() && b > 0.0);
            last = b;
        }
    }

    #[test]
    fn compensated_plans_get_buffers_and_reject_jit() {
        let opts = ConvOptions { compensated: true, ..Default::default() };
        let layer = WinogradLayer::new(shape2d(), &[4, 4], opts).unwrap();
        let scratch = Scratch::new(&layer, 2);
        assert_eq!(scratch.comp_bufs().map(<[_]>::len), Some(2));
        // Plain plans allocate none.
        let plain = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert!(Scratch::new(&plain, 2).comp_bufs().is_none());
        // The JIT kernels hard-code β-accumulation; compensated requires mono.
        let opts = ConvOptions {
            compensated: true,
            stage2: Stage2Backend::Jit,
            ..Default::default()
        };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[4, 4], opts),
            Err(PlanError::Jit { .. })
        ));
    }

    #[test]
    fn asymmetric_tiles_and_kernels() {
        // F(6×8, 3×3)-style and arbitrary kernel 4×2.
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[4, 2], &[0, 0]).unwrap();
        let layer = WinogradLayer::new(s, &[3, 5], ConvOptions::default()).unwrap();
        assert_eq!(layer.plans[0].alpha(), 6);
        assert_eq!(layer.plans[1].alpha(), 6);
        assert_eq!(layer.grid.out_dims, vec![17, 19]);
    }
}
