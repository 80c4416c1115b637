//! Automatic `F(m, r)` tile-size selection and plan-time fallback.
//!
//! §5.1 shows that the best tile size depends on the layer: large `m`
//! saves multiplications but pads the output grid (ceil-division
//! overhang) and grows the transform cost quadratically. The paper picks
//! `m` per layer empirically (the Fig. 5 sweep); this module packages
//! that workflow: enumerate candidate tile vectors, time a real forward
//! pass for each, return the fastest plan. Numerical limits from Table 3
//! (f32: `m ≤ 6` per dimension for training, `m ≤ 8` for inference) bound
//! the search space.
//!
//! The module also hosts the *plan-time* half of the graceful-degradation
//! chain (`Jit → Mono → im2col`): [`FallbackPolicy`] says which downgrades
//! are allowed and [`plan_with_fallback`] applies the first link — retrying
//! a failed JIT plan with the monomorphised stage-2 backend. The remaining
//! links (im2col on plan failure or on a numeric-guard trip) live in
//! [`crate::net`], which owns layer execution.

use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape};
use wino_transforms::Conditioning;

use crate::error::WinoError;
use crate::plan::{AccuracyBudget, ConvOptions, PlanError, Scratch, Stage2Backend, WinogradLayer};
use crate::sentinel::SentinelConfig;

/// Which degradations the execution layer may apply instead of failing.
///
/// The full chain, applied in order: a JIT plan failure retries with the
/// Mono backend; a plan failure of any backend falls back to im2col; a
/// numeric-guard trip re-executes the layer with im2col. Disable links to
/// make the corresponding failure a hard error instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FallbackPolicy {
    /// On [`PlanError::Jit`], replan with [`Stage2Backend::Mono`].
    pub jit_to_mono: bool,
    /// If no Winograd plan exists at all, run the layer via the
    /// `wino-baseline` im2col convolution.
    pub im2col_on_plan_failure: bool,
    /// On [`PlanError::MemoryBudget`], re-plan with a smaller-footprint
    /// tile. Note the direction: memory re-tiling *grows* `m` (the
    /// transformed-data inflation `∏((m_d+r_d−1)/m_d)` shrinks as the
    /// tile grows), the opposite of the accuracy ladder. If no supported
    /// tile fits the budget the error stands (and, under
    /// `im2col_on_plan_failure`, the layer falls back to im2col, whose
    /// footprint is not scratch-bound).
    pub retile_on_memory: bool,
    /// Scan each layer's output for NaN/Inf after execution.
    pub check_numerics: bool,
    /// If the numeric guard trips, re-execute the layer via im2col
    /// (requires `check_numerics`; without this, a trip is an error).
    pub im2col_on_numeric: bool,
    /// Accuracy-sentinel sampling: re-verify a seeded random sample of
    /// output tiles against the f64 oracle after each layer forward. A
    /// trip (error above the a-priori bound) enters the degradation
    /// ladder: tile demotion first (if `sentinel.demote_tile`), then
    /// im2col. Disabled (`samples == 0`) by default — the spot check
    /// costs an f64 direct convolution per sampled tile.
    pub sentinel: SentinelConfig,
}

impl Default for FallbackPolicy {
    /// Everything enabled: maximum graceful degradation.
    fn default() -> Self {
        FallbackPolicy {
            jit_to_mono: true,
            im2col_on_plan_failure: true,
            retile_on_memory: true,
            check_numerics: true,
            im2col_on_numeric: true,
            sentinel: SentinelConfig::off(),
        }
    }
}

impl FallbackPolicy {
    /// No degradation: every failure is a hard error (the behaviour of the
    /// plain [`WinogradLayer::new`] / [`crate::Network::new`] APIs).
    pub fn strict() -> Self {
        FallbackPolicy {
            jit_to_mono: false,
            im2col_on_plan_failure: false,
            retile_on_memory: false,
            check_numerics: false,
            im2col_on_numeric: false,
            sentinel: SentinelConfig::off(),
        }
    }

    /// Default degradations plus sentinel sampling of `samples` tiles per
    /// layer under `seed`.
    pub fn with_sentinel(samples: u32, seed: u64) -> Self {
        FallbackPolicy { sentinel: SentinelConfig::sampled(samples, seed), ..Default::default() }
    }
}

/// Plan a layer, applying the policy's plan-time degradations.
///
/// `Ok((plan, Some(e)))` means the requested plan failed with `e` and the
/// returned plan carries a downgrade: [`Stage2Backend::Mono`] after a JIT
/// failure, or a re-tiled `m` after a [`PlanError::MemoryBudget`]
/// rejection. Failures the policy does not cover (or a retry that also
/// fails) are returned as `Err` — the caller decides whether im2col
/// absorbs them.
pub fn plan_with_fallback(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
) -> Result<(WinogradLayer, Option<PlanError>), PlanError> {
    match WinogradLayer::new(shape.clone(), m, opts) {
        Ok(plan) => Ok((plan, None)),
        Err(e @ PlanError::Jit { .. }) if policy.jit_to_mono && opts.stage2 != Stage2Backend::Mono => {
            let mono = ConvOptions { stage2: Stage2Backend::Mono, ..opts };
            let plan = WinogradLayer::new(shape.clone(), m, mono)?;
            Ok((plan, Some(e)))
        }
        Err(e @ PlanError::MemoryBudget { .. }) if policy.retile_on_memory => {
            match fit_tile_to_memory(shape, m, &opts) {
                Some(mm) => {
                    let plan = WinogradLayer::new(shape.clone(), &mm, opts)?;
                    Ok((plan, Some(e)))
                }
                None => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// Find a tile that fits `opts.memory` by growing `m` from the rejected
/// tile (steps of 2 per dimension, capped by `SEARCH_MAX_M` and the
/// output extent). Growing is the memory-cheap direction: the
/// transformed-data scratch scales with `∏((m_d+r_d−1)/m_d)`, which
/// shrinks as the tile grows. Candidates that fail to plan for other
/// reasons (no codelet, accuracy budget) are skipped. `None` when
/// `opts.memory` is unset or no supported tile fits.
pub fn fit_tile_to_memory(
    shape: &ConvShape,
    m: &[usize],
    opts: &ConvOptions,
) -> Option<Vec<usize>> {
    let mb = opts.memory?;
    // Probe plans without the budget so the footprint can be evaluated.
    let probe = ConvOptions { memory: None, ..*opts };
    let out = shape.out_dims();
    let mut mm: Vec<usize> = m.to_vec();
    loop {
        let mut grew = false;
        for (d, v) in mm.iter_mut().enumerate() {
            if *v + 2 <= SEARCH_MAX_M.min(out[d]) {
                *v += 2;
                grew = true;
            }
        }
        if !grew {
            return None;
        }
        if let Ok(layer) = WinogradLayer::new(shape.clone(), &mm, probe) {
            if mb.admits(layer.footprint(mb.threads).total()) {
                return Some(mm);
            }
        }
    }
}

/// What the selected plan will be used for — a preset over
/// [`AccuracyBudget`]s. The largest admissible tile per dimension is no
/// longer a hard-coded table: it is *derived* from the exact transform
/// conditioning (`γ(m, r) · ε ≤ budget`, see
/// [`wino_transforms::Conditioning`]), which reproduces Table 3's f32
/// limits (`m ≤ 6` for training, `m ≤ 8` for inference, at `r = 3`) and
/// generalises them to every kernel size instead of assuming 3×3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Purpose {
    /// Error feeds back through gradients, so amplification must stay
    /// near rounding level: budget 1e-5 (admits `γ·ε` up to 1e-5, i.e.
    /// `m ≤ 6` for `r = 3` under the mixed point schedule).
    Training,
    /// A forward-only pass tolerates an order of magnitude more: budget
    /// 2e-4 (`m ≤ 8` for `r = 3`).
    Inference,
}

/// The largest tile the search may try per dimension, whatever the
/// budget admits — beyond `m = 8` the f32 transforms are useless even
/// for inference (Table 3).
pub(crate) const SEARCH_MAX_M: usize = 8;

impl Purpose {
    /// The accuracy budget this preset stands for.
    pub fn budget(self) -> AccuracyBudget {
        match self {
            Purpose::Training => AccuracyBudget::new(1e-5),
            Purpose::Inference => AccuracyBudget::new(2e-4),
        }
    }

    /// Largest `m ≤` [`SEARCH_MAX_M`] whose `F(m, r)` conditioning fits
    /// the budget under `opts.points` (0 if even `m = 2` does not fit).
    fn max_m(self, r: usize, opts: &ConvOptions) -> usize {
        let budget = self.budget();
        (2..=SEARCH_MAX_M)
            .rev()
            .find(|&m| budget.admits_gamma(Conditioning::for_schedule(m, r, opts.points).gamma))
            .unwrap_or(0)
    }
}

/// Candidate tile vectors for a layer: uniform tiles `2..=8` per
/// dimension, clipped so no dimension's tile exceeds its output extent
/// (larger would be pure padding) nor the purpose's budget-derived
/// conditioning cap for that dimension's kernel size.
pub fn candidate_tiles(shape: &ConvShape, purpose: Purpose, opts: &ConvOptions) -> Vec<Vec<usize>> {
    let out = shape.out_dims();
    let rank = shape.rank();
    let caps: Vec<usize> =
        shape.kernel_dims.iter().map(|&r| purpose.max_m(r, opts)).collect();
    let mut cands = Vec::new();
    for m in 2..=SEARCH_MAX_M {
        let tile: Vec<usize> = (0..rank).map(|d| m.min(out[d]).min(caps[d])).collect();
        if tile.contains(&0) {
            // A conditioning cap of 0: no tile fits the budget at all.
            continue;
        }
        if !cands.contains(&tile) {
            cands.push(tile);
        }
    }
    cands
}

/// Demote a tile vector per dimension (steps of 2, floor 2) until every
/// dimension's `F(m, r)` conditioning fits `budget`. Returns the fitted
/// tile, which may equal `m`; a dimension already at 2 stays at 2 even
/// when the budget is unreachable (the caller decides whether to plan it
/// anyway or fall back to a different backend).
pub fn fit_tile_to_budget(
    shape: &ConvShape,
    m: &[usize],
    budget: AccuracyBudget,
    opts: &ConvOptions,
) -> Vec<usize> {
    m.iter()
        .zip(&shape.kernel_dims)
        .map(|(&m0, &r)| {
            let mut mm = m0;
            while mm > 2
                && !budget.admits_gamma(Conditioning::for_schedule(mm, r, opts.points).gamma)
            {
                mm -= 2.min(mm - 2);
            }
            mm
        })
        .collect()
}

/// Result of a tile-size search.
pub struct Selection {
    pub plan: WinogradLayer,
    pub m: Vec<usize>,
    pub best_ms: f64,
    /// All timed candidates `(m, ms)`, fastest first.
    pub trials: Vec<(Vec<usize>, f64)>,
}

/// Empirically select the fastest `F(m, r)` for a layer by timing one
/// warm-up plus `reps` forward passes per candidate on synthetic data.
///
/// Unplannable candidates are skipped; an execution failure (worker panic,
/// watchdog timeout) aborts the search, since later timings on a degraded
/// pool would be meaningless. Returns an error only if *no* candidate is
/// plannable or execution failed.
pub fn select_tile(
    shape: &ConvShape,
    opts: ConvOptions,
    purpose: Purpose,
    exec: &dyn Executor,
    reps: usize,
) -> Result<Selection, WinoError> {
    // The purpose's budget becomes a plan-time invariant: even if the
    // candidate enumeration and the planner ever disagree, the planner's
    // own conditioning check rejects an over-budget tile. An explicit
    // (tighter or looser) budget in `opts` wins.
    let opts = ConvOptions { budget: opts.budget.or(Some(purpose.budget())), ..opts };
    let mut input = BlockedImage::zeros(shape.batch, shape.in_channels, &shape.image_dims)?;
    for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 2654435761) >> 22 & 0xff) as f32 / 1275.0 - 0.1;
    }
    let mut kernels =
        BlockedKernels::zeros(shape.in_channels, shape.out_channels, &shape.kernel_dims)?;
    for (i, v) in kernels.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 0x9E3779B9) >> 22 & 0xff) as f32 / 2550.0 - 0.05;
    }

    let mut trials: Vec<(Vec<usize>, f64)> = Vec::new();
    let mut last_err = None;
    for m in candidate_tiles(shape, purpose, &opts) {
        let plan = match WinogradLayer::new(shape.clone(), &m, opts) {
            Ok(p) => p,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        let mut scratch = Scratch::new(&plan, exec.threads());
        let mut out = plan.new_output()?;
        plan.forward(&input, &kernels, &mut out, &mut scratch, exec)?; // warm-up
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = std::time::Instant::now();
            plan.forward(&input, &kernels, &mut out, &mut scratch, exec)?;
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        std::hint::black_box(out.as_slice().first());
        trials.push((m, best));
    }
    trials.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    match trials.first().cloned() {
        Some((m, best_ms)) => {
            let plan = WinogradLayer::new(shape.clone(), &m, opts)?;
            Ok(Selection { plan, m, best_ms, trials })
        }
        None => Err(last_err.unwrap_or(PlanError::BadTileSize { dim: 0, m: 0 }).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::SerialExecutor;

    #[test]
    fn candidates_respect_purpose_and_extent() {
        // The budget-derived caps must reproduce Table 3's hard-coded
        // limits for r = 3: training m ≤ 6, inference m ≤ 8.
        let opts = ConvOptions::default();
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let train = candidate_tiles(&s, Purpose::Training, &opts);
        assert!(train.iter().all(|m| m.iter().all(|&x| x <= 6)));
        assert_eq!(train.len(), 5); // m = 2..=6
        let infer = candidate_tiles(&s, Purpose::Inference, &opts);
        assert_eq!(infer.len(), 7); // m = 2..=8

        // Tiny output: tiles clipped to the output extent, deduplicated.
        let tiny = ConvShape::new(1, 16, 16, &[5, 5], &[3, 3], &[0, 0]).unwrap();
        let c = candidate_tiles(&tiny, Purpose::Inference, &opts);
        assert!(c.iter().all(|m| m.iter().all(|&x| x <= 3)));
        assert_eq!(c.len(), 2); // [2,2] and [3,3]
    }

    #[test]
    fn budget_caps_follow_conditioning_not_a_table() {
        let opts = ConvOptions::default();
        // r = 5 transforms are much worse conditioned: the training
        // budget that allows m = 6 at r = 3 only admits m = 3 at r = 5
        // (γ(4,5)·ε ≈ 1.03e-5 > 1e-5). A hard-coded "m ≤ 6" table would
        // get this wrong.
        let s5 = ConvShape::new(1, 16, 16, &[20, 20], &[5, 5], &[2, 2]).unwrap();
        let train5 = candidate_tiles(&s5, Purpose::Training, &opts);
        assert!(
            train5.iter().all(|m| m.iter().all(|&x| x <= 3)),
            "r=5 training candidates exceed the conditioning cap: {train5:?}"
        );
        assert!(!train5.is_empty());

        // The integer point schedule conditions worse than the mixed one,
        // so its caps are at most as large.
        let int_opts = ConvOptions { points: wino_transforms::PointSchedule::Integer, ..opts };
        let s3 = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let mixed = candidate_tiles(&s3, Purpose::Inference, &opts);
        let integer = candidate_tiles(&s3, Purpose::Inference, &int_opts);
        let max_of = |c: &[Vec<usize>]| c.iter().flat_map(|m| m.iter().copied()).max().unwrap();
        assert!(max_of(&integer) <= max_of(&mixed));
    }

    #[test]
    fn tight_budget_demotes_m8_to_m4() {
        // γ(4,3)·ε ≈ 5.7e-6 fits a 6e-6 budget; γ(6,3)·ε ≈ 8.1e-6 does
        // not — so a planned F(8×8, 3×3) must demote two steps to 4.
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default();
        let tight = AccuracyBudget::new(6e-6);
        assert_eq!(fit_tile_to_budget(&s, &[8, 8], tight, &opts), vec![4, 4]);
        // Already-fitting tiles pass through unchanged.
        assert_eq!(fit_tile_to_budget(&s, &[4, 2], tight, &opts), vec![4, 2]);
        // An unreachable budget floors at 2 instead of looping.
        let impossible = AccuracyBudget::new(1e-12);
        assert_eq!(fit_tile_to_budget(&s, &[8, 8], impossible, &opts), vec![2, 2]);

        // And the planner agrees end-to-end: m = 8 is rejected under the
        // tight budget, the demoted tile plans cleanly.
        let tight_opts = ConvOptions { budget: Some(tight), ..opts };
        assert!(matches!(
            WinogradLayer::new(s.clone(), &[8, 8], tight_opts),
            Err(PlanError::AccuracyBudget { dim: 0, m: 8 })
        ));
        assert!(WinogradLayer::new(s, &[4, 4], tight_opts).is_ok());
    }

    #[test]
    fn selection_returns_fastest_plannable_tile() {
        let s = ConvShape::new(1, 16, 16, &[14, 14], &[3, 3], &[1, 1]).unwrap();
        let sel =
            select_tile(&s, ConvOptions::default(), Purpose::Training, &SerialExecutor, 1).unwrap();
        assert_eq!(sel.m.len(), 2);
        assert!(sel.best_ms > 0.0);
        assert!(!sel.trials.is_empty());
        // Trials are sorted fastest-first and the plan matches the winner.
        for w in sel.trials.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(sel.plan.grid.m, sel.m);
    }

    #[test]
    fn selection_works_for_3d() {
        let s = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let sel =
            select_tile(&s, ConvOptions::default(), Purpose::Training, &SerialExecutor, 1).unwrap();
        assert_eq!(sel.m.len(), 3);
    }

    #[test]
    fn policy_defaults_and_strict() {
        let p = FallbackPolicy::default();
        assert!(p.jit_to_mono && p.im2col_on_plan_failure && p.check_numerics && p.im2col_on_numeric);
        assert!(p.retile_on_memory);
        let s = FallbackPolicy::strict();
        assert!(!s.jit_to_mono && !s.im2col_on_plan_failure && !s.check_numerics && !s.im2col_on_numeric);
        assert!(!s.retile_on_memory);
    }

    #[test]
    fn memory_budget_retiles_to_a_smaller_footprint() {
        use crate::plan::MemoryBudget;
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let base = ConvOptions::default();
        let need2 = WinogradLayer::new(s.clone(), &[2, 2], base).unwrap().footprint(1).total();
        let need4 = WinogradLayer::new(s.clone(), &[4, 4], base).unwrap().footprint(1).total();
        assert!(need4 < need2, "larger tiles must be the memory-cheap direction");

        // A budget that admits F(4,3) but not F(2,3): planning [2,2] is
        // rejected, the fallback re-tiles to [4,4].
        let opts = ConvOptions { memory: Some(MemoryBudget::new(need4)), ..base };
        assert!(matches!(
            WinogradLayer::new(s.clone(), &[2, 2], opts),
            Err(PlanError::MemoryBudget { budget_bytes, .. }) if budget_bytes == need4
        ));
        let (plan, fb) =
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        assert_eq!(plan.grid.m, vec![4, 4]);
        assert!(matches!(fb, Some(PlanError::MemoryBudget { .. })));
        assert!(plan.footprint(1).total() <= need4);

        // The strict policy surfaces the rejection instead.
        assert!(matches!(
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::strict()),
            Err(PlanError::MemoryBudget { .. })
        ));

        // An unreachable budget exhausts the ladder: the original error
        // stands (net-level code then decides whether im2col absorbs it).
        let tiny = ConvOptions { memory: Some(MemoryBudget::new(1024)), ..base };
        assert!(matches!(
            plan_with_fallback(&s, &[2, 2], tiny, &FallbackPolicy::default()),
            Err(PlanError::MemoryBudget { .. })
        ));
        assert_eq!(fit_tile_to_memory(&s, &[2, 2], &tiny), None);

        // No memory budget configured: nothing to fit against.
        assert_eq!(fit_tile_to_memory(&s, &[2, 2], &base), None);
    }

    #[test]
    fn plan_fallback_passes_through_clean_plans() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let (plan, fb) =
            plan_with_fallback(&s, &[2, 2], ConvOptions::default(), &FallbackPolicy::default())
                .unwrap();
        assert!(fb.is_none());
        assert_eq!(plan.opts.winograd_backend(), ConvOptions::default().winograd_backend());
    }

    #[test]
    fn plan_fallback_downgrades_jit_to_mono() {
        if wino_simd::cpu_has_avx512f() {
            // The JIT plan would succeed here; the downgrade path is
            // covered on non-AVX-512 hosts and by the net-level tests.
            return;
        }
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions { stage2: Stage2Backend::Jit, ..Default::default() };
        let (plan, fb) =
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
        assert!(matches!(fb, Some(PlanError::Jit { .. })));

        // Strict policy: the JIT failure surfaces.
        assert!(matches!(
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::strict()),
            Err(PlanError::Jit { .. })
        ));
    }

    #[test]
    fn plan_fallback_does_not_mask_other_errors() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        // Tile too large: not a JIT failure, must propagate unchanged.
        assert!(matches!(
            plan_with_fallback(&s, &[40, 4], ConvOptions::default(), &FallbackPolicy::default()),
            Err(PlanError::BadTileSize { .. })
        ));
    }
}
