//! # wino-simd
//!
//! The SIMD substrate: a 16-lane single-precision vector type [`F32x16`]
//! matching the paper's vector width `S = 16` (one AVX-512 register), with
//! three compile-time-selected backends:
//!
//! * **AVX-512F** — one `__m512` per vector (the paper's target ISA),
//! * **AVX2+FMA** — two `__m256` halves,
//! * **scalar** — a `[f32; 16]` array written so LLVM auto-vectorises it.
//!
//! Like the paper's artifact (which is compiled *for* the Xeon Phi), the
//! backend is chosen statically, from the target features the crate is
//! compiled with. The default build sets no `target-cpu`, so it is
//! portable and uses the scalar backend; build with
//! `RUSTFLAGS="-C target-cpu=native"` to get the best ISA of the build
//! machine. (Stage 2 does not depend on this choice where the CPU has
//! AVX-512F: the default engine there is `wino-jit`, which emits its own
//! AVX-512 code and is detected at run time via [`cpu_has_avx512f`].)
//! All higher layers are written against `F32x16` only, so they are
//! ISA-agnostic — exactly the structure the paper describes ("the rest of
//! the code can be fully reused", §6).
//!
//! Also provided, because the paper's optimisations depend on them:
//!
//! * **non-temporal streaming stores** ([`F32x16::store_nt`]) used when the
//!   produced data "will not be used in the near future" (§4.2.1, §4.3.1) —
//!   they bypass the cache hierarchy, avoiding pollution;
//! * **software prefetch** hints ([`prefetch_t0`], [`prefetch_t1`]) used by
//!   the matrix-multiplication micro-kernels (§4.3.1);
//! * **64-byte aligned buffers** ([`AlignedVec`]) — the paper's layouts are
//!   64-byte aligned so every access can be an aligned vector load/store
//!   (§4.1).

mod alloc;
pub use alloc::{
    live_alloc_bytes, thread_alloc_bytes, thread_alloc_calls, AlignedVec, AllocError,
};

#[cfg(feature = "fault-inject")]
pub mod fault;

pub mod denormals;
pub use denormals::FlushDenormals;

/// The vector width in `f32` lanes. The paper's `S`: the number of
/// single-precision floats in one 512-bit register.
pub const S: usize = 16;

/// Cache-line size in bytes; all hot buffers are aligned to this.
pub const CACHE_LINE: usize = 64;

// ---------------------------------------------------------------------------
// Backend selection (compile-time, like the paper's per-ISA builds).
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[path = "avx512.rs"]
mod backend;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
#[path = "avx2.rs"]
mod backend;

#[cfg(not(any(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(target_feature = "avx512f")
    )
)))]
#[path = "scalar.rs"]
mod backend;

pub use backend::F32x16;

/// Name of the statically selected backend (for logs and bench reports).
pub const fn backend_name() -> &'static str {
    backend::NAME
}

impl F32x16 {
    /// Number of lanes (always 16; `F32x16` is width-uniform across
    /// backends so data layouts never change with the ISA).
    pub const LANES: usize = S;

    /// Load 16 floats from a slice (bounds-checked).
    #[inline(always)]
    pub fn from_slice(s: &[f32]) -> Self {
        assert!(s.len() >= S);
        // SAFETY: length checked above.
        unsafe { Self::load(s.as_ptr()) }
    }

    /// Store 16 floats into a slice (bounds-checked).
    #[inline(always)]
    pub fn write_to_slice(self, s: &mut [f32]) {
        assert!(s.len() >= S);
        // SAFETY: length checked above.
        unsafe { self.store(s.as_mut_ptr()) }
    }
}

impl Default for F32x16 {
    #[inline(always)]
    fn default() -> Self {
        Self::zero()
    }
}

impl std::fmt::Debug for F32x16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F32x16({:?})", self.to_array())
    }
}

impl std::ops::Add for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn add(self, rhs: F32x16) -> F32x16 {
        F32x16::add_v(self, rhs)
    }
}

impl std::ops::Sub for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn sub(self, rhs: F32x16) -> F32x16 {
        F32x16::sub_v(self, rhs)
    }
}

impl std::ops::Mul for F32x16 {
    type Output = F32x16;
    #[inline(always)]
    fn mul(self, rhs: F32x16) -> F32x16 {
        F32x16::mul_v(self, rhs)
    }
}

/// Serialise all pending streaming (non-temporal) stores. Must be executed
/// before data written with [`F32x16::store_nt`] is read by *another*
/// thread; the paper's fork–join barrier provides this point naturally and
/// calls this.
#[inline(always)]
pub fn sfence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sfence` is always available on x86-64.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
}

/// Prefetch the cache line containing `p` into L1 (hint T0).
///
/// # Safety
/// Prefetch never faults, but callers should pass addresses derived from
/// real allocations so provenance stays intact.
#[inline(always)]
pub unsafe fn prefetch_t0(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch the cache line containing `p` into L2 (hint T1).
///
/// # Safety
/// See [`prefetch_t0`].
#[inline(always)]
pub unsafe fn prefetch_t1(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T1 }>(p as *const i8);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch every cache line of the `bytes`-long span starting at `p`
/// into L2 (hint T1). Used by the superblock pipeline to pull the next
/// superblock's input tiles toward the core while the current one is
/// still being computed.
///
/// # Safety
/// See [`prefetch_t0`]; the span should lie within one real allocation.
#[inline]
pub unsafe fn prefetch_span_t1(p: *const u8, bytes: usize) {
    let mut off = 0;
    while off < bytes {
        prefetch_t1(p.add(off));
        off += CACHE_LINE;
    }
}

/// True if the *running* CPU supports AVX-512F (used by `wino-jit` to decide
/// which encoding to emit, independent of how this crate was compiled).
pub fn cpu_has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True if the running CPU supports AVX2 and FMA.
pub fn cpu_has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> [f32; 16] {
        std::array::from_fn(|i| i as f32 - 7.5)
    }

    #[test]
    fn splat_and_to_array() {
        let v = F32x16::splat(3.25);
        assert_eq!(v.to_array(), [3.25f32; 16]);
        assert_eq!(F32x16::zero().to_array(), [0.0f32; 16]);
    }

    #[test]
    fn load_store_roundtrip() {
        let a = seq();
        let v = F32x16::from_slice(&a);
        let mut out = [0.0f32; 16];
        v.write_to_slice(&mut out);
        assert_eq!(a, out);
    }

    #[test]
    fn arithmetic_matches_scalar() {
        let a = seq();
        let b: [f32; 16] = std::array::from_fn(|i| (i as f32) * 0.5 + 1.0);
        let va = F32x16::from_slice(&a);
        let vb = F32x16::from_slice(&b);
        let add = (va + vb).to_array();
        let sub = (va - vb).to_array();
        let mul = (va * vb).to_array();
        for i in 0..16 {
            assert_eq!(add[i], a[i] + b[i]);
            assert_eq!(sub[i], a[i] - b[i]);
            assert_eq!(mul[i], a[i] * b[i]);
        }
    }

    #[test]
    fn mul_add_matches_scalar() {
        let a = seq();
        let b: [f32; 16] = std::array::from_fn(|i| 0.25 * i as f32);
        let c: [f32; 16] = std::array::from_fn(|i| 10.0 - i as f32);
        let r = F32x16::from_slice(&a)
            .mul_add(F32x16::from_slice(&b), F32x16::from_slice(&c))
            .to_array();
        for i in 0..16 {
            let want = a[i].mul_add(b[i], c[i]);
            // The scalar backend may compute mul+add separately; both are
            // acceptable roundings.
            let alt = a[i] * b[i] + c[i];
            assert!(r[i] == want || r[i] == alt, "lane {i}: {} vs {} / {}", r[i], want, alt);
        }
    }

    #[test]
    fn streaming_store_writes_data() {
        let mut buf = AlignedVec::zeroed(32);
        let v = F32x16::splat(7.0);
        // SAFETY: buffer is 64-byte aligned and long enough.
        unsafe {
            v.store_nt(buf.as_mut_ptr());
            v.store_nt(buf.as_mut_ptr().add(16));
        }
        sfence();
        assert!(buf.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn unaligned_load_store() {
        let mut raw = vec![0.0f32; 33];
        for (i, x) in raw.iter_mut().enumerate() {
            *x = i as f32;
        }
        // Deliberately offset by one float (4 bytes) — must still work.
        // SAFETY: indices 1..17 are in bounds of the 33-float buffer.
        let v = unsafe { F32x16::load(raw.as_ptr().add(1)) };
        assert_eq!(v.to_array()[0], 1.0);
        assert_eq!(v.to_array()[15], 16.0);
        // SAFETY: indices 17..33 are in bounds of the 33-float buffer.
        unsafe { v.store(raw.as_mut_ptr().add(17)) };
        assert_eq!(raw[17], 1.0);
        assert_eq!(raw[32], 16.0);
    }

    #[test]
    fn prefetch_is_harmless() {
        let data = [0u8; 128];
        // SAFETY: prefetch is a hint; it never faults, even on null.
        unsafe {
            prefetch_t0(data.as_ptr());
            prefetch_t1(data.as_ptr().add(64));
            // Prefetching invalid addresses must not fault either.
            prefetch_t0(std::ptr::null());
        }
    }

    #[test]
    fn span_prefetch_is_harmless() {
        let data = [0u8; 4096];
        // SAFETY: prefetch is a hint; it never faults.
        unsafe {
            prefetch_span_t1(data.as_ptr(), data.len());
            prefetch_span_t1(data.as_ptr(), 0);
            prefetch_span_t1(data.as_ptr(), 1); // sub-line span → one hint
        }
    }

    #[test]
    fn backend_is_reported() {
        let n = backend_name();
        assert!(["avx512", "avx2", "scalar"].contains(&n), "{n}");
    }

    #[test]
    fn feature_detection_is_consistent_with_backend() {
        if backend_name() == "avx512" {
            assert!(cpu_has_avx512f());
        }
        if backend_name() == "avx2" {
            assert!(cpu_has_avx2_fma());
        }
    }
}
