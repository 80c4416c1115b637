//! A small x86-64 encoder for exactly the instruction repertoire of the
//! paper's GEMM micro-kernel (§4.3.1): EVEX-encoded AVX-512 loads, stores,
//! streaming stores, broadcast FMAs, register zeroing, legacy prefetch
//! hints, and the closing `vzeroupper; ret`.
//!
//! EVEX layout refresher (Intel SDM Vol. 2, §2.7):
//!
//! ```text
//! 0x62 | P0: R̄ X̄ B̄ R̄' 0 m m m | P1: W v̄v̄v̄v̄ 1 p p | P2: z L'L b V̄' a a a
//! ```
//!
//! All extension bits (R, X, B, R', V') are stored inverted. We always use
//! 512-bit vectors (`L'L = 10`), no masking (`aaa = 000`, `z = 0`), and
//! plain disp32 addressing (`mod = 10`) with bases in the low eight GPRs,
//! so no SIB bytes or compressed displacements are needed.

/// Opcode map selector.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Map {
    /// 0F
    M0F = 1,
    /// 0F 38
    M0F38 = 2,
}

/// Mandatory-prefix selector (`pp`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pp {
    None = 0,
    P66 = 1,
}

/// General-purpose registers usable as bases (SysV argument registers
/// plus the caller-saved scratch R8 used by the scatter variant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gpr {
    Rdi = 7,
    Rsi = 6,
    Rdx = 2,
    Rcx = 1,
    R8 = 8,
}

/// The r/m operand.
#[derive(Clone, Copy)]
pub enum Rm {
    /// Another zmm register.
    Zmm(u8),
    /// `[base + disp32]`.
    Mem { base: Gpr, disp: i32 },
}

/// Growable code buffer.
#[derive(Default)]
pub struct Asm {
    pub code: Vec<u8>,
}

impl Asm {
    pub fn new() -> Asm {
        Asm::default()
    }

    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Emit one EVEX instruction with a zmm `reg` operand, optional second
    /// source `vvvv`, and an `rm` operand. `bcast` sets the EVEX.b bit
    /// (embedded 32-bit broadcast for memory operands).
    #[allow(clippy::too_many_arguments)] // mirrors the encoding fields
    fn evex(&mut self, map: Map, pp: Pp, opcode: u8, reg: u8, vvvv: Option<u8>, rm: Rm, bcast: bool) {
        debug_assert!(reg < 32);
        let (xbar, bbar, modrm_rm, mem) = match rm {
            Rm::Zmm(r) => {
                debug_assert!(r < 32);
                ((!(r >> 4)) & 1, (!(r >> 3)) & 1, r & 7, None)
            }
            Rm::Mem { base, disp } => {
                let b = base as u8;
                debug_assert!(b & 7 != 4, "rsp/r12 base needs SIB");
                (1, (!(b >> 3)) & 1, b & 7, Some(disp))
            }
        };
        let rbar = (!(reg >> 3)) & 1;
        let rpbar = (!(reg >> 4)) & 1;
        let p0 = (rbar << 7) | (xbar << 6) | (bbar << 5) | (rpbar << 4) | (map as u8);
        let v = vvvv.unwrap_or(0);
        debug_assert!(v < 32);
        let vbar = (!v) & 0xF;
        let vpbar = (!(v >> 4)) & 1;
        let p1 = (vbar << 3) | 0b100 | (pp as u8); // W = 0 always here
        let p2 = (0b10 << 5) | ((bcast as u8) << 4) | (vpbar << 3); // z=0, aaa=0
        self.code.extend_from_slice(&[0x62, p0, p1, p2, opcode]);
        match mem {
            Some(disp) => {
                // mod = 10 (disp32), except mod=00 would be shorter — keep
                // uniform disp32 for simplicity.
                self.code.push(0b10_000_000 | ((reg & 7) << 3) | modrm_rm);
                self.code.extend_from_slice(&disp.to_le_bytes());
            }
            None => {
                self.code.push(0b11_000_000 | ((reg & 7) << 3) | modrm_rm);
            }
        }
    }

    /// `vmovups zmm, [base + disp]` — unaligned 512-bit load.
    pub fn vmovups_load(&mut self, zmm: u8, base: Gpr, disp: i32) {
        self.evex(Map::M0F, Pp::None, 0x10, zmm, None, Rm::Mem { base, disp }, false);
    }

    /// `vmovups [base + disp], zmm` — unaligned 512-bit store.
    pub fn vmovups_store(&mut self, base: Gpr, disp: i32, zmm: u8) {
        self.evex(Map::M0F, Pp::None, 0x11, zmm, None, Rm::Mem { base, disp }, false);
    }

    /// `vmovntps [base + disp], zmm` — non-temporal 512-bit store
    /// (requires 64-byte alignment).
    pub fn vmovntps(&mut self, base: Gpr, disp: i32, zmm: u8) {
        self.evex(Map::M0F, Pp::None, 0x2B, zmm, None, Rm::Mem { base, disp }, false);
    }

    /// `vfmadd231ps zmm_dst, zmm_src, dword bcst [base + disp]` —
    /// `dst += src · broadcast(mem32)`, the paper's scalar-vector FMA.
    pub fn vfmadd231ps_bcast(&mut self, dst: u8, src: u8, base: Gpr, disp: i32) {
        self.evex(Map::M0F38, Pp::P66, 0xB8, dst, Some(src), Rm::Mem { base, disp }, true);
    }

    /// `vpxord zmm, zmm, zmm` — zero a register (AVX-512F, unlike the
    /// EVEX `vxorps` which needs AVX-512DQ).
    pub fn vzero(&mut self, zmm: u8) {
        self.evex(Map::M0F, Pp::P66, 0xEF, zmm, Some(zmm), Rm::Zmm(zmm), false);
    }

    /// `prefetcht0 [base + disp]` (legacy encoding).
    pub fn prefetcht0(&mut self, base: Gpr, disp: i32) {
        self.prefetch(1, base, disp);
    }

    /// `prefetcht1 [base + disp]`.
    pub fn prefetcht1(&mut self, base: Gpr, disp: i32) {
        self.prefetch(2, base, disp);
    }

    fn prefetch(&mut self, hint: u8, base: Gpr, disp: i32) {
        let b = base as u8;
        debug_assert!(b & 7 != 4);
        if b >= 8 {
            self.code.push(0x41); // REX.B
        }
        self.code.extend_from_slice(&[0x0F, 0x18, 0b10_000_000 | (hint << 3) | (b & 7)]);
        self.code.extend_from_slice(&disp.to_le_bytes());
    }

    /// `mov dst, qword [base + disp]` — 64-bit GPR load (used to fetch
    /// per-row scatter destinations from the pointer table).
    pub fn mov_load64(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        let d = dst as u8;
        let b = base as u8;
        debug_assert!(b & 7 != 4, "rsp/r12 base needs SIB");
        let rex = 0x48 | ((d >> 3) << 2) | (b >> 3); // REX.W + R + B
        self.code.extend_from_slice(&[rex, 0x8B, 0b10_000_000 | ((d & 7) << 3) | (b & 7)]);
        self.code.extend_from_slice(&disp.to_le_bytes());
    }

    /// `sfence` — drain the store buffers after streaming stores.
    pub fn sfence(&mut self) {
        self.code.extend_from_slice(&[0x0F, 0xAE, 0xF8]);
    }

    /// `vzeroupper` — clear the upper vector state before returning, so
    /// legacy-SSE code the caller runs next pays no transition penalty.
    pub fn vzeroupper(&mut self) {
        self.code.extend_from_slice(&[0xC5, 0xF8, 0x77]);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.code.push(0xC3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-check a handful of encodings against byte sequences produced
    /// by a reference assembler (GNU as).
    #[test]
    fn known_encodings() {
        // vmovups zmm0, [rdi+0x40]
        let mut a = Asm::new();
        a.vmovups_load(0, Gpr::Rdi, 0x40);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x7C, 0x48, 0x10, 0x87, 0x40, 0, 0, 0]);

        // vmovups [rdx+0], zmm5
        let mut a = Asm::new();
        a.vmovups_store(Gpr::Rdx, 0, 5);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x7C, 0x48, 0x11, 0xAA, 0, 0, 0, 0]);

        // vmovups zmm30, [rsi+0x100]: zmm30 has bit3 and bit4 set →
        // R̄ = 0, R̄' = 0.
        let mut a = Asm::new();
        a.vmovups_load(30, Gpr::Rsi, 0x100);
        assert_eq!(a.code, vec![0x62, 0x61, 0x7C, 0x48, 0x10, 0xB6, 0, 1, 0, 0]);

        // vfmadd231ps zmm3, zmm30, dword bcst [rdi+4]
        // vvvv = ~30 & 15 = 1, V̄' = 0, pp = 66, map = 0F38, b = 1.
        let mut a = Asm::new();
        a.vfmadd231ps_bcast(3, 30, Gpr::Rdi, 4);
        assert_eq!(a.code, vec![0x62, 0xF2, 0x0D, 0x50, 0xB8, 0x9F, 4, 0, 0, 0]);

        // vpxord zmm7, zmm7, zmm7
        let mut a = Asm::new();
        a.vzero(7);
        assert_eq!(a.code, vec![0x62, 0xF1, 0x45, 0x48, 0xEF, 0xFF]);

        // prefetcht0 [rsi+0x80]
        let mut a = Asm::new();
        a.prefetcht0(Gpr::Rsi, 0x80);
        assert_eq!(a.code, vec![0x0F, 0x18, 0x8E, 0x80, 0, 0, 0]);

        // sfence / vzeroupper / ret
        let mut a = Asm::new();
        a.sfence();
        a.vzeroupper();
        a.ret();
        assert_eq!(a.code, vec![0x0F, 0xAE, 0xF8, 0xC5, 0xF8, 0x77, 0xC3]);
    }

    #[test]
    fn gpr_load_and_r8_base() {
        // mov r8, [rcx + 0x10]
        let mut a = Asm::new();
        a.mov_load64(Gpr::R8, Gpr::Rcx, 0x10);
        assert_eq!(a.code, vec![0x4C, 0x8B, 0x81, 0x10, 0, 0, 0]);

        // mov rdx, [rdi + 8]
        let mut a = Asm::new();
        a.mov_load64(Gpr::Rdx, Gpr::Rdi, 8);
        assert_eq!(a.code, vec![0x48, 0x8B, 0x97, 8, 0, 0, 0]);

        // vmovntps [r8 + 0x40], zmm3 — base extension via EVEX.B̄ = 0.
        let mut a = Asm::new();
        a.vmovntps(Gpr::R8, 0x40, 3);
        assert_eq!(a.code, vec![0x62, 0xD1, 0x7C, 0x48, 0x2B, 0x98, 0x40, 0, 0, 0]);
    }

    #[test]
    fn high_registers_set_extension_bits() {
        // vpxord zmm31, zmm31, zmm31: R̄=0, R̄'=0, X̄=0, B̄=0, v̄=0, V̄'=0.
        let mut a = Asm::new();
        a.vzero(31);
        assert_eq!(a.code, vec![0x62, 0x01, 0x05, 0x40, 0xEF, 0xFF]);
    }

    #[test]
    fn negative_displacements() {
        let mut a = Asm::new();
        a.vmovups_load(1, Gpr::Rcx, -64);
        let disp = &a.code[6..10];
        assert_eq!(disp, (-64i32).to_le_bytes());
    }
}
