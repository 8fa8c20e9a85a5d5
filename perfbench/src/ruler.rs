//! Rulers: frozen, benchmark-owned kernels timed right after each
//! compute sample, so that `sample × R₀ / ruler` reads the program at
//! reference host speed however much other tenants slow this host down.
//!
//! * `ruler.mul` — an n = 512 negacyclic ternary × byte-polynomial
//!   schoolbook product, the loop shape of the KEM's dominant phase;
//! * `ruler.dispatch` — a decode-and-dispatch interpreter running an
//!   RV32-shaped encoding of the LAC recover loop, the loop shape of an
//!   interpreting ISS engine.
//!
//! Each sample is divided by the ruler of its shape ([`Ruler`]). Per-run
//! medians of eight 10 s runs across a 1.6× swing in host speed showed
//! which: the KEM (both backends), JIT-compiled guest code and the
//! MUL-TER-bound decrypt guest follow `mul` (IQR/median 0.4–3.6%), while
//! the recover loop on the superblock interpreter follows `dispatch`
//! (1.9%, against 9.1% by `mul`). See README.md.
//!
//! **Frozen.** Changing a ruler, its inputs or an R₀ changes the units of
//! every normalised metric; it needs a new benchmark definition, never a
//! silent edit.

use crate::stats::normalise;
use std::hint::black_box;
use std::time::Instant;

/// Ruler polynomial length.
const N: usize = 512;

/// Median `mul` ruler time on the reference host, in ns (2-vCPU x86-64
/// cloud VM, release build).
pub const MUL_R0_NS: f64 = 400_000.0;

/// Median `dispatch` ruler time on the reference host, in ns.
pub const DISPATCH_R0_NS: f64 = 160_000.0;

/// The two rulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ruler {
    /// `ruler.mul`.
    Mul,
    /// `ruler.dispatch`.
    Dispatch,
}

impl Ruler {
    /// This ruler's median time on the reference host, ns.
    pub fn r0_ns(self) -> f64 {
        match self {
            Ruler::Mul => MUL_R0_NS,
            Ruler::Dispatch => DISPATCH_R0_NS,
        }
    }
}

/// One reading of both rulers.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// `ruler.mul` time, ns.
    pub mul_ns: f64,
    /// `ruler.dispatch` time, ns.
    pub dispatch_ns: f64,
}

impl Reading {
    /// `ns` at reference host speed, by `ruler`.
    pub fn normalise(&self, ns: f64, ruler: Ruler) -> f64 {
        let read = match ruler {
            Ruler::Mul => self.mul_ns,
            Ruler::Dispatch => self.dispatch_ns,
        };
        normalise(ns, read, ruler.r0_ns())
    }
}

/// Outer passes of the dispatch program over its 400 coefficients.
const DISPATCH_LOOPS: u32 = 12;

/// Pack one interpreter instruction: 4-bit opcode, three 5-bit register
/// fields and a 13-bit signed immediate.
const fn enc(op: u32, rd: u32, rs1: u32, rs2: u32, imm: i32) -> u32 {
    op | (rd << 4) | (rs1 << 9) | (rs2 << 14) | (((imm as u32) & 0x1fff) << 19)
}

const ADDI: u32 = 0;
const LBU: u32 = 1;
const ADD: u32 = 2;
const SUB: u32 = 3;
const REMU: u32 = 4;
const SLTIU: u32 = 5;
const SB: u32 = 6;
const BNEZ: u32 = 7;

/// The LAC recover loop (`w = v̂ − u·s mod q`, threshold to one bit) over
/// 400 coefficients, repeated `x1` times. Memory: v̂ at 0, u·s at 512,
/// bits out at 1024; x6 holds q = 251.
const PROGRAM: [u32; 15] = [
    enc(ADDI, 2, 0, 0, 0),
    enc(ADDI, 3, 0, 0, 400),
    enc(LBU, 4, 2, 0, 0),
    enc(LBU, 5, 2, 0, 512),
    enc(ADD, 4, 4, 6, 0),
    enc(SUB, 4, 4, 5, 0),
    enc(REMU, 4, 4, 6, 0),
    enc(ADDI, 4, 4, 0, -63),
    enc(SLTIU, 4, 4, 0, 126),
    enc(SB, 0, 2, 4, 1024),
    enc(ADDI, 2, 2, 0, 1),
    enc(ADDI, 3, 3, 0, -1),
    enc(BNEZ, 0, 3, 0, 2),
    enc(ADDI, 1, 1, 0, -1),
    enc(BNEZ, 0, 1, 0, 0),
];

/// The rulers' fixed operands (identical on every run and every seed),
/// cache-line aligned so that the ruler's speed cannot depend on where
/// the allocator happened to place them.
#[repr(C, align(64))]
pub struct Rulers {
    ternary: [i8; N],
    general: [u8; N],
    acc: [i32; N],
    mem: [u8; 2048],
}

impl Rulers {
    /// Build the fixed operands: a weight-256 ternary polynomial, a byte
    /// polynomial and the interpreter's 2 KiB memory image.
    pub fn new() -> Box<Self> {
        let mut rulers = Box::new(Self {
            ternary: [0; N],
            general: [0; N],
            acc: [0; N],
            mem: [0; 2048],
        });
        for i in 0..N {
            rulers.ternary[i] = match (i * 7 + 3) % 4 {
                0 => 1,
                1 => -1,
                _ => 0,
            };
            rulers.general[i] = ((i * 13 + 5) % 251) as u8;
        }
        for (i, b) in rulers.mem.iter_mut().enumerate() {
            *b = ((i * i + 7 * i + 3) % 251) as u8;
        }
        rulers
    }

    /// Time both rulers by wall clock, on this thread.
    pub fn read(&mut self) -> Reading {
        let started = Instant::now();
        black_box(self.mul_kernel());
        let mul_ns = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        black_box(self.dispatch_kernel());
        let dispatch_ns = started.elapsed().as_nanos() as f64;
        Reading {
            mul_ns,
            dispatch_ns,
        }
    }

    /// Time `ruler.mul` by this thread's CPU clock, ns: for a thread that
    /// shares its CPU with busy server threads, where wall time would also
    /// count waiting for the CPU.
    pub fn mul_cpu_ns(&mut self) -> f64 {
        let clock = lac_serve::reactor::thread_cpu_ns;
        let started = clock();
        black_box(self.mul_kernel());
        (clock() - started) as f64
    }

    fn mul_kernel(&mut self) -> i32 {
        let a = black_box(&self.ternary);
        let b = black_box(&self.general);
        self.acc.fill(0);
        for (j, &aj) in a.iter().enumerate() {
            let aj = i32::from(aj);
            for (k, &bk) in b.iter().enumerate() {
                let i = j + k;
                let (idx, sign) = if i < N { (i, 1) } else { (i - N, -1) };
                self.acc[idx] += sign * aj * i32::from(bk);
            }
        }
        self.acc
            .iter()
            .fold(0i32, |h, &v| h.rotate_left(5) ^ v.rem_euclid(251))
    }

    /// Interpret [`PROGRAM`] until it falls off the end; returns a hash of
    /// the output bits.
    fn dispatch_kernel(&mut self) -> u32 {
        let program = black_box(&PROGRAM);
        let mem = &mut self.mem;
        let mut x = [0u32; 32];
        x[1] = black_box(DISPATCH_LOOPS);
        x[6] = 251;
        let mut pc = 0usize;
        while let Some(&word) = program.get(pc) {
            pc += 1;
            let rd = ((word >> 4) & 31) as usize;
            let a = x[((word >> 9) & 31) as usize];
            let b = x[((word >> 14) & 31) as usize];
            let imm = ((word as i32) >> 19) as u32;
            let value = match word & 15 {
                ADDI => a.wrapping_add(imm),
                LBU => u32::from(mem[(a.wrapping_add(imm) & 2047) as usize]),
                ADD => a.wrapping_add(b),
                SUB => a.wrapping_sub(b),
                REMU => a % b.max(1),
                SLTIU => u32::from(a < imm),
                SB => {
                    mem[(a.wrapping_add(imm) & 2047) as usize] = b as u8;
                    continue;
                }
                _ => {
                    if a != 0 {
                        pc = imm as usize;
                    }
                    continue;
                }
            };
            if rd != 0 {
                x[rd] = value;
            }
        }
        mem[1024..1424]
            .iter()
            .fold(0u32, |h, &bit| h.rotate_left(1) ^ u32::from(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rulers_compute_fixed_results() {
        let mut rulers = Rulers::new();
        assert_eq!(rulers.mul_kernel(), rulers.mul_kernel());
        let bits = rulers.dispatch_kernel();
        assert_eq!(bits, rulers.dispatch_kernel());
        // The interpreter really runs the recover loop: one 0/1 bit per
        // coefficient, roughly half of them set.
        let out = &rulers.mem[1024..1424];
        assert!(out.iter().all(|&b| b <= 1));
        let ones = out.iter().filter(|&&b| b == 1).count();
        assert!((100..300).contains(&ones), "{ones} of 400 bits set");
        let reading = rulers.read();
        assert!(reading.mul_ns > 0.0 && reading.dispatch_ns > 0.0);
        let at_r0 = Reading {
            mul_ns: MUL_R0_NS,
            dispatch_ns: 2.0 * DISPATCH_R0_NS,
        };
        assert_eq!(at_r0.normalise(100.0, Ruler::Mul), 100.0);
        assert_eq!(at_r0.normalise(100.0, Ruler::Dispatch), 50.0);
    }
}
