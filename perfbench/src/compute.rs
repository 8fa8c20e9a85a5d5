//! The compute phase: one thread, no sockets. Round-robin over the KEM
//! operations of {LAC-128, LAC-256} on the workload's backends and over
//! two RV32 guests on the ISS engines, each sample followed by its ruler.

use crate::ruler::{Ruler, Rulers};
use crate::stats::{geomean, median, normalise};
use crate::trace::Spans;
use crate::{median_setup, Report};
use lac::{Backend, Kem, KemPublicKey, KemSecretKey, Lac, Params};
use lac_bench::iss::{engine_name, workload};
use lac_meter::{CycleLedger, Meter, NullMeter, Op, Phase};
use lac_rand::{Rng, Sha256CtrRng};
use lac_rv32::{Cpu, Engine, Machine};
use lac_serve::BackendKind;
use lac_sha256::Sha256;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Outer iterations of the recover guest (~1 M instructions).
const RECOVER_ITERS: u32 = 200;
/// Repetitions of the decrypt datapath guest (~26 k instructions; its
/// time is dominated by the MUL TER model behind `pq.mul_ter`).
const DECRYPT_REPS: u32 = 4;
/// Instruction budget for one guest run (both guests stay far below).
const GUEST_BUDGET: u64 = 50_000_000;
/// Where both guests leave their 400 recovered codeword bits.
const OUT_BASE: u32 = 0xC000;
/// Recovered bits per pass (the LAC-128 `l_v`).
const OUT_LEN: usize = 400;

/// The KEM configurations on `backends`, as `(label, params, backend)`.
fn kem_configs(backends: &[BackendKind]) -> Vec<(&'static str, Params, BackendKind)> {
    [
        ("lac128-ct", Params::lac128(), BackendKind::Ct),
        ("lac128-hw", Params::lac128(), BackendKind::Hw),
        ("lac256-ct", Params::lac256(), BackendKind::Ct),
        ("lac256-hw", Params::lac256(), BackendKind::Hw),
    ]
    .into_iter()
    .filter(|(_, _, kind)| backends.contains(kind))
    .collect()
}

/// One KEM configuration with a key pair made from the run's seed.
struct KemCase {
    label: &'static str,
    kem: Kem,
    backend: Box<dyn Backend>,
    pk: KemPublicKey,
    sk: KemSecretKey,
}

/// Engine variants: the four tiers plus the JIT with chaining off.
#[derive(Clone, Copy)]
enum Variant {
    /// One of the four engines, with default settings.
    Engine(Engine),
    /// [`Engine::Jit`] with block chaining disabled.
    JitNoChain,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Engine(engine) => engine_name(engine),
            Variant::JitNoChain => "jit-nochain",
        }
    }
}

/// The end-to-end engines.
const E2E_VARIANTS: [Variant; 2] = [
    Variant::Engine(Engine::Jit),
    Variant::Engine(Engine::Superblock),
];

/// Every engine variant the traced run measures.
const TRACE_VARIANTS: [Variant; 5] = [
    Variant::Engine(Engine::Classic),
    Variant::Engine(Engine::Predecode),
    Variant::Engine(Engine::Superblock),
    Variant::Engine(Engine::Jit),
    Variant::JitNoChain,
];

/// A guest program loaded on one engine variant, primed by one run.
struct GuestCpu {
    guest: &'static str,
    variant: Variant,
    cpu: Cpu,
    /// Digest every run must reproduce (from the classic engine).
    expected: [u8; 32],
}

impl GuestCpu {
    /// The ruler of this run's shape: the recover loop on an interpreting
    /// engine spends its time in dispatch; JIT-compiled host code and the
    /// decrypt guest (whose time is in the MUL TER model) in arithmetic.
    fn ruler(&self) -> Ruler {
        match (self.guest, self.variant) {
            (
                "recover",
                Variant::Engine(Engine::Classic | Engine::Predecode | Engine::Superblock),
            ) => Ruler::Dispatch,
            _ => Ruler::Mul,
        }
    }
}

/// One guest run: wall ns, retired instructions and the exit digest.
fn run_guest(cpu: &mut Cpu) -> (f64, u64, [u8; 32]) {
    let (instructions, cycles) = (cpu.instructions(), cpu.cycles());
    cpu.set_pc(0);
    let started = Instant::now();
    let exit = cpu.run(GUEST_BUDGET).expect("guest runs to ecall");
    let ns = started.elapsed().as_nanos() as f64;
    let retired = cpu.instructions() - instructions;
    let mut hash = Sha256::new();
    for reg in exit.regs {
        hash.update(&reg.to_le_bytes());
    }
    hash.update(&exit.pc.to_le_bytes());
    hash.update(&retired.to_le_bytes());
    hash.update(&(cpu.cycles() - cycles).to_le_bytes());
    hash.update(cpu.read_bytes(OUT_BASE, OUT_LEN));
    (ns, retired, hash.finalize())
}

/// Pack the MUL TER operand stream (5 coefficient pairs per write), as
/// the accelerator driver of the paper's Section V does.
fn pack_mul_ter_stream(ternary: &[i8], general: &[u8]) -> Vec<u8> {
    let mut words = Vec::new();
    for chunk in 0..ternary.len().div_ceil(5) {
        let base = chunk * 5;
        let gen = |i: usize| u32::from(general.get(base + i).copied().unwrap_or(0));
        let ter = |i: usize| match ternary.get(base + i).copied().unwrap_or(0) {
            1 => 0b01u32,
            -1 => 0b10,
            _ => 0b00,
        };
        let rs1 = gen(0) | (gen(1) << 8) | (gen(2) << 16) | (gen(3) << 24);
        let mut rs2 = (2u32 << 28) | gen(4);
        for i in 0..5 {
            rs2 |= ter(i) << (8 + 2 * i);
        }
        words.push(rs1);
        words.push(rs2);
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The LAC-128 decryption datapath on the extended core, repeated
/// [`DECRYPT_REPS`] times: stream s × u into MUL TER, multiply, read
/// u·s back, then recover and threshold-decode the 400 codeword bits.
/// Returns the machine and the message the bits must BCH-decode to.
fn decrypt_guest(seed: u64) -> (Machine, [u8; 32], Lac) {
    let lac = Lac::new(Params::lac128());
    let mut backend = lac::SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(seed ^ 0xDEC0_DE00);
    let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
    let mut msg = [0u8; 32];
    rng.fill_bytes(&mut msg);
    let mut coins = [0u8; 32];
    rng.fill_bytes(&mut coins);
    let ct = lac.encrypt(&pk, &msg, &coins, &mut backend, &mut NullMeter);
    let src = format!(
        r#"
            li   s0, 0
            li   s1, {DECRYPT_REPS}
        outer:
            li   t1, 0x10000000
            pq.mul_ter zero, zero, t1      # reset
            li   t2, 0x4000                # operand stream
            li   t3, 103
        load:
            lw   t0, 0(t2)
            lw   t1, 4(t2)
            pq.mul_ter zero, t0, t1
            addi t2, t2, 8
            addi t3, t3, -1
            bnez t3, load
            li   t1, 0x30000001            # start, negacyclic
            pq.mul_ter zero, zero, t1
            li   t2, 0xA000                # u*s back to RAM
            li   t3, 128
            li   t1, 0x40000000
        readout:
            pq.mul_ter t0, zero, t1
            sw   t0, 0(t2)
            addi t2, t2, 4
            addi t3, t3, -1
            bnez t3, readout
            li   t2, 0x8000                # v_hat
            li   t4, 0xA000                # u*s
            li   t5, {OUT_BASE}
            li   t3, {OUT_LEN}
            li   s2, 251
        recover:
            lbu  t0, 0(t2)
            lbu  t1, 0(t4)
            add  t0, t0, s2
            sub  t0, t0, t1
            pq.modq t0, t0, zero
            addi t0, t0, -63
            sltiu t0, t0, 126
            sb   t0, 0(t5)
            addi t2, t2, 1
            addi t4, t4, 1
            addi t5, t5, 1
            addi t3, t3, -1
            bnez t3, recover
            addi s0, s0, 1
            bne  s0, s1, outer
            ecall
        "#
    );
    let mut machine = Machine::assemble(&src).expect("decrypt guest assembles");
    let v_hat: Vec<u8> = ct.v().iter().map(|&v| (v << 4) + 8).collect();
    let stream = pack_mul_ter_stream(sk.s().coeffs(), ct.u().coeffs());
    machine.cpu_mut().write_bytes(0x4000, &stream);
    machine.cpu_mut().write_bytes(0x8000, &v_hat);
    (machine, msg, lac)
}

/// Everything a compute phase needs, built from the seed.
pub struct Rig {
    cases: Vec<KemCase>,
    guests: Vec<GuestCpu>,
    rng: Sha256CtrRng,
    rulers: Box<Rulers>,
}

impl Rig {
    /// Build the KEM cases on `backends` and load both guests on every
    /// `variant`, priming each with one run checked against the classic
    /// engine.
    fn setup(seed: u64, variants: &[Variant], backends: &[BackendKind]) -> Self {
        let mut rng = Sha256CtrRng::seed_from_u64(seed);
        let cases = kem_configs(backends)
            .into_iter()
            .map(|(label, params, kind)| {
                let kem = Kem::new(params);
                let mut backend = kind.build();
                let (pk, sk) = kem.keygen(&mut rng, backend.as_mut(), &mut NullMeter);
                KemCase {
                    label,
                    kem,
                    backend,
                    pk,
                    sk,
                }
            })
            .collect();

        let (decrypt, msg, lac) = decrypt_guest(seed);
        let mut guests = Vec::new();
        for (guest, machine) in [("recover", workload(RECOVER_ITERS)), ("decrypt", decrypt)] {
            let image = machine.snapshot();
            let mut oracle = Cpu::from_image(&image);
            oracle.set_engine(Engine::Classic);
            let (_, _, expected) = run_guest(&mut oracle);
            if guest == "decrypt" {
                let bits = oracle.read_bytes(OUT_BASE, OUT_LEN);
                let decoded = lac.bch().decode_constant_time(bits, &mut NullMeter);
                assert_eq!(decoded.message, msg, "decrypt guest recovers the message");
            }
            for &variant in variants {
                let mut cpu = Cpu::from_image(&image);
                match variant {
                    Variant::Engine(engine) => cpu.set_engine(engine),
                    Variant::JitNoChain => {
                        cpu.set_engine(Engine::Jit);
                        cpu.set_jit_chaining(false);
                    }
                }
                let (_, _, digest) = run_guest(&mut cpu);
                assert_eq!(digest, expected, "{guest} on {} primes", variant.name());
                guests.push(GuestCpu {
                    guest,
                    variant,
                    cpu,
                    expected,
                });
            }
        }
        Self {
            cases,
            guests,
            rng,
            rulers: Rulers::new(),
        }
    }
}

/// Per-sample series of one compute run, keyed `(op, case)` for KEM
/// times in ns and `(engine variant, guest)` for ISS MIPS.
#[derive(Default)]
struct Series {
    /// Ruler-normalised samples.
    norm: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// The same samples before normalisation, for the drift report.
    raw: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    ruler_mul: Vec<f64>,
    ruler_dispatch: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Series {
    fn push(&mut self, key: (&'static str, &'static str), raw: f64, norm: f64) {
        self.raw.entry(key).or_default().push(raw);
        self.norm.entry(key).or_default().push(norm);
    }

    /// Geometric mean over `keys` of each series' median, normalised and
    /// raw.
    fn geomean(&mut self, keys: &[(&'static str, &'static str)]) -> (f64, f64) {
        let of = |map: &mut BTreeMap<_, Vec<f64>>| {
            let medians: Vec<f64> = keys
                .iter()
                .map(|k| median(map.get_mut(k).expect("sampled")))
                .collect();
            geomean(&medians)
        };
        (of(&mut self.norm), of(&mut self.raw))
    }
}

impl Rig {
    /// Read the rulers right after a sample of `ns`; returns the sample
    /// at reference host speed by the ruler of its shape.
    fn normalised(&mut self, ns: f64, ruler: Ruler, series: &mut Series) -> f64 {
        let reading = self.rulers.read();
        series.ruler_mul.push(reading.mul_ns);
        series.ruler_dispatch.push(reading.dispatch_ns);
        reading.normalise(ns, ruler)
    }

    /// One round-robin pass: encaps then decaps on every case, then one
    /// run of every loaded guest, each sample followed by the rulers.
    /// Returns the pass's wall time in ns.
    fn round(&mut self, series: &mut Series, mut spans: Option<&mut Spans>) -> f64 {
        let started = Instant::now();
        for c in 0..self.cases.len() {
            let case = &mut self.cases[c];
            let t = Instant::now();
            let (ct, sent) = case.kem.encapsulate(
                &mut self.rng,
                &case.pk,
                case.backend.as_mut(),
                &mut NullMeter,
            );
            let encaps_ns = t.elapsed().as_nanos() as f64;
            let encaps = self.normalised(encaps_ns, Ruler::Mul, series);
            let case = &mut self.cases[c];
            let t = Instant::now();
            let got = case
                .kem
                .decapsulate(&case.sk, &ct, case.backend.as_mut(), &mut NullMeter);
            let decaps_ns = t.elapsed().as_nanos() as f64;
            let label = case.label;
            let decaps = self.normalised(decaps_ns, Ruler::Mul, series);

            series.attempted += 2;
            if got != sent {
                series.failed += 1;
            }
            series.push(("encaps", label), encaps_ns, encaps);
            series.push(("decaps", label), decaps_ns, decaps);
            if let Some(spans) = spans.as_deref_mut() {
                spans.record(format!("lac.encaps_us.{label}"), encaps);
                spans.record(format!("lac.decaps_us.{label}"), decaps);
            }
        }
        for g in 0..self.guests.len() {
            let (ns, retired, digest) = run_guest(&mut self.guests[g].cpu);
            let ruler = self.guests[g].ruler();
            let norm = self.normalised(ns, ruler, series);
            let guest = &self.guests[g];
            series.attempted += 1;
            if digest != guest.expected {
                series.failed += 1;
            }
            let mips = |ns: f64| retired as f64 * 1e3 / ns;
            series.push((guest.variant.name(), guest.guest), mips(ns), mips(norm));
            if let Some(spans) = spans.as_deref_mut() {
                let name = format!("rv32.mips.{}.{}", guest.variant.name(), guest.guest);
                spans.record(name, mips(norm));
            }
        }
        started.elapsed().as_nanos() as f64
    }
}

/// Model error against the paper: the geometric mean, over the
/// keygen/encaps/decaps columns of all nine Table II rows, of the factor
/// `exp(|ln(model / paper)|)` by which the modelled cycles miss the
/// paper's, minus one, in percent. Deterministic: it reads modelled
/// cycles, not host time.
fn model_err_pct() -> f64 {
    let rows = lac_bench::table2::measure_rows(1);
    let mut errs = Vec::new();
    for row in &rows {
        let (_, paper) = lac_bench::PAPER_TABLE2
            .iter()
            .find(|(label, _)| *label == row.label)
            .expect("every measured row has a paper row");
        for (model, paper) in [row.keygen, row.encaps, row.decaps].into_iter().zip(paper) {
            errs.push((model as f64 / *paper as f64).ln().abs());
        }
    }
    ((errs.iter().sum::<f64>() / errs.len() as f64).exp() - 1.0) * 100.0
}

/// Build the compute phase's rig [`SETUPS`] times for `backend`; returns
/// the last and the median set-up time at reference host speed.
pub fn setup(seed: u64, backend: BackendKind) -> (Rig, f64) {
    // Set-up is single-thread compute: normalise it like the samples, by
    // the median of three `ruler.mul` readings right after each build.
    let mut rulers = Rulers::new();
    let mut at_reference = |secs: f64| {
        let mut readings: Vec<f64> = (0..3).map(|_| rulers.read().mul_ns).collect();
        normalise(secs, median(&mut readings), Ruler::Mul.r0_ns())
    };
    let build = || Rig::setup(seed, &E2E_VARIANTS, &[backend]);
    median_setup(SETUPS, build, &mut at_reference, drop)
}

/// Run the compute phase on `rig` for `seconds` and add its end-to-end
/// metrics and operation counts to `report`.
pub fn run(mut rig: Rig, seconds: f64, report: &mut Report) {
    let model_err = model_err_pct();
    let mut series = Series::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        rig.round(&mut series, None);
    }

    report.add_counts(series.attempted, series.failed);
    let labels: Vec<&'static str> = rig.cases.iter().map(|c| c.label).collect();
    // Raw figures go to stderr: host drift reads there, apart from the
    // normalised metrics.
    let mut raw = Vec::new();
    for op in ["encaps", "decaps"] {
        let keys: Vec<_> = labels.iter().map(|&l| (op, l)).collect();
        let (norm, raw_ns) = series.geomean(&keys);
        report.metric(&format!("{op}_us"), norm / 1e3, "us");
        raw.push(format!("\"{op}_us\": {}", raw_ns / 1e3));
    }
    for (metric, variant) in [("jit_mips", "jit"), ("superblock_mips", "superblock")] {
        let (norm, raw_mips) = series.geomean(&[(variant, "recover"), (variant, "decrypt")]);
        report.metric(metric, norm, "MIPS");
        raw.push(format!("\"{metric}\": {raw_mips}"));
    }
    report.metric("model_err_pct", model_err, "%");
    eprintln!(
        "raw: {{{}, \"ruler.mul_us\": {}, \"ruler.dispatch_us\": {}}}",
        raw.join(", "),
        median(&mut series.ruler_mul) / 1e3,
        median(&mut series.ruler_dispatch) / 1e3,
    );
}

/// Host ns per [`Phase`] bucket, recorded on `enter`/`leave` (self time
/// of the innermost phase). Charges are ignored.
#[derive(Default)]
struct PhaseTimer {
    stack: Vec<Phase>,
    mark: Option<Instant>,
    ns: BTreeMap<&'static str, f64>,
}

/// The per-layer bucket a phase's host time is reported under.
fn bucket(phase: Phase) -> &'static str {
    match phase {
        Phase::GenA => "gena",
        Phase::SamplePoly => "sample",
        Phase::Mul => "mul",
        Phase::BchEncode
        | Phase::BchSyndrome
        | Phase::BchErrorLocator
        | Phase::BchChien
        | Phase::BchGlue => "bch",
        Phase::Hash => "hash",
        Phase::Serialize => "serialize",
        Phase::Compare | Phase::Other => "other",
    }
}

impl PhaseTimer {
    fn flush(&mut self) {
        let now = Instant::now();
        if let (Some(&top), Some(mark)) = (self.stack.last(), self.mark) {
            *self.ns.entry(bucket(top)).or_default() += (now - mark).as_nanos() as f64;
        }
        self.mark = Some(now);
    }
}

impl Meter for PhaseTimer {
    fn charge(&mut self, _op: Op, _count: u64) {}
    fn charge_cycles(&mut self, _cycles: u64) {}
    fn enter(&mut self, phase: Phase) {
        self.flush();
        self.stack.push(phase);
    }
    fn leave(&mut self) {
        self.flush();
        self.stack.pop();
    }
}

/// The traced compute pass: per-layer metrics of `lac`, `lac-meter` and
/// `lac-rv32`, plus `trace.overhead` (traced against untraced rounds).
pub fn trace(seed: u64, seconds: f64, report: &mut Report) {
    let mut rig = Rig::setup(seed, &TRACE_VARIANTS, &[BackendKind::Ct, BackendKind::Hw]);
    let mut series = Series::default();
    let mut spans = Spans::default();
    let mut ledger_ratio: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut phases = PhaseTimer::default();
    let mut phase_total_ns = 0.0;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut traced_first = false;
    while Instant::now() < deadline {
        // Alternate which round runs first: the round after the probes
        // below starts with colder caches.
        traced_first = !traced_first;
        for traced_now in [traced_first, !traced_first] {
            if traced_now {
                traced.push(rig.round(&mut series, Some(&mut spans)));
            } else {
                untraced.push(rig.round(&mut series, None));
            }
        }
        for c in 0..rig.cases.len() {
            let case = &mut rig.cases[c];
            let t = Instant::now();
            case.kem
                .keygen(&mut rig.rng, case.backend.as_mut(), &mut NullMeter);
            let ns = t.elapsed().as_nanos() as f64;
            let label = case.label;
            let norm = rig.normalised(ns, Ruler::Mul, &mut series);
            spans.record(format!("lac.keygen_us.{label}"), norm);
            let case = &mut rig.cases[c];

            // Phase shares: one encaps + decaps under the phase timer.
            let t = Instant::now();
            let (ct, _) =
                case.kem
                    .encapsulate(&mut rig.rng, &case.pk, case.backend.as_mut(), &mut phases);
            case.kem
                .decapsulate(&case.sk, &ct, case.backend.as_mut(), &mut phases);
            phase_total_ns += t.elapsed().as_nanos() as f64;

            // Ledger overhead: encaps under CycleLedger against NullMeter.
            let mut seeded = rig.rng.clone();
            let t = Instant::now();
            case.kem
                .encapsulate(&mut seeded, &case.pk, case.backend.as_mut(), &mut NullMeter);
            let null_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            case.kem.encapsulate(
                &mut rig.rng,
                &case.pk,
                case.backend.as_mut(),
                &mut CycleLedger::new(),
            );
            let ledger_ns = t.elapsed().as_nanos() as f64;
            ledger_ratio
                .entry(case.label)
                .or_default()
                .push(ledger_ns / null_ns);
        }
    }

    let labels: Vec<&'static str> = rig.cases.iter().map(|c| c.label).collect();
    for label in &labels {
        for op in ["keygen", "encaps", "decaps"] {
            let name = format!("lac.{op}_us.{label}");
            let value = spans.median(&name) / 1e3;
            report.metric(&name, value, "us");
        }
    }
    for name in ["gena", "sample", "mul", "bch", "hash", "serialize"] {
        let share = phases.ns.get(name).copied().unwrap_or(0.0) / phase_total_ns;
        report.metric(&format!("meter.phase_share.{name}"), share, "ratio");
    }
    let ratios: Vec<f64> = ledger_ratio.values_mut().map(|v| median(v)).collect();
    report.metric("meter.ledger_overhead", geomean(&ratios), "ratio");

    for variant in TRACE_VARIANTS {
        for guest in ["recover", "decrypt"] {
            let name = format!("rv32.mips.{}.{guest}", variant.name());
            let value = spans.median(&name);
            report.metric(&name, value, "MIPS");
        }
    }
    let (mut entries, mut chained) = (0u64, 0u64);
    let (mut jit_compiles, mut sb_compiles, mut fallbacks) = (0u64, 0u64, 0u64);
    for g in &rig.guests {
        if matches!(g.variant, Variant::Engine(Engine::Jit)) {
            let jit = g.cpu.jit_stats();
            entries += jit.dispatches + jit.chained_dispatches;
            chained += jit.chained_dispatches;
            jit_compiles += jit.compiles;
            sb_compiles += g.cpu.superblock_stats().compiles;
            fallbacks += jit.fallbacks;
        }
    }
    report.metric(
        "rv32.jit_chained_share",
        chained as f64 / entries.max(1) as f64,
        "ratio",
    );
    report.metric("rv32.jit_compiles", jit_compiles as f64, "count");
    report.metric("rv32.sb_compiles", sb_compiles as f64, "count");
    report.metric("rv32.jit_fallbacks", fallbacks as f64, "count");
    report.metric("rv32.warm_speedup", warm_speedup(), "ratio");
    report.metric("ruler.mul_us", median(&mut series.ruler_mul) / 1e3, "us");
    report.metric(
        "ruler.dispatch_us",
        median(&mut series.ruler_dispatch) / 1e3,
        "us",
    );
    report.metric(
        "trace.overhead",
        median(&mut traced) / median(&mut untraced),
        "ratio",
    );
    report.add_counts(series.attempted, series.failed);
}

/// Cold JIT runs of the recover guest against runs restored from a warm
/// image with a primed shared trace cache: median cold / warm time.
fn warm_speedup() -> f64 {
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let cold = lac_bench::iss::run_path(RECOVER_ITERS, Engine::Jit);
            let warm = lac_bench::iss::run_path_warm(RECOVER_ITERS, Engine::Jit);
            assert_eq!(cold.digest, warm.digest, "warm start is exact");
            cold.wall_micros.max(1) as f64 / warm.wall_micros.max(1) as f64
        })
        .collect();
    median(&mut ratios)
}
