//! The serving phases: kem-serve (an open-loop KEM mix at two fixed
//! rates) and session-chat (closed-loop sealed-message lanes), both
//! against an in-process `lac_serve::server::Server` with 2 workers and 1
//! reactor, plus the pool-only and front-end layers of the traced run.
//!
//! Latencies are exact samples timed from each request's *due* time, so
//! a stalled generator or server charges every request it delays.

use crate::proc::{allowed_cpus, cpu_ns, current_tid, pin_current_thread, threads_named};
use crate::ruler::{Ruler, Rulers};
use crate::stats::{geomean, mean, median, normalise, tail};
use crate::{median_setup, Report};
use lac::{Ciphertext, Kem, KemSecretKey, Params};
use lac_meter::NullMeter;
use lac_rand::{Rng, Sha256CtrRng};
use lac_serve::client::Client;
use lac_serve::metrics::MetricsSnapshot;
use lac_serve::pool::{Job, JobKind, Reply, ServeConfig, ServePool, Ticket};
use lac_serve::server::Server;
use lac_serve::wire::{self, Opcode, RequestFrame};
use lac_serve::{params_code, BackendKind};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first few set-ups of
/// a process run several times slower (cold page faults and code
/// buffers), so the median needs enough warm ones behind it.
const SETUPS: usize = 15;
/// Worker threads of the served pool.
const WORKERS: usize = 2;
/// The low fixed rate (~15% of capacity on the reference host), req/s.
const LO_RATE: f64 = 75.0;
/// The high fixed rate (~30% of capacity on the reference host), req/s.
/// Not higher: other tenants slow this host by up to 1.9×, which would
/// take a ~45% rate to saturation and its p50 with it.
const HI_RATE: f64 = 150.0;
/// Requests at the start of each rate excluded from its latency samples
/// (at most a quarter of a short phase).
const WARMUP_REQUESTS: usize = 32;

/// Whether request `i` of `n` is past its phase's warm-up.
fn warmed(i: usize, n: usize) -> bool {
    i >= WARMUP_REQUESTS.min(n / 4)
}
/// One in this many encaps replies is decapsulated locally.
const ENCAPS_CHECK_EVERY: u64 = 16;
/// Closed-loop session lanes.
const LANES: u64 = 2;
/// Sealed messages per session.
const MSGS_PER_SESSION: usize = 50;
/// Messages between rekeys.
const REKEY_EVERY: usize = 16;
/// Period of each CPU's ruler readings while traffic runs.
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);
/// Name prefix of the thread that runs the server's shard 0.
const SHARD_THREAD: &str = "pb-shard0";
/// Name prefix of the pool's worker threads (`lac-serve-worker-N`,
/// truncated by the kernel to 15 bytes).
const WORKER_THREAD: &str = "lac-serve-worke";

/// Run `f` while one thread pinned to each CPU reads `ruler.mul` every
/// [`SAMPLE_PERIOD`] by its own CPU clock; returns `f`'s result and the
/// mean reading in ns. Other tenants slow each vCPU separately and
/// within a second, and the server's threads run on both, so the ruler
/// is sampled on every CPU at fixed times rather than on whichever CPU
/// the benchmark's own thread lands on (which favours the less-loaded,
/// faster one). The readings are bimodal (each vCPU flips between a fast
/// and a slow state), and work spread evenly over time costs the mean
/// of the two states weighted by their time shares: the mean, not the
/// median, which sits in whichever state held for more than half of the
/// time.
fn sampled<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let samplers: Vec<_> = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = &stop;
                scope.spawn(move || {
                    pin_current_thread(cpu);
                    let mut rulers = Rulers::new();
                    let mut readings = Vec::new();
                    loop {
                        std::thread::sleep(SAMPLE_PERIOD);
                        if stop.load(Ordering::Relaxed) {
                            break readings;
                        }
                        readings.push(rulers.mul_cpu_ns());
                    }
                })
            })
            .collect();
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let readings: Vec<f64> = samplers
            .into_iter()
            .flat_map(|h| h.join().expect("ruler sampler completes"))
            .collect();
        (out, mean(&readings))
    })
}

/// `value` at reference host speed, given the mean `ruler.mul` reading
/// taken while it was measured.
fn at_reference(value: f64, ruler_ns: f64) -> f64 {
    normalise(value, ruler_ns, Ruler::Mul.r0_ns())
}

fn config(seed: u64) -> ServeConfig {
    let mut root = [0u8; 32];
    Sha256CtrRng::seed_from_u64(seed ^ 0x5E_57E).fill_bytes(&mut root);
    ServeConfig {
        workers: WORKERS,
        reactors: 1,
        seed: root,
        ..ServeConfig::default()
    }
}

/// A running server: its address, the shard-0 thread and the thread ids
/// whose CPU time counts as server time.
pub struct Running {
    addr: String,
    handle: JoinHandle<MetricsSnapshot>,
    shard: Vec<u32>,
    workers: Vec<u32>,
}

impl Running {
    fn start(seed: u64) -> Self {
        let earlier = threads_named(WORKER_THREAD);
        let server = Server::bind("127.0.0.1:0", config(seed)).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().expect("bound address").to_string();
        let mut workers = threads_named(WORKER_THREAD);
        workers.retain(|tid| !earlier.contains(tid));
        assert_eq!(workers.len(), WORKERS, "bind spawns the pool's workers");
        let (tid_tx, tid_rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name(SHARD_THREAD.into())
            .spawn(move || {
                tid_tx
                    .send(current_tid())
                    .expect("benchmark waits for the shard tid");
                server.run()
            })
            .expect("spawn shard thread");
        let shard = vec![tid_rx.recv().expect("shard thread starts")];
        Client::connect(&addr)
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .expect("first request is served");
        Self {
            addr,
            handle,
            shard,
            workers,
        }
    }

    /// Start [`SETUPS`] servers one after another (stopping all but the
    /// last); returns the last and the median time until a first request
    /// was served.
    pub fn setup(seed: u64) -> (Self, f64) {
        median_setup(
            SETUPS,
            || Running::start(seed),
            |secs| secs,
            |previous| {
                previous.stop();
            },
        )
    }

    /// Shut the server down and return its final metrics snapshot.
    pub fn stop(self) -> MetricsSnapshot {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown().map_err(std::io::Error::other))
            .expect("shutdown is acknowledged");
        self.handle.join().expect("server thread exits cleanly")
    }

    /// CPU ns of (workers, shard 0) so far.
    fn cpu(&self) -> (u64, u64) {
        (cpu_ns(&self.workers), cpu_ns(&self.shard))
    }
}

/// Client-side KEM material for one parameter set.
struct Fixture {
    params: Params,
    kem: Kem,
    pk: Vec<u8>,
    sk: KemSecretKey,
    sk_bytes: Vec<u8>,
    ct: Vec<u8>,
    shared: [u8; 32],
}

fn fixtures(rng: &mut Sha256CtrRng) -> Vec<Fixture> {
    [Params::lac128(), Params::lac256()]
        .into_iter()
        .map(|params| {
            let kem = Kem::new(params);
            let mut backend = BackendKind::Ct.build();
            let (pk, sk) = kem.keygen(rng, backend.as_mut(), &mut NullMeter);
            let (ct, shared) = kem.encapsulate(rng, &pk, backend.as_mut(), &mut NullMeter);
            Fixture {
                params,
                pk: pk.to_bytes(),
                sk_bytes: sk.to_bytes(),
                sk,
                ct: ct.to_bytes(),
                shared: *shared.as_bytes(),
                kem,
            }
        })
        .collect()
}

/// One request of the seeded KEM mix.
#[derive(Clone, Copy)]
struct Request {
    fixture: usize,
    backend: BackendKind,
    decaps: bool,
}

impl Request {
    /// Which of the mix's [`CLASSES`] request classes this is.
    fn class(self) -> usize {
        self.fixture * 4
            + usize::from(self.backend == BackendKind::Hw) * 2
            + usize::from(self.decaps)
    }
}

/// A seeded mix of `count` requests, uniform over {LAC-128, LAC-256} ×
/// `backends` × {encaps, decaps}.
fn mix(rng: &mut Sha256CtrRng, count: usize, backends: &[BackendKind]) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let pick = rng.gen_below_u32(4 * backends.len() as u32);
            Request {
                fixture: (pick & 1) as usize,
                decaps: pick & 2 != 0,
                backend: backends[(pick >> 2) as usize],
            }
        })
        .collect()
}

fn job(seq: u64, req: Request, fx: &[Fixture]) -> Job {
    let f = &fx[req.fixture];
    let kind = if req.decaps {
        JobKind::Decaps {
            sk: f.sk_bytes.clone(),
            ct: f.ct.clone(),
        }
    } else {
        JobKind::Encaps { pk: f.pk.clone() }
    };
    Job::new(seq, f.params, req.backend, kind)
}

fn frame(job: &Job) -> RequestFrame {
    let (opcode, payload) = match &job.kind {
        JobKind::Encaps { pk } => (Opcode::Encaps, pk.clone()),
        JobKind::Decaps { sk, ct } => (Opcode::Decaps, [sk.as_slice(), ct].concat()),
        JobKind::Keygen => (Opcode::Keygen, Vec::new()),
    };
    RequestFrame {
        opcode,
        params_code: params_code(&job.params),
        backend_code: job.backend.code(),
        seq: job.seq,
        payload,
    }
}

/// A served encaps reply kept for local decapsulation:
/// `(fixture, ciphertext, shared secret)`.
type Kept = (usize, Vec<u8>, [u8; 32]);

/// Outcome of one fixed-rate phase.
#[derive(Default)]
struct Phase {
    /// Latency from due time, ms, warm-up excluded.
    latency_ms: Vec<f64>,
    /// Request class ([`Request::class`]) of each latency sample.
    class: Vec<usize>,
    /// Send time minus due time, ms.
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Served encaps replies kept for the local decapsulation check.
    checks: Vec<Kept>,
}

impl Phase {
    /// Decapsulate the kept encaps replies locally; each mismatch fails.
    fn verify(&mut self, fx: &[Fixture]) {
        let mut backend = BackendKind::Ct.build();
        for (index, ct, shared) in self.checks.drain(..) {
            let f = &fx[index];
            let ok = Ciphertext::from_bytes(&f.params, &ct).is_ok_and(|ct| {
                f.kem
                    .decapsulate(&f.sk, &ct, backend.as_mut(), &mut NullMeter)
                    .as_bytes()
                    == &shared
            });
            if !ok {
                self.failed += 1;
            }
        }
    }
}

/// Classify one reply against its request: `Some(kept check)` when it is
/// a correct encaps reply chosen for local decapsulation, `Err` when it
/// is wrong, busy or an error.
fn check_reply(
    req: Request,
    payload: Result<&[u8], ()>,
    keep: bool,
    fx: &[Fixture],
) -> Result<Option<Kept>, ()> {
    let f = &fx[req.fixture];
    let payload = payload?;
    if req.decaps {
        return if payload == f.shared {
            Ok(None)
        } else {
            Err(())
        };
    }
    let ct_len = f.params.ciphertext_bytes();
    if payload.len() != ct_len + 32 {
        return Err(());
    }
    let mut shared = [0u8; 32];
    shared.copy_from_slice(&payload[ct_len..]);
    Ok(keep.then(|| (req.fixture, payload[..ct_len].to_vec(), shared)))
}

/// Drive `reqs` at `rate` over one connection: a writer thread sends
/// each request at its due time and a reader thread pairs the in-order
/// replies with their due times.
fn open_loop(addr: &str, fx: &[Fixture], reqs: &[Request], first_seq: u64, rate: f64) -> Phase {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone the stream");
    let mut reader = BufReader::new(stream);
    let frames: Vec<RequestFrame> = reqs
        .iter()
        .enumerate()
        .map(|(i, &req)| frame(&job(first_seq + i as u64, req, fx)))
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    let started = Instant::now() + Duration::from_millis(5);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, frame) in frames.iter().enumerate() {
                let due = started + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                wire::write_request(&mut writer, frame).expect("send request");
                tx.send((i, due, sent)).expect("reader outlives writer");
            }
        });
        let phase = &mut phase;
        scope.spawn(move || {
            let mut late = Vec::with_capacity(reqs.len());
            while let Ok((i, due, sent)) = rx.recv() {
                let response = wire::read_response(&mut reader).expect("read response");
                let done = Instant::now();
                let payload = if response.is_busy() || response.error_message().is_some() {
                    Err(())
                } else {
                    Ok(response.payload.as_slice())
                };
                let keep = (first_seq + i as u64).is_multiple_of(ENCAPS_CHECK_EVERY);
                phase.attempted += 1;
                match check_reply(reqs[i], payload, keep, fx) {
                    Ok(kept) => phase.checks.extend(kept),
                    Err(()) => phase.failed += 1,
                }
                if warmed(i, reqs.len()) {
                    phase.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    phase.class.push(reqs[i].class());
                    late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
            }
            phase.late_ms = late;
        });
    });
    phase.verify(fx);
    phase
}

/// The same schedule straight into a [`ServePool`], no sockets: a
/// scheduler thread submits at each due time and a waiter thread waits
/// on the tickets in order.
fn pool_loop(
    pool: &ServePool,
    fx: &[Fixture],
    reqs: &[Request],
    first_seq: u64,
    rate: f64,
) -> Phase {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let started = Instant::now() + Duration::from_millis(5);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, &req) in reqs.iter().enumerate() {
                let job = job(first_seq + i as u64, req, fx);
                let due = started + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                tx.send((i, due, pool.submit(job)))
                    .expect("waiter outlives scheduler");
            }
        });
        let phase = &mut phase;
        scope.spawn(move || {
            while let Ok((i, due, ticket)) = rx.recv() {
                let reply = ticket.wait();
                let done = Instant::now();
                let payload: Result<Vec<u8>, ()> = match reply {
                    Reply::Encaps { ct, shared } => Ok([ct, shared.to_vec()].concat()),
                    Reply::Decaps { shared } => Ok(shared.to_vec()),
                    _ => Err(()),
                };
                phase.attempted += 1;
                if check_reply(reqs[i], payload.as_deref().map_err(|_| ()), false, fx).is_err() {
                    phase.failed += 1;
                }
                if warmed(i, reqs.len()) {
                    phase.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    phase.class.push(reqs[i].class());
                }
            }
        });
    });
    phase
}

/// One kem-serve measurement: both rates over one server.
struct KemServe {
    lo: Phase,
    hi: Phase,
    /// Mean `ruler.mul` reading during each phase (see [`sampled`]), ns.
    ruler_ns: (f64, f64),
    /// Server CPU ns over both phases: (workers, shard 0).
    cpu: (u64, u64),
}

/// Run both fixed-rate phases against `server`, `lo_s` and `hi_s`
/// seconds long, with a mix over `backends`.
fn kem_serve(
    server: &Running,
    seed: u64,
    backends: &[BackendKind],
    lo_s: f64,
    hi_s: f64,
) -> KemServe {
    let mut rng = Sha256CtrRng::seed_from_u64(seed);
    let fx = fixtures(&mut rng);
    let lo_reqs = mix(&mut rng, (LO_RATE * lo_s) as usize, backends);
    let hi_reqs = mix(&mut rng, (HI_RATE * hi_s) as usize, backends);
    let before = server.cpu();
    let (lo, lo_ruler_ns) = sampled(|| open_loop(&server.addr, &fx, &lo_reqs, 1, LO_RATE));
    let hi_seq = 1 + lo_reqs.len() as u64;
    let (hi, hi_ruler_ns) = sampled(|| open_loop(&server.addr, &fx, &hi_reqs, hi_seq, HI_RATE));
    let after = server.cpu();
    KemServe {
        lo,
        hi,
        ruler_ns: (lo_ruler_ns, hi_ruler_ns),
        cpu: (after.0 - before.0, after.1 - before.1),
    }
}

/// The phase's p50: the geometric mean over the request classes present
/// ([`Request::class`]) of each class's exact p50. Pooled, the mix's
/// latencies are bimodal (LAC-256 requests cost ~4× LAC-128), so a
/// pooled median sits in the gap and jumps between the modes with the
/// seed's mix.
fn class_p50(phase: &Phase) -> f64 {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&v, &c) in phase.latency_ms.iter().zip(&phase.class) {
        by_class.entry(c).or_default().push(v);
    }
    let medians: Vec<f64> = by_class.values_mut().map(|v| median(v)).collect();
    geomean(&medians)
}

fn p50(samples: &[f64]) -> f64 {
    median(&mut samples.to_vec())
}

/// The kem-serve phase on `backend` against `server`, two thirds of
/// `seconds` at the low rate and one third at the high one (as many
/// requests at each): adds its end-to-end metrics and counts to `report`.
pub fn run_kem(
    server: &Running,
    seed: u64,
    backend: BackendKind,
    seconds: f64,
    report: &mut Report,
) {
    let r = kem_serve(server, seed, &[backend], seconds * 2.0 / 3.0, seconds / 3.0);
    let ops = r.lo.attempted + r.hi.attempted - r.lo.failed - r.hi.failed;
    report.add_counts(r.lo.attempted + r.hi.attempted, r.lo.failed + r.hi.failed);
    let (lo_ruler, hi_ruler) = r.ruler_ns;
    let both_ruler = (lo_ruler * hi_ruler).sqrt();
    let (lo, hi) = (class_p50(&r.lo), class_p50(&r.hi));
    report.metric("kem_p50_ms", at_reference(lo, lo_ruler), "ms");
    report.metric("kem_hi_p50_ms", at_reference(hi, hi_ruler), "ms");
    let cpu_ms = (r.cpu.0 + r.cpu.1) as f64 / 1e6 / ops.max(1) as f64;
    report.metric("kem_cpu_ms_per_op", at_reference(cpu_ms, both_ruler), "ms");
    eprintln!(
        "raw: {{\"kem_p50_ms\": {lo}, \"kem_hi_p50_ms\": {hi}, \"kem_cpu_ms_per_op\": {cpu_ms}, \
         \"sampled_ruler.lo_us\": {}, \"sampled_ruler.hi_us\": {}}}",
        lo_ruler / 1e3,
        hi_ruler / 1e3,
    );
}

/// Outcome of the closed-loop session lanes.
#[derive(Default)]
struct Chat {
    msg_us: Vec<f64>,
    handshake_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Server CPU ns over the run: (workers, shard 0).
    cpu: (u64, u64),
    /// Mean `ruler.mul` reading during the run (see [`sampled`]), ns.
    ruler_ns: f64,
}

/// One lane: sessions of [`MSGS_PER_SESSION`] sealed 64–1024 B messages
/// with a rekey every [`REKEY_EVERY`], until `deadline`, with handshakes
/// on `kind` at both ends.
fn lane(addr: &str, seed: u64, lane: u64, kind: BackendKind, deadline: Instant) -> Chat {
    let mut client = Client::connect(addr).expect("lane connects");
    let kem = Kem::new(Params::lac128());
    let mut backend = kind.build();
    let mut rng = Sha256CtrRng::seed_from_u64(seed).fork(lane);
    let mut seq = (lane + 1) << 40;
    let mut out = Chat::default();
    while Instant::now() < deadline {
        seq += 1;
        let t = Instant::now();
        out.attempted += 1;
        let Ok(mut session) = client.session_open(&kem, backend.as_mut(), kind, seq, &mut rng)
        else {
            out.failed += 1;
            continue;
        };
        out.handshake_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for m in 0..MSGS_PER_SESSION {
            if m > 0 && m % REKEY_EVERY == 0 {
                seq += 1;
                let t = Instant::now();
                out.attempted += 1;
                match client.session_rekey(
                    &kem,
                    backend.as_mut(),
                    kind,
                    &mut session,
                    seq,
                    &mut rng,
                ) {
                    Ok(()) => out.handshake_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(_) => out.failed += 1,
                }
            }
            let len = 64 + rng.gen_below_u32(961) as usize;
            let mut plaintext = vec![0u8; len];
            rng.fill_bytes(&mut plaintext);
            let t = Instant::now();
            out.attempted += 1;
            match client.session_send(&mut session, &plaintext) {
                Ok(echo) if echo == plaintext => out.msg_us.push(t.elapsed().as_secs_f64() * 1e6),
                _ => out.failed += 1,
            }
        }
        out.attempted += 1;
        if client.session_close(session).is_err() {
            out.failed += 1;
        }
    }
    out
}

/// Run [`LANES`] session lanes on `kind` for `seconds` against `server`.
fn chat(server: &Running, seed: u64, kind: BackendKind, seconds: f64) -> Chat {
    let before = server.cpu();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (lanes, ruler_ns) = sampled(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LANES)
                .map(|l| {
                    let addr = &server.addr;
                    scope.spawn(move || lane(addr, seed, l, kind, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread completes"))
                .collect::<Vec<Chat>>()
        })
    });
    let after = server.cpu();
    let mut out = Chat {
        cpu: (after.0 - before.0, after.1 - before.1),
        ruler_ns,
        ..Chat::default()
    };
    for l in lanes {
        out.msg_us.extend(l.msg_us);
        out.handshake_ms.extend(l.handshake_ms);
        out.attempted += l.attempted;
        out.failed += l.failed;
    }
    out
}

/// The session-chat phase on `backend` against `server`: adds its
/// end-to-end metrics and counts to `report`.
pub fn run_chat(
    server: &Running,
    seed: u64,
    backend: BackendKind,
    seconds: f64,
    report: &mut Report,
) {
    let c = chat(server, seed, backend, seconds);
    report.add_counts(c.attempted, c.failed);
    // The message p50 is the reactor's 1 ms park plus the loopback round
    // trip, not compute: it stays raw.
    report.metric("msg_p50_us", p50(&c.msg_us), "us");
    let handshake = p50(&c.handshake_ms);
    report.metric(
        "handshake_p50_ms",
        at_reference(handshake, c.ruler_ns),
        "ms",
    );
    let cpu_us = (c.cpu.0 + c.cpu.1) as f64 / 1e3 / c.msg_us.len().max(1) as f64;
    report.metric("msg_cpu_us", at_reference(cpu_us, c.ruler_ns), "us");
    eprintln!(
        "raw: {{\"handshake_p50_ms\": {handshake}, \"msg_cpu_us\": {cpu_us}, \
         \"sampled_ruler.chat_us\": {}}}",
        c.ruler_ns / 1e3
    );
}

/// Highest supported percentile ≤ p99 of `samples` (see
/// [`crate::stats::tail`]); `NaN` when even the median is unsupported.
fn p99(samples: &[f64]) -> f64 {
    tail(&mut samples.to_vec(), 99.0).map_or(f64::NAN, |(_, v)| v)
}

/// The traced serving pass, `seconds` long: pool-only latency on the
/// kem-serve schedule, the front-end's overhead over it, per-thread CPU,
/// front-end counters, tails and generator lateness. The KEM mix covers
/// both backends. Each rate gets 48% and 24% of `seconds` (30 s give
/// ≥1000 latency samples per rate, enough for an exact p99).
pub fn trace(seed: u64, seconds: f64, report: &mut Report) {
    const BOTH: [BackendKind; 2] = [BackendKind::Ct, BackendKind::Hw];
    let server = Running::start(seed);
    let r = kem_serve(&server, seed, &BOTH, 0.48 * seconds, 0.24 * seconds);
    let snapshot = server.stop();
    let ops = (r.lo.attempted + r.hi.attempted - r.lo.failed - r.hi.failed).max(1) as f64;

    let mut rng = Sha256CtrRng::seed_from_u64(seed ^ 0x9001);
    let fx = fixtures(&mut rng);
    let pool = ServePool::new(config(seed));
    let (pool_lo_s, pool_hi_s) = (0.08 * seconds, 0.04 * seconds);
    let pool_lo = pool_loop(
        &pool,
        &fx,
        &mix(&mut rng, (LO_RATE * pool_lo_s) as usize, &BOTH),
        1,
        LO_RATE,
    );
    let pool_hi = pool_loop(
        &pool,
        &fx,
        &mix(&mut rng, (HI_RATE * pool_hi_s) as usize, &BOTH),
        1 << 32,
        HI_RATE,
    );
    pool.shutdown();

    for (name, front, pool) in [("lo", &r.lo, &pool_lo), ("hi", &r.hi, &pool_hi)] {
        let pool_p50 = class_p50(pool);
        report.metric(&format!("pool.p50_ms.{name}"), pool_p50, "ms");
        report.metric(
            &format!("frontend.overhead_ms.{name}"),
            class_p50(front) - pool_p50,
            "ms",
        );
        report.metric(&format!("kem.p99_ms.{name}"), p99(&front.latency_ms), "ms");
        report.metric(
            &format!("kem.n.{name}"),
            front.latency_ms.len() as f64,
            "count",
        );
        report.add_counts(pool.attempted, pool.failed);
    }
    let late: Vec<f64> = r.lo.late_ms.iter().chain(&r.hi.late_ms).copied().collect();
    report.metric("gen.late_p99_ms", p99(&late), "ms");
    report.metric(
        "serve.worker_cpu_ms_per_op",
        r.cpu.0 as f64 / 1e6 / ops,
        "ms",
    );
    report.metric(
        "serve.frontend_cpu_ms_per_op",
        r.cpu.1 as f64 / 1e6 / ops,
        "ms",
    );
    let fe = &snapshot.frontend;
    report.metric("serve.frames_per_flush", fe.frames_per_flush(), "ratio");
    report.metric("serve.writev_calls", fe.writev_calls as f64, "count");
    report.metric("serve.shed_busy", fe.shed_busy as f64, "count");
    report.metric("serve.errors", snapshot.errors as f64, "count");
    report.add_counts(
        r.lo.attempted + r.hi.attempted,
        r.lo.failed + r.hi.failed + snapshot.errors,
    );

    let server = Running::start(seed);
    let c = chat(&server, seed, BackendKind::Ct, 0.16 * seconds);
    let errors = server.stop().errors;
    report.metric(
        "serve.frontend_cpu_us_per_msg",
        c.cpu.1 as f64 / 1e3 / c.msg_us.len().max(1) as f64,
        "us",
    );
    report.metric("msg.p99_us", p99(&c.msg_us), "us");
    report.metric("msg.n", c.msg_us.len() as f64, "count");
    report.add_counts(c.attempted, c.failed + errors);
}
