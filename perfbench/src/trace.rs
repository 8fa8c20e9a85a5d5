//! The traced run: spans recorded from the benchmark's own files around
//! calls into each layer's public functions, kept in memory and reduced
//! to per-layer metrics when the run ends.

use crate::stats::median;
use crate::Report;
use lac_rand::{Rng, Sha256CtrRng};
use lac_serve::session::{self, Direction, EpochKeys, SessionFrame};
use lac_serve::wire::{self, FrameDecoder, Opcode, RequestFrame};
use lac_sha256::Sha256;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span measures per span name: a duration in ns, or a rate derived
/// from one (MIPS), as the recording call site defines.
#[derive(Default)]
pub struct Spans {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    /// Record one span's measure under `name`.
    pub fn record(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// Time `f` as one span of `name`, in ns.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record(name, started.elapsed().as_nanos() as f64);
        out
    }

    /// Median measure of the spans named `name` (`NaN` if none).
    pub fn median(&mut self, name: &str) -> f64 {
        median(
            self.samples
                .get_mut(name)
                .map_or(&mut [][..], |v| v.as_mut_slice()),
        )
    }
}

/// Micro-spans of the layers under the session path: `wire` framing,
/// `session` seal/open and `lac-sha256`, each repeated for `seconds`.
fn micro(seed: u64, seconds: f64, report: &mut Report) {
    let mut rng = Sha256CtrRng::seed_from_u64(seed ^ 0x7ACE);
    let mut secret = [0u8; 32];
    rng.fill_bytes(&mut secret);
    let keys = EpochKeys::derive(&session::epoch0_secret(&secret));
    let mut pk = vec![0u8; 544];
    rng.fill_bytes(&mut pk);
    let request = RequestFrame {
        opcode: Opcode::Encaps,
        params_code: 1,
        backend_code: 2,
        seq: 7,
        payload: pk,
    };
    let mut kib = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut kib);
    let plain: Vec<Vec<u8>> = [64usize, 1024]
        .iter()
        .map(|&len| {
            let mut p = vec![0u8; len];
            rng.fill_bytes(&mut p);
            p
        })
        .collect();

    let mut spans = Spans::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let mut bytes = Vec::new();
        spans
            .time("wire.encode", || wire::write_request(&mut bytes, &request))
            .expect("encode into a Vec");
        let decoded = spans.time("wire.decode", || {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bytes);
            decoder.next_frame()
        });
        attempted += 1;
        if decoded != Ok(Some(request.clone())) {
            failed += 1;
        }
        for (p, (seal_name, open_name)) in plain
            .iter()
            .zip([("seal.64", "open.64"), ("seal.1024", "open.1024")])
        {
            seq += 1;
            let sealed = spans.time(seal_name, || {
                session::seal(&keys.to_server, Direction::ToServer, 9, 0, seq, p)
            });
            let opened = spans.time(open_name, || {
                SessionFrame::decode(&sealed)
                    .ok()
                    .and_then(|f| session::open(&keys.to_server, Direction::ToServer, &f))
            });
            attempted += 1;
            if opened.as_ref() != Some(p) {
                failed += 1;
            }
        }
        spans.time("sha256", || {
            let mut h = Sha256::new();
            h.update(&kib);
            std::hint::black_box(h.finalize())
        });
    }
    report.metric("wire.encode_ns", spans.median("wire.encode"), "ns");
    report.metric("wire.decode_ns", spans.median("wire.decode"), "ns");
    for size in ["64", "1024"] {
        for op in ["seal", "open"] {
            let ns = spans.median(&format!("{op}.{size}"));
            report.metric(&format!("session.{op}_us.{size}"), ns / 1e3, "us");
        }
    }
    report.metric("sha256.ns_per_kib", spans.median("sha256") / 64.0, "ns");
    report.add_counts(attempted, failed);
}

/// The traced run: every per-layer metric, whatever the workload, over
/// phases that together take about `seconds` (15% compute, 75% serving,
/// 5% micro-spans; set-ups and `rv32.warm_speedup` come on top).
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(0, 0);
    crate::compute::trace(seed, 0.15 * seconds, &mut report);
    crate::serve::trace(seed, 0.75 * seconds, &mut report);
    micro(seed, 0.05 * seconds, &mut report);
    report
}
