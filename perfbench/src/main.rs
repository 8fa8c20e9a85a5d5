//! `perfbench` — one command for the end-to-end and per-layer metrics of
//! the LAC KEM kernels, the RV32 ISS engines and the lac-serve front-end.
//!
//! ```text
//! perfbench --workload <ct|hw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload picks the KEM backend of every path: the compute kernels,
//! the served encaps/decaps mix and the session handshakes. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints every
//! per-layer metric. See README.md.

mod compute;
mod proc;
mod ruler;
mod serve;
mod stats;
mod trace;

use lac_serve::BackendKind;
use std::process::ExitCode;

/// Shares of `--seconds` given to the compute, kem-serve and
/// session-chat phases of an end-to-end run.
const COMPUTE_SHARE: f64 = 0.25;
const KEM_SHARE: f64 = 0.5;
const CHAT_SHARE: f64 = 0.25;

/// A run's outcome: operations attempted and failed, and its metrics.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn add_counts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line. `correct` requires no failed operation and every
    /// metric finite, uniquely and validly named.
    fn to_json(&self) -> String {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let well_formed = names.len() == self.metrics.len()
            && self.metrics.iter().all(|(name, value, unit)| {
                stats::valid_metric_name(name) && stats::valid_unit(unit) && value.is_finite()
            });
        let correct = self.failed == 0 && self.attempted > 0 && well_formed;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Build something `count` times, each earlier build handed to `discard`
/// outside the timed window; `adjust` maps each build's wall seconds to
/// the reported figure right after the build. Returns the last build and
/// the median figure.
fn median_setup<T>(
    count: usize,
    mut build: impl FnMut() -> T,
    mut adjust: impl FnMut(f64) -> f64,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut secs = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let started = std::time::Instant::now();
        last = Some(build());
        secs.push(adjust(started.elapsed().as_secs_f64()));
    }
    (last.expect("count > 0"), stats::median(&mut secs))
}

/// Print both rulers' raw medians on stderr after a run, read with the
/// server stopped, so host drift can be read apart from program change.
/// The compute phase prints its own, read per sample.
fn report_rulers() {
    let mut rulers = ruler::Rulers::new();
    let readings: Vec<ruler::Reading> = (0..15).map(|_| rulers.read()).collect();
    let mut mul: Vec<f64> = readings.iter().map(|r| r.mul_ns).collect();
    let mut dispatch: Vec<f64> = readings.iter().map(|r| r.dispatch_ns).collect();
    eprintln!(
        "raw: {{\"ruler.mul_us\": {}, \"ruler.dispatch_us\": {}}}",
        stats::median(&mut mul) / 1e3,
        stats::median(&mut dispatch) / 1e3
    );
}

/// An end-to-end run on `backend`: set up the compute rig and the server
/// (`setup_s` is the sum of their median set-up times), then run the
/// compute, kem-serve and session-chat phases one after another.
fn run(backend: BackendKind, seed: u64, seconds: f64) -> Report {
    let (rig, rig_setup_s) = compute::setup(seed, backend);
    let (server, serve_setup_s) = serve::Running::setup(seed);
    // `peak_rss_mib` covers the traffic, not the set-up churn.
    proc::reset_peak_rss();
    let mut report = Report::new(0, 0);
    compute::run(rig, COMPUTE_SHARE * seconds, &mut report);
    serve::run_kem(&server, seed, backend, KEM_SHARE * seconds, &mut report);
    serve::run_chat(&server, seed, backend, CHAT_SHARE * seconds, &mut report);
    report.add_counts(0, server.stop().errors);
    report.metric("setup_s", rig_setup_s + serve_setup_s, "s");
    eprintln!("setup: {{\"rig_s\": {rig_setup_s}, \"server_s\": {serve_setup_s}}}");
    report.metric("peak_rss_mib", proc::peak_rss_mib(), "MiB");
    report_rulers();
    report
}

struct Args {
    backend: BackendKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let backend = match workload.ok_or("--workload is required")?.as_str() {
        "ct" => BackendKind::Ct,
        "hw" => BackendKind::Hw,
        other => return Err(format!("unknown workload {other} (expected ct|hw)")),
    };
    Ok(Args {
        backend,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        trace::run(args.seed, args.seconds)
    } else {
        run(args.backend, args.seed, args.seconds)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
