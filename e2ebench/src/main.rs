//! End-to-end benchmark of cpsmon.
//!
//! Three workloads, each driven from outside the program's own harnesses
//! and each generating its inputs from `--seed`:
//!
//! - `serve_mlp`: an open-loop 1000-patient fleet streamed over one
//!   loopback TCP connection into a `cpsmon serve` child process holding
//!   the MLP bundle (steady phase, then a burst still under capacity);
//! - `campaign_lstm`: a 1000-member Glucosym cohort simulated for one day
//!   per pass through `CohortEngine` → `CohortLstmBridge` →
//!   `LstmSessionPool`;
//! - `robustness_sweep`: the paper's Fig 9 σ×ε grid for the four ML
//!   monitors on both simulators through `SweepContext::sweep`.
//!
//! Usage (from the repository root, after `python3 e2ebench/run.py`
//! has built the binaries):
//!
//! ```text
//! cpsmon-e2ebench prepare
//! cpsmon-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `prepare` warms the bundle cache (training on first use) in a process
//! of its own, so that the loaded training context never counts toward a
//! workload run's peak memory.
//!
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs report the
//! per-layer metrics, timed around calls into each layer's public API
//! from this crate, plus the tracing overhead against an untraced pass
//! made in the same process. (The serve daemon pass is untraced in both
//! modes, so its overhead reads 0.) Every run also writes its metrics and
//! an environment stamp to `e2ebench/results/`.

mod campaign;
mod serve;
mod sweep;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cpsmon_bench::{Context, Scale};
use cpsmon_core::{MonitorBundle, MonitorKind};
use cpsmon_sim::SimulatorKind;

/// End-to-end metrics, in output order: every untraced run reports all
/// of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in output order: every traced run reports all of
/// them, with 0 for layers its workload does not pass through.
const PER_LAYER: [(&str, &str); 21] = [
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("shard.offer_ns", "ns"),
    ("shard.tick_us", "us"),
    ("shard.rows_per_tick", "count"),
    ("daemon.wait_ms", "ms"),
    ("shard.busy", "count"),
    ("daemon.dropped_frames", "count"),
    ("shard.shed_verdicts", "count"),
    ("health.transitions", "count"),
    ("shed_frac", "fraction"),
    ("failed_frac", "fraction"),
    ("gen.late_ms", "ms"),
    ("sim.advance_ms", "ms"),
    ("stream.push_ns", "ns"),
    ("stream.drain_ms", "ms"),
    ("attack.grad_ms", "ms"),
    ("attack.materialize_ms", "ms"),
    ("nn.predict_ms", "ms"),
    ("core.robust_err_us", "us"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["serve_mlp", "campaign_lstm", "robustness_sweep"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run reports: the output contract's counters, its
/// metrics by name, and free-form notes for the results file.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed correctness check: the run is reported as
    /// incorrect and the reason goes to stderr and the results file.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[e2ebench] CHECK FAILED: {msg}");
            self.notes.push(("check_failed".into(), msg));
            self.correct = false;
        }
    }
}

/// Shared inputs: the bundle cache and the bundles the serve and campaign
/// workloads load.
pub struct Bench {
    pub root: PathBuf,
    pub cache: PathBuf,
    pub cpsmon: PathBuf,
}

impl Bench {
    /// The standalone bundle file for one monitor of one simulator.
    pub fn bundle_path(&self, sim: SimulatorKind, kind: MonitorKind) -> PathBuf {
        self.cache.join(format!(
            "serve-{}-{}.bundle",
            sim.label().to_lowercase(),
            kind.tag()
        ))
    }

    /// Loads the full-scale context from the bundle cache, training (and
    /// caching) every monitor on first use.
    pub fn context(&self) -> Result<Context, String> {
        Context::load_or_build_in(Scale::Full, Some(&self.cache)).map_err(|e| e.to_string())
    }

    /// Makes sure the bundle cache is warm and the standalone bundles the
    /// serve and campaign workloads load exist; trains on first use. This
    /// is preparation, run as its own process before a workload run.
    fn prepare(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.cache).map_err(|e| e.to_string())?;
        let ctx = self.context()?;
        for kind in [MonitorKind::Mlp, MonitorKind::Lstm] {
            let sc = ctx.sim(SimulatorKind::Glucosym);
            let path = self.bundle_path(SimulatorKind::Glucosym, kind);
            let bundle =
                MonitorBundle::new(sc.expect_monitor(kind).clone(), &sc.ds, &sc.train_config);
            let stale = MonitorBundle::load_from_path(&path, bundle.fingerprint).is_err();
            if stale {
                bundle.save_to_path(&path).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of a process, in MB.
pub fn rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmRSS:")
}

fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Times `reps` independent set-ups and returns the median in seconds,
/// plus the last set-up's product. Each set-up's product is dropped
/// before the next is built, so at most one is alive at a time.
pub fn timed_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let v = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((median(&times), last.expect("reps > 0")))
}

fn cpu_features() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    ["avx2", "fma", "avx512f"]
        .iter()
        .map(|f| format!("{f}={}", flags.contains(f)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The environment stamp: what the numbers were measured on.
fn env_stamp(args: &Args, bench: &Bench) -> Vec<(String, String)> {
    let mut env = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "simd_backend".into(),
            cpsmon_nn::simd::backend().label().into(),
        ),
        (
            "simd_env".into(),
            std::env::var("CPSMON_SIMD").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "threads".into(),
            std::env::var("CPSMON_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu_features".into(), cpu_features()),
    ];
    for kind in [MonitorKind::Mlp, MonitorKind::Lstm] {
        let path = bench.bundle_path(SimulatorKind::Glucosym, kind);
        let fp = std::fs::File::open(&path)
            .ok()
            .and_then(|f| MonitorBundle::load(&mut std::io::BufReader::new(f)).ok())
            .map_or("missing".into(), |b| format!("{:016x}", b.fingerprint));
        env.push((format!("bundle_fingerprint_{}", kind.tag()), fp));
    }
    env
}

fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`
/// restricted to the metric list the run kind reports.
fn result_line(report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.get(name).unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// Writes every metric the run measured (both lists), its notes, and the
/// environment stamp to `e2ebench/results/<workload>-s<seed>-t<trace>.json`.
fn write_results(bench: &Bench, args: &Args, env: &[(String, String)], report: &Report) {
    let dir = bench.root.join("e2ebench").join("results");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v)| format!("{}:{}", json_str(n), json_num(*v)))
        .collect();
    let body = format!(
        "{{\"env\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"notes\":{}}}\n",
        object(env),
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(","),
        object(&report.notes)
    );
    let path = dir.join(format!(
        "{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("[e2ebench] warning: cannot write {}: {e}", path.display());
    }
}

fn run() -> Result<(), String> {
    let prepare_only = std::env::args().nth(1).as_deref() == Some("prepare");
    let args = if prepare_only { None } else { Some(parse_args()?) };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err("run from the repository root".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bench = Bench {
        cache: root.join("e2ebench").join("cache"),
        cpsmon: target.join("release").join("cpsmon"),
        root,
    };
    if !Path::new(&bench.cpsmon).is_file() {
        return Err(format!("{} not built", bench.cpsmon.display()));
    }
    let Some(args) = args else {
        return bench.prepare();
    };

    let env = env_stamp(&args, &bench);
    eprintln!("[e2ebench] env {}", object(&env));
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    match args.workload.as_str() {
        "serve_mlp" => serve::run(&bench, &args, &mut report)?,
        "campaign_lstm" => campaign::run(&bench, &args, &mut report)?,
        "robustness_sweep" => sweep::run(&bench, &args, &mut report)?,
        _ => unreachable!("workload validated by parse_args"),
    }
    if report.attempted == 0 {
        return Err("workload attempted nothing".into());
    }
    write_results(&bench, &args, &env, &report);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some((name, _)) = names
        .iter()
        .find(|(name, _)| !report.get(name).unwrap_or(0.0).is_finite())
    {
        return Err(format!("{name} was not measured"));
    }
    for (name, unit) in names {
        eprintln!(
            "[e2ebench] {name:<24} {:>14.4} {unit}",
            report.get(name).unwrap_or(0.0)
        );
    }
    println!("{}", object(&env));
    println!("{}", result_line(&report, names));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[e2ebench] error: {e}");
            ExitCode::FAILURE
        }
    }
}
