//! `serve_mlp`: an open-loop fleet over loopback TCP into a `cpsmon serve`
//! child process holding the MLP bundle. MLP inference costs about 3 µs
//! per record, so the daemon's IO shell — tick poll, channels, shard
//! locks, verdict log — sets latency.
//!
//! The fleet is 1000 Glucosym patients simulated by the benchmark itself
//! (`client::build_frames` caps out at 20 patients). Records go out
//! round-robin across patients on a fixed schedule: a steady phase well
//! under the daemon's capacity, then a burst at 1.5× the steady rate,
//! still under capacity so that no record fails on a healthy daemon. One
//! process, one connection, two threads: this thread writes on the
//! schedule, a reader thread collects verdicts. Each record's latency
//! runs from its *scheduled* send time, so a generator that falls behind
//! shows up in the latency rather than hiding it. A run whose generator
//! lagged past [`MAX_GEN_LATE_MS`] no longer drives an open loop and is
//! failed.
//!
//! Checks: every unshed verdict of a patient that got no Busy is
//! bit-identical to an offline `PipelineSession` replay of the same
//! records, and the client's tallies of records, Busy frames, verdicts and
//! shed verdicts reconcile with the daemon's `/stats`. A Busy answer in
//! the steady phase fails the run; in the burst, Busy answers and dropped
//! verdict frames are failures, counted in `failed`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cpsmon_core::{
    GuardPolicy, HealthState, MonitorBundle, MonitorKind, MonitorSession, PipelineSession,
};
use cpsmon_serve::shard::{IngestItem, IngestKind, OutEvent, ServingBundle, Shard};
use cpsmon_serve::{Frame, FrameDecoder, ServeConfig, PROTOCOL_VERSION};
use cpsmon_sim::trace::StepRecord;
use cpsmon_sim::{Cohort, SimulatorKind};

use crate::{median, peak_rss_mb, percentile, timed_setup, Args, Bench, Report};

/// Patients in the fleet — sized like the daemon's session tables.
const PATIENTS: usize = 1000;
/// Share of fleet members with a sampled pump fault, as in the campaigns.
const FAULT_RATIO: f64 = 0.25;
/// A burst-phase verdict counts toward goodput when it arrives within
/// this many milliseconds of its record's scheduled send time. The limit
/// sits inside the daemon's latency spread (one 1 ms tick poll plus
/// processing), so daemon slowness and speed-ups both move goodput;
/// goodput is capped at the offered burst rate.
const LATENCY_LIMIT_MS: f64 = 1.0;
/// A run whose generator sent its records later than this after their
/// scheduled times (99th percentile over the run) fails: it no longer
/// measured an open loop.
const MAX_GEN_LATE_MS: f64 = 10.0;
/// Steady-phase latency percentiles are taken per window of this many
/// seconds of schedule, and the median over all windows is reported, so
/// a stall moves the result by at most a rank or two.
const WINDOW_S: f64 = 0.5;
/// Share of the run spent in the steady phase; the rest is the burst.
const STEADY_SHARE: f64 = 0.7;
/// Fewest verdicts a window needs to count toward the steady latency
/// percentiles (1000 puts 10 samples beyond the 99th).
const MIN_WINDOW_SAMPLES: usize = 1000;
/// Daemon spawns timed for `setup_s`.
const SETUP_REPS: usize = 31;

/// Open-loop rate (records/s) of the steady phase, well under capacity.
const STEADY_RPS: f64 = 10_000.0;
/// Open-loop rate of the burst phase: 1.5× steady, still under capacity
/// (and so the ceiling of `goodput_rps`).
const BURST_RPS: f64 = 15_000.0;

/// The generated load: records, their encoded frames, and the schedule.
struct Load {
    /// `records[p][s]`: patient `p`'s record at step `s`.
    records: Vec<Vec<StepRecord>>,
    /// All step frames back to back, in send order (record `k` is step
    /// `k / PATIENTS` of patient `k % PATIENTS`).
    bytes: Vec<u8>,
    /// `offsets[k]..offsets[k + 1]` is record `k`'s frame.
    offsets: Vec<usize>,
    steady_steps: usize,
    steps: usize,
    steady_s: f64,
    burst_s: f64,
}

impl Load {
    fn generate(seed: u64, seconds: f64) -> Load {
        let steady_steps = (STEADY_RPS * STEADY_SHARE * seconds / PATIENTS as f64).round() as usize;
        let burst_steps =
            (BURST_RPS * (1.0 - STEADY_SHARE) * seconds / PATIENTS as f64).round() as usize;
        let steps = steady_steps + burst_steps;
        // Phase lengths exactly as scheduled, after rounding to whole steps.
        let steady_s = (steady_steps * PATIENTS) as f64 / STEADY_RPS;
        let burst_s = (burst_steps * PATIENTS) as f64 / BURST_RPS;
        let traces = Cohort::sample(SimulatorKind::Glucosym, seed, PATIENTS)
            .engine(steps, seed, FAULT_RATIO)
            .run();
        let records: Vec<Vec<StepRecord>> = traces.iter().map(|t| t.records().to_vec()).collect();
        let mut bytes = Vec::with_capacity(PATIENTS * steps * 65);
        let mut offsets = Vec::with_capacity(PATIENTS * steps + 1);
        for s in 0..steps {
            for (p, recs) in records.iter().enumerate() {
                offsets.push(bytes.len());
                Frame::Step {
                    patient: p as u64,
                    seq: s as u32,
                    rec: recs[s],
                }
                .encode_into(&mut bytes);
            }
        }
        offsets.push(bytes.len());
        Load {
            records,
            bytes,
            offsets,
            steady_steps,
            steps,
            steady_s,
            burst_s,
        }
    }

    fn total(&self) -> usize {
        self.offsets.len() - 1
    }

    fn steady_records(&self) -> usize {
        self.steady_steps * PATIENTS
    }

    /// Steady-phase windows of the schedule.
    fn windows(&self) -> usize {
        (self.steady_s / WINDOW_S).ceil() as usize
    }

    /// The steady-phase window record `k` is scheduled in.
    fn window_of(&self, k: usize) -> usize {
        (self.sched(k) / WINDOW_S) as usize
    }

    /// Scheduled send time of record `k`, in seconds from the start.
    fn sched(&self, k: usize) -> f64 {
        let ks = self.steady_records();
        if k < ks {
            k as f64 / STEADY_RPS
        } else {
            self.steady_s + (k - ks) as f64 / BURST_RPS
        }
    }
}

/// A `cpsmon serve` child with its ingest and admin addresses.
struct Daemon {
    child: Child,
    ingest: String,
    admin: String,
    /// Held open (unread) so the daemon's final stderr lines still have
    /// a pipe to go to; they are far smaller than the pipe buffer.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Spawns the daemon and waits until it reports both listeners.
    fn spawn(bench: &Bench, bundle: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(&bench.cpsmon)
            .arg("serve")
            .arg(bundle)
            .args(["--addr", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bench.cpsmon.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // The startup lines are read on a helper thread so a silent child
        // cannot hang the benchmark; the helper ends with the startup.
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let (mut ingest, mut admin) = (None, None);
            let mut line = String::new();
            while ingest.is_none() || admin.is_none() {
                line.clear();
                if !matches!(stderr.read_line(&mut line), Ok(n) if n > 0) {
                    break;
                }
                if let Some(a) = line.strip_prefix("[cpsmon] ingest on ") {
                    ingest = Some(a.trim().to_string());
                } else if let Some(a) = line.strip_prefix("[cpsmon] admin on http://") {
                    admin = Some(a.trim().to_string());
                }
            }
            let _ = tx.send(());
            (ingest.zip(admin), stderr)
        });
        if rx.recv_timeout(Duration::from_secs(60)).is_err() {
            // Killing the child closes the pipe, which ends the helper.
            let _ = child.kill();
        }
        let (addrs, stderr) = helper
            .join()
            .map_err(|_| "stderr reader panicked".to_string())?;
        let mut daemon = Daemon {
            child,
            ingest: String::new(),
            admin: String::new(),
            _stderr: stderr,
        };
        match addrs {
            Some((ingest, admin)) => {
                daemon.ingest = ingest;
                daemon.admin = admin;
                Ok(daemon)
            }
            None => {
                daemon.kill();
                Err("daemon exited before reporting its listeners".into())
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGTERM, then wait for the clean-shutdown exit (SIGKILL after 30 s).
    fn stop(mut self) -> Result<(), String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill(2)` takes plain integers; `pid` is our own child,
        // which has not been waited on yet, so the id cannot be reused.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not shut down within 30 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// The daemon's `/stats` counters summed over shards.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    offered: u64,
    busy: u64,
    verdicts: u64,
    shed_verdicts: u64,
    ticks: u64,
    transitions: u64,
    dropped_frames: u64,
}

fn scrape_stats(admin: &str) -> Result<Stats, String> {
    let mut s = TcpStream::connect(admin).map_err(|e| format!("admin connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /stats HTTP/1.0\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("admin read: {e}"))?;
    let body = resp.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let sum = |key: &str| -> u64 {
        let pat = format!("\"{key}\":");
        body.match_indices(&pat)
            .filter_map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse::<u64>().ok()
            })
            .sum()
    };
    if !body.contains("\"shards\"") {
        return Err(format!("unexpected /stats body: {body}"));
    }
    Ok(Stats {
        offered: sum("offered"),
        busy: sum("busy"),
        verdicts: sum("verdicts"),
        shed_verdicts: sum("shed_verdicts"),
        ticks: sum("ticks"),
        transitions: sum("transitions"),
        dropped_frames: sum("dropped_frames"),
    })
}

/// What the reader thread observed, indexed by record `k`.
struct Observed {
    /// Arrival time (s from start) of record `k`'s verdict, NaN if none.
    recv: Vec<f64>,
    label: Vec<u8>,
    proba: Vec<u64>,
    health: Vec<u8>,
    shed: Vec<bool>,
    verdicts: u64,
    shed_verdicts: u64,
    duplicates: u64,
    busy: Vec<u32>,
    /// Busy answers that arrived before the burst was scheduled to start.
    steady_busy: u64,
    errors: u64,
    clean_close: bool,
}

/// One daemon pass over the load.
struct Pass {
    obs: Observed,
    stats: Stats,
    rss_mb: f64,
    late_ms: Vec<f64>,
}

fn read_verdicts(mut stream: TcpStream, load: &Load, t0: Instant, seen: &AtomicU64) -> Observed {
    let n = load.total();
    let mut obs = Observed {
        recv: vec![f64::NAN; n],
        label: vec![0; n],
        proba: vec![0; n],
        health: vec![0; n],
        shed: vec![false; n],
        verdicts: 0,
        shed_verdicts: 0,
        duplicates: 0,
        busy: vec![0; PATIENTS],
        steady_busy: 0,
        errors: 0,
        clean_close: false,
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 1 << 16];
    'read: loop {
        let got = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(got) => got,
        };
        let now = t0.elapsed().as_secs_f64();
        decoder.feed(&buf[..got]);
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(Frame::Verdict {
                    patient,
                    step,
                    label,
                    proba,
                    health,
                    shed,
                })) => {
                    obs.verdicts += 1;
                    obs.shed_verdicts += u64::from(shed);
                    let k = step as usize * PATIENTS + patient as usize;
                    if patient as usize >= PATIENTS || k >= n {
                        obs.errors += 1;
                    } else if !obs.recv[k].is_nan() {
                        obs.duplicates += 1;
                    } else {
                        obs.recv[k] = now;
                        obs.label[k] = label;
                        obs.proba[k] = proba.to_bits();
                        obs.health[k] = health;
                        obs.shed[k] = shed;
                    }
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Some(Frame::Busy { patient, .. })) => {
                    if let Some(b) = obs.busy.get_mut(patient as usize) {
                        *b += 1;
                    }
                    obs.steady_busy += u64::from(now < load.steady_s);
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Some(Frame::Bye)) => {
                    obs.clean_close = true;
                    break 'read;
                }
                Ok(Some(_)) => obs.errors += 1,
                Err(_) => {
                    obs.errors += 1;
                    break 'read;
                }
            }
        }
    }
    obs
}

/// Streams the load into a fresh connection on its schedule, collects
/// the verdicts, and scrapes the daemon's final `/stats`.
fn drive(daemon: &Daemon, load: &Load, window: usize) -> Result<Pass, String> {
    let mut stream = TcpStream::connect(&daemon.ingest).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let n = load.total();
    // Verdicts plus Busy answers due back when nothing is dropped.
    let due = (PATIENTS * (load.steps + 1).saturating_sub(window)) as u64;
    let seen = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_verdicts(read_half, load, t0, &seen));
        let mut late_ms = Vec::with_capacity(n);
        let mut k = 0;
        while k < n {
            let now = t0.elapsed().as_secs_f64();
            let mut end = k;
            while end < n && load.sched(end) <= now {
                end += 1;
            }
            if end > k {
                late_ms.extend((k..end).map(|j| (now - load.sched(j)) * 1e3));
                if stream
                    .write_all(&load.bytes[load.offsets[k]..load.offsets[end]])
                    .is_err()
                {
                    break;
                }
                k = end;
            }
            if k < n {
                let wait = load.sched(k) - t0.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
        }
        // Let in-flight verdicts arrive before closing: the daemon
        // answers Goodbye once its queues are empty, which can precede
        // the dispatch of the last tick's verdicts.
        let mut last = (seen.load(Ordering::Relaxed), Instant::now());
        while last.0 < due && last.1.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
            let now = seen.load(Ordering::Relaxed);
            if now != last.0 {
                last = (now, Instant::now());
            }
        }
        let _ = stream.write_all(&Frame::Goodbye.encode());
        let obs = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        let _ = stream.shutdown(Shutdown::Both);
        let stats = scrape_stats(&daemon.admin)?;
        let rss_mb = peak_rss_mb(&daemon.pid()).ok_or("cannot read daemon VmHWM")?;
        Ok(Pass {
            obs,
            stats,
            rss_mb,
            late_ms,
        })
    })
}

/// Per patient, per step: the offline `(label, proba bits, health)`.
type Expected = Vec<Vec<Option<(u8, u64, u8)>>>;

/// Offline reference: every patient's records through a guarded
/// `PipelineSession`, as `(label, proba bits, health)` per step (`None`
/// during warm-up). Split over two threads by patient.
fn offline_replay(bundle: &MonitorBundle, load: &Load) -> Expected {
    let serving = ServingBundle::new(bundle.clone());
    let replay_one = |recs: &[StepRecord]| -> Vec<Option<(u8, u64, u8)>> {
        let core = MonitorSession::new(
            &bundle.monitor,
            serving.feature_config(),
            bundle.normalizer.clone(),
        );
        let mut session =
            PipelineSession::new(core).with_guard(GuardPolicy::aps(), *serving.fallback());
        recs.iter()
            .map(|rec| {
                session.step(rec).map(|gv| {
                    let health = match gv.health {
                        HealthState::Healthy => 0,
                        HealthState::Degraded => 1,
                        HealthState::Fallback => 2,
                    };
                    (gv.verdict.label as u8, gv.verdict.proba.to_bits(), health)
                })
            })
            .collect()
    };
    let half = PATIENTS / 2;
    std::thread::scope(|scope| {
        let (a, b) = load.records.split_at(half);
        let first = scope.spawn(|| a.iter().map(|r| replay_one(r)).collect::<Vec<_>>());
        let mut out: Vec<_> = b.iter().map(|r| replay_one(r)).collect();
        let mut head = first.join().expect("replay thread");
        head.append(&mut out);
        head
    })
}

/// One pass's end-to-end numbers.
struct Outcome {
    p50_ms: f64,
    p99_ms: f64,
    goodput: f64,
    attempted: u64,
    failed: u64,
}

/// Checks one pass and computes its end-to-end numbers.
fn check_pass(
    pass: &Pass,
    load: &Load,
    window: usize,
    expected: &Expected,
    report: &mut Report,
) -> Outcome {
    let obs = &pass.obs;
    let st = &pass.stats;
    let sent = load.total() as u64;
    let busy: u64 = obs.busy.iter().map(|&b| u64::from(b)).sum();
    report.check(obs.errors == 0 && obs.duplicates == 0, || {
        format!(
            "{} error frames, {} duplicate verdicts",
            obs.errors, obs.duplicates
        )
    });
    // The steady phase runs well under capacity: a Busy there is a fault.
    report.check(obs.steady_busy == 0, || {
        format!("{} Busy answers in the steady phase", obs.steady_busy)
    });
    report.check(obs.clean_close, || {
        "daemon did not answer Goodbye with Bye".into()
    });
    // Both sides must agree on every record's fate.
    report.check(st.busy == busy, || {
        format!("client saw {busy} Busy, daemon counted {}", st.busy)
    });
    report.check(st.offered == sent - busy, || {
        format!(
            "daemon accepted {} of {sent} records with {busy} Busy",
            st.offered
        )
    });
    report.check(st.verdicts == obs.verdicts + st.dropped_frames, || {
        format!(
            "daemon emitted {} verdicts, client got {} with {} frames dropped",
            st.verdicts, obs.verdicts, st.dropped_frames
        )
    });
    report.check(
        obs.shed_verdicts <= st.shed_verdicts
            && st.shed_verdicts <= obs.shed_verdicts + st.dropped_frames,
        || {
            format!(
                "client saw {} shed verdicts, daemon counted {}",
                obs.shed_verdicts, st.shed_verdicts
            )
        },
    );
    let accepted_verdicts: u64 = obs
        .busy
        .iter()
        .map(|&b| (load.steps - b as usize + 1).saturating_sub(window) as u64)
        .sum();
    report.check(st.verdicts == accepted_verdicts, || {
        format!(
            "daemon emitted {} verdicts for records that warrant {accepted_verdicts}",
            st.verdicts
        )
    });

    // Every steady-phase latency, per window of the schedule.
    let mut steady_lat: Vec<Vec<f64>> = vec![Vec::new(); load.windows()];
    let mut burst_lat = Vec::new();
    let mut burst_end = load.steady_s;
    let mut mismatches = 0u64;
    for (p, want) in expected.iter().enumerate() {
        for (s, want) in want.iter().enumerate().skip(window - 1) {
            let k = s * PATIENTS + p;
            if obs.recv[k].is_nan() {
                continue;
            }
            let lat = obs.recv[k] - load.sched(k);
            if s < load.steady_steps {
                steady_lat[load.window_of(k)].push(lat * 1e3);
            } else {
                burst_lat.push(lat * 1e3);
                burst_end = burst_end.max(obs.recv[k]);
            }
            // After a Busy the daemon's step index no longer equals the
            // send sequence (a Busy frame names no sequence number), so
            // only Busy-free patients are matched. Shed verdicts come
            // from the rule path by design.
            let comparable = !obs.shed[k] && obs.busy[p] == 0;
            if comparable && *want != Some((obs.label[k], obs.proba[k], obs.health[k])) {
                mismatches += 1;
            }
        }
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} verdicts differ from the offline replay")
    });
    let gen_late_ms = percentile(&pass.late_ms, 99.0);
    report.check(gen_late_ms <= MAX_GEN_LATE_MS, || {
        format!(
            "the generator ran {gen_late_ms:.2} ms late (p99), past the {MAX_GEN_LATE_MS} ms bound"
        )
    });
    let good = burst_lat.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
    for q in [50.0, 90.0, 99.0] {
        report.note(&format!("burst_p{q}_ms"), percentile(&burst_lat, q));
    }
    let attempted = (PATIENTS * (load.steps + 1 - window)) as u64;
    // Windows too short for a 99th percentile (the last, partial one)
    // are the only ones left out.
    let windows: Vec<&Vec<f64>> = steady_lat
        .iter()
        .filter(|lat| lat.len() >= MIN_WINDOW_SAMPLES)
        .collect();
    let windowed = |q: f64| median(&windows.iter().map(|w| percentile(w, q)).collect::<Vec<_>>());
    Outcome {
        p50_ms: windowed(50.0),
        p99_ms: windowed(99.0),
        // Over the burst as delivered: first scheduled send to last
        // verdict in.
        goodput: good as f64 / (burst_end - load.steady_s).max(load.burst_s),
        attempted,
        failed: attempted - obs.verdicts.min(attempted),
    }
}

/// Per-call costs of the sans-IO layers on the steady-phase frame stream,
/// replayed in-process: frames grouped by 1 ms of schedule (the daemon's
/// tick poll), decoded, offered to the same shard layout as the daemon,
/// ticked, and their verdicts encoded.
struct LayerCosts {
    decode_ns: f64,
    offer_ns: f64,
    tick_us: f64,
    encode_ns: f64,
}

fn replay_layers(bundle: &MonitorBundle, load: &Load) -> LayerCosts {
    let config = ServeConfig::default();
    let serving = ServingBundle::new(bundle.clone());
    let mut shards: Vec<Shard> = (0..config.shards)
        .map(|_| Shard::new(config.shard, serving.clone()))
        .collect();
    let mut decoder = FrameDecoder::new();
    decoder.feed(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    );
    let _ = decoder.next_frame();
    let (mut decode, mut offer, mut encode) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut ticks = Vec::new();
    let (mut frames, mut encoded) = (0u64, 0u64);
    let mut decoded = Vec::new();
    let mut out = Vec::new();
    let ks = load.steady_records();
    let mut k = 0;
    while k < ks {
        let bucket = (load.sched(k) * 1e3).floor();
        let mut end = k;
        while end < ks && (load.sched(end) * 1e3).floor() == bucket {
            end += 1;
        }
        decoded.clear();
        let t = Instant::now();
        decoder.feed(&load.bytes[load.offsets[k]..load.offsets[end]]);
        while let Ok(Some(frame)) = decoder.next_frame() {
            decoded.push(frame);
        }
        decode += t.elapsed();
        frames += (end - k) as u64;
        let t = Instant::now();
        for frame in &decoded {
            if let Frame::Step { patient, seq, rec } = *frame {
                let shard = &mut shards[(patient % config.shards as u64) as usize];
                let _ = shard.offer(IngestItem {
                    conn: 1,
                    patient,
                    seq,
                    kind: IngestKind::Step(rec),
                });
            }
        }
        offer += t.elapsed();
        for shard in &mut shards {
            if shard.queue_len() == 0 {
                continue;
            }
            let t = Instant::now();
            let events = shard.tick();
            ticks.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for ev in events {
                if let OutEvent::Verdict {
                    patient,
                    step,
                    label,
                    proba,
                    health,
                    shed,
                    ..
                } = ev
                {
                    out.clear();
                    Frame::Verdict {
                        patient,
                        step,
                        label,
                        proba,
                        health,
                        shed,
                    }
                    .encode_into(&mut out);
                    encoded += 1;
                }
            }
            encode += t.elapsed();
        }
        k = end;
    }
    LayerCosts {
        decode_ns: decode.as_nanos() as f64 / frames.max(1) as f64,
        offer_ns: offer.as_nanos() as f64 / frames.max(1) as f64,
        tick_us: ticks.iter().sum::<f64>() / ticks.len().max(1) as f64 * 1e6,
        encode_ns: encode.as_nanos() as f64 / encoded.max(1) as f64,
    }
}

pub fn run(bench: &Bench, args: &Args, report: &mut Report) -> Result<(), String> {
    let bundle_path = bench.bundle_path(SimulatorKind::Glucosym, MonitorKind::Mlp);
    let bundle = std::fs::File::open(&bundle_path)
        .map_err(|e| e.to_string())
        .and_then(|f| MonitorBundle::load(&mut BufReader::new(f)).map_err(|e| e.to_string()))?;
    let window = ServingBundle::new(bundle.clone()).feature_config().window;
    let load = Load::generate(args.seed, args.seconds);
    report.note("records", load.total());
    report.note("steady_rps", STEADY_RPS);
    report.note("burst_rps", BURST_RPS);

    // Set-up: daemon spawn until both listeners are up, bundle load
    // included.
    let (setup_s, _) = timed_setup(SETUP_REPS, || Daemon::spawn(bench, &bundle_path))?;
    let daemon = Daemon::spawn(bench, &bundle_path)?;
    let pass = drive(&daemon, &load, window)?;
    daemon.stop()?;
    // The reference replay runs after the timed pass so its CPU load
    // never overlaps the measurement.
    let expected = offline_replay(&bundle, &load);
    let out = check_pass(&pass, &load, window, &expected, report);
    let late_p99 = percentile(&pass.late_ms, 99.0);
    let st = pass.stats;
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.set("setup_s", setup_s);
    report.set("verdict_p50_ms", out.p50_ms);
    report.set("verdict_p99_ms", out.p99_ms);
    report.set("goodput_rps", out.goodput);
    report.set("peak_rss_mb", pass.rss_mb);
    // The daemon's own counters, from its final `/stats`.
    report.set(
        "shard.rows_per_tick",
        st.verdicts as f64 / st.ticks.max(1) as f64,
    );
    report.set("shard.busy", st.busy as f64);
    report.set("daemon.dropped_frames", st.dropped_frames as f64);
    report.set("shard.shed_verdicts", st.shed_verdicts as f64);
    report.set("health.transitions", st.transitions as f64);
    report.set(
        "shed_frac",
        pass.obs.shed_verdicts as f64 / pass.obs.verdicts.max(1) as f64,
    );
    report.set("failed_frac", out.failed as f64 / out.attempted as f64);
    report.set("gen.late_ms", late_p99);
    if !args.trace {
        return Ok(());
    }

    // The daemon pass above is untraced in both modes (the program has no
    // spans yet), so tracing adds nothing to its end-to-end numbers. The
    // traced run adds the in-process replay of the sans-IO layers, and the
    // rest of the steady p50 is transport, tick poll and channel wait.
    let layers = replay_layers(&bundle, &load);
    report.set("protocol.decode_ns", layers.decode_ns);
    report.set("protocol.encode_ns", layers.encode_ns);
    report.set("shard.offer_ns", layers.offer_ns);
    report.set("shard.tick_us", layers.tick_us);
    let in_process_ms =
        (layers.decode_ns + layers.offer_ns + layers.encode_ns) / 1e6 + layers.tick_us / 1e3;
    report.set("daemon.wait_ms", out.p50_ms - in_process_ms);
    report.set("trace.overhead_pct", 0.0);
    Ok(())
}
