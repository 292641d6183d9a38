//! `campaign_lstm`: a monitored population campaign, as `cohort_campaign`
//! runs it — a 1000-member `Cohort::sample` Glucosym population stepped
//! through one simulated day (288 steps) per pass by `CohortEngine`, with
//! `CohortLstmBridge` streaming every record into a stateful
//! `LstmSessionPool` (f64 engine, trace recording off). No socket, no
//! shard: serving changes should not move it, `nn`/`stream` kernels
//! should.
//!
//! As many passes (each with the next seed-derived day) run as fit in
//! `--seconds` of engine time, at least one. Checks: every member-step yields exactly
//! one verdict, and the verdicts of a few sampled members equal solo
//! stateful stepping (`LstmStreamSession`) of the same records.

use std::time::{Duration, Instant};

use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::{
    CohortLstmBridge, GuardedVerdict, LstmEngine, LstmSessionPool, LstmStreamSession,
    MonitorBundle, MonitorKind,
};
use cpsmon_nn::LstmNet;
use cpsmon_serve::shard::ServingBundle;
use cpsmon_sim::trace::StepRecord;
use cpsmon_sim::{Cohort, CohortEngine, CohortObserver, SimulatorKind};

use crate::{
    median, peak_rss_mb, percentile, reset_peak_rss, rss_mb, timed_setup, Args, Bench, Report,
};

const MEMBERS: usize = 1000;
const STEPS: usize = 288;
/// Share of members with a sampled pump fault, as in `cohort_campaign`.
const FAULT_RATIO: f64 = 0.25;
/// Members whose verdicts are re-derived by solo stepping.
const SAMPLED: usize = 3;
const SETUP_REPS: usize = 31;

/// Wraps the bridge to time every record from its push to the end of the
/// drain that emits its verdict, keeping each cohort step's median and
/// 99th-percentile record→verdict latency, and to keep the sampled
/// members' records for the solo check. With `traced`, it also
/// accumulates the time spent inside each bridge call.
struct Timed<'b, 'p, 'm> {
    bridge: &'b mut CohortLstmBridge<'p, 'm>,
    watch: [usize; SAMPLED],
    watched: Vec<Vec<StepRecord>>,
    /// This step's push instants, in push order.
    pushed: Vec<Instant>,
    lat_ms: Vec<f64>,
    step_p50_ms: Vec<f64>,
    step_p99_ms: Vec<f64>,
    traced: bool,
    push: Duration,
    pushes: u64,
    drain: Duration,
}

impl CohortObserver for Timed<'_, '_, '_> {
    fn on_step(&mut self, member: usize, step: usize, record: &StepRecord) {
        self.pushed.push(Instant::now());
        if let Some(w) = self.watch.iter().position(|&m| m == member) {
            self.watched[w].push(*record);
        }
        if self.traced {
            let t = Instant::now();
            self.bridge.on_step(member, step, record);
            self.push += t.elapsed();
            self.pushes += 1;
        } else {
            self.bridge.on_step(member, step, record);
        }
    }

    fn on_step_end(&mut self, step: usize) {
        let t = Instant::now();
        self.bridge.on_step_end(step);
        let end = Instant::now();
        if self.traced {
            self.drain += end - t;
        }
        // Every verdict of the step leaves with the drain, so latencies
        // fall in push order: reversed, they are already sorted.
        self.lat_ms.clear();
        self.lat_ms.extend(
            self.pushed
                .iter()
                .rev()
                .map(|&t| (end - t).as_secs_f64() * 1e3),
        );
        self.pushed.clear();
        if !self.lat_ms.is_empty() {
            self.step_p50_ms.push(percentile(&self.lat_ms, 50.0));
            self.step_p99_ms.push(percentile(&self.lat_ms, 99.0));
        }
    }
}

/// One day's cohort engine for pass `day` of the run seeded `seed`.
fn day_engine(cohort: &Cohort, seed: u64, day: u64) -> CohortEngine {
    let mut engine = cohort.engine(STEPS, seed.wrapping_add(day), FAULT_RATIO);
    engine.set_recording(false);
    engine
}

/// Totals of a timed series of passes.
#[derive(Default)]
struct Passes {
    engine_s: f64,
    member_steps: u64,
    /// Per pass: member-steps per second.
    day_rate: Vec<f64>,
    /// Per cohort step: the median and 99th-percentile record→verdict
    /// latency.
    step_p50_ms: Vec<f64>,
    step_p99_ms: Vec<f64>,
    /// Per cohort step: `advance` time minus the observer's time.
    advance_ms: Vec<f64>,
    push_ns: f64,
    drain_ms: f64,
    wrong_counts: u64,
    sampled: Vec<(usize, Vec<StepRecord>, Vec<GuardedVerdict>)>,
}

/// Runs as many one-day passes as fit in `seconds` of engine time, at
/// least one.
fn run_passes(
    net: &LstmNet,
    serving: &ServingBundle,
    cohort: &Cohort,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Passes {
    let cfg = serving.feature_config();
    let normalizer = &serving.bundle().normalizer;
    let mut pool = LstmSessionPool::new(LstmEngine::F64(net), cfg, normalizer, MEMBERS);
    let mut out = Passes::default();
    let (mut push, mut drain, mut pushes) = (Duration::ZERO, Duration::ZERO, 0u64);
    // The members re-derived by solo stepping, picked from the seed.
    let watch: [usize; SAMPLED] =
        std::array::from_fn(|i| (seed.wrapping_mul(0x9e37_79b9) as usize + i * 331) % MEMBERS);
    let mut day = 0u64;
    while day == 0 || out.engine_s * (day + 1) as f64 / day as f64 <= seconds {
        let mut engine = day_engine(cohort, seed, day);
        pool.reset_all();
        let mut bridge = CohortLstmBridge::new(&mut pool);
        let mut obs = Timed {
            bridge: &mut bridge,
            watch,
            watched: (0..SAMPLED).map(|_| Vec::with_capacity(STEPS)).collect(),
            pushed: Vec::with_capacity(MEMBERS),
            lat_ms: Vec::with_capacity(MEMBERS),
            step_p50_ms: Vec::with_capacity(STEPS),
            step_p99_ms: Vec::with_capacity(STEPS),
            traced,
            push: Duration::ZERO,
            pushes: 0,
            drain: Duration::ZERO,
        };
        let t0 = Instant::now();
        if traced {
            loop {
                let (p0, d0) = (obs.push, obs.drain);
                let t = Instant::now();
                if !engine.advance(&mut obs) {
                    break;
                }
                let inside = (obs.push - p0) + (obs.drain - d0);
                out.advance_ms
                    .push((t.elapsed().saturating_sub(inside)).as_secs_f64() * 1e3);
            }
        } else {
            while engine.advance(&mut obs) {}
        }
        let day_s = t0.elapsed().as_secs_f64();
        out.engine_s += day_s;
        out.day_rate.push((MEMBERS * STEPS) as f64 / day_s);
        push += obs.push;
        drain += obs.drain;
        pushes += obs.pushes;
        out.step_p50_ms.append(&mut obs.step_p50_ms);
        out.step_p99_ms.append(&mut obs.step_p99_ms);
        let watched = std::mem::take(&mut obs.watched);
        let verdicts = bridge.take_verdicts();
        out.member_steps += (MEMBERS * STEPS) as u64;
        if verdicts.len() != MEMBERS * STEPS {
            out.wrong_counts += 1;
        }
        if day == 0 {
            for (w, records) in watch.iter().zip(watched) {
                let mine = verdicts
                    .iter()
                    .filter(|(m, _, _)| m == w)
                    .map(|(_, _, v)| *v)
                    .collect();
                out.sampled.push((*w, records, mine));
            }
        }
        day += 1;
    }
    out.push_ns = push.as_nanos() as f64 / pushes.max(1) as f64;
    out.drain_ms = drain.as_secs_f64() * 1e3 / out.step_p50_ms.len().max(1) as f64;
    out
}

pub fn run(bench: &Bench, args: &Args, report: &mut Report) -> Result<(), String> {
    let path = bench.bundle_path(SimulatorKind::Glucosym, MonitorKind::Lstm);
    // Set-up: bundle load, cohort sampling, engine and pool construction.
    let (setup_s, (serving, cohort)) = timed_setup(SETUP_REPS, || {
        let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
        let bundle =
            MonitorBundle::load(&mut std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
        let serving = ServingBundle::new(bundle);
        let cohort = Cohort::sample(SimulatorKind::Glucosym, args.seed, MEMBERS);
        let engine = day_engine(&cohort, args.seed, 0);
        let net = lstm_net(serving.bundle())?;
        let pool = LstmSessionPool::new(
            LstmEngine::F64(net),
            serving.feature_config(),
            &serving.bundle().normalizer,
            MEMBERS,
        );
        std::hint::black_box((&engine, &pool));
        drop((engine, pool));
        Ok((serving, cohort))
    })?;
    let net = lstm_net(serving.bundle())?;

    // Peak memory from here on: the pool, the engines and their passes.
    report.note("rss_before_mb", rss_mb("self").unwrap_or(f64::NAN));
    reset_peak_rss()?;
    let untraced = run_passes(net, &serving, &cohort, args.seed, args.seconds, false);
    check(&untraced, &serving, net, report);
    // Medians over passes and over cohort steps, so a burst of contention
    // from outside moves them by a few ranks.
    let rate = median(&untraced.day_rate);
    report.attempted = untraced.member_steps;
    report.failed = 0;
    report.note("days", untraced.member_steps / (MEMBERS * STEPS) as u64);
    report.note("engine", "f64");
    report.set("setup_s", setup_s);
    report.set("verdict_p50_ms", median(&untraced.step_p50_ms));
    report.set("verdict_p99_ms", median(&untraced.step_p99_ms));
    report.set("goodput_rps", rate);
    report.set(
        "peak_rss_mb",
        peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );
    if !args.trace {
        return Ok(());
    }
    let traced = run_passes(net, &serving, &cohort, args.seed, args.seconds, true);
    check(&traced, &serving, net, report);
    let traced_rate = median(&traced.day_rate);
    report.set("sim.advance_ms", median(&traced.advance_ms));
    report.set("stream.push_ns", traced.push_ns);
    report.set("stream.drain_ms", traced.drain_ms);
    report.set("trace.overhead_pct", (rate / traced_rate - 1.0) * 100.0);
    Ok(())
}

fn lstm_net(bundle: &MonitorBundle) -> Result<&LstmNet, String> {
    match &bundle.monitor.model {
        MonitorModel::Lstm(net) => Ok(net),
        _ => Err("the LSTM bundle does not hold an LSTM network".into()),
    }
}

fn check(p: &Passes, serving: &ServingBundle, net: &LstmNet, report: &mut Report) {
    report.check(p.wrong_counts == 0, || {
        format!(
            "{} passes did not yield members x steps = {} verdicts",
            p.wrong_counts,
            MEMBERS * STEPS
        )
    });
    for (member, records, verdicts) in &p.sampled {
        let mut solo = LstmStreamSession::new(
            LstmEngine::F64(net),
            serving.feature_config(),
            &serving.bundle().normalizer,
        );
        let same = records.len() == verdicts.len()
            && records.iter().zip(verdicts).all(|(rec, v)| {
                let s = solo.step(rec);
                s.step == v.verdict.step
                    && s.label == v.verdict.label
                    && s.proba.to_bits() == v.verdict.proba.to_bits()
            });
        report.check(same, || {
            format!("member {member}: pooled verdicts differ from solo stateful stepping")
        });
    }
}
