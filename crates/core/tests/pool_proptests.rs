//! Property-based tests of the stateful pooled-LSTM engine (DESIGN.md §12):
//! pool transparency. A [`LstmSessionPool`] of any size, driven by any push
//! schedule — lockstep, ragged, or a single session — must emit verdicts
//! bit-identical to running each session individually through
//! [`LstmStreamSession`], for both the exact f64 engine and the f32 serving
//! engine. This is the guarantee that lets deployments batch aggressively
//! without re-validating monitor behaviour. Pools larger than one
//! `par::PREDICT_CHUNK` row chunk step their chunks on parallel workers, so
//! the same verdicts must also come out for every worker count.

use cpsmon_core::{FeatureConfig, LstmEngine, LstmSessionPool, LstmStreamSession, Normalizer};
use cpsmon_nn::init::random_normal;
use cpsmon_nn::par::{self, ThreadsGuard};
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{LstmConfig, LstmNet};
use cpsmon_sim::StepRecord;
use proptest::prelude::*;

const FEATURES_PER_STEP: usize = 6;

/// A small (but real) stacked LSTM plus featurization fitted on the same
/// synthetic distribution the records are drawn from.
fn fixture(seed: u64) -> (FeatureConfig, Normalizer, LstmNet) {
    let cfg = FeatureConfig::default();
    let mut rng = SmallRng::new(seed ^ 0xf17);
    let fit = random_normal(64, cfg.window * FEATURES_PER_STEP, 1.0, &mut rng);
    let norm = Normalizer::fit(&fit);
    let net = LstmNet::new(&LstmConfig {
        feature_dim: FEATURES_PER_STEP,
        timesteps: cfg.window,
        hidden: vec![10, 7],
        classes: 2,
        seed,
    });
    (cfg, norm, net)
}

fn record_strategy() -> impl Strategy<Value = StepRecord> {
    (
        40.0f64..400.0,
        -3.0f64..3.0,
        0.0f64..5.0,
        0.0f64..5.0,
        any::<bool>(),
    )
        .prop_map(|(bg, noise, iob, rate, carb)| StepRecord {
            bg_true: bg,
            bg_sensor: bg + noise,
            iob,
            commanded_rate: rate,
            delivered_rate: rate,
            carbs: if carb { 45.0 } else { 0.0 },
        })
}

/// Pool size plus a per-tick / per-session push mask (the ragged schedule).
fn schedule_strategy() -> impl Strategy<Value = (usize, Vec<Vec<bool>>)> {
    (1usize..6).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), 1..10),
        )
    })
}

/// Per tick and session: `(label, proba bits, step index)` if a verdict
/// was emitted.
type VerdictTrace = Vec<Vec<Option<(usize, u64, usize)>>>;

/// Builds the engine under test (f64 or f32) over a fixture network.
type MakeEngine = dyn Fn(&LstmNet) -> LstmEngine<'_>;

/// Drives one pool and `n` individual sessions through the same schedule,
/// asserts bit-identical verdicts tick by tick, and returns the pool's
/// verdict trace.
fn assert_pool_transparent(
    make_engine: &MakeEngine,
    seed: u64,
    n: usize,
    schedule: &[Vec<bool>],
    records: &[StepRecord],
) -> VerdictTrace {
    let (cfg, norm, net) = fixture(seed);
    let mut pool = LstmSessionPool::new(make_engine(&net), cfg, &norm, n);
    let mut singles: Vec<LstmStreamSession<'_>> = (0..n)
        .map(|_| LstmStreamSession::new(make_engine(&net), cfg, &norm))
        .collect();
    let mut rec_idx = 0usize;
    let mut trace = Vec::with_capacity(schedule.len());
    for tick in schedule {
        let mut expected: Vec<Option<(usize, u64, usize)>> = vec![None; n];
        for (i, &push) in tick.iter().enumerate() {
            if push {
                let rec = records[rec_idx % records.len()];
                rec_idx += 1;
                pool.push(i, &rec);
                let v = singles[i].step(&rec);
                expected[i] = Some((v.label, v.proba.to_bits(), v.step));
            }
        }
        let out = pool.drain_ready();
        for (i, want) in expected.iter().enumerate() {
            match (want, &out[i]) {
                (None, None) => {}
                (Some((label, proba_bits, step)), Some(got)) => {
                    assert_eq!(got.verdict.label, *label, "session {i} label");
                    assert_eq!(
                        got.verdict.proba.to_bits(),
                        *proba_bits,
                        "session {i} proba bits"
                    );
                    assert_eq!(got.verdict.step, *step, "session {i} step index");
                }
                (want, got) => {
                    panic!(
                        "session {i}: individual={want:?} pooled-emitted={}",
                        got.is_some()
                    );
                }
            }
        }
        trace.push(
            out.iter()
                .map(|v| {
                    v.as_ref()
                        .map(|g| (g.verdict.label, g.verdict.proba.to_bits(), g.verdict.step))
                })
                .collect(),
        );
    }
    trace
}

/// A pool spanning three row chunks (the last a single row), so every tick
/// fans out over the `par` workers when more than one thread is allowed.
const MULTI_CHUNK_POOL: usize = 2 * par::PREDICT_CHUNK + 1;

#[test]
fn multi_chunk_pool_is_bit_identical_to_solo_sessions_on_every_thread_count() {
    let n = MULTI_CHUNK_POOL;
    let mut rng = SmallRng::new(0x5eed);
    let records: Vec<StepRecord> = (0..97)
        .map(|_| {
            let bg = rng.uniform_range(40.0, 400.0);
            let rate = rng.uniform_range(0.0, 5.0);
            StepRecord {
                bg_true: bg,
                bg_sensor: bg + rng.normal_with(0.0, 1.5),
                iob: rng.uniform_range(0.0, 5.0),
                commanded_rate: rate,
                delivered_rate: rate,
                carbs: if rng.bernoulli(0.1) { 45.0 } else { 0.0 },
            }
        })
        .collect();
    // Even ticks are lockstep (the pool state steps in place). Odd ticks
    // take the gather/scatter path, alternating between skipping a rotating
    // third of the sessions (a packed state of two chunks) and pushing only
    // every seventh (one chunk), so the packed state shrinks and regrows.
    let schedule: Vec<Vec<bool>> = (0..12)
        .map(|t| {
            (0..n)
                .map(|i| match t % 4 {
                    1 => (i + t) % 3 != 0,
                    3 => (i + t) % 7 == 0,
                    _ => true,
                })
                .collect()
        })
        .collect();
    let engines: [(&str, &MakeEngine); 2] = [
        ("f64", &|net| LstmEngine::F64(net)),
        ("f32", &|net| LstmEngine::f32_from(net)),
    ];
    for (label, make_engine) in engines {
        let traces: Vec<VerdictTrace> = [1usize, 2, 3]
            .into_iter()
            .map(|threads| {
                let _guard = ThreadsGuard::set(threads);
                assert_pool_transparent(make_engine, 77, n, &schedule, &records)
            })
            .collect();
        for (threads, trace) in [2, 3].into_iter().zip(&traces[1..]) {
            assert_eq!(trace, &traces[0], "{label} engine: {threads} threads vs 1");
        }
    }
}

proptest! {
    // Each case trains nothing (random weights are fine for bit-identity)
    // but steps two full engines; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_f64_engine_is_bit_identical_to_individual_sessions(
        seed in 0u64..1_000,
        (n, schedule) in schedule_strategy(),
        records in proptest::collection::vec(record_strategy(), 48),
    ) {
        assert_pool_transparent(&|net| LstmEngine::F64(net), seed, n, &schedule, &records);
    }

    #[test]
    fn pooled_f32_engine_is_bit_identical_to_individual_sessions(
        seed in 0u64..1_000,
        (n, schedule) in schedule_strategy(),
        records in proptest::collection::vec(record_strategy(), 48),
    ) {
        assert_pool_transparent(&|net| LstmEngine::f32_from(net), seed, n, &schedule, &records);
    }

    #[test]
    fn pool_of_one_matches_single_session_in_lockstep(
        seed in 0u64..1_000,
        ticks in 1usize..20,
        records in proptest::collection::vec(record_strategy(), 20),
    ) {
        let schedule: Vec<Vec<bool>> = vec![vec![true]; ticks];
        assert_pool_transparent(&|net| LstmEngine::F64(net), seed, 1, &schedule, &records);
        assert_pool_transparent(&|net| LstmEngine::f32_from(net), seed, 1, &schedule, &records);
    }
}
