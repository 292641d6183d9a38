//! Seeded multi-patient simulation campaigns.
//!
//! A campaign reproduces the paper's data-collection setup: many runs per
//! patient profile, a configurable fraction of them with injected pump
//! faults, using the simulator/controller pairing of the paper
//! (Glucosym + OpenAPS, T1DS2013 + Basal-Bolus).

use crate::basal_bolus::BasalBolusController;
use crate::engine::{ClosedLoop, StepObserver};
use crate::faults::PumpFault;
use crate::glucosym::GlucosymPatient;
use crate::meal::MealSchedule;
use crate::openaps::OpenApsController;
use crate::patient::PatientModel;
use crate::pump::InsulinPump;
use crate::sensor::Cgm;
use crate::t1ds::T1dsPatient;
use crate::trace::SimTrace;
use cpsmon_nn::rng::SmallRng;

/// Salt mixed into the campaign seed before forking per-run RNG streams.
/// Shared with the cohort engine so `CohortEngine::from_campaign` and
/// `Cohort::engine` fork the exact same streams as [`CampaignConfig::run`].
pub(crate) const CAMPAIGN_SALT: u64 = 0x6361_6d70_6169_676e;

/// The two APS simulation environments of the paper (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulatorKind {
    /// Glucosym-style patients driven by the OpenAPS-like controller.
    Glucosym,
    /// UVA-Padova-style patients driven by the Basal-Bolus protocol.
    T1ds2013,
}

impl SimulatorKind {
    /// Label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            SimulatorKind::Glucosym => "glucosym",
            SimulatorKind::T1ds2013 => "t1ds2013",
        }
    }

    /// Both simulators, in paper order.
    pub const ALL: [SimulatorKind; 2] = [SimulatorKind::Glucosym, SimulatorKind::T1ds2013];
}

impl std::fmt::Display for SimulatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builder for a simulation campaign.
///
/// # Examples
///
/// ```
/// use cpsmon_sim::{CampaignConfig, SimulatorKind};
///
/// let traces = CampaignConfig::new(SimulatorKind::T1ds2013)
///     .patients(1)
///     .runs_per_patient(1)
///     .steps(48)
///     .seed(3)
///     .run();
/// assert_eq!(traces.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    pub(crate) kind: SimulatorKind,
    pub(crate) patients: usize,
    pub(crate) runs_per_patient: usize,
    pub(crate) steps: usize,
    pub(crate) fault_ratio: f64,
    pub(crate) seed: u64,
}

impl CampaignConfig {
    /// Most patient profiles a campaign can draw (the paper's 20).
    pub const MAX_PATIENTS: usize = 20;

    /// Creates a campaign for the given simulator with paper-style
    /// defaults: 20 patients, 10 runs each, 24-hour scenarios, half of the
    /// runs fault-injected.
    pub fn new(kind: SimulatorKind) -> Self {
        Self {
            kind,
            patients: 20,
            runs_per_patient: 10,
            steps: 288,
            fault_ratio: 0.5,
            seed: 0,
        }
    }

    /// Number of patient profiles (at most [`Self::MAX_PATIENTS`],
    /// matching the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`Self::MAX_PATIENTS`].
    pub fn patients(mut self, n: usize) -> Self {
        assert!(
            (1..=Self::MAX_PATIENTS).contains(&n),
            "patients must be in 1..={}",
            Self::MAX_PATIENTS
        );
        self.patients = n;
        self
    }

    /// Number of runs per patient.
    pub fn runs_per_patient(mut self, n: usize) -> Self {
        assert!(n > 0, "runs_per_patient must be positive");
        self.runs_per_patient = n;
        self
    }

    /// Steps per run (5-minute steps).
    pub fn steps(mut self, n: usize) -> Self {
        assert!(n > 0, "steps must be positive");
        self.steps = n;
        self
    }

    /// Fraction of runs that get an injected pump fault.
    pub fn fault_ratio(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "fault_ratio must be in [0,1]");
        self.fault_ratio = r;
        self
    }

    /// Campaign seed; everything downstream is derived from it.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// The simulator kind.
    pub fn kind(&self) -> SimulatorKind {
        self.kind
    }

    /// Total number of runs this campaign will produce.
    pub fn total_runs(&self) -> usize {
        self.patients * self.runs_per_patient
    }

    /// Executes the campaign through the batched cohort engine.
    ///
    /// Bit-identical to [`run`](Self::run) — every run's RNG streams are
    /// forked the same way and every patient's floating-point op sequence
    /// is preserved by the structure-of-arrays integrators — but all runs
    /// advance together, one fused SIMD pass per Euler substep.
    pub fn run_batched(&self) -> Vec<SimTrace> {
        crate::cohort::CohortEngine::from_campaign(self).run()
    }

    /// Reassembles one campaign member in isolation: the exact patient,
    /// pump (with any drawn fault), CGM stream, and meal schedule that
    /// [`run`](Self::run) gives run `run` of patient `pid` — so a single
    /// member can be re-simulated under an observer (e.g. a mitigating
    /// monitor) and, with a no-op observer, reproduce the campaign trace
    /// bit for bit.
    ///
    /// The campaign root RNG is advanced through every earlier member's
    /// fork in campaign order, because forking mutates the root stream;
    /// this mirrors the loop structure of [`run`](Self::run) exactly.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= patients` or `run >= runs_per_patient`.
    pub fn member(&self, pid: usize, run: usize) -> MemberLoop {
        assert!(pid < self.patients, "pid {pid} out of range");
        assert!(run < self.runs_per_patient, "run {run} out of range");
        let mut root = SmallRng::new(self.seed ^ CAMPAIGN_SALT);
        let mut rng = None;
        'replay: for p in 0..self.patients {
            for r in 0..self.runs_per_patient {
                let forked = root.fork((p * 10_007 + r) as u64);
                if p == pid && r == run {
                    rng = Some(forked);
                    break 'replay;
                }
            }
        }
        let mut rng = rng.expect("member indices validated above");
        let meals = MealSchedule::generate(self.steps, &mut rng);
        let cgm = Cgm::typical(rng.fork(1));
        let glucosym_proto = match self.kind {
            SimulatorKind::Glucosym => Some(GlucosymPatient::from_profile(pid, self.seed)),
            SimulatorKind::T1ds2013 => None,
        };
        let t1ds_proto = match self.kind {
            SimulatorKind::Glucosym => None,
            SimulatorKind::T1ds2013 => Some(T1dsPatient::calibrated(pid, self.seed)),
        };
        let basal = match self.kind {
            SimulatorKind::Glucosym => {
                glucosym_proto
                    .as_ref()
                    .expect("proto built above")
                    .therapy()
                    .basal_rate
            }
            SimulatorKind::T1ds2013 => {
                t1ds_proto
                    .as_ref()
                    .expect("proto built above")
                    .therapy()
                    .basal_rate
            }
        };
        let fault = rng
            .bernoulli(self.fault_ratio)
            .then(|| PumpFault::sample(self.steps, basal, &mut rng));
        let pump = match fault {
            Some(f) => InsulinPump::with_fault(f),
            None => InsulinPump::healthy(),
        };
        let inner = match self.kind {
            SimulatorKind::Glucosym => MemberLoopInner::Glucosym(Box::new(ClosedLoop::new(
                glucosym_proto.expect("proto built above"),
                OpenApsController::new(),
                pump,
                cgm,
                meals,
            ))),
            SimulatorKind::T1ds2013 => MemberLoopInner::T1ds(Box::new(ClosedLoop::new(
                t1ds_proto.expect("proto built above"),
                BasalBolusController::new(),
                pump,
                cgm,
                meals,
            ))),
        };
        MemberLoop {
            inner,
            steps: self.steps,
            label: self.kind.label(),
            pid,
            run,
        }
    }

    /// Executes the campaign, returning one trace per run.
    pub fn run(&self) -> Vec<SimTrace> {
        let mut traces = Vec::with_capacity(self.total_runs());
        let mut root = SmallRng::new(self.seed ^ CAMPAIGN_SALT);
        for pid in 0..self.patients {
            // Patient construction is per-profile; runs share the profile.
            let glucosym_proto = match self.kind {
                SimulatorKind::Glucosym => Some(GlucosymPatient::from_profile(pid, self.seed)),
                SimulatorKind::T1ds2013 => None,
            };
            let t1ds_proto = match self.kind {
                SimulatorKind::Glucosym => None,
                SimulatorKind::T1ds2013 => Some(T1dsPatient::calibrated(pid, self.seed)),
            };
            for run in 0..self.runs_per_patient {
                let mut rng = root.fork((pid * 10_007 + run) as u64);
                let meals = MealSchedule::generate(self.steps, &mut rng);
                let cgm = Cgm::typical(rng.fork(1));
                let basal = match self.kind {
                    SimulatorKind::Glucosym => {
                        glucosym_proto
                            .as_ref()
                            .expect("proto built above")
                            .therapy()
                            .basal_rate
                    }
                    SimulatorKind::T1ds2013 => {
                        t1ds_proto
                            .as_ref()
                            .expect("proto built above")
                            .therapy()
                            .basal_rate
                    }
                };
                let fault = rng
                    .bernoulli(self.fault_ratio)
                    .then(|| PumpFault::sample(self.steps, basal, &mut rng));
                let pump = match fault {
                    Some(f) => InsulinPump::with_fault(f),
                    None => InsulinPump::healthy(),
                };
                let label = self.kind.label();
                let trace = match self.kind {
                    SimulatorKind::Glucosym => {
                        let patient = glucosym_proto.clone().expect("proto built above");
                        ClosedLoop::new(patient, OpenApsController::new(), pump, cgm, meals)
                            .run(self.steps, label, pid, run)
                    }
                    SimulatorKind::T1ds2013 => {
                        let patient = t1ds_proto.clone().expect("proto built above");
                        ClosedLoop::new(patient, BasalBolusController::new(), pump, cgm, meals)
                            .run(self.steps, label, pid, run)
                    }
                };
                traces.push(trace);
            }
        }
        traces
    }
}

/// The simulator-specific closed loop inside a [`MemberLoop`].
enum MemberLoopInner {
    Glucosym(Box<ClosedLoop<GlucosymPatient, OpenApsController>>),
    T1ds(Box<ClosedLoop<T1dsPatient, BasalBolusController>>),
}

/// One campaign member ready to run, produced by
/// [`CampaignConfig::member`]. Running it with a no-op observer reproduces
/// the corresponding [`CampaignConfig::run`] trace bit for bit; running it
/// with a mitigating observer is how an alarm gets to change the simulated
/// patient's future.
pub struct MemberLoop {
    inner: MemberLoopInner,
    steps: usize,
    label: &'static str,
    pid: usize,
    run: usize,
}

impl MemberLoop {
    /// Steps this member's run covers.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs the member to completion without an observer.
    pub fn run(self) -> SimTrace {
        let mut noop = |_: usize, _: &crate::trace::StepRecord| {};
        self.run_observed(&mut noop)
    }

    /// Runs the member with a monitor-in-the-loop observer (see
    /// [`crate::engine::StepObserver`]); mitigation commands the observer
    /// returns are applied to the pump on the next control step.
    pub fn run_observed(self, observer: &mut dyn StepObserver) -> SimTrace {
        match self.inner {
            MemberLoopInner::Glucosym(cl) => {
                cl.run_observed(self.steps, self.label, self.pid, self.run, observer)
            }
            MemberLoopInner::T1ds(cl) => {
                cl.run_observed(self.steps, self.label, self.pid, self.run, observer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::HazardConfig;

    #[test]
    fn campaign_produces_expected_count() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(3)
            .steps(36)
            .seed(1)
            .run();
        assert_eq!(traces.len(), 6);
        assert!(traces.iter().all(|t| t.len() == 36));
        assert!(traces.iter().all(|t| t.simulator == "glucosym"));
    }

    #[test]
    fn fault_ratio_zero_means_no_faults() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(24)
            .fault_ratio(0.0)
            .seed(2)
            .run();
        assert!(traces.iter().all(|t| t.fault.is_none()));
    }

    #[test]
    fn fault_ratio_one_means_all_faulty() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(24)
            .fault_ratio(1.0)
            .seed(3)
            .run();
        assert!(traces.iter().all(|t| t.fault.is_some()));
    }

    #[test]
    fn campaigns_are_deterministic() {
        let mk = || {
            CampaignConfig::new(SimulatorKind::Glucosym)
                .patients(1)
                .runs_per_patient(2)
                .steps(48)
                .seed(11)
                .run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn member_loops_reproduce_campaign_traces() {
        for kind in SimulatorKind::ALL {
            let cfg = CampaignConfig::new(kind)
                .patients(2)
                .runs_per_patient(3)
                .steps(36)
                .fault_ratio(0.5)
                .seed(9);
            let traces = cfg.run();
            for pid in 0..2 {
                for run in 0..3 {
                    let solo = cfg.member(pid, run).run();
                    assert_eq!(solo, traces[pid * 3 + run], "{kind} pid {pid} run {run}");
                }
            }
        }
    }

    #[test]
    fn faulty_campaign_produces_positive_labels() {
        // 24h runs with faults must generate hazardous stretches.
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(288)
            .fault_ratio(1.0)
            .seed(5)
            .run();
        let hc = HazardConfig::default();
        let positives: usize = traces
            .iter()
            .map(|t| hc.labels(t).iter().sum::<usize>())
            .sum();
        let total: usize = traces.iter().map(SimTrace::len).sum();
        let ratio = positives as f64 / total as f64;
        assert!(
            ratio > 0.05,
            "fault campaign produced almost no hazards ({ratio})"
        );
    }
}
