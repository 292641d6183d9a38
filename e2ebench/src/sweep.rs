//! `robustness_sweep`: the paper's Fig 9 grid — 5 Gaussian σ and 5 FGSM ε
//! cells for each of the four ML monitors on both simulators' full-scale
//! test sets — through `SweepContext::sweep`, exactly as `fig9_heatmap`
//! computes it. The only workload that reaches the `attack` layer; `nn`
//! runs batch inference with no streaming.
//!
//! As many whole sweeps run as fit in `--seconds` (at least one). The
//! Gaussian cells' noise seed comes from `--seed`. Check: the MLP's
//! errors on Glucosym equal the serial per-cell `Perturbation::apply`
//! path bit for bit.

use std::time::{Duration, Instant};

use cpsmon_attack::{grid_cells, Perturbation, SweepContext};
use cpsmon_bench::Context;
use cpsmon_core::{robustness_error, sweep_parallel, MonitorKind};
use cpsmon_sim::SimulatorKind;

use crate::{
    median, peak_rss_mb, percentile, reset_peak_rss, rss_mb, timed_setup, Args, Bench, Report,
};

const SETUP_REPS: usize = 15;

/// One sweep's results.
struct Sweep {
    /// Errors per (simulator, monitor) row, in grid order.
    errors: Vec<Vec<f64>>,
    /// Wall time of each row, clean predictions included.
    row_ms: Vec<f64>,
    rows_classified: u64,
    wall_s: f64,
}

/// Per-call layer times of a traced sweep.
#[derive(Default)]
struct Layers {
    grad_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    predict_ms: Vec<f64>,
    robust_err_us: Vec<f64>,
}

fn sweep_once(ctx: &Context, grid: &[Perturbation], mut layers: Option<&mut Layers>) -> Sweep {
    let t0 = Instant::now();
    let mut out = Sweep {
        errors: Vec::new(),
        row_ms: Vec::new(),
        rows_classified: 0,
        wall_s: 0.0,
    };
    for sim in &ctx.sims {
        let (x, labels) = (&sim.ds.test.x, &sim.ds.test.labels);
        for mk in MonitorKind::ML {
            let row0 = Instant::now();
            let monitor = sim.expect_monitor(mk);
            let model = monitor
                .as_grad_model()
                .expect("ML monitors are differentiable");
            let clean = monitor.predict_x(x);
            let errors = match layers.as_deref_mut() {
                None => {
                    let sweep = SweepContext::new(model, x, labels);
                    sweep.sweep(grid, |_, perturbed| {
                        robustness_error(&clean, &monitor.predict_x(&perturbed))
                    })
                }
                Some(layers) => {
                    // The same prepare-then-fan-out as `SweepContext::sweep`,
                    // with each layer call timed.
                    let t = Instant::now();
                    let sweep = SweepContext::new(model, x, labels);
                    sweep.prepare(grid);
                    layers.grad_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let cells = sweep_parallel(grid, |cell| {
                        let t = Instant::now();
                        let perturbed = sweep.materialize(cell);
                        let t_mat = t.elapsed();
                        let t = Instant::now();
                        let preds = monitor.predict_x(&perturbed);
                        let t_pred = t.elapsed();
                        let t = Instant::now();
                        let err = robustness_error(&clean, &preds);
                        (err, [t_mat, t_pred, t.elapsed()])
                    });
                    let mut errors = Vec::with_capacity(cells.len());
                    for (err, [mat, pred, robust]) in cells {
                        errors.push(err);
                        layers.materialize_ms.push(ms(mat));
                        layers.predict_ms.push(ms(pred));
                        layers.robust_err_us.push(robust.as_secs_f64() * 1e6);
                    }
                    errors
                }
            };
            out.row_ms.push(ms(row0.elapsed()));
            out.rows_classified += (grid.len() * x.rows()) as u64;
            out.errors.push(errors);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// As many whole sweeps as fit in `seconds`, at least one.
fn sweeps(
    ctx: &Context,
    grid: &[Perturbation],
    seconds: f64,
    mut layers: Option<&mut Layers>,
) -> Vec<Sweep> {
    let mut out: Vec<Sweep> = Vec::new();
    let mut spent = 0.0;
    while out.is_empty() || spent + spent / out.len() as f64 <= seconds {
        let sweep = sweep_once(ctx, grid, layers.as_deref_mut());
        spent += sweep.wall_s;
        out.push(sweep);
    }
    out
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The serial reference: `Perturbation::apply` cell by cell for the MLP
/// on Glucosym, compared bit for bit with the swept errors.
fn check_serial(ctx: &Context, grid: &[Perturbation], swept: &Sweep, report: &mut Report) {
    let sim = ctx.sim(SimulatorKind::Glucosym);
    let row = ctx
        .sims
        .iter()
        .position(|s| s.kind == sim.kind)
        .expect("simulator present")
        * MonitorKind::ML.len()
        + MonitorKind::ML
            .iter()
            .position(|&k| k == MonitorKind::Mlp)
            .expect("MLP is an ML kind");
    let monitor = sim.expect_monitor(MonitorKind::Mlp);
    let model = monitor.as_grad_model().expect("MLP is differentiable");
    let (x, labels) = (&sim.ds.test.x, &sim.ds.test.labels);
    let clean = monitor.predict_x(x);
    let serial: Vec<f64> = grid
        .iter()
        .map(|cell| robustness_error(&clean, &monitor.predict_x(&cell.apply(model, x, labels))))
        .collect();
    let same = serial.len() == swept.errors[row].len()
        && serial
            .iter()
            .zip(&swept.errors[row])
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same, || {
        format!(
            "swept MLP errors {:?} differ from serial Perturbation::apply {serial:?}",
            swept.errors[row]
        )
    });
}

pub fn run(bench: &Bench, args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: the warm full-scale context (test sets and trained monitors
    // from the bundle cache).
    let (setup_s, ctx) = timed_setup(SETUP_REPS, || bench.context())?;
    let grid = grid_cells(args.seed);

    // Peak memory from here on: the loaded context plus what the sweeps
    // allocate.
    report.note("rss_before_mb", rss_mb("self").unwrap_or(f64::NAN));
    reset_peak_rss()?;
    let untraced = sweeps(&ctx, &grid, args.seconds, None);
    check_serial(&ctx, &grid, &untraced[0], report);
    for s in &untraced[1..] {
        report.check(s.errors == untraced[0].errors, || {
            "repeated sweeps disagree".into()
        });
    }
    let wall: f64 = untraced.iter().map(|s| s.wall_s).sum();
    let rows: u64 = untraced.iter().map(|s| s.rows_classified).sum();
    let row_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.row_ms.iter().copied())
        .collect();
    report.attempted = rows;
    report.failed = 0;
    report.note("sweeps", untraced.len());
    report.note("cells", grid.len());
    report.set("setup_s", setup_s);
    report.set("verdict_p50_ms", median(&row_ms));
    report.set("verdict_p99_ms", percentile(&row_ms, 99.0));
    report.set("goodput_rps", rows as f64 / wall);
    report.set(
        "peak_rss_mb",
        peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );
    if !args.trace {
        return Ok(());
    }
    let mut layers = Layers::default();
    let traced = sweeps(&ctx, &grid, args.seconds, Some(&mut layers));
    for s in &traced {
        report.check(s.errors == untraced[0].errors, || {
            "traced sweep errors differ from untraced".into()
        });
    }
    let traced_wall: f64 = traced.iter().map(|s| s.wall_s).sum();
    let traced_rows: u64 = traced.iter().map(|s| s.rows_classified).sum();
    report.set("attack.grad_ms", mean(&layers.grad_ms));
    report.set("attack.materialize_ms", mean(&layers.materialize_ms));
    report.set("nn.predict_ms", mean(&layers.predict_ms));
    report.set("core.robust_err_us", mean(&layers.robust_err_us));
    let rate = rows as f64 / wall;
    let traced_rate = traced_rows as f64 / traced_wall;
    report.set("trace.overhead_pct", (rate / traced_rate - 1.0) * 100.0);
    Ok(())
}
