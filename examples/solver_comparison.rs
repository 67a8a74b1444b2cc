//! Decoder bake-off on one real window: the two convex solvers (PDHG,
//! ADMM) with and without the box constraint, plus the greedy baselines
//! (OMP, CoSaMP, IHT) on the explicit ΦΨ dictionary.
//!
//! Every solve runs through its instrumented entry point, so alongside the
//! SNR table the example prints each solver's convergence trace (stop
//! reason, wall time) and exports the full run — metrics registry plus all
//! traces — as JSONL under `results/obs/solver_comparison.jsonl`.
//!
//! ```sh
//! cargo run --release --example solver_comparison
//! ```

use hybridcs::codec::SensingOperator;
use hybridcs::dsp::{Dwt, Wavelet};
use hybridcs::ecg::{EcgGenerator, GeneratorConfig};
use hybridcs::frontend::{LowResChannel, MeasurementQuantizer, SensingMatrix};
use hybridcs::linalg::Matrix;
use hybridcs::metrics::snr_db;
use hybridcs::obs::export;
use hybridcs::solver::{
    solve_admm_observed, solve_cosamp_observed, solve_fista_workspace, solve_iht_workspace,
    solve_omp_observed, solve_pdhg_workspace, AdmmOptions, BpdnProblem, ConvergenceTrace,
    FistaOptions, GreedyOptions, PdhgOptions, RecordingObserver, SolverWorkspace,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512;
    let m = 96;
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus())?;
    let window = &generator.generate(2.0, 0x50F7)[..n];

    let phi = SensingMatrix::bernoulli(m, n, 0xFEED)?;
    let digitizer = MeasurementQuantizer::new(12, 2.5)?;
    let y = digitizer.digitize(&phi.apply(window));
    let sigma = digitizer.noise_sigma(m) * 1.5;
    let dwt = Dwt::new(Wavelet::Db4, 5)?;
    let channel = LowResChannel::new(7)?;
    let (lo, hi) = channel.acquire(window).bounds();

    let operator = SensingOperator::new(&phi);
    let boxed = BpdnProblem {
        sensing: &operator,
        dwt: &dwt,
        measurements: &y,
        sigma,
        box_bounds: Some((&lo, &hi)),
        coefficient_weights: None,
    };
    let plain = BpdnProblem {
        box_bounds: None,
        ..boxed
    };

    println!("decoder                    | SNR (dB) | iterations");
    println!("---------------------------+----------+-----------");
    let mut traces: Vec<ConvergenceTrace> = Vec::new();
    let mut report = |name: &str, signal: &[f64], iters: usize, rec: RecordingObserver| {
        println!("{name:<26} | {:8.2} | {iters}", snr_db(window, signal));
        if let Some(trace) = rec.trace() {
            traces.push(trace.clone());
        }
    };

    let mut ws = SolverWorkspace::new();
    let mut rec = RecordingObserver::new();
    let r = solve_pdhg_workspace(&boxed, &PdhgOptions::default(), &mut rec, &mut ws)?;
    report("PDHG + box (hybrid)", &r.signal, r.iterations, rec);
    let mut rec = RecordingObserver::new();
    let r = solve_admm_observed(&boxed, &AdmmOptions::default(), &mut rec)?;
    report("ADMM + box (hybrid)", &r.signal, r.iterations, rec);
    let mut rec = RecordingObserver::new();
    let r = solve_pdhg_workspace(&plain, &PdhgOptions::default(), &mut rec, &mut ws)?;
    report("PDHG, no box (normal)", &r.signal, r.iterations, rec);
    let mut rec = RecordingObserver::new();
    let r = solve_admm_observed(&plain, &AdmmOptions::default(), &mut rec)?;
    report("ADMM, no box (normal)", &r.signal, r.iterations, rec);
    let mut rec = RecordingObserver::new();
    let r = solve_fista_workspace(&plain, &FistaOptions::default(), &mut rec, &mut ws)?;
    report("FISTA LASSO (baseline)", &r.signal, r.iterations, rec);

    // Greedy methods need the explicit dictionary A = Φ·Ψ (columns = Φ
    // applied to wavelet atoms).
    let mut a = Matrix::zeros(m, n);
    for j in 0..n {
        let mut atom = vec![0.0; n];
        atom[j] = 1.0;
        let column = phi.apply(&dwt.inverse(&atom)?);
        for (i, v) in column.into_iter().enumerate() {
            a.set(i, j, v);
        }
    }
    let greedy_opts = GreedyOptions {
        max_sparsity: m / 3,
        residual_tolerance: sigma,
        max_iterations: 60,
        step: None,
    };
    let mut rec = RecordingObserver::new();
    let r = solve_omp_observed(&a, &y, &greedy_opts, &mut rec)?;
    report("OMP (greedy)", &dwt.inverse(&r.signal)?, r.iterations, rec);
    let mut rec = RecordingObserver::new();
    let r = solve_cosamp_observed(&a, &y, &greedy_opts, &mut rec)?;
    report(
        "CoSaMP (greedy)",
        &dwt.inverse(&r.signal)?,
        r.iterations,
        rec,
    );
    let mut rec = RecordingObserver::new();
    let r = solve_iht_workspace(&a, &y, &greedy_opts, &mut rec, &mut ws)?;
    report("IHT (greedy)", &dwt.inverse(&r.signal)?, r.iterations, rec);

    println!();
    println!("convergence traces:");
    for trace in &traces {
        println!("  {trace}");
    }

    let path = export::export_path("solver_comparison");
    export::write_jsonl(
        &path,
        "solver_comparison",
        &hybridcs::obs::global().snapshot(),
        &traces,
    )?;
    println!();
    println!("JSONL report written to {}", path.display());

    println!();
    println!("The box constraint is what separates the hybrid rows from the");
    println!("rest: identical measurements, radically different quality.");
    Ok(())
}
