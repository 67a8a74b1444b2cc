//! End-to-end convergence instrumentation tests: seeded problems driven
//! through the observer-taking entry points, checking (a) the recorded
//! [`hybridcs_solver::ConvergenceTrace`]s are coherent, (b) FISTA's
//! objective sequence is monotone non-increasing up to numerical noise on
//! a well-conditioned problem, and (c) an active observer never changes
//! the returned numbers (the golden-regression guarantee).

use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_linalg::{vector, Matrix};
use hybridcs_solver::{
    solve_admm, solve_admm_observed, solve_fista, solve_fista_workspace, solve_omp,
    solve_omp_observed, solve_pdhg, solve_pdhg_workspace, solve_reweighted,
    solve_reweighted_workspace, AdmmOptions, BpdnProblem, DenseOperator, FistaOptions,
    GreedyOptions, PdhgOptions, RecordingObserver, ReweightedOptions, SolverWorkspace, StopReason,
};

/// Deterministic ±1/√n pseudo-Bernoulli sensing matrix (same LCG family as
/// the solver unit tests).
fn bernoulli_like(m: usize, n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(m, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (state >> 62) & 1 == 1 {
            1.0 / (n as f64).sqrt()
        } else {
            -1.0 / (n as f64).sqrt()
        }
    })
}

fn smooth_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (2.0 * std::f64::consts::PI * 2.0 * t).sin()
                + 0.4 * (2.0 * std::f64::consts::PI * 5.0 * t).cos()
        })
        .collect()
}

#[test]
fn fista_objective_is_monotone_non_increasing() {
    let n = 128;
    let m = 64;
    let x_true = smooth_signal(n);
    let phi = bernoulli_like(m, n, 21);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let problem = BpdnProblem {
        sensing: &op,
        dwt: &dwt,
        measurements: &y,
        sigma: 1e-3,
        box_bounds: None,
        coefficient_weights: None,
    };
    let mut rec = RecordingObserver::new();
    let result = solve_fista_workspace(
        &problem,
        &FistaOptions {
            lambda: Some(0.003),
            max_iterations: 2000,
            ..FistaOptions::default()
        },
        &mut rec,
        &mut SolverWorkspace::new(),
    )
    .unwrap();

    assert_eq!(rec.events().len(), result.iterations);
    // FISTA with momentum is not strictly monotone, but on this seeded
    // problem the LASSO objective must be non-increasing up to a small
    // relative ripple.
    assert!(
        rec.objective_is_monotone(1e-3),
        "objective sequence rose: first 10 = {:?}",
        &rec.objectives()[..rec.events().len().min(10)]
    );
    // And it must make real progress overall.
    let objectives = rec.objectives();
    assert!(objectives.last().unwrap() < &(0.9 * objectives[0]));

    let trace = rec.trace().expect("on_complete fired");
    assert_eq!(trace.solver, "fista");
    assert_eq!(trace.iterations, result.iterations);
    assert_eq!(trace.converged, result.converged);
    assert_eq!(trace.final_residual, result.residual);
    assert_eq!(trace.final_objective, result.objective);
}

#[test]
fn active_observer_does_not_change_results() {
    let n = 128;
    let m = 48;
    let x_true = smooth_signal(n);
    let phi = bernoulli_like(m, n, 33);
    let y = phi.matvec(&x_true);
    let op = DenseOperator::new(phi);
    let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
    let problem = BpdnProblem {
        sensing: &op,
        dwt: &dwt,
        measurements: &y,
        sigma: 1e-3,
        box_bounds: None,
        coefficient_weights: None,
    };

    let plain = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
    let mut rec = RecordingObserver::new();
    let observed = solve_pdhg_workspace(
        &problem,
        &PdhgOptions::default(),
        &mut rec,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    assert_eq!(plain.signal, observed.signal);
    assert_eq!(plain.iterations, observed.iterations);

    let plain = solve_admm(&problem, &AdmmOptions::default()).unwrap();
    let mut rec = RecordingObserver::new();
    let observed = solve_admm_observed(&problem, &AdmmOptions::default(), &mut rec).unwrap();
    assert_eq!(plain.signal, observed.signal);
    assert_eq!(rec.trace().unwrap().solver, "admm");

    let plain = solve_fista(
        &problem,
        &FistaOptions {
            lambda: Some(0.003),
            ..FistaOptions::default()
        },
    )
    .unwrap();
    let mut rec = RecordingObserver::new();
    let observed = solve_fista_workspace(
        &problem,
        &FistaOptions {
            lambda: Some(0.003),
            ..FistaOptions::default()
        },
        &mut rec,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    assert_eq!(plain.signal, observed.signal);

    let plain = solve_reweighted(&problem, &ReweightedOptions::default()).unwrap();
    let mut rec = RecordingObserver::new();
    let observed = solve_reweighted_workspace(
        &problem,
        &ReweightedOptions::default(),
        &mut rec,
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    assert_eq!(plain.signal, observed.signal);
    assert_eq!(rec.trace().unwrap().solver, "reweighted");
    // Cumulative numbering: events strictly increase across rounds.
    assert!(rec
        .events()
        .windows(2)
        .all(|w| w[1].iteration > w[0].iteration));
    assert_eq!(
        rec.events().last().unwrap().iteration,
        observed.iterations,
        "reweighted iteration count must accumulate across rounds"
    );
}

#[test]
fn greedy_traces_report_stop_reasons() {
    // Normalized-column dictionary (splitmix64) and an exactly sparse truth:
    // OMP must hit the tolerance and report Converged.
    let m = 40;
    let n = 128;
    let mut state = 1u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut a = Matrix::from_fn(m, n, |_, _| next());
    for j in 0..n {
        let norm = vector::norm2(&a.col(j));
        for i in 0..m {
            a.set(i, j, a.get(i, j) / norm);
        }
    }
    let mut truth = vec![0.0; n];
    truth[5] = 2.0;
    truth[60] = -1.5;
    truth[100] = 0.8;
    let y = a.matvec(&truth);

    let opts = GreedyOptions {
        max_sparsity: 3,
        ..GreedyOptions::default()
    };
    let plain = solve_omp(&a, &y, &opts).unwrap();
    let mut rec = RecordingObserver::new();
    let observed = solve_omp_observed(&a, &y, &opts, &mut rec).unwrap();
    assert_eq!(plain.signal, observed.signal);

    let trace = rec.trace().unwrap();
    assert_eq!(trace.solver, "omp");
    assert_eq!(trace.stop_reason, StopReason::Converged);
    assert_eq!(rec.events().len(), observed.iterations);
    // OMP residual shrinks with every added atom on this problem.
    let residuals: Vec<f64> = rec.events().iter().map(|e| e.residual).collect();
    assert!(residuals.windows(2).all(|w| w[1] < w[0]));
}
