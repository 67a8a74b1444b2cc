use crate::batch;
use crate::{BatchProblem, BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_obs::{IterationObserver, NoopObserver};

/// Options for [`solve_pdhg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdhgOptions {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Relative-change stopping tolerance, evaluated every
    /// `check_interval` iterations.
    pub tolerance: f64,
    /// How often (in iterations) convergence is checked.
    pub check_interval: usize,
    /// Primal/dual step balance: `τ` is multiplied and the dual step
    /// divided by this factor. 1.0 is the symmetric default.
    pub step_ratio: f64,
}

impl Default for PdhgOptions {
    fn default() -> Self {
        PdhgOptions {
            max_iterations: 3000,
            tolerance: 1e-5,
            check_interval: 10,
            step_ratio: 1.0,
        }
    }
}

/// Solves the (optionally box-constrained) BPDN program of Eq. (1) with the
/// Chambolle–Pock primal–dual algorithm.
///
/// The splitting stacks `K = [Φ; I]` (or just `Φ` without a box) and puts
/// the two indicator functions on the dual side:
///
/// * `G₁` — indicator of the ℓ₂ ball `‖· − y‖ ≤ σ` (prox = ball
///   projection),
/// * `G₂` — indicator of the box `[lo, hi]` (prox = clamp),
///
/// while the primal function `F(x) = ‖Ψᵀx‖₁` keeps its cheap orthonormal
/// prox `Ψ·soft(Ψᵀ·, τ)`. Step sizes obey `τς‖K‖² < 1` with `‖K‖` from
/// power iteration.
///
/// When a box is supplied, the returned signal is clamped into it as a
/// final step, so the hybrid decoder's bound guarantee holds *exactly* in
/// the output (the true signal lies in the box, so clamping can only help).
///
/// # Errors
///
/// Returns a [`SolverError`] if the problem fails validation or an option
/// is out of range. Exhausting the iteration budget is reported via
/// `converged = false` in the result, not as an error.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn solve_pdhg(
    problem: &BpdnProblem<'_>,
    options: &PdhgOptions,
) -> Result<RecoveryResult, SolverError> {
    solve_pdhg_workspace(
        problem,
        options,
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
}

/// [`solve_pdhg`] with an [`IterationObserver`] hook and every iteration
/// buffer drawn from a borrowed [`SolverWorkspace`]: when the workspace is
/// reused across windows the solve performs zero heap allocations after
/// warm-up.
///
/// When the observer is [active](IterationObserver::active), every
/// iteration emits an [`IterationEvent`](hybridcs_obs::IterationEvent) with
/// the ℓ₁ objective `‖Ψᵀx‖₁` (free — the soft-thresholded coefficients are
/// already in hand) and the fidelity residual `‖Φx − y‖₂` (one extra
/// `Φ`-application, skipped on the no-op path), and completion emits a
/// [`ConvergenceTrace`](hybridcs_obs::ConvergenceTrace). The observer never
/// changes the arithmetic.
///
/// This is the one-window (K = 1) case of
/// [`solve_pdhg_batch_workspace`](crate::solve_pdhg_batch_workspace), so
/// its result bits equal that window's result in any batch. The returned
/// signal is itself a workspace buffer: callers on the hot path can hand it
/// back via [`SolverWorkspace::release`] once consumed to keep the pool at
/// steady state.
///
/// # Errors
///
/// Same conditions as [`solve_pdhg`].
pub fn solve_pdhg_workspace(
    problem: &BpdnProblem<'_>,
    options: &PdhgOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let batch = BatchProblem::new(std::slice::from_ref(problem))?;
    let mut slot = [None];
    batch::pdhg_lanes(&batch, options, &mut [observer], ws, &mut slot)?;
    Ok(slot[0].take().expect("batch solve fills every window"))
}

pub(crate) fn validate_options(options: &PdhgOptions) -> Result<(), SolverError> {
    if options.max_iterations == 0 {
        return Err(SolverError::BadParameter {
            name: "max_iterations",
            value: 0.0,
        });
    }
    if !(options.tolerance > 0.0 && options.tolerance.is_finite()) {
        return Err(SolverError::BadParameter {
            name: "tolerance",
            value: options.tolerance,
        });
    }
    if options.check_interval == 0 {
        return Err(SolverError::BadParameter {
            name: "check_interval",
            value: 0.0,
        });
    }
    if !(options.step_ratio > 0.0 && options.step_ratio.is_finite()) {
        return Err(SolverError::BadParameter {
            name: "step_ratio",
            value: options.step_ratio,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseOperator;
    use hybridcs_dsp::{Dwt, Wavelet};
    use hybridcs_linalg::{vector, Matrix};

    /// Deterministic ±1/√n pseudo-Bernoulli sensing matrix.
    fn bernoulli_like(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (state >> 62) & 1;
            if bit == 1 {
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

    fn snr_db(truth: &[f64], estimate: &[f64]) -> f64 {
        let err = vector::dist2(truth, estimate);
        let sig = vector::norm2(truth);
        20.0 * (sig / err.max(1e-30)).log10()
    }

    #[test]
    fn identity_sensing_recovers_signal() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 0.05,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        assert!(snr_db(&x_true, &result.signal) > 30.0);
        // First-order feasibility: allow a generous slack over sigma.
        assert!(
            result.is_feasible(0.05, 1.0),
            "residual {}",
            result.residual
        );
    }

    #[test]
    fn undersampled_recovery_of_compressible_signal() {
        let n = 128;
        let m = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 1);
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
        let result = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        let snr = snr_db(&x_true, &result.signal);
        assert!(snr > 15.0, "SNR {snr} dB");
    }

    #[test]
    fn box_constraint_rescues_severe_undersampling() {
        let n = 128;
        let m = 8; // hopeless for plain CS
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 2);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();

        // 4-bit-equivalent box around the truth.
        let d = 0.25;
        let lo: Vec<f64> = x_true.iter().map(|v| (v / d).floor() * d).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + d).collect();

        let plain = solve_pdhg(
            &BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma: 1e-3,
                box_bounds: None,
                coefficient_weights: None,
            },
            &PdhgOptions::default(),
        )
        .unwrap();
        let hybrid = solve_pdhg(
            &BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma: 1e-3,
                box_bounds: Some((&lo, &hi)),
                coefficient_weights: None,
            },
            &PdhgOptions::default(),
        )
        .unwrap();

        let snr_plain = snr_db(&x_true, &plain.signal);
        let snr_hybrid = snr_db(&x_true, &hybrid.signal);
        assert!(
            snr_hybrid > snr_plain + 6.0,
            "hybrid {snr_hybrid} dB vs plain {snr_plain} dB"
        );
        // The output must satisfy the bound exactly.
        for ((v, l), h) in hybrid.signal.iter().zip(&lo).zip(&hi) {
            assert!(*l <= *v && *v <= *h);
        }
    }

    #[test]
    fn result_reports_objective_and_residual() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        assert!(result.objective > 0.0);
        assert!(result.residual >= 0.0);
        assert!(result.iterations > 0);
    }

    #[test]
    fn tiny_budget_reports_not_converged() {
        let n = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(32, n, 3);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_pdhg(
            &problem,
            &PdhgOptions {
                max_iterations: 3,
                tolerance: 1e-12,
                ..PdhgOptions::default()
            },
        )
        .unwrap();
        assert!(!result.converged);
        assert_eq!(result.iterations, 3);
    }

    #[test]
    fn rejects_bad_options() {
        let n = 64;
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; n];
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        };
        for bad in [
            PdhgOptions {
                max_iterations: 0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                tolerance: -1.0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                check_interval: 0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                step_ratio: 0.0,
                ..PdhgOptions::default()
            },
        ] {
            assert!(solve_pdhg(&problem, &bad).is_err());
        }
    }

    #[test]
    fn solution_is_sparser_than_backprojection() {
        // The ℓ₁ objective should beat the adjoint initial point.
        let n = 128;
        let m = 48;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 5);
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
        let x0 = problem.initial_point();
        let obj0 = vector::norm1(&dwt.forward(&x0).unwrap());
        let result = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        assert!(result.objective < obj0, "{} vs {}", result.objective, obj0);
    }
}
