use crate::batch;
use crate::{BatchProblem, BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_obs::{IterationObserver, NoopObserver};

/// Options for [`solve_fista`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FistaOptions {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Relative-change stopping tolerance on the coefficient iterate.
    pub tolerance: f64,
    /// ℓ₁ regularization weight λ. `None` uses the data-driven scale
    /// `λ = 0.1·‖Aᵀy‖∞` (floored at `1e-12`): `‖Aᵀy‖∞` is the smallest λ
    /// for which the LASSO solution is exactly zero, so a fixed fraction of
    /// it tracks the measurement energy across windows.
    pub lambda: Option<f64>,
}

impl Default for FistaOptions {
    fn default() -> Self {
        FistaOptions {
            max_iterations: 1000,
            tolerance: 1e-6,
            lambda: None,
        }
    }
}

/// Solves the **unconstrained LASSO relaxation** of the recovery program
/// with FISTA (accelerated proximal gradient):
///
/// ```text
/// min_α ½‖ΦΨα − y‖₂² + λ‖α‖₁
/// ```
///
/// This is the classic digital-CS baseline decoder; the box constraint is
/// *not* representable here, which is exactly why it appears in the solver
/// ablation as a reference point. The result is returned in the signal
/// domain (`x = Ψα`).
///
/// # Errors
///
/// Returns [`SolverError`] on validation failure or non-positive `lambda` /
/// options out of range.
pub fn solve_fista(
    problem: &BpdnProblem<'_>,
    options: &FistaOptions,
) -> Result<RecoveryResult, SolverError> {
    solve_fista_workspace(
        problem,
        options,
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
}

/// [`solve_fista`] with an [`IterationObserver`] hook and every buffer drawn
/// from a caller-owned [`SolverWorkspace`]: once the workspace has been
/// warmed by one solve of each size, the solve performs **zero heap
/// allocations**.
///
/// When the observer is [active](IterationObserver::active), every
/// iteration emits an [`IterationEvent`](hybridcs_obs::IterationEvent)
/// carrying the LASSO objective `½‖Aα − y‖² + λ‖α‖₁` and the fidelity
/// residual at the new iterate (one extra `A`-application per iteration —
/// skipped entirely for a no-op observer), and completion emits a
/// [`ConvergenceTrace`](hybridcs_obs::ConvergenceTrace). The observer never
/// changes the arithmetic.
///
/// This is the one-window (K = 1) case of
/// [`solve_fista_batch_workspace`](crate::solve_fista_batch_workspace). The
/// returned `signal` is a workspace buffer; pass it back via
/// [`SolverWorkspace::release`] to keep the pool in steady state.
///
/// # Errors
///
/// Same conditions as [`solve_fista`].
pub fn solve_fista_workspace(
    problem: &BpdnProblem<'_>,
    options: &FistaOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let batch = BatchProblem::new(std::slice::from_ref(problem))?;
    let mut slot = [None];
    batch::fista_lanes(&batch, options, &mut [observer], ws, &mut slot)?;
    Ok(slot[0].take().expect("batch solve fills every window"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseOperator;
    use hybridcs_dsp::{Dwt, Wavelet};
    use hybridcs_linalg::{vector, Matrix};

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

    fn snr_db(truth: &[f64], estimate: &[f64]) -> f64 {
        let err = vector::dist2(truth, estimate);
        20.0 * (vector::norm2(truth) / err.max(1e-30)).log10()
    }

    #[test]
    fn recovers_compressible_signal() {
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
        let result = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.003),
                max_iterations: 2000,
                ..FistaOptions::default()
            },
        )
        .unwrap();
        let snr = snr_db(&x_true, &result.signal);
        assert!(snr > 12.0, "SNR {snr} dB");
    }

    #[test]
    fn smaller_lambda_fits_measurements_tighter() {
        let n = 64;
        let m = 48;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 23);
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
        let loose = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.5),
                ..FistaOptions::default()
            },
        )
        .unwrap();
        let tight = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.001),
                ..FistaOptions::default()
            },
        )
        .unwrap();
        assert!(tight.residual < loose.residual);
        assert!(tight.objective > loose.objective);
    }

    #[test]
    fn rejects_bad_lambda() {
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
        assert!(solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(-1.0),
                ..FistaOptions::default()
            }
        )
        .is_err());
        assert!(solve_fista(
            &problem,
            &FistaOptions {
                max_iterations: 0,
                ..FistaOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn workspace_path_bit_identical_and_pool_reused() {
        let n = 128;
        let m = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 29);
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
        let options = FistaOptions {
            max_iterations: 200,
            ..FistaOptions::default()
        };
        let plain = solve_fista(&problem, &options).unwrap();
        let mut ws = crate::SolverWorkspace::new();
        for _ in 0..2 {
            let pooled =
                solve_fista_workspace(&problem, &options, &mut NoopObserver, &mut ws).unwrap();
            assert_eq!(pooled.iterations, plain.iterations);
            assert_eq!(pooled.residual.to_bits(), plain.residual.to_bits());
            assert_eq!(pooled.objective.to_bits(), plain.objective.to_bits());
            for (a, b) in pooled.signal.iter().zip(&plain.signal) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            ws.release(pooled.signal);
        }
        assert!(ws.pooled() > 0, "buffers should return to the pool");
    }

    #[test]
    fn converges_on_identity() {
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
        let result = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(1e-4),
                ..FistaOptions::default()
            },
        )
        .unwrap();
        assert!(result.converged);
        assert!(snr_db(&x_true, &result.signal) > 25.0);
    }
}
