use crate::batch;
use crate::{BatchProblem, BpdnProblem, PdhgOptions, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_obs::{IterationObserver, NoopObserver};

/// Options for [`solve_reweighted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReweightedOptions {
    /// Number of outer reweighting rounds (Candès–Wakin–Boyd report most
    /// of the benefit within 2–4).
    pub outer_iterations: usize,
    /// Relative `ε` floor: each round uses `ε = epsilon_rel · max|α|` in
    /// the weight update `wᵢ = 1/(|αᵢ| + ε)`.
    pub epsilon_rel: f64,
    /// Inner PDHG configuration for each round.
    pub inner: PdhgOptions,
}

impl Default for ReweightedOptions {
    fn default() -> Self {
        ReweightedOptions {
            outer_iterations: 3,
            epsilon_rel: 0.05,
            inner: PdhgOptions::default(),
        }
    }
}

/// Iteratively-reweighted ℓ₁ recovery (Candès, Wakin & Boyd 2008): solve
/// the BPDN program, re-derive coefficient weights `wᵢ = 1/(|αᵢ| + ε)`
/// from the solution, and repeat. The reweighting sharpens the ℓ₁ ball
/// toward ℓ₀ around the current support, typically buying a few dB at
/// fixed `m` — a software-only improvement on the paper's decoder.
///
/// Any `coefficient_weights` already present in `problem` seed the first
/// round; subsequent rounds replace them.
///
/// Returns the final round's [`RecoveryResult`] with `iterations`
/// accumulated across rounds.
///
/// # Errors
///
/// Returns [`SolverError`] from validation or any inner solve, plus
/// [`SolverError::BadParameter`] for out-of-range options.
///
/// # Example
///
/// See `ablation_weighted_l1` and the crate tests; usage is identical to
/// [`solve_pdhg`](crate::solve_pdhg) with [`ReweightedOptions`].
pub fn solve_reweighted(
    problem: &BpdnProblem<'_>,
    options: &ReweightedOptions,
) -> Result<RecoveryResult, SolverError> {
    solve_reweighted_workspace(
        problem,
        options,
        &mut NoopObserver,
        &mut SolverWorkspace::new(),
    )
}

/// [`solve_reweighted`] with an [`IterationObserver`] hook and the inner
/// PDHG buffers drawn from a caller-owned [`SolverWorkspace`].
///
/// Inner PDHG iteration events are forwarded with iteration numbers
/// accumulated across reweighting rounds, and one unified
/// [`ConvergenceTrace`](hybridcs_obs::ConvergenceTrace) (solver
/// `"reweighted"`, stop reason from the final round) is emitted at the end
/// — the per-round PDHG traces are suppressed. The observer never changes
/// the arithmetic.
///
/// This is the one-window (K = 1) case of
/// [`solve_reweighted_batch_workspace`](crate::solve_reweighted_batch_workspace)
/// and shares its allocation profile: the inner PDHG iterations are
/// allocation-free on a warmed workspace, but each reweighting round
/// allocates a little bookkeeping (the round's problem list, observer
/// wrappers and weight vectors), so a reweighted solve is **not** zero-
/// allocation. The returned `signal` is a workspace buffer; pass it back
/// via [`SolverWorkspace::release`] to keep the pool in steady state.
///
/// # Errors
///
/// Same conditions as [`solve_reweighted`].
pub fn solve_reweighted_workspace(
    problem: &BpdnProblem<'_>,
    options: &ReweightedOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let batch = BatchProblem::new(std::slice::from_ref(problem))?;
    let mut slot = [None];
    batch::reweighted_lanes(&batch, options, &mut [observer], ws, &mut slot)?;
    Ok(slot[0].take().expect("batch solve fills every window"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_pdhg, DenseOperator};
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
    fn reweighting_improves_over_single_round() {
        let n = 128;
        let m = 44;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 51);
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
        let single = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        let multi = solve_reweighted(&problem, &ReweightedOptions::default()).unwrap();
        let snr_single = snr_db(&x_true, &single.signal);
        let snr_multi = snr_db(&x_true, &multi.signal);
        assert!(
            snr_multi > snr_single + 0.5,
            "reweighted {snr_multi} dB vs single {snr_single} dB"
        );
        assert!(multi.iterations > single.iterations);
    }

    #[test]
    fn one_round_matches_plain_pdhg() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 0.01,
            box_bounds: None,
            coefficient_weights: None,
        };
        let plain = solve_pdhg(&problem, &PdhgOptions::default()).unwrap();
        let one = solve_reweighted(
            &problem,
            &ReweightedOptions {
                outer_iterations: 1,
                ..ReweightedOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.signal, one.signal);
    }

    #[test]
    fn respects_box_constraint() {
        let n = 64;
        let m = 12;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 53);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let d = 0.25;
        let lo: Vec<f64> = x_true.iter().map(|v| (v / d).floor() * d).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + d).collect();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        let result = solve_reweighted(&problem, &ReweightedOptions::default()).unwrap();
        for ((v, l), h) in result.signal.iter().zip(&lo).zip(&hi) {
            assert!(*l <= *v && *v <= *h);
        }
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
        assert!(solve_reweighted(
            &problem,
            &ReweightedOptions {
                outer_iterations: 0,
                ..ReweightedOptions::default()
            }
        )
        .is_err());
        assert!(solve_reweighted(
            &problem,
            &ReweightedOptions {
                epsilon_rel: -1.0,
                ..ReweightedOptions::default()
            }
        )
        .is_err());
    }
}
