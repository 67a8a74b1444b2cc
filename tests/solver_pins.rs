//! Bit-level pins on the iterative solvers' outputs.
//!
//! Each case runs one solver entry point twice — once with a no-op
//! observer, once with a recording observer — and folds into one 64-bit
//! FNV-1a hash every bit a caller can see: the signal, `iterations`,
//! `converged`, the `residual` and `objective` bits, the per-iteration
//! event stream, and the completion trace (everything but its wall time).
//! The hashes are pinned, so any change to the iterate sequence of PDHG,
//! reweighted ℓ₁, FISTA or IHT — however small — fails here.
//!
//! The ECG cases use the default operating point's shape (n = 512,
//! m = 96) through the real packed-sign `SensingOperator`, with the box of
//! a 7-bit low-resolution channel on and off. The pins hold on both SIMD
//! tiers: every case runs under the scalar kernels and, where the host has
//! AVX2, again under the vector kernels.

use std::sync::{Mutex, MutexGuard};

use hybridcs::codec::SensingOperator;
use hybridcs::dsp::{Dwt, Wavelet};
use hybridcs::ecg::{EcgGenerator, GeneratorConfig};
use hybridcs::frontend::{LowResChannel, SensingMatrix};
use hybridcs::linalg::simd::{set_override, simd_available};
use hybridcs::linalg::Matrix;
use hybridcs::solver::{
    solve_fista_workspace, solve_iht_workspace, solve_pdhg_workspace, solve_reweighted_workspace,
    BpdnProblem, ConvergenceTrace, DenseOperator, FistaOptions, GreedyOptions, IterationEvent,
    IterationObserver, NoopObserver, PdhgOptions, RecordingObserver, RecoveryResult,
    ReweightedOptions, SolverError, SolverWorkspace, StopReason,
};

const N: usize = 512;
const M: usize = 96;

/// Serializes the tests: they flip the process-wide SIMD dispatch.
static TIER: Mutex<()> = Mutex::new(());

fn tier_lock() -> MutexGuard<'static, ()> {
    TIER.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn result(&mut self, r: &RecoveryResult) {
        self.word(r.signal.len() as u64);
        for &v in &r.signal {
            self.f64(v);
        }
        self.word(r.iterations as u64);
        self.word(u64::from(r.converged));
        self.f64(r.residual);
        self.f64(r.objective);
    }

    fn events(&mut self, events: &[IterationEvent]) {
        self.word(events.len() as u64);
        for e in events {
            self.word(e.iteration as u64);
            self.f64(e.objective);
            self.f64(e.residual);
            self.f64(e.step_size.unwrap_or(f64::NAN));
        }
    }

    fn trace(&mut self, t: &ConvergenceTrace) {
        for b in t.solver.bytes() {
            self.word(u64::from(b));
        }
        self.word(t.iterations as u64);
        for b in t.stop_reason.as_str().bytes() {
            self.word(u64::from(b));
        }
        self.word(u64::from(t.converged));
        self.f64(t.final_objective);
        self.f64(t.final_residual);
    }
}

/// Records like [`RecordingObserver`] and asks the solver to stop once
/// `after` iteration events have arrived (`usize::MAX`: never).
struct Recorder {
    rec: RecordingObserver,
    after: usize,
}

impl Recorder {
    fn new(after: usize) -> Self {
        Recorder {
            rec: RecordingObserver::new(),
            after,
        }
    }
}

impl IterationObserver for Recorder {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.rec.on_iteration(event);
    }

    fn on_complete(&mut self, trace: &ConvergenceTrace) {
        self.rec.on_complete(trace);
    }

    fn should_abort(&self) -> bool {
        self.rec.events().len() >= self.after
    }
}

/// What a case is built to exercise; asserted so a pin cannot silently
/// drift onto another stopping path.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stop {
    /// Retired early through the solver's own tolerance check.
    Early,
    /// Ran to the iteration cap.
    Cap,
    /// Stopped by the observer.
    Abort,
}

/// Runs `solve` with a no-op observer (when `abort_after` is unset) and
/// with a recorder on one shared workspace, checks the intended stopping
/// path, and hashes both runs.
fn pin(
    ws: &mut SolverWorkspace,
    stop: Stop,
    abort_after: Option<usize>,
    mut solve: impl FnMut(
        &mut dyn IterationObserver,
        &mut SolverWorkspace,
    ) -> Result<RecoveryResult, SolverError>,
) -> u64 {
    let mut h = Fnv::new();
    if abort_after.is_none() {
        let plain = solve(&mut NoopObserver, ws).expect("solve");
        h.result(&plain);
        ws.release(plain.signal);
    }
    let mut recorder = Recorder::new(abort_after.unwrap_or(usize::MAX));
    let observed = solve(&mut recorder, ws).expect("solve");
    h.result(&observed);
    h.events(recorder.rec.events());
    let trace = recorder.rec.trace().expect("completion trace");
    h.trace(trace);
    let want = match stop {
        Stop::Early => !matches!(
            trace.stop_reason,
            StopReason::MaxIterations | StopReason::Aborted
        ),
        Stop::Cap => trace.stop_reason == StopReason::MaxIterations && !observed.converged,
        Stop::Abort => trace.stop_reason == StopReason::Aborted,
    };
    assert!(
        want,
        "case meant to stop by {stop:?} stopped by {} after {} iterations",
        trace.stop_reason, observed.iterations
    );
    ws.release(observed.signal);
    h.0
}

/// Runs `cases` under every SIMD tier the host has and checks each hash
/// against its pin; on a mismatch, reports every case of the group.
fn check(group: &str, pins: &[(&str, u64)], cases: impl Fn() -> Vec<u64>) {
    let _guard = tier_lock();
    let mut tiers = vec![("scalar", Some(false))];
    if simd_available() {
        tiers.push(("avx2", Some(true)));
    }
    for (tier, setting) in tiers {
        set_override(setting);
        let got = cases();
        set_override(None);
        assert_eq!(got.len(), pins.len(), "{group}: case count");
        let report: Vec<String> = pins
            .iter()
            .zip(&got)
            .map(|((name, want), got)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
            .collect();
        assert!(
            pins.iter().zip(&got).all(|((_, want), got)| want == got),
            "{group} ({tier} kernels) moved off its pins:\n{}",
            report.join("\n")
        );
    }
}

/// One seeded ECG window with its measurements and 7-bit box.
struct EcgCase {
    y: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

fn ecg_case(phi: &SensingMatrix, seed: u64) -> EcgCase {
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
    let x = generator.generate(2.0, seed)[..N].to_vec();
    let (lo, hi) = LowResChannel::new(7).unwrap().acquire(&x).bounds();
    EcgCase {
        y: phi.apply(&x),
        lo,
        hi,
    }
}

fn ecg_problem<'a>(
    sensing: &'a SensingOperator<'a>,
    dwt: &'a Dwt,
    case: &'a EcgCase,
    boxed: bool,
) -> BpdnProblem<'a> {
    BpdnProblem {
        sensing,
        dwt,
        measurements: &case.y,
        sigma: 0.02,
        box_bounds: boxed.then_some((&case.lo[..], &case.hi[..])),
        coefficient_weights: None,
    }
}

fn pdhg(max_iterations: usize, tolerance: f64) -> PdhgOptions {
    PdhgOptions {
        max_iterations,
        tolerance,
        ..PdhgOptions::default()
    }
}

#[test]
fn pdhg_outputs_are_pinned() {
    check(
        "pdhg",
        &[
            ("box, tolerance", 0xd4e5_925c_178e_9534),
            ("box, cap", 0x57e6_e38e_b5bf_16d8),
            ("no box, tolerance", 0x4f46_4da5_7ac1_246d),
            ("no box, cap", 0xf18e_c679_0f78_a26e),
            ("box, abort", 0x572f_6365_c512_2b81),
        ],
        || {
            let phi = SensingMatrix::bernoulli(M, N, 0x5EED).unwrap();
            let sensing = SensingOperator::new(&phi);
            let dwt = Dwt::new(Wavelet::Db4, 5).unwrap();
            let a = ecg_case(&phi, 3);
            let b = ecg_case(&phi, 5);
            let mut ws = SolverWorkspace::new();
            let mut run = |case: &EcgCase, boxed, opts: PdhgOptions, stop, abort| {
                let p = ecg_problem(&sensing, &dwt, case, boxed);
                pin(&mut ws, stop, abort, |obs, ws| {
                    solve_pdhg_workspace(&p, &opts, obs, ws)
                })
            };
            vec![
                run(&a, true, pdhg(1000, 1e-2), Stop::Early, None),
                run(&b, true, pdhg(120, 1e-9), Stop::Cap, None),
                run(&b, false, pdhg(1000, 1e-2), Stop::Early, None),
                run(&a, false, pdhg(120, 1e-9), Stop::Cap, None),
                run(&b, true, pdhg(600, 1e-9), Stop::Abort, Some(37)),
            ]
        },
    );
}

#[test]
fn reweighted_outputs_are_pinned() {
    check(
        "reweighted",
        &[
            ("box, tolerance", 0x75fd_47c0_f756_aab3),
            ("no box, cap", 0x8b57_e233_db85_a9ed),
        ],
        || {
            let phi = SensingMatrix::bernoulli(M, N, 0x5EED).unwrap();
            let sensing = SensingOperator::new(&phi);
            let dwt = Dwt::new(Wavelet::Db4, 5).unwrap();
            let a = ecg_case(&phi, 7);
            let mut ws = SolverWorkspace::new();
            [
                (true, pdhg(1000, 1e-2), Stop::Early),
                (false, pdhg(90, 1e-9), Stop::Cap),
            ]
            .into_iter()
            .map(|(boxed, inner, stop)| {
                let p = ecg_problem(&sensing, &dwt, &a, boxed);
                let options = ReweightedOptions {
                    outer_iterations: 2,
                    epsilon_rel: 0.05,
                    inner,
                };
                pin(&mut ws, stop, None, |obs, ws| {
                    solve_reweighted_workspace(&p, &options, obs, ws)
                })
            })
            .collect()
        },
    );
}

/// Deterministic ±1/√n pseudo-Bernoulli matrix for the small cases.
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

#[test]
fn fista_outputs_are_pinned() {
    check(
        "fista",
        &[
            ("data-driven λ", 0xabce_3f3d_10c9_657b),
            ("weighted, fixed λ, cap", 0x4c4c_54f5_f93c_6d7b),
        ],
        || {
            let (n, m) = (64, 32);
            let phi = bernoulli_like(m, n, 23);
            let x: Vec<f64> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    (2.0 * std::f64::consts::PI * 2.0 * t).sin()
                        + 0.4 * (2.0 * std::f64::consts::PI * 5.0 * t).cos()
                })
                .collect();
            let y = phi.matvec(&x);
            let op = DenseOperator::new(phi);
            let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
            let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
            let mut ws = SolverWorkspace::new();
            let mut run = |weighted: bool, options: FistaOptions, stop| {
                let p = BpdnProblem {
                    sensing: &op,
                    dwt: &dwt,
                    measurements: &y,
                    sigma: 1e-3,
                    box_bounds: None,
                    coefficient_weights: weighted.then_some(&weights[..]),
                };
                pin(&mut ws, stop, None, |obs, ws| {
                    solve_fista_workspace(&p, &options, obs, ws)
                })
            };
            vec![
                run(
                    false,
                    FistaOptions {
                        max_iterations: 2000,
                        tolerance: 1e-6,
                        lambda: None,
                    },
                    Stop::Early,
                ),
                run(
                    true,
                    FistaOptions {
                        max_iterations: 40,
                        tolerance: 1e-12,
                        lambda: Some(0.02),
                    },
                    Stop::Cap,
                ),
            ]
        },
    );
}

#[test]
fn iht_outputs_are_pinned() {
    check(
        "iht",
        &[
            ("exact sparse", 0x842b_251d_a2da_8da9),
            ("noisy, cap", 0x501f_45c9_cdf0_c2e7),
        ],
        || {
            let (n, m) = (64, 40);
            let a = bernoulli_like(m, n, 31);
            let mut truth = vec![0.0; n];
            for j in 0..4 {
                truth[(7 + j * 11) % n] = 1.0 + 0.3 * j as f64;
            }
            let exact = a.matvec(&truth);
            let noisy: Vec<f64> = exact
                .iter()
                .enumerate()
                .map(|(i, v)| v + 0.05 * ((i * 37 % 11) as f64 - 5.0))
                .collect();
            let mut ws = SolverWorkspace::new();
            let mut run = |y: &[f64], options: GreedyOptions, stop| {
                pin(&mut ws, stop, None, |obs, ws| {
                    solve_iht_workspace(&a, y, &options, obs, ws)
                })
            };
            vec![
                run(
                    &exact,
                    GreedyOptions {
                        max_sparsity: 6,
                        max_iterations: 400,
                        ..GreedyOptions::default()
                    },
                    Stop::Early,
                ),
                run(
                    &noisy,
                    GreedyOptions {
                        max_sparsity: 6,
                        max_iterations: 25,
                        step: Some(0.9),
                        ..GreedyOptions::default()
                    },
                    Stop::Cap,
                ),
            ]
        },
    );
}
