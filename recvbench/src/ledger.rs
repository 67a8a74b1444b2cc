//! The per-layer kernel ledger: replays a workload's own encoded windows
//! outside the gateway, through the public solver, decoder, sensing, DWT
//! and frame-parsing functions, at the workload's shape.

use std::time::Instant;

use hybridcs_coding::LowResCodec;
use hybridcs_core::{
    DecodeLadder, DecoderAlgorithm, EncodedWindow, HybridDecoder, SensingOperator, SystemConfig,
};
use hybridcs_dsp::Dwt;
use hybridcs_frontend::{LowResChannel, LowResFrame, MeasurementQuantizer, SensingMatrix};
use hybridcs_solver::{
    solve_pdhg_batch_workspace, BatchProblem, BpdnProblem, IterationObserver, LinearOperator,
    NoopObserver, PdhgOptions, SolverWorkspace, WatchdogConfig,
};

use crate::common::bits;
use crate::counting::Counting;
use crate::report::Metrics;
use crate::stats::median;
use crate::BenchError;

/// The receiver's solver inputs, rebuilt from the public API exactly as
/// `HybridDecoder` builds them.
pub struct Replay {
    sensing: SensingMatrix,
    norm: f64,
    dwt: Dwt,
    sigma: f64,
    channel: LowResChannel,
    codec: LowResCodec,
    window: usize,
    options: PdhgOptions,
}

/// The PDHG options of `system`; the benchmark measures PDHG, the default
/// decoder.
pub fn pdhg_options(system: &SystemConfig) -> Result<PdhgOptions, BenchError> {
    match system.algorithm {
        DecoderAlgorithm::Pdhg(options) => Ok(options),
        _ => Err("the benchmark measures PDHG, the default decoder".into()),
    }
}

impl Replay {
    pub fn new(system: &SystemConfig, codec: &LowResCodec) -> Result<Self, BenchError> {
        let options = pdhg_options(system)?;
        let sensing = SensingMatrix::bernoulli(system.measurements, system.window, system.seed)?;
        let norm = SensingOperator::new(&sensing).norm_est();
        let digitizer =
            MeasurementQuantizer::new(system.measurement_bits, system.measurement_full_scale_mv)?;
        Ok(Replay {
            norm,
            dwt: system.dwt()?,
            sigma: digitizer.noise_sigma(system.measurements) * system.sigma_scale,
            channel: LowResChannel::new(system.lowres_bits)?,
            codec: codec.clone(),
            window: system.window,
            options,
            sensing,
        })
    }

    fn bounds(&self, window: &EncodedWindow) -> Result<(Vec<f64>, Vec<f64>), BenchError> {
        let codes = self.codec.decode(&window.lowres, self.window)?;
        Ok(LowResFrame::from_codes(codes, &self.channel)?.bounds())
    }
}

/// One batched PDHG solve of the replayed windows.
pub struct ReplayOut {
    pub signals: Vec<Vec<f64>>,
    /// Lockstep iterations: the most any window of the batch ran.
    pub lockstep_iterations: usize,
    pub seconds: f64,
    pub forward: u64,
    pub adjoint: u64,
}

/// Solves `windows` as one lockstep batch, optionally through the
/// counting decorator.
pub fn replay_pdhg(
    replay: &Replay,
    windows: &[&EncodedWindow],
    options: &PdhgOptions,
    count: bool,
) -> Result<ReplayOut, BenchError> {
    let operator = SensingOperator::with_norm(&replay.sensing, replay.norm);
    let counting = Counting::new(&operator);
    let sensing: &dyn LinearOperator = if count { &counting } else { &operator };
    let bounds = windows
        .iter()
        .map(|w| replay.bounds(w))
        .collect::<Result<Vec<_>, _>>()?;
    let problems: Vec<BpdnProblem<'_>> = windows
        .iter()
        .zip(&bounds)
        .map(|(w, (lo, hi))| BpdnProblem {
            sensing,
            dwt: &replay.dwt,
            measurements: &w.measurements,
            sigma: replay.sigma,
            box_bounds: Some((lo, hi)),
            coefficient_weights: None,
        })
        .collect();
    let batch = BatchProblem::new(&problems)?;
    let mut noops: Vec<NoopObserver> = windows.iter().map(|_| NoopObserver).collect();
    let mut observers: Vec<&mut dyn IterationObserver> = noops
        .iter_mut()
        .map(|o| o as &mut dyn IterationObserver)
        .collect();
    let mut ws = SolverWorkspace::new();
    let mut out = Vec::new();
    let started = Instant::now();
    solve_pdhg_batch_workspace(&batch, options, &mut observers, &mut ws, &mut out)?;
    let seconds = started.elapsed().as_secs_f64();
    let results: Vec<_> = out
        .into_iter()
        .map(|r| r.expect("batch solve fills every window"))
        .collect();
    Ok(ReplayOut {
        lockstep_iterations: results.iter().map(|r| r.iterations).max().unwrap_or(0),
        signals: results.into_iter().map(|r| r.signal).collect(),
        seconds,
        forward: counting.forward.get(),
        adjoint: counting.adjoint.get(),
    })
}

/// Median per-call seconds of `f`, from batches of calls run for about
/// a quarter of a second.
fn per_call_seconds(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 20;
    let mut batches = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 0.25 || batches.len() < 5 {
        let t = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() / f64::from(BATCH));
    }
    median(&batches)
}

/// Per-call microseconds of the four kernel families at panel width `k`:
/// (sensing forward, sensing adjoint, DWT forward, DWT inverse).
fn kernel_us(replay: &Replay, k: usize) -> Result<[f64; 4], BenchError> {
    let n = replay.window;
    let m = replay.sensing.measurements();
    let x: Vec<f64> = (0..n * k)
        .map(|i| ((i * 7919) % 1000) as f64 / 500.0 - 1.0)
        .collect();
    let y: Vec<f64> = (0..m * k)
        .map(|i| ((i * 104_729) % 1000) as f64 / 500.0 - 1.0)
        .collect();
    let mut out_m = vec![0.0; m * k];
    let mut out_n = vec![0.0; n * k];
    let mut scratch = vec![0.0; replay.sensing.batch_scratch_len(k)];
    let mut dwt_scratch = vec![0.0; Dwt::panel_scratch_len(n, k)];
    let fwd = per_call_seconds(|| {
        replay.sensing.apply_batch_into_scratch(
            std::hint::black_box(&x),
            k,
            &mut out_m,
            &mut scratch,
        );
    });
    let adj = per_call_seconds(|| {
        replay.sensing.apply_adjoint_batch_into_scratch(
            std::hint::black_box(&y),
            k,
            &mut out_n,
            &mut scratch,
        );
    });
    let mut failed = None;
    let dwt_fwd = per_call_seconds(|| {
        if let Err(e) =
            replay
                .dwt
                .forward_panel_into(std::hint::black_box(&x), k, &mut out_n, &mut dwt_scratch)
        {
            failed = Some(e);
        }
    });
    let coeffs = out_n.clone();
    let dwt_inv = per_call_seconds(|| {
        if let Err(e) = replay.dwt.inverse_panel_into(
            std::hint::black_box(&coeffs),
            k,
            &mut out_n,
            &mut dwt_scratch,
        ) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    Ok([fwd, adj, dwt_fwd, dwt_inv].map(|s| s * 1e6))
}

/// Fills the solver, core, frontend, dsp, coding and ledger metrics from
/// a replay of `windows` (at least 16) and `frames` at one shape.
pub fn fill(
    system: &SystemConfig,
    codec: &LowResCodec,
    windows: &[&EncodedWindow],
    frames: &[&[u8]],
    metrics: &mut Metrics,
) -> Result<(), BenchError> {
    const K: usize = 16;
    if windows.len() < K {
        return Err(format!("the ledger needs {K} windows, got {}", windows.len()).into());
    }
    let replay = Replay::new(system, codec)?;

    // Solver: lockstep batches of 1 and 16, plain (timed) and counted
    // (bit-identity and call counts).
    let mut kernel_ms = [0.0; 2];
    let mut solve_ms = [0.0; 2];
    for (slot, k) in [1, K].into_iter().enumerate() {
        let plain = replay_pdhg(&replay, &windows[..k], &replay.options, false)?;
        let counted = replay_pdhg(&replay, &windows[..k], &replay.options, true)?;
        if plain
            .signals
            .iter()
            .map(|s| bits(s))
            .ne(counted.signals.iter().map(|s| bits(s)))
        {
            return Err(format!("counting decorator changed the k = {k} solve").into());
        }
        let iterations = plain.lockstep_iterations.max(1) as f64;
        let calls_per_iteration = (counted.forward + counted.adjoint) as f64 / iterations;
        let forward_per_iteration = counted.forward as f64 / iterations;
        let adjoint_per_iteration = counted.adjoint as f64 / iterations;
        solve_ms[slot] = plain.seconds * 1e3 / iterations;
        let [fwd, adj, dwt_fwd, dwt_inv] = kernel_us(&replay, k)?;
        let (tag, sensing_fwd, sensing_adj, dwt_f, dwt_i) = if k == 1 {
            (
                "k1",
                "frontend.sensing_fwd_us.k1",
                "frontend.sensing_adj_us.k1",
                "dsp.dwt_fwd_us.k1",
                "dsp.dwt_inv_us.k1",
            )
        } else {
            (
                "k16",
                "frontend.sensing_fwd_us.k16",
                "frontend.sensing_adj_us.k16",
                "dsp.dwt_fwd_us.k16",
                "dsp.dwt_inv_us.k16",
            )
        };
        metrics.set(sensing_fwd, fwd);
        metrics.set(sensing_adj, adj);
        metrics.set(dwt_f, dwt_fwd);
        metrics.set(dwt_i, dwt_inv);
        // pdhg.rs makes one DWT forward and one DWT inverse call per
        // iteration; the sensing calls are counted.
        kernel_ms[slot] =
            (forward_per_iteration * fwd + adjoint_per_iteration * adj + dwt_fwd + dwt_inv) / 1e3;
        if k == K {
            metrics.set("solver.sensing_calls_per_iteration", calls_per_iteration);
        }
        eprintln!(
            "ledger {tag}: {:.3} ms/iteration measured; sensing {forward_per_iteration:.3}×{fwd:.1} µs + {adjoint_per_iteration:.3}×{adj:.1} µs, DWT {dwt_fwd:.1} + {dwt_inv:.1} µs = {:.3} ms explained, {:.3} ms unexplained",
            solve_ms[slot],
            kernel_ms[slot],
            solve_ms[slot] - kernel_ms[slot]
        );
    }
    metrics.set("solver.ms_per_iteration.k1", solve_ms[0]);
    metrics.set("solver.ms_per_iteration.k16", solve_ms[1]);
    metrics.set("ledger.k1.kernel_ms_per_iteration", kernel_ms[0]);
    metrics.set("ledger.k16.kernel_ms_per_iteration", kernel_ms[1]);
    metrics.set(
        "ledger.k1.unexplained_frac",
        1.0 - kernel_ms[0] / solve_ms[0],
    );
    metrics.set(
        "ledger.k16.unexplained_frac",
        1.0 - kernel_ms[1] / solve_ms[1],
    );

    // Core: the decoder's serial and batched entry points.
    let decoder = HybridDecoder::new(system, codec.clone())?;
    let mut ws = SolverWorkspace::new();
    let started = Instant::now();
    for w in &windows[..2] {
        decoder.decode_workspace(w, true, &mut NoopObserver, &mut ws)?;
    }
    metrics.set(
        "core.decode_ms_per_window.serial",
        started.elapsed().as_secs_f64() * 1e3 / 2.0,
    );
    for (name, k, groups) in [
        ("core.decode_ms_per_window.k1", 1, 2),
        ("core.decode_ms_per_window.k16", K, 1),
    ] {
        let mut out = Vec::new();
        let started = Instant::now();
        for group in windows.chunks(k).take(groups) {
            let mut noops: Vec<NoopObserver> = group.iter().map(|_| NoopObserver).collect();
            let mut observers: Vec<&mut dyn IterationObserver> = noops
                .iter_mut()
                .map(|o| o as &mut dyn IterationObserver)
                .collect();
            decoder.decode_batch_workspace(group, true, &mut observers, &mut ws, &mut out)?;
            if let Some(Err(e)) = out.iter().find(|r| r.is_err()) {
                return Err(format!("batched decode failed: {e}").into());
            }
        }
        metrics.set(
            name,
            started.elapsed().as_secs_f64() * 1e3 / (k * groups) as f64,
        );
    }

    // Coding: wire-frame parsing into sections.
    let ladder = DecodeLadder::new(system, codec.clone(), WatchdogConfig::default())?;
    let per_frame = per_call_seconds(|| {
        for f in frames {
            std::hint::black_box(ladder.parse(Some(f)));
        }
    }) / frames.len().max(1) as f64;
    metrics.set("coding.parse_us_per_frame", per_frame * 1e6);
    Ok(())
}
