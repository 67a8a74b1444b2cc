//! What every workload shares: run parameters, output checks, tallies
//! over committed windows, and the end-to-end metric definitions.

use std::ops::Range;
use std::time::Instant;

use hybridcs_core::{LadderRung, SupervisedWindow};

use crate::inputs::Stream;
use crate::report::Metrics;
use crate::stats::{cpu_seconds, mean, median, peak_rss_mb, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::BenchError;

/// One window's real-time period: n = 512 samples at 360 Hz.
pub const PERIOD_S: f64 = 512.0 / 360.0;

/// Set-ups per run, back to back before the timed section; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 40;

/// Parameters of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Gateway workers: the host's available parallelism.
    pub workers: usize,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Windows due.
    pub attempted: u64,
    /// Due windows not committed at the full-hybrid rung.
    pub failed: u64,
    /// Correctness-gate failures; empty means correct.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    pub tracer: Tracer,
    /// Wall seconds of the timed section.
    pub wall_s: f64,
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result,
/// returning it with each set-up's seconds. The set-ups run back to
/// back: spaced out, or repeated after the timed section, one set-up
/// takes ~25 % longer than in a burst, and a median over that two-level
/// mix jumps from one level to the other between runs.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, BenchError>,
) -> Result<(T, Vec<f64>), BenchError> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance first so set-ups do not overlap.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), seconds))
}

/// A window's id in spans: session in the high half, sequence low.
pub fn window_id(session: u64, sequence: usize) -> u64 {
    (session << 32) | sequence as u64
}

/// Process CPU seconds and wall clock at the start of a timed section.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// (wall seconds, CPU seconds) since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.elapsed(), cpu_seconds() - self.cpu)
    }
}

/// Samples a bedside latency percentile needs beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Committed windows a bedside run needs at least, so that its p90
/// latency has [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_WINDOWS: usize = 100;

/// Full-hybrid windows committed per wall second and per process
/// CPU-second.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    pub per_wall_s: f64,
    pub per_cpu_s: f64,
}

/// Rounds run by [`closed_loop`].
pub struct ClosedLoop {
    /// Wall seconds of all rounds.
    pub wall_s: f64,
    /// Each round's wall seconds. Every window of a round is due when
    /// the round starts and commits in its one flush, so this is the
    /// round's due-to-commit latency: one sample per round, shared by all
    /// of its windows.
    pub round_s: Vec<f64>,
    /// Median over rounds of each round's throughput.
    pub throughput: Throughput,
}

/// Rounds a closed loop runs for `seconds`, one per `round_s` (a round's
/// wall time on the reference host), at least one. The count depends on
/// `seconds` alone, not on how fast the host runs that minute, so every
/// run takes the same order statistics over the same number of rounds.
pub fn rounds_for(seconds: f64, round_s: f64) -> usize {
    ((seconds / round_s).round() as usize).max(1)
}

/// Runs `round(r, tracer)` for `rounds` rounds back to back; each returns
/// the full-hybrid windows it committed. Throughput is measured per round
/// and the median round reported: the host's speed wanders by ±20 % from
/// one round to the next, and a median over rounds holds still where one
/// long average does not. There is no warm-up round; a slow
/// first round is one among several and the median passes over it.
pub fn closed_loop(
    rounds: usize,
    tracer: &mut Tracer,
    mut round: impl FnMut(usize, &mut Tracer) -> Result<usize, BenchError>,
) -> Result<ClosedLoop, BenchError> {
    assert!(rounds > 0, "a closed loop runs at least one round");
    let started = Instant::now();
    let mut round_s = Vec::with_capacity(rounds);
    let (mut per_wall, mut per_cpu) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        let clock = Clock::start();
        let full_hybrid = round(r, tracer)?;
        let (wall, cpu) = clock.stop();
        if !(wall > 0.0 && cpu > 0.0) {
            return Err(format!("round too short to measure: {wall} s, {cpu} CPU-s").into());
        }
        round_s.push(wall);
        per_wall.push(full_hybrid as f64 / wall);
        per_cpu.push(full_hybrid as f64 / cpu);
    }
    Ok(ClosedLoop {
        wall_s: started.elapsed().as_secs_f64(),
        round_s,
        throughput: Throughput {
            per_wall_s: median(&per_wall),
            per_cpu_s: median(&per_cpu),
        },
    })
}

/// Counts over committed windows.
#[derive(Debug, Default)]
pub struct Tally {
    /// Windows per rung: hybrid, CS-only, low-res, concealed.
    pub rungs: [u64; 4],
    pub snr_db: Vec<f64>,
    pub iterations: Vec<f64>,
    pub cap_hits: u64,
}

impl Tally {
    /// Adds one committed window decoded from `clean`.
    pub fn add(&mut self, window: &SupervisedWindow, clean: &[f64], max_iterations: usize) {
        self.rungs[usize::from(window.rung.code())] += 1;
        self.snr_db
            .push(hybridcs_metrics::snr_db(clean, &window.signal));
        if let Some(decoded) = &window.decoded {
            let r = &decoded.recovery;
            self.iterations.push(r.iterations as f64);
            if r.iterations >= max_iterations && !r.converged {
                self.cap_hits += 1;
            }
        }
    }

    pub fn full_hybrid(&self) -> u64 {
        self.rungs[usize::from(LadderRung::Hybrid.code())]
    }
}

/// Checks one committed window of session `id`: it is the session's
/// `k`-th, so it carries sequence `k` (a window lost on the link may carry
/// none, and then must be concealed), and its signal is `n` finite samples.
pub fn check_window(id: u64, k: usize, w: &SupervisedWindow, n: usize, errors: &mut Vec<String>) {
    let in_order = match w.sequence {
        Some(s) => s as usize == k,
        None => w.rung == LadderRung::Concealed,
    };
    if !in_order {
        errors.push(format!(
            "session {id}: window {k} carries sequence {:?} ({})",
            w.sequence,
            w.rung.name()
        ));
    }
    if w.signal.len() != n || !w.signal.iter().all(|v| v.is_finite()) {
        errors.push(format!(
            "session {id}: window {k} signal is not {n} finite samples"
        ));
    }
}

/// Checks that a round committed exactly the windows `expected` (stream
/// positions) of `stream`, and tallies them.
pub fn check_round(
    stream: &Stream,
    expected: Range<usize>,
    windows: &[SupervisedWindow],
    n: usize,
    tally: &mut Tally,
    max_iterations: usize,
    errors: &mut Vec<String>,
) {
    if windows.len() != expected.len() {
        errors.push(format!(
            "session {}: {} windows committed for positions {expected:?}",
            stream.id,
            windows.len()
        ));
    }
    for (k, w) in expected.zip(windows) {
        check_window(stream.id, k, w, n, errors);
        tally.add(w, stream.clean_of(k as u32), max_iterations);
    }
}

/// Bit patterns of a signal, for exact comparisons.
pub fn bits(signal: &[f64]) -> Vec<u64> {
    signal.iter().map(|v| v.to_bits()).collect()
}

/// The end-to-end metrics every workload reports. `latencies_s` holds
/// independent due-to-commit latency samples, and each percentile must
/// have `min_beyond` of them beyond it. `setup_s` holds every set-up's
/// seconds; the metric is their median.
pub fn end_to_end(
    metrics: &mut Metrics,
    tally: &Tally,
    due: u64,
    throughput: Throughput,
    latencies_s: &[f64],
    min_beyond: usize,
    setup_s: &[f64],
) -> Result<(), BenchError> {
    metrics.set("windows_per_s", throughput.per_wall_s);
    metrics.set("rt_sessions_per_core", throughput.per_cpu_s * PERIOD_S);
    metrics.set(
        "commit_p50_ms",
        tail_percentile(latencies_s, 0.5, min_beyond)? * 1e3,
    );
    metrics.set(
        "commit_p90_ms",
        tail_percentile(latencies_s, 0.9, min_beyond)? * 1e3,
    );
    metrics.set("snr_db_mean", mean(&tally.snr_db));
    metrics.set("full_hybrid_frac", tally.full_hybrid() as f64 / due as f64);
    metrics.set("setup_s", median(setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// The per-layer counts read straight off the committed windows.
pub fn layer_counts(metrics: &mut Metrics, tally: &Tally) {
    metrics.set("solver.iterations_mean", mean(&tally.iterations));
    let solved = tally.iterations.len().max(1) as f64;
    metrics.set("solver.cap_hit_frac", tally.cap_hits as f64 / solved);
    for (name, count) in [
        "gateway.rung_hybrid",
        "gateway.rung_cs_only",
        "gateway.rung_lowres",
        "gateway.rung_concealed",
    ]
    .into_iter()
    .zip(tally.rungs)
    {
        metrics.set(name, count as f64);
    }
}

/// Gateway push and flush metrics from the spans of an in-process run.
pub fn gateway_spans(metrics: &mut Metrics, tracer: &Tracer, committed: u64, flushes: u64) {
    let push = tracer.durations("gateway.push");
    if !push.is_empty() {
        metrics.set("gateway.push_us_p50", percentile(&push, 0.5) * 1e6);
    }
    let flush: f64 = tracer.durations("gateway.flush").iter().sum();
    metrics.set(
        "gateway.flush_ms_per_window",
        flush * 1e3 / committed.max(1) as f64,
    );
    metrics.set(
        "gateway.windows_per_flush_mean",
        committed as f64 / flushes.max(1) as f64,
    );
}
