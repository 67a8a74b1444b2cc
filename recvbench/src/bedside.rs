//! `bedside`: an open loop over the socket tier. One paced device per
//! core streams over loopback into an `IngestServer`, each sending one
//! frame per real-time window period (512 / 360 Hz), all in phase. The
//! server's idle-round flush solves each window as soon as it lands, so
//! this is the K = 1 solve path with decode running inline on the poll
//! thread. Each window is timed from when it was due to its commit.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hybridcs_gateway::{Gateway, GatewayConfig};
use hybridcs_net::proto::encode;
use hybridcs_net::{IngestConfig, IngestServer, Message, ShapeTable, StreamDecoder, PROTO_VERSION};

use crate::common::{
    bits, check_window, end_to_end, layer_counts, repeated_setup, Clock, Outcome, Run, Tally,
    Throughput, PERIOD_S, TAIL_BEYOND, TAIL_WINDOWS,
};
use crate::inputs::{streams, Shape};
use crate::report::Metrics;
use crate::stats::{percentile, FifoCommits};
use crate::trace::Tracer;
use crate::{ledger, BenchError};

/// Lead time between the end of set-up and the first due window.
const LEAD: Duration = Duration::from_millis(100);
/// How long the server may take past the last due window to commit it.
const DRAIN: Duration = Duration::from_secs(20);
/// Poll-loop back-off when a round read nothing and nothing is pending.
const IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Periods sent before the latency samples. Now and then the scheduler
/// stacks a flush's two workers on one core and the flush takes ~1.1 s
/// instead of ~0.65 s; a run's first flushes do so more often (8 of the 28
/// such flushes in 18 runs fell in a run's first 5). Warm-up windows are
/// checked and counted but not sampled for latency.
const WARMUP_PERIODS: usize = 5;

/// A paced device: the wire protocol's device side, built on the public
/// `proto` encoder and stream decoder.
struct Device {
    id: u64,
    stream: TcpStream,
    decoder: StreamDecoder,
    granted: u64,
    synced: bool,
    closed: bool,
    /// Server messages a loss-free stream should never see (nacks,
    /// overload notes, rejects).
    unexpected: Vec<String>,
}

impl Device {
    fn send(&mut self, message: &Message) -> Result<(), BenchError> {
        let bytes = encode(message);
        let mut sent = 0;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err(format!("device {} socket closed", self.id).into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads and handles whatever the server has sent.
    fn receive(&mut self) -> Result<(), BenchError> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        while let Some(message) = self.decoder.next_message() {
            match message {
                Message::HelloAck { granted, .. } | Message::Credit { granted } => {
                    self.granted = self.granted.max(granted);
                }
                Message::TimeSyncAck { .. } => self.synced = true,
                Message::CloseAck { .. } => self.closed = true,
                other => self
                    .unexpected
                    .push(format!("device {} got {}", self.id, other.name())),
            }
        }
        Ok(())
    }
}

/// Binds a server and brings every device through handshake and time
/// sync.
fn connect(
    ingest: &IngestConfig,
    shapes: &ShapeTable,
    ids: &[u64],
) -> Result<(IngestServer, Vec<Device>), BenchError> {
    let mut server = IngestServer::bind("127.0.0.1:0", ingest.clone(), shapes.clone())?;
    let shape_fp = shapes.fingerprints()[0];
    let mut devices = Vec::with_capacity(ids.len());
    for &id in ids {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut device = Device {
            id,
            stream,
            decoder: StreamDecoder::new(),
            granted: 0,
            synced: false,
            closed: false,
            unexpected: Vec::new(),
        };
        device.send(&Message::Hello {
            version: PROTO_VERSION,
            device: id,
            shape_fp,
            config_fp: server.config_fingerprint(),
        })?;
        device.send(&Message::TimeSync { device_tick: 0 })?;
        devices.push(device);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !devices.iter().all(|d| d.synced && d.granted > 0) {
        if Instant::now() > deadline {
            return Err("devices did not finish the handshake within 10 s".into());
        }
        server.poll()?;
        for d in &mut devices {
            d.receive()?;
            if let Some(e) = d.unexpected.first() {
                return Err(e.clone().into());
            }
        }
    }
    Ok((server, devices))
}

/// Session ids whose shards land on distinct workers, so each device's
/// window is solved on its own worker (device `i` on worker `i mod
/// workers`).
fn device_ids(devices: usize, config: &GatewayConfig) -> Vec<u64> {
    let mut ids = Vec::with_capacity(devices);
    let mut used_shards = Vec::new();
    let mut candidate = 1u64;
    while ids.len() < devices {
        let shard = (hybridcs_rand::mix(candidate) % config.shards as u64) as usize;
        if shard % config.workers == ids.len() % config.workers && !used_shards.contains(&shard) {
            ids.push(candidate);
            used_shards.push(shard);
        }
        candidate += 1;
    }
    ids
}

pub fn run(run: &Run) -> Result<Outcome, BenchError> {
    let devices = run.workers.max(2);
    let sampled = ((run.seconds / PERIOD_S).ceil() as usize).max(TAIL_WINDOWS.div_ceil(devices));
    let periods = WARMUP_PERIODS + sampled;
    let due_windows = (devices * periods) as u64;
    let warmup_windows = (devices * WARMUP_PERIODS) as u64;
    let shape = Shape::build(96)?;
    let config = GatewayConfig {
        workers: run.workers,
        ..GatewayConfig::default()
    };
    let ids = device_ids(devices, &config);
    let streams = streams(&shape, &ids, periods, periods, run.seed)?;
    let max_iterations = ledger::pdhg_options(&shape.system)?.max_iterations;
    let ingest = IngestConfig {
        gateway: config,
        ..IngestConfig::default()
    };
    let shapes = ShapeTable::new(vec![(shape.system.clone(), shape.codec.clone())]);
    let ((mut server, mut conns), setup_s) = repeated_setup(|| connect(&ingest, &shapes, &ids))?;

    let mut tracer = Tracer::new(run.trace);
    let mut errors = Vec::new();
    let mut fifo = FifoCommits::default();
    let (mut bytes_read, mut flush_s, mut flushes) = (0usize, 0.0, 0u64);
    // Durations of the polls that read bytes or committed windows; idle
    // polls only measure how often this loop spins.
    let mut working_polls = Vec::new();
    let frames_pushed = || {
        hybridcs_obs::global()
            .counter("net_frames_total", &[])
            .value()
    };
    let pushed_before = frames_pushed();
    let clock = Clock::start();
    let start = Instant::now() + LEAD;
    let due_at = |period: u64| start + Duration::from_secs_f64(PERIOD_S * period as f64);
    let mut last_commit = start;
    let (all_committed, committed_rx) = mpsc::channel::<()>();

    let lags = std::thread::scope(|scope| -> Result<Vec<f64>, BenchError> {
        // The paced generator: sleeps to each due instant, sends every
        // device's frame, then waits for the commits before closing.
        let (conns, streams) = (&mut conns, &streams);
        let generator = scope.spawn(move || -> Result<Vec<f64>, BenchError> {
            let mut lags = Vec::with_capacity(due_windows as usize);
            for period in 0..periods {
                let due = due_at(period as u64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                for (d, s) in conns.iter_mut().zip(streams.iter()) {
                    d.receive()?;
                    if d.granted <= period as u64 {
                        d.unexpected
                            .push(format!("device {} out of credit at frame {period}", d.id));
                    }
                    d.send(&Message::Frame {
                        sequence: period as u32,
                        device_tick: period as u64,
                        packet: s.frames[period].clone(),
                    })?;
                    lags.push(Instant::now().duration_since(due).as_secs_f64());
                }
            }
            // Close once every window has committed (or the server gave
            // up), then wait for each goodbye.
            let _ = committed_rx.recv_timeout(DRAIN);
            for d in conns.iter_mut() {
                d.send(&Message::Close)?;
            }
            let deadline = Instant::now() + DRAIN;
            while !conns.iter().all(|d| d.closed) && Instant::now() < deadline {
                std::thread::sleep(IDLE_SLEEP);
                for d in conns.iter_mut() {
                    d.receive()?;
                }
            }
            Ok(lags)
        });

        let last_due = due_at(periods as u64 - 1);
        let mut signalled = false;
        while server.sessions_closed() < devices as u64 {
            let poll_started = Instant::now();
            let poll = tracer.begin("net.poll", None, None);
            let report = server.poll()?;
            tracer.end(poll);
            let now = Instant::now();
            bytes_read += report.bytes_read;
            let before = fifo.committed();
            let entered = frames_pushed() - pushed_before;
            let pending = server.gateway().pending_windows() as u64;
            fifo.settle(entered, pending, now, |i| due_at(i / devices as u64));
            let took = now.duration_since(poll_started).as_secs_f64();
            if fifo.committed() > before {
                last_commit = now;
                flushes += 1;
                flush_s += took;
            }
            if report.bytes_read > 0 || fifo.committed() > before {
                working_polls.push(took);
            }
            let drained = fifo.committed() == due_windows || now > last_due + DRAIN;
            if drained && !signalled {
                signalled = true;
                all_committed
                    .send(())
                    .map_err(|_| "generator stopped early")?;
            }
            if now > last_due + 2 * DRAIN {
                return Err("sessions did not close".into());
            }
            if report.bytes_read == 0 && pending == 0 {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        generator.join().map_err(|_| "generator thread panicked")?
    })?;
    let (_, cpu) = clock.stop();
    let wall = last_commit.duration_since(start).as_secs_f64();
    if !(wall > 0.0 && cpu > 0.0) {
        return Err("no window committed".into());
    }
    for d in &conns {
        errors.extend(d.unexpected.iter().cloned());
    }

    // Commits seen before their due instant would mean the FIFO
    // attribution is wrong.
    if fifo.latencies.iter().any(|(_, l)| *l < 0.0) {
        errors.push("a commit was attributed to a window not yet due".into());
    }
    // Latency samples: every window after the warm-up. A window that
    // never committed missed every limit: it enters the percentiles with
    // its wait up to the moment the run stopped.
    let stopped = Instant::now();
    let latencies: Vec<f64> = fifo
        .latencies
        .iter()
        .filter(|(i, _)| *i >= warmup_windows)
        .map(|(_, l)| *l)
        .chain(
            (fifo.committed().max(warmup_windows)..due_windows).map(|i| {
                stopped
                    .duration_since(due_at(i / devices as u64))
                    .as_secs_f64()
            }),
        )
        .collect();
    let missed = latencies.iter().filter(|l| **l > PERIOD_S).count() as u64;
    eprintln!(
        "bedside: {devices} devices × ({WARMUP_PERIODS} warm-up + {sampled}) periods; {} of {due_windows} committed, {missed} of {} sampled past the {:.0} ms deadline",
        fifo.committed(),
        latencies.len(),
        PERIOD_S * 1e3
    );

    // Outputs: complete, in order, finite, and bit-identical to the same
    // frames pushed session-major into a fresh in-process gateway.
    let outputs = server.take_outputs();
    let mut tally = Tally::default();
    let mut fresh = Gateway::new(config)?;
    for s in &streams {
        fresh.handshake(s.id, &shape.system, shape.codec.clone())?;
        for f in &s.frames {
            fresh.push(s.id, f)?;
        }
    }
    for s in &streams {
        let got = outputs.get(&s.id).map_or(&[][..], Vec::as_slice);
        if got.len() != periods {
            errors.push(format!(
                "device {}: {} windows committed, {periods} due",
                s.id,
                got.len()
            ));
        }
        for (k, w) in got.iter().enumerate() {
            check_window(s.id, k, w, shape.system.window, &mut errors);
            tally.add(w, s.clean_of(k as u32), max_iterations);
        }
        let want = fresh.close(s.id)?;
        let same = got.len() == want.len()
            && got.iter().zip(&want).all(|(a, b)| {
                a.rung == b.rung && a.sequence == b.sequence && bits(&a.signal) == bits(&b.signal)
            });
        if !same {
            errors.push(format!(
                "device {}: socket outputs differ from the in-process replay",
                s.id
            ));
        }
    }

    let mut metrics = Metrics::default();
    if run.trace {
        layer_counts(&mut metrics, &tally);
        metrics.set("net.poll_ms_p50", percentile(&working_polls, 0.5) * 1e3);
        metrics.set("net.poll_ms_p99", percentile(&working_polls, 0.99) * 1e3);
        let polls = tracer.durations("net.poll");
        metrics.set("net.poll_busy_frac", polls.iter().sum::<f64>() / wall);
        metrics.set(
            "net.bytes_per_window",
            bytes_read as f64 / due_windows as f64,
        );
        metrics.set(
            "gateway.flush_ms_per_window",
            flush_s * 1e3 / fifo.committed().max(1) as f64,
        );
        metrics.set(
            "gateway.windows_per_flush_mean",
            fifo.committed() as f64 / flushes.max(1) as f64,
        );
        metrics.set("load.send_lag_p90_ms", percentile(&lags, 0.9) * 1e3);
        metrics.set(
            "load.deadline_miss_frac",
            missed as f64 / latencies.len() as f64,
        );
        let windows: Vec<_> = (0..16)
            .map(|i| &streams[i % devices].encoded[i / devices])
            .collect();
        let frames: Vec<&[u8]> = streams
            .iter()
            .flat_map(|s| s.frames.iter().map(Vec::as_slice))
            .collect();
        ledger::fill(&shape.system, &shape.codec, &windows, &frames, &mut metrics)?;
    } else {
        end_to_end(
            &mut metrics,
            &tally,
            due_windows,
            Throughput {
                per_wall_s: tally.full_hybrid() as f64 / wall,
                per_cpu_s: tally.full_hybrid() as f64 / cpu,
            },
            &latencies,
            TAIL_BEYOND,
            &setup_s,
        )?;
    }
    Ok(Outcome {
        attempted: due_windows,
        failed: due_windows - tally.full_hybrid(),
        errors,
        metrics,
        tracer,
        wall_s: wall,
    })
}
