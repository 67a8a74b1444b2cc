//! `fleet`: a closed loop over 128 in-process sessions at the default
//! operating point, in four phase groups of 32. Each round pushes one
//! window per session of one group, flushes once and drains the group —
//! the period-synchronous flush of a 128-bed ward whose beds are split
//! over four phases, run back to back. A group's sessions fill two shards
//! with 16 each, so every flush is two K = 16 batched solves, one per
//! worker, and the batched solver and its kernels do the work.

use hybridcs_core::{HybridDecoder, SupervisedWindow};
use hybridcs_gateway::{Gateway, GatewayConfig};

use crate::common::{
    bits, check_round, closed_loop, end_to_end, gateway_spans, layer_counts, repeated_setup,
    rounds_for, window_id, Outcome, Run, Tally,
};
use crate::inputs::{streams, Shape};
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{ledger, BenchError};

const SESSIONS: usize = 128;
/// Phase groups; round `r` flushes group `r mod GROUPS`.
const GROUPS: usize = 4;
/// Distinct source windows per session; frame k carries window k mod 8.
const DISTINCT: usize = 8;
/// Wall seconds of one pass — a window from every session, `GROUPS`
/// rounds — on the reference host; a run is `--seconds / PASS_S` passes.
const PASS_S: f64 = 6.0;
/// Fleet windows re-decoded serially after the timed section.
const SERIAL_SAMPLE: usize = 4;

/// Session ids in group order: group `g` is `ids[32 g..32 (g + 1)]`,
/// 16 sessions on shard `2 g` and 16 on shard `2 g + 1`, so its flush is
/// one K = 16 group on each of two workers.
fn phase_group_ids(config: &GatewayConfig) -> Vec<u64> {
    let shards_per_group = config.shards / GROUPS;
    let per_shard = SESSIONS / config.shards;
    assert!(
        shards_per_group * GROUPS == config.shards && per_shard * config.shards == SESSIONS,
        "{SESSIONS} sessions split evenly over {} shards and {GROUPS} groups",
        config.shards
    );
    let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); config.shards];
    let mut candidate = 1u64;
    while by_shard.iter().any(|ids| ids.len() < per_shard) {
        let shard = (hybridcs_rand::mix(candidate) % config.shards as u64) as usize;
        if by_shard[shard].len() < per_shard {
            by_shard[shard].push(candidate);
        }
        candidate += 1;
    }
    by_shard.concat()
}

pub fn run(run: &Run) -> Result<Outcome, BenchError> {
    let shape = Shape::build(96)?;
    // Full admission, loss-free: every window is due a full solve.
    let config = GatewayConfig {
        workers: run.workers,
        ..GatewayConfig::default()
    };
    let ids = phase_group_ids(&config);
    let group_size = SESSIONS / GROUPS;
    let passes = rounds_for(run.seconds, PASS_S);
    let rounds = GROUPS * passes;
    let streams = streams(&shape, &ids, DISTINCT, passes, run.seed)?;
    let max_iterations = ledger::pdhg_options(&shape.system)?.max_iterations;

    assert!(
        config.admit_quota >= config.admit_window,
        "fleet admits every window"
    );
    let (mut gateway, setup_s) = repeated_setup(|| {
        let mut gateway = Gateway::new(config)?;
        for s in &streams {
            gateway.handshake(s.id, &shape.system, shape.codec.clone())?;
        }
        Ok(gateway)
    })?;

    // Outputs are checked and tallied as each round drains, so memory
    // does not grow with the number of rounds; only the seeded sample of
    // sessions' first windows is kept for a serial re-decode.
    let mut sample: Vec<usize> = (0..SERIAL_SAMPLE as u64)
        .map(|i| (hybridcs_rand::mix(run.seed ^ (0xF1EE7 + i)) % SESSIONS as u64) as usize)
        .collect();
    sample.sort_unstable();
    sample.dedup();
    let mut kept: Vec<(usize, SupervisedWindow)> = Vec::new();
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut tracer = Tracer::new(run.trace);
    let (mut shed, mut committed) = (0, 0);
    let run_loop = closed_loop(rounds, &mut tracer, |r, tracer| {
        let round = tracer.begin("fleet.round", None, None);
        let full_before = tally.full_hybrid();
        let (group, k) = (r % GROUPS, r / GROUPS);
        let members = group * group_size..(group + 1) * group_size;
        for s in &streams[members.clone()] {
            tracer.time(
                "gateway.push",
                Some(round),
                Some(window_id(s.id, k)),
                || gateway.push(s.id, &s.frames[k]),
            )?;
        }
        let report = tracer.time("gateway.flush", Some(round), None, || gateway.flush())?;
        shed += report.shed;
        committed += report.committed as u64;
        for (i, s) in streams
            .iter()
            .enumerate()
            .take(members.end)
            .skip(members.start)
        {
            let out = tracer.time("gateway.take_outputs", Some(round), None, || {
                gateway.take_outputs(s.id)
            })?;
            check_round(
                s,
                k..k + 1,
                &out,
                shape.system.window,
                &mut tally,
                max_iterations,
                &mut errors,
            );
            if k == 0 && sample.contains(&i) {
                kept.extend(out.into_iter().map(|w| (i, w)));
            }
        }
        tracer.end(round);
        Ok((tally.full_hybrid() - full_before) as usize)
    })?;
    eprintln!(
        "fleet: {rounds} rounds of {group_size} windows in {:.2} s (rounds {:.2?} s)",
        run_loop.wall_s, run_loop.round_s
    );
    // Every window committed in its own group's round.
    for s in &streams {
        let stray = gateway.take_outputs(s.id)?.len();
        if stray != 0 {
            errors.push(format!(
                "session {} committed {stray} windows outside its rounds",
                s.id
            ));
        }
    }
    if shed != 0 {
        errors.push(format!(
            "fleet shed {shed} windows; admission must admit all"
        ));
    }

    // The sampled windows must match a serial decode of the same frame
    // bit for bit.
    let decoder = HybridDecoder::new(&shape.system, shape.codec.clone())?;
    for (i, got) in &kept {
        let frame = shape.wire.deserialize(&streams[*i].frames[0])?;
        let want = decoder.decode(&frame.encoded)?;
        if bits(&got.signal) != bits(&want.signal) {
            errors.push(format!(
                "session {} window 0 differs from a serial decode",
                streams[*i].id
            ));
        }
    }
    if kept.len() != sample.len() {
        errors.push(format!(
            "{} of {} sampled windows committed",
            kept.len(),
            sample.len()
        ));
    }

    let due = (passes * SESSIONS) as u64;
    let mut metrics = Metrics::default();
    if run.trace {
        layer_counts(&mut metrics, &tally);
        gateway_spans(&mut metrics, &tracer, committed, rounds as u64);
        let windows: Vec<_> = streams.iter().take(16).map(|s| &s.encoded[0]).collect();
        let frames: Vec<&[u8]> = streams
            .iter()
            .take(16)
            .map(|s| s.frames[0].as_slice())
            .collect();
        ledger::fill(&shape.system, &shape.codec, &windows, &frames, &mut metrics)?;
    } else {
        end_to_end(
            &mut metrics,
            &tally,
            due,
            run_loop.throughput,
            // One latency per round: its windows all commit in its one
            // flush, so a round is one sample however many windows it
            // holds, and no tail rule applies. At 30 s a run is 20 rounds:
            // the p50 is the median round, exactly 32 / `windows_per_s`
            // seconds, and the p90 is the third-slowest round.
            &run_loop.round_s,
            0,
            &setup_s,
        )?;
    }
    Ok(Outcome {
        attempted: due,
        failed: due - tally.full_hybrid(),
        errors,
        metrics,
        tracer,
        wall_s: run_loop.wall_s,
    })
}
