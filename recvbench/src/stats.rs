//! The benchmark's own arithmetic: percentiles with the "ten samples
//! beyond" rule, process CPU time, and peak memory.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (any order) at quantile `q` in
/// `[0, 1]`: the smallest sample with at least `q` of the samples at or
/// below it.
///
/// # Panics
///
/// Panics on an empty sample set or a `q` outside `[0, 1]`.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The percentile, or an error when fewer than `min_beyond` samples lie
/// beyond it — a tail read from fewer samples than that is noise.
pub fn tail_percentile(samples: &[f64], q: f64, min_beyond: usize) -> Result<f64, String> {
    let beyond = if samples.is_empty() {
        0
    } else {
        samples_beyond(samples.len(), q)
    };
    if beyond < min_beyond {
        return Err(format!(
            "p{:.0} of {} samples has {beyond} beyond it, need {min_beyond}",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(percentile(samples, q))
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (the 0.5 nearest-rank percentile).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every supported ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, from `/proc/self/stat`.
/// The kernel folds the times of exited threads into the process
/// totals, so scoped worker threads that already joined are counted.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is unreadable or malformed.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("parse /proc/self/stat")
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3, so field k sits at index k - 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Attributes commits to windows through the gateway's pending count.
///
/// The gateway commits in ingest order (DESIGN §9), so when `entered`
/// windows have been pushed and `pending` are still queued, exactly the
/// oldest `entered - pending` have committed. Each window is identified by
/// its 0-based push index; `due` maps that index to its due instant.
#[derive(Debug, Default)]
pub struct FifoCommits {
    committed: u64,
    /// Latency samples (seconds) of committed windows, by push index;
    /// negative when a commit was seen before its window was due.
    pub latencies: Vec<(u64, f64)>,
}

impl FifoCommits {
    /// Records the commits implied by the current counts at `now`.
    ///
    /// # Panics
    ///
    /// Panics when the counts go backwards (pending above entered, or
    /// fewer commits than already seen) — the FIFO premise is broken.
    pub fn settle(
        &mut self,
        entered: u64,
        pending: u64,
        now: Instant,
        due: impl Fn(u64) -> Instant,
    ) {
        assert!(pending <= entered, "pending {pending} > entered {entered}");
        let committed = entered - pending;
        assert!(committed >= self.committed, "commit count went backwards");
        for index in self.committed..committed {
            let due = due(index);
            let latency = if now >= due {
                (now - due).as_secs_f64()
            } else {
                -(due - now).as_secs_f64()
            };
            self.latencies.push((index, latency));
        }
        self.committed = committed;
    }

    /// Windows committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn ten_beyond_rule_needs_a_hundred_samples_for_p90() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
        let ok: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_percentile(&ok, 0.9, 10).is_ok());
        assert!(tail_percentile(&ok[..99], 0.9, 10).is_err());
        assert!(tail_percentile(&[], 0.5, 10).is_err());
    }

    #[test]
    fn proc_stat_parsing_skips_the_command_name() {
        let line = "42 (a b) c) S 1 1 1 0 -1 0 0 0 0 0 250 50 0 0 20 0 3 0 1 1 1";
        assert_eq!(parse_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn cpu_seconds_include_exited_scoped_threads() {
        // Each worker burns CPU and reports its own thread's CPU time just
        // before it exits. Tests running in parallel only add to the
        // process total, so the check is a lower bound.
        fn own_cpu_seconds() -> f64 {
            let own = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
            parse_cpu_seconds(&own).expect("thread CPU time")
        }
        // Spins until the thread itself has used 0.1 CPU-s, however fast
        // the host.
        fn work() -> f64 {
            let mut x = 0u64;
            while own_cpu_seconds() < 0.1 {
                for i in 0..1_000_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
            }
            own_cpu_seconds()
        }
        let before = cpu_seconds();
        let own: f64 = std::thread::scope(|s| {
            let a = s.spawn(work);
            let b = s.spawn(work);
            a.join().expect("worker a") + b.join().expect("worker b")
        });
        // Both threads have exited; their CPU time must still show.
        let spent = cpu_seconds() - before;
        assert!(own >= 0.2, "workers took only {own} CPU-s");
        assert!(
            spent >= own - 0.02,
            "{spent} CPU-s seen for workers that used {own}"
        );
    }

    #[test]
    fn fifo_commits_attribute_the_oldest_windows() {
        let start = Instant::now();
        // Window i was due at 100·i ms.
        let due_of = |i: u64| start + Duration::from_millis(100 * i);
        let mut fifo = FifoCommits::default();
        // Three pushed, none committed.
        fifo.settle(3, 3, start + Duration::from_millis(250), due_of);
        assert_eq!(fifo.committed(), 0);
        // A flush committed the first two; a fourth window arrived.
        fifo.settle(4, 2, start + Duration::from_millis(400), due_of);
        assert_eq!(fifo.committed(), 2);
        let got: Vec<(u64, f64)> = fifo.latencies.clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 0);
        assert!((got[0].1 - 0.4).abs() < 1e-9);
        assert_eq!(got[1].0, 1);
        assert!((got[1].1 - 0.3).abs() < 1e-9);
        // Everything drains.
        fifo.settle(6, 0, start + Duration::from_millis(900), due_of);
        let indices: Vec<u64> = fifo.latencies.iter().map(|l| l.0).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
        assert!((fifo.latencies[5].1 - 0.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pending")]
    fn fifo_commits_reject_impossible_counts() {
        let now = Instant::now();
        FifoCommits::default().settle(1, 2, now, |_| now);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
