//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every end-to-end metric as (name, unit), in `BENCHMARK.json` order.
/// Printed by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("windows_per_s", "windows/s"),
    ("rt_sessions_per_core", "sessions"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("snr_db_mean", "dB"),
    ("full_hybrid_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric as (name, unit), in `BENCHMARK.json` order.
/// Printed by every workload with tracing on; a layer the workload does
/// not drive reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("solver.iterations_mean", "iterations"),
    ("solver.cap_hit_frac", "ratio"),
    ("solver.ms_per_iteration.k1", "ms"),
    ("solver.ms_per_iteration.k16", "ms"),
    ("solver.sensing_calls_per_iteration", "calls"),
    ("core.decode_ms_per_window.serial", "ms"),
    ("core.decode_ms_per_window.k1", "ms"),
    ("core.decode_ms_per_window.k16", "ms"),
    ("frontend.sensing_fwd_us.k1", "us"),
    ("frontend.sensing_fwd_us.k16", "us"),
    ("frontend.sensing_adj_us.k1", "us"),
    ("frontend.sensing_adj_us.k16", "us"),
    ("dsp.dwt_fwd_us.k1", "us"),
    ("dsp.dwt_fwd_us.k16", "us"),
    ("dsp.dwt_inv_us.k1", "us"),
    ("dsp.dwt_inv_us.k16", "us"),
    ("ledger.k1.kernel_ms_per_iteration", "ms"),
    ("ledger.k1.unexplained_frac", "ratio"),
    ("ledger.k16.kernel_ms_per_iteration", "ms"),
    ("ledger.k16.unexplained_frac", "ratio"),
    ("coding.parse_us_per_frame", "us"),
    ("gateway.push_us_p50", "us"),
    ("gateway.flush_ms_per_window", "ms"),
    ("gateway.windows_per_flush_mean", "windows"),
    ("gateway.rung_hybrid", "count"),
    ("gateway.rung_cs_only", "count"),
    ("gateway.rung_lowres", "count"),
    ("gateway.rung_concealed", "count"),
    ("net.poll_ms_p50", "ms"),
    ("net.poll_ms_p99", "ms"),
    ("net.poll_busy_frac", "ratio"),
    ("net.bytes_per_window", "bytes"),
    ("load.send_lag_p90_ms", "ms"),
    ("load.deadline_miss_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric; its unit comes from [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table, or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `table` (per-layer metrics the run did not set read 0).
///
/// # Panics
///
/// Panics when an end-to-end metric is missing — a workload bug.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> String {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        )
        .expect("write to String");
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite JSON number {v}");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 2, &m, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 2, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 7.5, \"unit\": \"s\"}"));
        let traced = result_line(true, 1, 0, &Metrics::default(), true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` names exactly these metrics, units and order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<(String, String)> = json
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let field = |key: &str| {
                    let start = l.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                    l[start..start + l[start..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
    }
}
