//! Run metadata printed with every result, and the trace file.

use std::fmt::Write as _;

use crate::common::Run;
use crate::trace::Tracer;
use crate::BenchError;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON line describing the host and the run. Results whose
/// `host_fingerprint` differ come from different hosts or SIMD tiers and
/// are not comparable.
pub fn line(workload: &str, run: &Run) -> String {
    let cpu = cpu_model();
    let available = hybridcs_linalg::simd::simd_available();
    let enabled = hybridcs_linalg::simd::simd_enabled();
    let force_scalar = std::env::var(hybridcs_linalg::simd::FORCE_SCALAR_ENV).ok();
    let fingerprint = hybridcs_rand::mix(
        cpu.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }) ^ (run.workers as u64) << 2
            ^ u64::from(enabled) << 1
            ^ u64::from(available),
    );
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu_model\": {}, \"nproc\": {}, \"simd_available\": {available}, \"simd_enabled\": {enabled}, \"force_scalar\": {}, \"git_rev\": {}, \"host_fingerprint\": \"{fingerprint:016x}\"}}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        run.trace,
        json_str(&cpu),
        run.workers,
        force_scalar.map_or("null".to_string(), |v| json_str(&v)),
        json_str(&git_rev()),
    )
}

/// Writes the spans, after the metadata line, to
/// `<target dir>/recvbench-trace/<workload>-<seed>.jsonl`.
pub fn write_trace(
    workload: &str,
    run: &Run,
    meta: &str,
    tracer: &Tracer,
) -> Result<(), BenchError> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let dir = std::path::Path::new(&target).join("recvbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-{}.jsonl", run.seed));
    std::fs::write(&path, format!("{meta}\n{}", tracer.to_jsonl()))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
