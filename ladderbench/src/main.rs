//! `ladderbench` — one benchmark for the Brook Auto toolchain.
//!
//! ```text
//! ladderbench --workload <suite|compile|service|device> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it runs one workload for `--seconds`, checks
//! every output, and prints the end-to-end metrics. Traced
//! (`--trace 1`), it records a span around every call it makes into a
//! layer and prints the per-layer metrics, with the tracing overhead
//! measured against an untraced pass of the same workload. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A full report with
//! the run's provenance is written under `out/` next to this package's
//! manifest. The exit code is nonzero when a correctness gate fails.

mod backend;
mod compile;
mod device;
mod phases;
mod report;
mod service;
mod stats;
mod suite;
mod trace;

use report::{Metrics, Run};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["suite", "compile", "service", "device"];

/// Sub-windows of each pass of a traced run: enough to sample set-up
/// more than once, few enough that short passes still complete rounds.
const TRACE_BATCHES: u32 = 2;

fn run_workload(name: &str, seed: u64, window: Duration, traced: bool, batches: u32) -> Run {
    match name {
        "suite" => suite::run(seed, window, traced, batches),
        "compile" => compile::run(seed, window, traced, batches),
        "service" => service::run(seed, window, traced, batches),
        "device" => device::run(seed, window, traced, batches),
        other => unreachable!("workload `{other}` was validated by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The run's provenance: where and from what the figures came.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("cpu_model", cpu_model()),
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.get().to_string()),
        ),
        (
            "simd_level",
            format!("{:?}", brook_auto::brook_ir::simd::SimdMode::Auto.resolve()),
        ),
        ("rustc", env!("LADDERBENCH_RUSTC").to_string()),
        ("commit", git_commit(&repo)),
    ]
}

/// The processor's brand string, read with `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".into()
}

/// `git rev-parse HEAD` of the checkout, without looking above it.
fn git_commit(repo: &std::path::Path) -> String {
    let parent = repo.join("..");
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo)
        .env("GIT_CEILING_DIRECTORIES", &parent)
        .stderr(std::process::Stdio::null())
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown (not a git checkout)".into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    json_number(x.value),
                    x.unit
                )
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}");
    for x in &m.0 {
        println!("  {:<36} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

/// Writes `contents` to `out/<file>` under the package directory.
fn write_out(file: &str, contents: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(file);
    let result = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents));
    match result {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            eprintln!(
                "usage: ladderbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("{k:<12} {v}");
    }
    let window = Duration::from_secs_f64(args.seconds);
    let mut runs: Vec<(String, Run)> = Vec::new();
    let metrics = if args.trace {
        // A quarter of the window runs the workload untraced, a quarter
        // traced; the other workloads get a traced sixth each, so every
        // traced run reports every layer.
        let untraced = run_workload(&args.workload, args.seed, window / 4, false, TRACE_BATCHES);
        trace::set_enabled(true);
        let own = run_workload(&args.workload, args.seed, window / 4, true, TRACE_BATCHES);
        let mut layers = Metrics::default();
        for (u, t) in untraced.e2e.metrics().0.iter().zip(own.e2e.metrics().0) {
            layers.push(format!("trace.overhead.{}", u.name), t.value - u.value, t.unit);
        }
        runs.push((format!("{} (untraced)", args.workload), untraced));
        runs.push((format!("{} (traced)", args.workload), own));
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            runs.push((
                format!("{other} (traced)"),
                run_workload(other, args.seed, window / 6, true, TRACE_BATCHES),
            ));
        }
        trace::set_enabled(false);
        let (spans, dropped) = trace::take();
        println!("self time per traced call (ms):");
        for (name, (calls, total, own)) in trace::self_times(&spans) {
            println!(
                "  {name:<24} {calls:>8} calls {:>12.3} total {:>12.3} self",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        write_out(
            &format!("{}-seed{}-spans.json", args.workload, args.seed),
            &trace::to_json(&spans, dropped),
        );
        for (_, r) in &runs[1..] {
            layers.0.extend(r.layers.0.iter().cloned());
        }
        layers
    } else {
        let r = run_workload(&args.workload, args.seed, window, false, report::BATCHES);
        let m = r.e2e.metrics();
        runs.push((args.workload.clone(), r));
        m
    };

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut report = String::from("{\n  \"provenance\": {");
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let _ = write!(report, "{}}},\n  \"runs\": [", prov_json.join(", "));
    for (i, (label, r)) in runs.iter().enumerate() {
        let fail_share = r.failed as f64 / r.attempted.max(1) as f64;
        println!(
            "== {label}: {} attempted, {} failed, fail_share {fail_share}",
            r.attempted, r.failed
        );
        println!("  tail percentile: p{}", r.e2e.tail_pct);
        print_metrics(" end-to-end:", &r.e2e.metrics());
        print_metrics(" workload figures:", &r.named);
        for g in &r.gate_errors {
            println!("  GATE FAILED: {g}");
        }
        correct &= r.gate_errors.is_empty();
        attempted += r.attempted;
        failed += r.failed;
        let _ = write!(
            report,
            "{}\n    {{\"run\": \"{label}\", \"attempted\": {}, \"failed\": {}, \"fail_share\": {}, \"tail_pct\": {}, \
             \"end_to_end\": {}, \"figures\": {}, \"layers\": {}, \"gate_errors\": {}}}",
            if i == 0 { "" } else { "," },
            r.attempted,
            r.failed,
            json_number(fail_share),
            r.e2e.tail_pct,
            json_metrics(&r.e2e.metrics()),
            json_metrics(&r.named),
            json_metrics(&r.layers),
            r.gate_errors.len()
        );
    }
    report.push_str("\n  ]\n}\n");
    if args.trace {
        print_metrics("per-layer:", &metrics);
    }
    for m in &metrics.0 {
        if !m.value.is_finite() && !args.trace {
            println!("  GATE FAILED: metric {} is not finite", m.name);
            correct = false;
        }
    }
    write_out(
        &format!(
            "{}-seed{}{}.json",
            args.workload,
            args.seed,
            if args.trace { "-trace" } else { "" }
        ),
        &report,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
