//! The densest-subgraph engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-solve|warm-serve|update-roundtrip> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each measuring pass runs in a child process of its own, so peak memory
//! and engine caches never carry over. `--trace 0` runs one untraced pass
//! and prints the end-to-end metrics. `--trace 1` runs an untraced and then
//! a traced pass, prints every per-layer metric and the tracing overhead
//! (traced minus untraced), and writes the traced pass's spans as JSON lines
//! under `perfbench/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A wrong answer
//! makes the command exit non-zero.

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::stats::{self, failed_ratio, highest_supported_percentile, percentile};
use perfbench::trace::{self_time_by_name, Tracer};

mod workloads;

use workloads::{Outcome, Run, NAMES, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload <cold-solve|warm-serve|update-roundtrip> --seed <n> \
     --seconds <s> --trace <0|1>";

/// End-to-end metrics, with their units, as every untraced pass reports them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Tracing overhead, reported by `--trace 1` beside the per-layer metrics.
const OVERHEAD: [(&str, &str, &str); 2] = [
    ("trace.overhead.ops_per_s", "ops_per_s", "1/s"),
    ("trace.overhead.op_ms.p50", "op_ms.p50", "ms"),
];

#[derive(Clone, Copy, PartialEq)]
enum Pass {
    Untraced,
    Traced,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pass: Option<Pass>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut pass) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("expected a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            "--pass" => match value.as_str() {
                "untraced" => pass = Some(Pass::Untraced),
                "traced" => pass = Some(Pass::Traced),
                _ => return Err(bad("expected untraced or traced")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pass,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.pass {
        Some(pass) => measure(&args, pass),
        None => drive(&args),
    }
}

/// One pass's report, as a child process prints it and the parent reads it back.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs the passes in child processes and prints the result line.
fn drive(args: &Args) -> ExitCode {
    let mut passes = vec![Pass::Untraced];
    if args.trace {
        passes.push(Pass::Traced);
    }
    let mut reports = Vec::new();
    for pass in passes {
        match spawn(args, pass) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let untraced = &reports[0];
    let last = reports.last().expect("at least one pass");
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, last.metrics.get(name).copied().unwrap_or(0.0), unit));
        }
        eprintln!("tracing overhead (traced minus untraced):");
        for (name, of, unit) in OVERHEAD {
            let value = last.metrics[of] - untraced.metrics[of];
            eprintln!("  {name:<36} {value:>14.4} {unit}");
            metrics.push((name, value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name, untraced.metrics[name], unit));
        }
    }
    let correct = reports.iter().all(|r| r.correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn spawn(args: &Args, pass: Pass) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args([
            "--pass",
            if pass == Pass::Traced {
                "traced"
            } else {
                "untraced"
            },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a measuring pass: {e}"))?;
    let mut report = Report::default();
    let mut finished = false;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, _unit] => {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line:?}"))?;
                report.metrics.insert(name.to_string(), value);
            }
            ["result", correct, attempted, failed] => {
                report.correct = *correct == "true" && output.status.success();
                report.attempted = attempted
                    .parse()
                    .map_err(|_| format!("bad line {line:?}"))?;
                report.failed = failed.parse().map_err(|_| format!("bad line {line:?}"))?;
                finished = true;
            }
            _ => {}
        }
    }
    if finished {
        Ok(report)
    } else {
        Err(format!(
            "measuring pass ended without a result ({})",
            output.status
        ))
    }
}

/// Runs one pass of the workload in this process and prints its report.
fn measure(args: &Args, pass: Pass) -> ExitCode {
    let traced = pass == Pass::Traced;
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: Tracer::new(traced),
    };
    let out = match args.workload.as_str() {
        "cold-solve" => workloads::cold_solve::run(&mut run),
        "warm-serve" => workloads::warm_serve::run(&mut run),
        "update-roundtrip" => workloads::update_roundtrip::run(&mut run),
        other => unreachable!("workload {other} passed validation"),
    };
    let correct = out.failed == 0 && out.errors.is_empty() && !out.latencies_ms.is_empty();
    let mut metrics: Vec<(&str, f64, &str)> = end_to_end(&out)
        .into_iter()
        .zip(END_TO_END)
        .map(|(value, (name, unit))| (name, value, unit))
        .collect();
    summarize(args, pass, &out);
    if traced {
        for (name, unit) in PER_LAYER {
            metrics.push((name, out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        eprintln!(
            "  per-layer metrics ({} spans kept):",
            run.tracer.spans().len()
        );
        for (name, value, unit) in &metrics[END_TO_END.len()..] {
            eprintln!("    {name:<36} {value:>14.4} {unit}");
        }
        eprintln!("  self time by span:");
        for (name, ns) in self_time_by_name(run.tracer.spans()) {
            eprintln!("    {name:<36} {:>14.4} ms", ns as f64 / 1e6);
        }
        if let Err(e) = write_spans(args, &run.tracer) {
            eprintln!("perfbench: cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    for e in &out.errors {
        eprintln!("  error: {e}");
    }
    for (name, value, unit) in metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("result {correct} {} {}", out.attempted, out.failed);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Values of [`END_TO_END`], in order.
fn end_to_end(out: &Outcome) -> [f64; 6] {
    let lat = &out.latencies_ms;
    let (p50, p90) = if lat.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(lat, 50.0), percentile(lat, 90.0))
    };
    [
        stats::median(&out.setup_s),
        lat.len() as f64 / out.elapsed_s.max(f64::MIN_POSITIVE),
        p50,
        p90,
        1.0 - failed_ratio(out.failed, out.attempted),
        peak_rss_mib(),
    ]
}

fn summarize(args: &Args, pass: Pass, out: &Outcome) {
    let label = if pass == Pass::Traced {
        "traced"
    } else {
        "untraced"
    };
    eprintln!(
        "{} seed {} ({label}): {}",
        args.workload, args.seed, out.inputs
    );
    eprintln!(
        "  setup median {:.4} s over {} builds; {} ops in {:.3} s; failed_ratio {}",
        stats::median(&out.setup_s),
        out.setup_s.len(),
        out.attempted,
        out.elapsed_s,
        failed_ratio(out.failed, out.attempted)
    );
    let lat = &out.latencies_ms;
    if lat.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(lat);
        let top =
            highest_supported_percentile(lat.len()).map_or("none".to_string(), |p| format!("p{p}"));
        eprintln!(
            "  op_ms over {} samples: q1 {q1:.3}, median {q2:.3}, q3 {q3:.3}, p90 {:.3}; \
             highest percentile with {} samples beyond it: {top}",
            lat.len(),
            percentile(lat, 90.0),
            stats::MIN_BEYOND
        );
    }
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<()> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut file = BufWriter::new(fs::File::create(&path)?);
    tracer.write_jsonl(&mut file)?;
    std::io::Write::flush(&mut file)?;
    eprintln!("  spans written to {}", path.display());
    Ok(())
}

/// This process's peak resident memory (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
