//! `perfbench --workload <backfill|live|dashboard> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name and unit on standard
//! error, writes the run's details (and, when traced, its spans) under
//! `perfbench/out/`, and prints one JSON result as the last line of
//! standard output. Exits non-zero when an oracle fails.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{plan_for, run, stats, Metric, Outcome, WORKLOADS};

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn details_json(args: &Args, out: &Outcome) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"correct\":{},\"attempted\":{},\"failed\":{},",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        stats::nproc(),
        out.correct(),
        out.attempted,
        out.failed
    );
    let tails: Vec<String> = out
        .served
        .iter()
        .chain(&out.end_to_end)
        .filter_map(|m| {
            m.tail.map(|t| {
                format!(
                    "\"{}\":{{\"pct\":{},\"samples\":{}}}",
                    m.name, t.pct, t.samples
                )
            })
        })
        .collect();
    let mismatches: Vec<String> = out
        .mismatches
        .iter()
        .take(20)
        .map(|m| format!("{:?}", m))
        .collect();
    let breakdown: Vec<String> = out
        .breakdown
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let _ = write!(
        s,
        "\"served\":{},\"end_to_end\":{},\"per_layer\":{},\"tails\":{{{}}},\"breakdown\":{{{}}},\"mismatches\":[{}]}}",
        metrics_json(&out.served),
        metrics_json(&out.end_to_end),
        metrics_json(&out.layers),
        tails.join(","),
        breakdown.join(","),
        mismatches.join(",")
    );
    s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let int = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: int("seed")?,
        seconds: int("seconds")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = plan_for(&args.workload, args.seed, args.seconds, args.trace);
    let out = match run(&args.workload, plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    eprintln!(
        "{} seed {} ({} units of work, {} cores): {} operations, {} failed, oracle {}",
        args.workload,
        args.seed,
        plan.size,
        stats::nproc(),
        out.attempted,
        out.failed,
        if out.correct() { "held" } else { "FAILED" }
    );
    for m in &out.served {
        let tail = m.tail.map_or(String::new(), |t| {
            format!("  (p{} of {} samples)", t.pct, t.samples)
        });
        eprintln!("  {:<28} {:>14.4} {}{tail}", m.name, m.value, m.unit);
    }
    for m in &out.layers {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !out.breakdown.is_empty() {
        eprintln!("  split of one representative operation (ms unless named):");
        for (k, v) in &out.breakdown {
            eprintln!("    {k:<32} {v:>12.4}");
        }
    }
    for e in out.mismatches.iter().take(5) {
        eprintln!("  mismatch: {e}");
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-s{}-t{}", args.workload, args.seed, args.trace as u8);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), details_json(&args, &out)))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    out.tracer.to_json_lines(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write run details: {e}");
    }

    let metrics = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
