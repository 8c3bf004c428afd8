//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--seed` picks the request / op streams; the indexed objects come
//! from [`perfbench::CORPUS_SEED`].
//! Prints every measurement with its unit, then as the last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `.perfbench/trace-<workload>.json`. Exits 1 on a wrong answer or a
//! failed operation, 2 on bad arguments or a run that could not finish.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{sys::ScratchDir, Scale};

/// Spans written to the trace file (the earliest ones); the per-layer
/// metrics use all of them.
const TRACE_FILE_SPANS: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds: bad value {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", a.seconds));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", perfbench::WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let root = Path::new(".perfbench");
    let scratch = ScratchDir::new(root)?;
    let (mut out, trace) = perfbench::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
        scratch.path(),
    )?;
    drop(scratch);

    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  input digest {:016x}", out.digest);
    let names: Vec<&str> = if args.trace {
        let mut idle = Vec::new();
        for &(name, unit) in PER_LAYER {
            if out.get(name).is_none() {
                out.set(name, 0.0, unit);
                idle.push(name);
            }
        }
        if !idle.is_empty() {
            out.note(format!(
                "not run on this workload (reported as 0): {}",
                idle.join(", ")
            ));
        }
        let path = root.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace.to_json(TRACE_FILE_SPANS))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!(
            "trace: {} spans recorded, the first {} written to {}",
            trace.len(),
            trace.len().min(TRACE_FILE_SPANS),
            path.display()
        ));
        PER_LAYER.iter().map(|&(n, _)| n).collect()
    } else {
        END_TO_END.to_vec()
    };
    for line in &out.notes {
        println!("  {line}");
    }
    println!(
        "  error_rate {:.6} ratio ({} failed of {} attempted, {} wrong answers)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.mismatches
    );
    print!("{}", out.render_table());
    println!("{}", out.result_json(&names)?);
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
