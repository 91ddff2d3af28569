//! The repository's benchmark: one command over three workloads and two
//! clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mixed|paper-small|race-check|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit and its clock (`wall` =
//! host time, `modeled` = the simulator's device clock). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Any wrong answer, harmful race, or modeled number that
//! does not repeat exactly makes the run incorrect and the exit code 1.
//! `--workload all` runs each workload in its own process (so peak RSS is
//! per workload) and prints all three reports.

mod check;
mod serve;
mod stats;
mod sweep;
mod workloads;

use agg_gpu_sim::Json;
use stats::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-mixed", "paper-small", "race-check"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_table(title: &str, report: &Report) {
    println!("{title}");
    println!("  {:<40} {:>16}  {:<10} clock", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "  {:<40} {:>16.6}  {:<10} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.name()
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ])
    .render()
}

/// Runs every workload in a child process of this same binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = match args.workload.as_str() {
        "serve-mixed" => workloads::serve_mixed,
        "paper-small" => workloads::paper_small,
        _ => workloads::race_check,
    };
    let out = run(args.seed, args.seconds, args.trace);
    let correct = out.problems.is_empty();
    println!(
        "== {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "modeled speed-ups are from the simulator's cost model at tiny/small scale, \
         which is unvalidated there; results/paper_spot.* is the paper-scale spot check"
    );
    print_table("end-to-end", &out.e2e);
    print_table("end-to-end, reported but not gated", &out.reported);
    if args.trace {
        print_table("per-layer (traced run)", &out.layers);
    }
    for p in &out.problems {
        println!("INCORRECT: {p}");
    }
    let shown = if args.trace { &out.layers } else { &out.e2e };
    println!("{}", result_json(correct, out.attempted, out.failed, shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
