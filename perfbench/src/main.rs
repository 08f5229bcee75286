//! The stbus benchmark: three workloads, one set of end-to-end metrics,
//! and a traced mode that breaks each run down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_flow|soc_explore|gateway_session \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does a fixed amount of work derived from `--seed` and sized
//! by `--seconds` (see [`plan`]). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` repeats the run with spans recorded and prints the
//! per-layer metrics, including the tracing overhead between the two. The
//! last line of standard output is the JSON result; the lines before it
//! (prefixed `# `) list every metric with its unit and sample count.

mod flow;
mod gateway_session;
mod layers;
mod paper_flow;
mod plan;
mod report;
mod soc_explore;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics of the result line (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_per_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "bus_saving_x",
    "exact_share",
];

/// Per-layer metrics of the traced result line (`BENCHMARK.json`
/// `per_layer`): the ones every workload measures.
const PER_LAYER: [&str; 11] = [
    "phase1.busy_ms",
    "phase1.share",
    "phase2.busy_ms",
    "phase2.share",
    "phase3.busy_ms",
    "phase3.share",
    "phase3.nodes",
    "phase3.probes",
    "phase3.knodes_per_s",
    "unattributed_share",
    "tracing_overhead_share",
];

const WORKLOADS: [&str; 3] = ["paper_flow", "soc_explore", "gateway_session"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space inside the working directory (never outside it).
fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn run_once(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_flow" => paper_flow::run(args.seed, args.seconds, tracer),
        "soc_explore" => soc_explore::run(args.seed, args.seconds, tracer),
        _ => gateway_session::run(args.seed, args.seconds, tracer, &out_dir()),
    }
}

fn run(args: &Args) -> Result<String, String> {
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} exec_width={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        stbus_exec::parallelism(),
        env!("PERFBENCH_RUSTC"),
    );
    let plain = run_once(args, &Tracer::new(false))?;
    print!("{}", Report::table(&plain.end_to_end));
    // A refused request or a solver limit is a failure; a result the
    // output check rejects is also an incorrect output.
    let correct = plain.incorrect == 0;
    if !args.trace {
        return report::result_line(&plain, &END_TO_END, correct);
    }

    // The traced run repeats the same work with spans on; it must
    // reproduce every deterministic output exactly.
    let tracer = Tracer::new(true);
    let mut traced = run_once(args, &tracer)?;
    if traced.deterministic != plain.deterministic {
        return Err(format!(
            "traced run diverged from the untraced run:\n  untraced {:?}\n  traced   {:?}",
            plain.deterministic, traced.deterministic
        ));
    }
    let spans = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    traced.layer(
        "tracing_overhead_share",
        "share",
        traced.wall_s / plain.wall_s - 1.0,
        format!(
            "traced {:.3} s ÷ untraced {:.3} s − 1",
            traced.wall_s, plain.wall_s
        ),
    );
    traced.layer(
        "traced_wall_s",
        "s",
        traced.wall_s,
        format!("{} spans in {}", tracer.spans().len(), spans.display()),
    );
    print!("{}", Report::table(&traced.layers));
    report::result_line(&traced, &PER_LAYER, correct && traced.incorrect == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_gateway::json::{self, Value};

    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let bench = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("a name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }
}
