//! `err-ledger`: the repo's benchmark of record.
//!
//! ```text
//! err-ledger run --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! err-ledger compare <a.json> <b.json>
//! ```
//!
//! `run` executes one workload in this process, prints the full report
//! (every metric with unit, sample count, value and quartiles) as one
//! JSON line, then the driver's result line, and exits non-zero if a
//! correctness check failed. See README.md for the method.

mod catalog;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod pace;
mod report;
mod sink;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use workloads::{runtime::Mode, Ctx};

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Where reports and span files go unless `--out` says otherwise;
/// relative to the working directory (the repo root) and git-ignored.
const OUT_DIR: &str = "bench/out";

const USAGE: &str = "usage:
  err-ledger run --workload <name> --seed <u64> --seconds <1..=60> --trace <0|1> [--out <file>]
  err-ledger compare <a.json> <b.json>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 1u64, 10u64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Writes the span file of a traced run and notes its path in the report.
pub fn write_spans(rep: &mut Report, spans: &trace::Spans) {
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.json", rep.workload, rep.seed));
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans.to_json().encode()))
    {
        Ok(()) => rep.detail(
            "spans",
            json::obj([
                ("file", path.display().to_string().into()),
                ("written", (spans.len() as u64).into()),
            ]),
        ),
        Err(e) => rep.check("spans-written", false, format!("{}: {e}", path.display())),
    }
}

fn run(args: RunArgs) -> ExitCode {
    // Before any thread is spawned, so that all inherit the one CPU.
    host::nproc();
    let pinned_cpu = host::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("err-ledger: the host refused CPU pinning; figures will follow thread placement");
    }
    let watchdog = watchdog::Watchdog::start(Duration::from_secs(60 + args.seconds));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut rep = Report::new(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        ctx.repeats() as u64,
    );
    rep.pinned_cpu = pinned_cpu;
    match args.workload.as_str() {
        "sched_direct" => workloads::sched_direct::run(&ctx, &mut rep),
        "runtime_sync" => workloads::runtime::run(Mode::Sync, &ctx, &mut rep),
        "runtime_buffered" => workloads::runtime::run(Mode::Buffered, &ctx, &mut rep),
        "runtime_buffered_stalls" => workloads::runtime::run(Mode::Stalls, &ctx, &mut rep),
        "fabric_mesh" => workloads::fabric::run(&ctx, &mut rep),
        other => unreachable!("parse_run admitted workload {other}"),
    }
    rep.finish();
    watchdog.stop();

    let full = rep.to_json().encode();
    let out = args.out.unwrap_or_else(|| {
        PathBuf::from(OUT_DIR).join(format!(
            "{}-seed{}-trace{}.json",
            rep.workload,
            rep.seed,
            u8::from(rep.trace)
        ))
    });
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("err-ledger: cannot create {}: {e}", dir.display());
        }
    }
    if let Err(e) = std::fs::write(&out, &full) {
        eprintln!("err-ledger: cannot write {}: {e}", out.display());
    }
    // Plain writes: a reader that closes the pipe early (`| head`) must
    // not turn a finished run into a panic.
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{full}");
    let _ = writeln!(stdout, "{}", rep.result_line());
    drop(stdout);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        // A captured stdout has the result line after the report.
        json::parse(text.lines().next().unwrap_or("")).map_err(|e| format!("{p}: {e}"))
    };
    let (rows, failures_rose) = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&rows, failures_rose))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).map(run),
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b).map(|ok| {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }),
        _ => Err("expected 'run' or 'compare'".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        let names: Vec<_> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("err-ledger: {e}\n{USAGE}\nworkloads: {}", names.join(" "));
        ExitCode::from(2)
    })
}
