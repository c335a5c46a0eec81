//! `mmjoin-serve` — the join service behind a line-oriented protocol.
//!
//! Reads commands from stdin, one per line, and answers on stdout; every
//! answer starts with a single `ok …` / `err …` line (followed by
//! indented row lines for `query … show`). Pipe a script in, or drive it
//! interactively:
//!
//! ```text
//! $ cargo run --release -p mmjoin-service --bin mmjoin-serve
//! gen R Jokes 0.05
//! ok relation R: 24734 tuples, 805 sets, 143 elements (epoch 1)
//! query twopath R R
//! ok rows 648025 engine MMJoin cached false 0.312s
//! query twopath R R
//! ok rows 648025 engine MMJoin cached true 0.000s
//! stats
//! ok served 2 (cache hits 1, 50.0%), …
//! ```
//!
//! Run with `--workers <n>` to size the inter-query pool (default 4),
//! `--threads <n>` to grant an intra-query thread budget (engines then
//! request the whole budget per query; default keeps engines serial),
//! `--calibrate` to measure the dispatched GEMM kernel at startup —
//! sweeping the cores axis up to the thread budget — and re-derive the
//! planner's strategy crossover from it, and `--calibration <path>` to
//! cache that measurement across restarts (stale kernel tags, or a
//! cores axis short of the configured budget, force a re-measure). Type
//! `help` for the full command list.
//!
//! The grammar and the interpreter live in
//! [`mmjoin_service::command`] — the exact same layer `mmjoin-netd`
//! dispatches over TCP, so the two transports can never drift. This
//! binary is only the stdin/stdout plumbing. Bad lines are answered
//! with `err … (offending token: …)`, never silently skipped.

use mmjoin_obs::trace::{chrome_json, span, Stage, Tracer};
use mmjoin_service::command::{self, Command};
use mmjoin_service::{Service, ServiceConfig};
use std::io::BufRead;

/// The value after `flag`, or `None` when the flag is absent. A flag
/// with a missing or unparsable value exits non-zero, naming the flag.
fn arg_value<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next()?;
    let problem = match args.next() {
        Some(value) => match value.parse() {
            Ok(v) => return Some(v),
            Err(_) => format!("invalid value `{value}` for {flag}"),
        },
        None => format!("{flag} needs a value"),
    };
    eprintln!("mmjoin-serve: {problem}");
    std::process::exit(2);
}

fn main() {
    let workers: usize = arg_value("--workers").unwrap_or(4);
    let threads: Option<usize> = arg_value("--threads");
    let trace_out: Option<String> = arg_value("--trace-out");
    let slow_query_us: u64 = arg_value("--slow-query").unwrap_or(0);
    let calibration_path: Option<std::path::PathBuf> = arg_value("--calibration");
    let calibrate_cost = calibration_path.is_some() || std::env::args().any(|a| a == "--calibrate");

    let tracer = Tracer::global();
    if trace_out.is_some() || slow_query_us > 0 {
        tracer.set_enabled(true);
    }

    let mut config = ServiceConfig {
        workers,
        slow_query_us,
        calibrate_cost,
        calibration_path,
        ..ServiceConfig::default()
    };
    if let Some(budget) = threads {
        // `--threads n` grants an intra-query budget of n and asks the
        // engines to use all of it (`join_config.threads = 0` means "the
        // executor's full budget"); 0 means machine parallelism. The
        // startup calibration sweeps its cores axis up to this budget.
        config.thread_budget = budget;
        config.join_config.threads = 0;
    }
    let service = Service::with_config(config);

    println!(
        "mmjoin-serve ready: {} workers, {} engines, {} kernel{} (type `help`)",
        service.workers(),
        service.registry().len(),
        mmjoin_matrix::active_kernel(),
        if calibrate_cost { ", calibrated" } else { "" }
    );
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Each line is one request: mint its root span here, at the
        // REPL boundary (the stdin analogue of the wire boundary).
        let root = tracer.begin(trimmed);
        let parse_span = span(Stage::Parse, "command-parse");
        let parsed = Command::parse(trimmed);
        drop(parse_span);
        match parsed {
            Ok(cmd) => {
                // On stdin, `shutdown` and `quit` both just end the
                // session — queries already ran to completion, so the
                // drain is trivially done.
                let terminal = cmd.is_terminal();
                match command::execute(&service, cmd) {
                    Ok(answer) => println!("{answer}"),
                    Err(msg) => println!("err {msg}"),
                }
                if terminal {
                    drop(root);
                    break;
                }
            }
            Err(err) => println!("err {err}"),
        }
        drop(root);
    }
    if let Some(path) = trace_out {
        let traces = tracer.last(usize::MAX);
        match std::fs::write(&path, chrome_json(&traces)) {
            Ok(()) => println!("wrote {} trace(s) to {path}", traces.len()),
            Err(e) => eprintln!("mmjoin-serve: write {path}: {e}"),
        }
    }
}
