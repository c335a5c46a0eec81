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
//! Each stdin line is admitted to the service's queue as client 0 and
//! run by a service worker — parse, execute, answer — exactly as a
//! `mmjoin-netd` request is; the grammar and the interpreter live in
//! [`mmjoin_service::command`], so the two transports can never drift.
//! This binary is only the stdin/stdout plumbing: it waits for each
//! answer before reading the next line. Bad lines are answered with
//! `err … (offending token: …)`, never silently skipped; an unknown
//! flag exits 2 naming it.

use mmjoin_obs::trace::{chrome_json, Tracer};
use mmjoin_service::cli::Flags;
use mmjoin_service::command::{Frontend, NoFrontend};
use mmjoin_service::{Service, ServiceConfig};
use std::io::BufRead;
use std::sync::{mpsc, Arc};

fn main() {
    let flags = Flags::new("mmjoin-serve");
    let workers: usize = flags.value("--workers").unwrap_or(4);
    let threads: Option<usize> = flags.value("--threads");
    let trace_out: Option<String> = flags.value("--trace-out");
    let slow_query_us: u64 = flags.value("--slow-query").unwrap_or(0);
    let calibration_path: Option<std::path::PathBuf> = flags.value("--calibration");
    let calibrate_cost = flags.has("--calibrate") || calibration_path.is_some();
    flags.finish();

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
    let frontend: Arc<dyn Frontend> = Arc::new(NoFrontend);
    let (tx, answers) = mpsc::channel();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tx = tx.clone();
        let admitted = service.admit(0, trimmed.to_string(), Arc::clone(&frontend), move |a| {
            let _ = tx.send(a);
        });
        if let Err(refused) = admitted {
            println!("err admission refused: {refused:?}");
            continue;
        }
        let Ok(answer) = answers.recv() else { break };
        match answer.body {
            Ok(body) => println!("{body}"),
            Err(msg) => println!("err {msg}"),
        }
        // On stdin, `shutdown` and `quit` both just end the session —
        // every line already ran to completion, so the drain is done.
        if answer.terminal {
            break;
        }
    }
    if let Some(path) = trace_out {
        let traces = tracer.last(usize::MAX);
        match std::fs::write(&path, chrome_json(&traces)) {
            Ok(()) => println!("wrote {} trace(s) to {path}", traces.len()),
            Err(e) => eprintln!("mmjoin-serve: write {path}: {e}"),
        }
    }
}
