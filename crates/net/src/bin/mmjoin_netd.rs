//! `mmjoin-netd` — the join service behind a concurrent TCP front end.
//!
//! ```text
//! $ mmjoin-netd --addr 127.0.0.1:7878 --workers 4 --queue 64
//! mmjoin-netd listening on 127.0.0.1:7878 (4 workers, queue 64, quota 16, 8 shards)
//! ```
//!
//! Drive it with `mmjoin-cli` (same command grammar as `mmjoin-serve`).
//! Send the `shutdown` command to stop it gracefully: admitted queries
//! finish and are answered, new ones get a SHUTTING-DOWN status.
//!
//! Observability flags:
//! - `--trace-out <path>` — enable tracing and, after shutdown, write
//!   every retained trace as Chrome trace-event JSON to `path`.
//! - `--trace-sample <n>` — enable tracing, tracing every n-th request.
//! - `--slow-query <us>` — enable tracing and log the span tree of any
//!   query slower than `us` microseconds to stderr.
//!
//! Cost-model flags:
//! - `--threads <n>` — intra-query thread budget; engines request the
//!   whole budget per query (`0` = machine parallelism; absent keeps
//!   engines serial).
//! - `--calibrate` — measure the dispatched GEMM kernel at startup,
//!   sweeping the cores axis up to the thread budget, and re-derive the
//!   planner's combinatorial/matrix crossover from it.
//! - `--calibration <path>` — cache the measurement across restarts
//!   (implies `--calibrate`; a stale kernel tag, or a cores axis short
//!   of the configured budget, forces a re-measure).

use mmjoin_net::{serve, NetConfig};
use mmjoin_obs::trace::{chrome_json, Tracer};
use mmjoin_service::{Service, ServiceConfig};
use std::sync::Arc;

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
    eprintln!("mmjoin-netd: {problem}");
    std::process::exit(2);
}

fn main() {
    let addr: String = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let workers: usize = arg_value("--workers").unwrap_or(4);
    let queue: usize = arg_value("--queue").unwrap_or(64);
    let quota: usize = arg_value("--quota").unwrap_or(0);
    let dispatchers: usize = arg_value("--dispatchers").unwrap_or(workers);
    let shards: usize = arg_value("--shards").unwrap_or(8);
    let trace_out: Option<String> = arg_value("--trace-out");
    let trace_sample: Option<u64> = arg_value("--trace-sample");
    let slow_query_us: u64 = arg_value("--slow-query").unwrap_or(0);
    let threads: Option<usize> = arg_value("--threads");
    let calibration_path: Option<std::path::PathBuf> = arg_value("--calibration");
    let calibrate_cost = calibration_path.is_some() || std::env::args().any(|a| a == "--calibrate");

    let tracer = Tracer::global();
    if trace_out.is_some() || trace_sample.is_some() || slow_query_us > 0 {
        tracer.set_sample_every(trace_sample.unwrap_or(1));
        tracer.set_enabled(true);
    }

    let mut config = ServiceConfig {
        workers,
        catalog_shards: shards,
        slow_query_us,
        calibrate_cost,
        calibration_path,
        ..ServiceConfig::default()
    };
    if let Some(budget) = threads {
        // Same contract as mmjoin-serve: grant the budget and let the
        // engines request all of it per query; calibration sweeps its
        // cores axis up to this budget.
        config.thread_budget = budget;
        config.join_config.threads = 0;
    }
    let service = Arc::new(Service::with_config(config));

    let server = match serve(
        service,
        NetConfig {
            addr,
            queue_capacity: queue,
            per_client_quota: quota,
            dispatchers,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmjoin-netd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The "listening" line is the readiness signal scripts wait for.
    let (queue, quota) = server.admission();
    println!(
        "mmjoin-netd listening on {} ({workers} workers, queue {queue}, quota {quota}, {shards} shards)",
        server.addr(),
    );
    server.wait();
    if let Some(path) = trace_out {
        let traces = tracer.last(usize::MAX);
        match std::fs::write(&path, chrome_json(&traces)) {
            Ok(()) => println!("mmjoin-netd: wrote {} trace(s) to {path}", traces.len()),
            Err(e) => eprintln!("mmjoin-netd: write {path}: {e}"),
        }
    }
    println!("mmjoin-netd: drained and stopped");
}
