//! `mmjoin-netd` — the join service behind a concurrent TCP front end.
//!
//! ```text
//! $ mmjoin-netd --addr 127.0.0.1:7878 --workers 4 --queue 64
//! mmjoin-netd listening on 127.0.0.1:7878 (4 workers, queue 64, quota 16, 8 shards)
//! ```
//!
//! Admission and pool flags:
//! - `--workers <n>` — service workers; each runs one admitted request
//!   at a time, so this is the number of commands in flight.
//! - `--queue <n>` — admission-queue capacity (default from
//!   `ServiceConfig`); a request beyond it is answered OVERLOADED.
//! - `--quota <n>` — per-connection cap on queued requests (`0`: a
//!   quarter of the capacity).
//! - `--shards <n>` — catalog lock stripes (`1` is the single-lock
//!   baseline).
//!
//! An unknown flag, or a flag with a missing or unparsable value, exits
//! 2 naming it.
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
use mmjoin_service::cli::Flags;
use mmjoin_service::{Service, ServiceConfig};
use std::sync::Arc;

fn main() {
    let flags = Flags::new("mmjoin-netd");
    let defaults = ServiceConfig::default();
    let addr: String = flags
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let workers: usize = flags.value("--workers").unwrap_or(4);
    let queue_capacity: usize = flags.value("--queue").unwrap_or(defaults.queue_capacity);
    let per_client_quota: usize = flags.value("--quota").unwrap_or(0);
    let shards: usize = flags.value("--shards").unwrap_or(8);
    let trace_out: Option<String> = flags.value("--trace-out");
    let trace_sample: Option<u64> = flags.value("--trace-sample");
    let slow_query_us: u64 = flags.value("--slow-query").unwrap_or(0);
    let threads: Option<usize> = flags.value("--threads");
    let calibration_path: Option<std::path::PathBuf> = flags.value("--calibration");
    let calibrate_cost = flags.has("--calibrate") || calibration_path.is_some();
    flags.finish();

    let tracer = Tracer::global();
    if trace_out.is_some() || trace_sample.is_some() || slow_query_us > 0 {
        tracer.set_sample_every(trace_sample.unwrap_or(1));
        tracer.set_enabled(true);
    }

    let mut config = ServiceConfig {
        workers,
        queue_capacity,
        per_client_quota,
        catalog_shards: shards,
        slow_query_us,
        calibrate_cost,
        calibration_path,
        ..defaults
    };
    if let Some(budget) = threads {
        // Same contract as mmjoin-serve: grant the budget and let the
        // engines request all of it per query; calibration sweeps its
        // cores axis up to this budget.
        config.thread_budget = budget;
        config.join_config.threads = 0;
    }
    let service = Service::with_config(config);
    // The "listening" line is the readiness signal scripts wait for; it
    // prints the admission bounds the queue enforces.
    let (queue, quota) = service.admission();
    let server = match serve(Arc::new(service), NetConfig { addr }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmjoin-netd: bind failed: {e}");
            std::process::exit(1);
        }
    };
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
