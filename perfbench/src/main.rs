//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --netd <path> --serve <path>`
//!
//! Runs one workload against freshly spawned `mmjoin-netd` daemons and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). A readable
//! report goes to standard error. Exits non-zero when an answer is wrong,
//! the daemon refuses a request, or a validity guard trips.

use mmjoin_perfbench::drive::{self, Samples};
use mmjoin_perfbench::host::Host;
use mmjoin_perfbench::layers;
use mmjoin_perfbench::netd::{self, load_all, Netd};
use mmjoin_perfbench::util::{median, quantile, tail, Json};
use mmjoin_perfbench::workload::{Kind, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Daemon start-ups that only time their set-up, after each measuring
/// round. Every measuring round times its set-up too, and `setup_s` is
/// the median. Spreading them over the run keeps a short slow spell of
/// the host from moving most of the samples.
const SETUP_ONLY_PER_ROUND: usize = 2;

/// Measuring rounds per run, each with a fresh daemon and cache. A round
/// replays the whole request list, and rounds continue until `--seconds`
/// of measuring time have passed.
const MIN_MEASURING: usize = 3;

/// Bound on the client's p95 gap between a reply and its next request
/// (ms) before a run is invalid.
const LAG_BOUND_MS: f64 = 5.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    netd: PathBuf,
    serve: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (one of: {})",
            Kind::ALL.map(Kind::name).join(", ")
        )
    })?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        kind,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        netd: get("--netd")?.into(),
        serve: get("--serve")?.into(),
        work: get("--work").unwrap_or(".bench_work").into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args.work.join(format!(
        "run-{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(Outcome { json, ok: true }) => println!("{json}"),
        Ok(Outcome { json, ok: false }) => {
            println!("{json}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Outcome {
    json: String,
    ok: bool,
}

/// Daemon-side counters of one round, from `stats --json`.
#[derive(Default)]
struct RoundStats {
    hits: f64,
    misses: f64,
    evictions: f64,
    maintained: f64,
    recomputed: f64,
    invalidated: f64,
    max_queue_depth: f64,
    rejected_overloaded: f64,
    service_p50_us: f64,
    granted_tokens: f64,
    stolen_tasks: f64,
    inline_serial: f64,
}

impl RoundStats {
    fn from_json(j: &Json) -> Result<RoundStats, String> {
        Ok(RoundStats {
            hits: j.num(&["cache", "hits"])?,
            misses: j.num(&["cache", "misses"])?,
            evictions: j.num(&["cache", "evictions"])?,
            maintained: j.num(&["service", "maintained"])?,
            recomputed: j.num(&["service", "recomputed"])?,
            invalidated: j.num(&["service", "invalidated"])?,
            max_queue_depth: j.num(&["service", "max_queue_depth"])?,
            rejected_overloaded: j.num(&["net", "rejected_overloaded"])?,
            service_p50_us: j.num(&["service", "p50_latency_us"])?,
            granted_tokens: j.num(&["executor", "granted_tokens"])?,
            stolen_tasks: j.num(&["executor", "stolen_tasks"])?,
            inline_serial: j.num(&["executor", "inline_serial"])?,
        })
    }
}

/// One daemon lifetime: start, set up (timed), measure, collect stats.
struct Round {
    /// Whether the round replayed the request list after set-up.
    measured: bool,
    setup_s: f64,
    samples: Samples,
    stats: RoundStats,
    peak_rss_mb: f64,
}

/// One daemon lifetime: set up, then, if `measure`, one closed-loop pass
/// over the read list.
fn round(
    args: &Args,
    w: &Workload,
    files: &[(String, PathBuf)],
    measure: bool,
    trace_out: Option<&Path>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let netd =
        Netd::spawn(&args.netd, threads(), trace_out).map_err(|e| format!("spawn netd: {e}"))?;
    let mut conn = netd.connect().map_err(|e| format!("connect: {e}"))?;
    load_all(&mut conn, files).map_err(|e| format!("load: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let samples = if measure {
        drive::closed_loop(&mut conn, w).map_err(|e| format!("closed loop: {e}"))?
    } else {
        Samples::default()
    };
    let stats = RoundStats::from_json(&netd::stats(&mut conn).map_err(|e| format!("stats: {e}"))?)?;
    let peak_rss_mb = netd.peak_rss_mb().map_err(|e| format!("VmHWM: {e}"))?;
    drop(conn);
    netd.stop().map_err(|e| format!("stop netd: {e}"))?;
    Ok(Round {
        measured: measure,
        setup_s,
        samples,
        stats,
        peak_rss_mb,
    })
}

/// Cores granted to this process (its affinity mask): the daemon's
/// worker count and thread budget.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The GEMM kernel the served stack dispatches, as `mmjoin-serve` (same
/// service crate and features as the daemon) announces it.
fn served_kernel(serve: &Path) -> Result<String, String> {
    let mut child = Command::new(serve)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn mmjoin-serve: {e}"))?;
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"quit\n")
        .map_err(|e| e.to_string())?;
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .map_err(|e| e.to_string())?;
    child.wait().map_err(|e| e.to_string())?;
    first
        .split(" kernel")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .map(str::to_string)
        .ok_or_else(|| format!("no kernel in `{first}`"))
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let host = Host::probe();
    let served = served_kernel(&args.serve)?;
    if served != host.gemm_kernel {
        return Err(format!(
            "kernel mismatch: daemon stack dispatches `{served}`, in-process pass `{}`",
            host.gemm_kernel
        ));
    }
    eprintln!("host {}", host.to_json());

    let t = Instant::now();
    let mut w = Workload::generate(args.kind, args.seed);
    w.compute_expected();
    std::fs::create_dir_all(run_dir).map_err(|e| e.to_string())?;
    let dir = std::fs::canonicalize(run_dir).map_err(|e| e.to_string())?;
    let files = w
        .write_files(&dir)
        .map_err(|e| format!("write inputs: {e}"))?;
    eprintln!(
        "{} seed {}: {} relations, inputs and expected answers in {:.2}s",
        args.kind.name(),
        args.seed,
        w.relations.len(),
        t.elapsed().as_secs_f64()
    );

    // Untraced rounds: the end-to-end numbers. Latency figures are taken
    // per measuring round, over the same requests each time, and pooled
    // by their median.
    let mut rounds = Vec::new();
    let mut measured_s = 0.0;
    while rounds.iter().filter(|r: &&Round| r.measured).count() < MIN_MEASURING
        || measured_s < args.seconds
    {
        let r = round(args, &w, &files, true, None)?;
        measured_s += r.samples.wall_s;
        rounds.push(r);
        for _ in 0..SETUP_ONLY_PER_ROUND {
            rounds.push(round(args, &w, &files, false, None)?);
        }
    }
    let measured: Vec<&Round> = rounds.iter().filter(|r| r.measured).collect();
    let mut all = Samples::default();
    for r in &measured {
        all.merge(r.samples.clone());
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&measured.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };

    let mut invalid = Vec::new();
    let hits: f64 = rounds.iter().map(|r| r.stats.hits).sum();
    let misses: f64 = rounds.iter().map(|r| r.stats.misses).sum();
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if hits > 0.0 {
        invalid.push(format!(
            "cache hit rate {hit_rate:.4} on a cold workload (must be 0)"
        ));
    }
    let lag_p95 = quantile(&all.lag_ms, 0.95);
    if lag_p95 > LAG_BOUND_MS {
        invalid.push(format!(
            "client p95 gap {lag_p95:.3} ms exceeds {LAG_BOUND_MS} ms"
        ));
    }

    let read_p50 = per_round(&|r| median(&r.samples.read_ms));
    let update_p50 = per_round(&|r| median(&r.samples.update_ms));
    let read_tail = per_round(&|r| tail(&r.samples.read_ms).0);
    let upd_tail = per_round(&|r| tail(&r.samples.update_ms).0);
    // Every round has the same request list, so one round's percentile
    // and sample count hold for all.
    let (_, read_pct, read_n) = tail(&measured[0].samples.read_ms);
    let (_, upd_pct, upd_n) = tail(&measured[0].samples.update_ms);
    let throughput = per_round(&|r| r.samples.read_ms.len() as f64 / r.samples.wall_s);
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = measured.iter().map(|r| r.peak_rss_mb).collect();

    eprintln!(
        "reads {} (p50 {:.4} ms, p{:.2} {:.4} ms per round of n={}), updates {} (p50 {:.4} ms, p{:.2} {:.4} ms per round of n={})",
        all.read_ms.len(),
        read_p50,
        read_pct,
        read_tail,
        read_n,
        all.update_ms.len(),
        update_p50,
        upd_pct,
        upd_tail,
        upd_n
    );
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if !args.trace {
        metrics.insert("setup_s", (median(&setup), "s"));
        metrics.insert("query_p50_ms", (read_p50, "ms"));
        metrics.insert("query_tail_ms", (read_tail, "ms"));
        metrics.insert("throughput_qps", (throughput, "1/s"));
        metrics.insert("update_p50_ms", (update_p50, "ms"));
        metrics.insert("update_tail_ms", (upd_tail, "ms"));
        metrics.insert("peak_rss_mb", (median(&rss), "MB"));
    } else {
        // Traced daemon round over the same inputs: queue-wait spans and
        // the tracing overhead.
        let trace_path = dir.join("trace.json");
        let traced = round(args, &w, &files, true, Some(&trace_path))?;
        let queue_wait_us = queue_wait_p50_us(&trace_path)?;
        all.attempted += traced.samples.attempted;
        all.failed += traced.samples.failed;
        all.wrong += traced.samples.wrong;
        all.first_failure = all.first_failure.take().or(traced.samples.first_failure);

        let rec = layers::run(&w, &files, threads());
        if let Some(m) = rec.shape_mismatches.first() {
            invalid.push(format!("heavy-core shape check: {m}"));
        }
        let print = layers::plan_print(&w, threads());
        if print != rec.direct {
            invalid.push(format!(
                "plan counts not repeatable: {:?} vs {print:?}",
                rec.direct
            ));
        }
        all.wrong += rec.wrong.len() as u64;
        if let Some(m) = rec.wrong.first() {
            all.first_failure.get_or_insert_with(|| m.clone());
        }

        let sum = |f: fn(&RoundStats) -> f64| rounds.iter().map(|r| f(&r.stats)).sum::<f64>();
        let churn = sum(|s| s.maintained) + sum(|s| s.recomputed) + sum(|s| s.invalidated);
        let service_p50: Vec<f64> = measured.iter().map(|r| r.stats.service_p50_us).collect();
        metrics = rec.metrics(host.fma_peak_gflops);
        metrics.insert("service.cache.hit_rate", (hit_rate, "ratio"));
        metrics.insert("service.cache.evictions", (sum(|s| s.evictions), "count"));
        metrics.insert(
            "service.maintain.maintained_frac",
            (
                if churn > 0.0 {
                    sum(|s| s.maintained) / churn
                } else {
                    0.0
                },
                "ratio",
            ),
        );
        metrics.insert(
            "service.max_queue_depth",
            (
                rounds
                    .iter()
                    .map(|r| r.stats.max_queue_depth)
                    .fold(0.0, f64::max),
                "count",
            ),
        );
        metrics.insert(
            "net.overhead_p50_us",
            (read_p50 * 1e3 - median(&service_p50), "us"),
        );
        metrics.insert("net.queue_wait_p50_us", (queue_wait_us, "us"));
        metrics.insert(
            "net.rejected_overloaded",
            (sum(|s| s.rejected_overloaded), "count"),
        );
        metrics.insert(
            "executor.granted_tokens",
            (sum(|s| s.granted_tokens), "count"),
        );
        metrics.insert("executor.stolen_tasks", (sum(|s| s.stolen_tasks), "count"));
        metrics.insert(
            "executor.inline_serial",
            (sum(|s| s.inline_serial), "count"),
        );
        metrics.insert("bench.generator_lag_ms", (lag_p95, "ms"));
        metrics.insert(
            "bench.tracing_overhead",
            (median(&traced.samples.read_ms) / read_p50, "ratio"),
        );
        metrics.insert("host.fma_peak_gflops", (host.fma_peak_gflops, "GFLOP/s"));
        metrics.insert("error_rate", (all.error_rate(), "ratio"));
    }

    for (name, (value, unit)) in &metrics {
        eprintln!("  {name:<34} {value:>14.6} {unit}");
    }
    eprintln!(
        "  error_rate {:.6} ({} failed, {} wrong of {})",
        all.error_rate(),
        all.failed,
        all.wrong,
        all.attempted
    );
    if let Some(m) = &all.first_failure {
        eprintln!("failed request: {m}");
    }
    if !invalid.is_empty() {
        return Err(format!("invalid run: {}", invalid.join("; ")));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = all.clean();
    Ok(Outcome {
        json: format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            all.attempted,
            all.failed,
            body.join(", ")
        ),
        ok: correct,
    })
}

/// Median over traced requests of the summed self time of their
/// queue-wait spans, in microseconds, from the daemon's Chrome export.
fn queue_wait_p50_us(path: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse trace: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("trace export has no traceEvents".into());
    };
    // (trace, span) → (stage, start, dur, parent)
    let mut spans: BTreeMap<(u64, u64), (String, f64, f64, u64)> = BTreeMap::new();
    for e in events {
        let num = |path: &[&str]| e.num(path).unwrap_or(0.0);
        let stage = match e.get("cat") {
            Some(Json::Str(s)) => s.clone(),
            _ => continue,
        };
        spans.insert(
            (
                num(&["args", "trace"]) as u64,
                num(&["args", "span"]) as u64,
            ),
            (
                stage,
                num(&["ts"]),
                num(&["dur"]),
                num(&["args", "parent"]) as u64,
            ),
        );
    }
    let mut per_trace: BTreeMap<u64, f64> = BTreeMap::new();
    for (&(trace, id), (stage, start, dur, _)) in &spans {
        if stage != "queue-wait" {
            continue;
        }
        // Self time: the span minus the union of its children.
        let mut kids: Vec<(f64, f64)> = spans
            .iter()
            .filter(|((t, _), s)| *t == trace && s.3 == id)
            .map(|(_, s)| (s.1.max(*start), (s.1 + s.2).min(start + dur)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut end) = (0.0, f64::MIN);
        for (a, b) in kids {
            let a = a.max(end);
            if b > a {
                covered += b - a;
                end = b;
            }
        }
        *per_trace.entry(trace).or_default() += dur - covered;
    }
    let v: Vec<f64> = per_trace.into_values().collect();
    if v.is_empty() {
        return Err("trace export has no queue-wait spans".into());
    }
    Ok(median(&v))
}
