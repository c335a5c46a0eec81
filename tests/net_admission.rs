//! Admission-control stress for the TCP front end over the service's
//! one admission queue: more in-flight work than the queue bound must
//! bounce with OVERLOADED *promptly* (from the reader thread, not after
//! the queue drains), every accepted query must complete with rows
//! identical to a serial replay, a modest client must keep completing
//! while a chatty one floods (per-client fairness floor), each refusal
//! is counted once in both layers, and `shutdown` must drain admitted
//! jobs before the server stops.

use mmjoin_net::{serve, Client, NetConfig, Status};
use mmjoin_service::{command, Service, ServiceConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `ok rows <n> …` → n.
fn rows_of(body: &str) -> u64 {
    let mut it = body.split_whitespace();
    assert_eq!(it.next(), Some("ok"), "{body}");
    assert_eq!(it.next(), Some("rows"), "{body}");
    it.next().unwrap().parse().unwrap()
}

/// Distinct `min <i>` thresholds keep every query cold (distinct
/// fingerprints), so each one costs real execution time and the queue
/// genuinely backs up behind a single worker.
fn cold_query(i: u32) -> String {
    format!("query twopath R R min {i}")
}

const GEN: &str = "gen R Jokes 0.15";

#[test]
fn overloaded_is_prompt_and_accepted_queries_complete_correctly() {
    let service = Arc::new(Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 3,
        per_client_quota: 3,
        ..ServiceConfig::default()
    }));
    let server = serve(Arc::clone(&service), NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.call(GEN).unwrap().status, Status::Ok);

    // Burst: pipeline far more work than the queue bound in one go.
    let lines: Vec<String> = (1..=10).map(cold_query).collect();
    let mut by_id: HashMap<u64, String> = HashMap::new();
    for line in &lines {
        by_id.insert(c.send(line).unwrap(), line.clone());
    }

    let mut rows: HashMap<String, u64> = HashMap::new();
    let mut bounced: Vec<String> = Vec::new();
    let mut ok_after_bounce = false;
    for _ in 0..lines.len() {
        let resp = c.recv().unwrap();
        match resp.status {
            Status::Ok => {
                if !bounced.is_empty() {
                    ok_after_bounce = true;
                }
                rows.insert(by_id[&resp.id].clone(), rows_of(&resp.body));
            }
            Status::Overloaded => bounced.push(by_id[&resp.id].clone()),
            other => panic!("unexpected status {other} ({})", resp.body),
        }
    }
    assert!(
        !bounced.is_empty(),
        "a 10-deep burst against a queue of 3 must bounce"
    );
    // (a) Promptness: bounces were answered while accepted queries were
    // still executing — i.e. some Ok arrived *after* an OVERLOADED,
    // which is impossible if rejections waited for the queue to drain.
    assert!(
        ok_after_bounce,
        "OVERLOADED must be answered immediately at admission time"
    );

    // (b) Bounced work retried until admitted: everything completes.
    for line in bounced {
        loop {
            let resp = c.call(&line).unwrap();
            match resp.status {
                Status::Ok => {
                    rows.insert(line.clone(), rows_of(&resp.body));
                    break;
                }
                Status::Overloaded => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected status {other} ({})", resp.body),
            }
        }
    }

    // Correctness: every accepted answer matches a serial replay.
    let serial = Service::with_default_registry(1);
    command::run_line(&serial, GEN).unwrap();
    for line in &lines {
        let body = command::run_line(&serial, line).unwrap();
        assert_eq!(
            rows[line],
            rows_of(&body),
            "{line} diverged from serial replay"
        );
    }

    // Bounded memory: the queue's high-water mark respects its bound.
    let depth = service.metrics().max_queue_depth;
    assert!(depth <= 3, "queue depth {depth} exceeded bound 3");
    assert!(server.metrics().rejected_overloaded >= 1);
    server.shutdown();
    server.wait();
}

#[test]
fn chatty_client_cannot_starve_a_modest_one() {
    const CHATTY_TOTAL: u64 = 30;
    const MODEST_TOTAL: u64 = 6;

    // Quota 4 < capacity 8: the chatty client can never fill admission,
    // so the modest client is never bounced — fairness at admission.
    let service = Arc::new(Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        per_client_quota: 4,
        ..ServiceConfig::default()
    }));
    let server = serve(Arc::clone(&service), NetConfig::default()).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.call(GEN).unwrap().status, Status::Ok);

    let chatty_done = AtomicU64::new(0);
    let chatty_done_when_modest_finished = AtomicU64::new(u64::MAX);

    std::thread::scope(|scope| {
        let chatty_done = &chatty_done;
        let observed = &chatty_done_when_modest_finished;

        // Chatty: keeps a 4-deep pipeline full for 30 cold queries,
        // immediately retrying anything the quota bounces.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut next: u32 = 0;
            let mut in_flight: HashMap<u64, String> = HashMap::new();
            let mut completed = 0u64;
            while completed < CHATTY_TOTAL {
                while in_flight.len() < 4 && next < CHATTY_TOTAL as u32 {
                    let line = cold_query(next + 1);
                    next += 1;
                    in_flight.insert(c.send(&line).unwrap(), line);
                }
                let resp = c.recv().unwrap();
                let line = in_flight.remove(&resp.id).expect("unknown id");
                match resp.status {
                    Status::Ok => {
                        completed += 1;
                        chatty_done.fetch_add(1, Ordering::SeqCst);
                    }
                    // Quota bounce: retry the same line.
                    Status::Overloaded => {
                        in_flight.insert(c.send(&line).unwrap(), line);
                    }
                    other => panic!("chatty: unexpected status {other} ({})", resp.body),
                }
            }
        });

        // Modest: 6 sequential cold queries; records how far the
        // chatty client had gotten when it finished.
        scope.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..MODEST_TOTAL as u32 {
                let resp = c.call(&cold_query(1000 + i)).unwrap();
                assert_eq!(
                    resp.status,
                    Status::Ok,
                    "modest client must never be bounced (quota shields it): {}",
                    resp.body
                );
            }
            observed.store(chatty_done.load(Ordering::SeqCst), Ordering::SeqCst);
        });
    });

    assert_eq!(chatty_done.load(Ordering::SeqCst), CHATTY_TOTAL);
    let observed = chatty_done_when_modest_finished.load(Ordering::SeqCst);
    // Fairness floor: round-robin alternates the two clients, so the
    // modest client's 6 queries finish after ~12 dispatch slots. If the
    // chatty backlog were drained FIFO instead, the modest client would
    // sit behind ~4 chatty jobs per query (~24+ completions). The bound
    // splits those regimes with slack for scheduling noise.
    assert!(
        observed <= 20,
        "modest client starved: chatty completed {observed}/{CHATTY_TOTAL} \
         before the modest client's {MODEST_TOTAL} queries finished"
    );

    assert!(service.metrics().max_queue_depth <= 8);
    // Per-client counters saw all three connections (setup + 2).
    assert!(server.metrics().per_client_served.len() >= 3);
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_admitted_work_then_refuses_new_work() {
    let service = Arc::new(Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        per_client_quota: 8,
        ..ServiceConfig::default()
    }));
    let server = serve(service, NetConfig::default()).unwrap();
    let addr = server.addr();

    let mut a = Client::connect(addr).unwrap();
    assert_eq!(a.call(GEN).unwrap().status, Status::Ok);

    // A pipelines slow work; B asks for shutdown while it is queued.
    let ids: Vec<u64> = (1..=3).map(|i| a.send(&cold_query(i)).unwrap()).collect();
    // Wait until the reader has decoded A's whole burst (GEN + 3 = 4
    // requests; nothing is shutting down yet and the queue has room, so
    // decoded means admitted). A fixed sleep here raced the reader
    // thread on contended single-core hosts.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().requests < 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "A's burst was never decoded: {:?}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut b = Client::connect(addr).unwrap();
    let bye = b.call("shutdown").unwrap();
    assert_eq!(bye.status, Status::Ok);
    assert_eq!(bye.body, "ok shutting down");

    // Round-robin interleaves B's shutdown with A's backlog, so at
    // least A's last query is drained *after* the server has already
    // begun shutting down — and is still answered.
    for id in ids {
        let resp = a.recv().unwrap();
        assert_eq!(resp.id, id);
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(resp.body.starts_with("ok rows "), "{}", resp.body);
    }

    // New work on the still-open connection is refused, not queued.
    let refused = a.call("stats").unwrap();
    assert_eq!(refused.status, Status::ShuttingDown, "{}", refused.body);

    let m = server.metrics();
    assert!(m.rejected_shutting_down >= 1);
    server.wait();
}

/// The number after `key` in a flat JSON text.
fn json_num(json: &str, key: &str) -> u64 {
    let at = json
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing: {json}"))
        + key.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn each_refusal_is_counted_once_in_both_layers() {
    const CAPACITY: u64 = 4;
    let service = Arc::new(Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: CAPACITY as usize,
        per_client_quota: 3,
        ..ServiceConfig::default()
    }));
    let server = serve(service, NetConfig::default()).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.call(GEN).unwrap().status, Status::Ok);

    // Two clients each pipeline a burst far past the bounds at once.
    let bounced = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for base in [0u32, 100] {
            let bounced = &bounced;
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let ids: Vec<u64> = (1..=12)
                    .map(|i| c.send(&cold_query(base + i)).unwrap())
                    .collect();
                for _ in &ids {
                    match c.recv().unwrap().status {
                        Status::Ok => {}
                        Status::Overloaded => {
                            bounced.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}"),
                    }
                }
            });
        }
    });
    let bounced = bounced.load(Ordering::Relaxed);
    assert!(bounced >= 1, "a saturating burst must bounce");

    let json = setup.call("stats --json").unwrap().body;
    let (service_json, net_json) = json.split_once("\"net\"").expect("net scope");
    let rejected = json_num(service_json, "\"rejected\":");
    let overloaded = json_num(net_json, "\"rejected_overloaded\":");
    assert_eq!(
        (rejected, overloaded),
        (bounced, bounced),
        "service.rejected and net.rejected_overloaded both count each bounce once"
    );
    let depth = json_num(service_json, "\"max_queue_depth\":");
    assert!(
        depth <= CAPACITY,
        "queue depth {depth} exceeded bound {CAPACITY}"
    );
    server.shutdown();
    server.wait();
}
