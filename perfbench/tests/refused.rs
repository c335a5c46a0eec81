//! A request the daemon refuses fails the run: it is counted in
//! `failed`, and the samples are no longer clean, so the benchmark
//! reports `correct: false` and exits non-zero.

use mmjoin_net::{serve, Client, NetConfig};
use mmjoin_perfbench::drive::closed_loop;
use mmjoin_perfbench::workload::{Kind, Workload};
use mmjoin_service::{Service, ServiceConfig};
use std::sync::Arc;

#[test]
fn refused_reads_fail_the_run() {
    // A daemon that holds none of the workload's relations answers every
    // read with ERR (unknown relation).
    let service = Arc::new(Service::with_config(ServiceConfig::default()));
    let server = serve(service, NetConfig::default()).expect("bind");
    let mut w = Workload::generate(Kind::ChainSparse, 1);
    w.reads.truncate(4);
    let mut conn = Client::connect(server.addr()).expect("connect");
    let s = closed_loop(&mut conn, &w).expect("closed loop");
    assert_eq!((s.attempted, s.failed, s.wrong), (4, 4, 0));
    assert!(s.read_ms.is_empty(), "refused reads must not be timed");
    assert!(!s.clean(), "a refused read must fail the run");
    let why = s.first_failure.expect("refusal recorded");
    assert!(why.contains("refused"), "{why}");
    drop(conn);
    server.shutdown();
    server.wait();
}
