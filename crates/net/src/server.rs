//! The concurrent TCP server: thread-per-connection readers admitting
//! each request straight onto the service's one admission queue
//! ([`mmjoin_service::admission`]), whose workers execute it through the
//! shared grammar ([`mmjoin_service::command`]) and hand the answer back
//! to the connection's writer.
//!
//! # Admission control
//!
//! The queue's global capacity and per-client quota live in
//! [`ServiceConfig`](mmjoin_service::ServiceConfig); each connection is
//! one client. A request the queue refuses is answered
//! [`Status::Overloaded`] immediately from the reader thread — it never
//! waits in line — so backpressure reaches the client at network
//! latency, not at queue-drain latency.
//!
//! # Shutdown
//!
//! `shutdown` (the command, or [`Server::shutdown`]) closes the queue in
//! *drain* mode — every already-admitted request still executes and its
//! answer is delivered — and unblocks the accept loop. New requests are
//! answered [`Status::ShuttingDown`].

use crate::frame;
use crate::wire::{Status, WireRequest, WireResponse};
use mmjoin_service::command::Frontend;
use mmjoin_service::{Admission, Service};
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server settings. Admission bounds and the worker pool belong to the
/// [`Service`] being served.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
        }
    }
}

/// Front-end counters, all updated lock-free except the per-client map.
#[derive(Default)]
pub struct NetMetrics {
    connections: AtomicU64,
    requests: AtomicU64,
    served: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_shutting_down: AtomicU64,
    per_client_served: Mutex<BTreeMap<u64, u64>>,
}

impl NetMetrics {
    fn record_served(&self, client: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        *self
            .per_client_served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(client)
            .or_insert(0) += 1;
    }

    /// Zeroes every counter, including the per-client tallies (`stats
    /// reset`).
    pub fn reset(&self) {
        self.connections.store(0, Ordering::Relaxed);
        self.requests.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.rejected_overloaded.store(0, Ordering::Relaxed);
        self.rejected_shutting_down.store(0, Ordering::Relaxed);
        self.per_client_served
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            per_client_served: self
                .per_client_served
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
        }
    }
}

/// Point-in-time front-end statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames decoded into requests (admitted or not).
    pub requests: u64,
    /// Answers produced by service workers (Ok or Err).
    pub served: u64,
    /// Requests bounced with [`Status::Overloaded`]; equals the
    /// service's `rejected` count when this server is its only client.
    pub rejected_overloaded: u64,
    /// Requests bounced with [`Status::ShuttingDown`].
    pub rejected_shutting_down: u64,
    /// `(client id, responses served)` per connection, ascending id.
    pub per_client_served: Vec<(u64, u64)>,
}

impl NetMetricsSnapshot {
    /// The counters as a JSON object (field names match the struct;
    /// `per_client_served` becomes an array of `[id, served]` pairs).
    pub fn to_json(&self) -> String {
        let clients: Vec<String> = self
            .per_client_served
            .iter()
            .map(|(id, n)| format!("[{id},{n}]"))
            .collect();
        format!(
            "{{\"connections\":{},\"requests\":{},\"served\":{},\"rejected_overloaded\":{},\
             \"rejected_shutting_down\":{},\"per_client_served\":[{}]}}",
            self.connections,
            self.requests,
            self.served,
            self.rejected_overloaded,
            self.rejected_shutting_down,
            clients.join(","),
        )
    }
}

impl std::fmt::Display for NetMetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connections {}, requests {}, served {}, \
             rejected {} (overloaded {}, shutting-down {}), clients {}",
            self.connections,
            self.requests,
            self.served,
            self.rejected_overloaded + self.rejected_shutting_down,
            self.rejected_overloaded,
            self.rejected_shutting_down,
            self.per_client_served.len(),
        )
    }
}

/// The server's side of the shared command grammar: its counters answer
/// `stats net` and `stats reset`, and `shutdown` wakes its accept loop.
/// Admitted requests carry it across the queue; it holds no [`Service`]
/// reference, so a queued request never keeps the service alive.
struct NetFrontend {
    metrics: NetMetrics,
    addr: SocketAddr,
}

impl Frontend for NetFrontend {
    fn net_stats(&self) -> Option<String> {
        Some(self.metrics.snapshot().to_string())
    }

    fn net_stats_json(&self) -> Option<String> {
        Some(self.metrics.snapshot().to_json())
    }

    fn reset_stats(&self) {
        self.metrics.reset();
    }

    /// Pokes the accept loop awake with a throwaway connection; it sees
    /// admission closed, refuses the poke and returns.
    fn shutdown(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

struct Shared {
    service: Arc<Service>,
    frontend: Arc<NetFrontend>,
    /// Live connection threads plus a stream clone to unblock each
    /// reader at shutdown; joined by [`Server::wait`] so every in-flight
    /// reply is flushed before the process may exit. Each accept prunes
    /// the connections that have ended.
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

/// A running server: the accept loop in front of the service's workers.
/// Dropping the handle does NOT stop the server — call
/// [`Server::shutdown`] (or send the `shutdown` command) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl Server {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.frontend.addr
    }

    /// Front-end metrics snapshot.
    pub fn metrics(&self) -> NetMetricsSnapshot {
        self.shared.frontend.metrics.snapshot()
    }

    /// Programmatic equivalent of the `shutdown` command.
    pub fn shutdown(&self) {
        self.shared.service.shutdown();
        self.shared.frontend.shutdown();
    }

    /// Joins the accept loop and the service's workers, then the
    /// connection threads. Returns only after every admitted request has
    /// been executed and its answer *flushed to the socket* — a caller
    /// may exit the process immediately afterwards without cutting off
    /// replies.
    pub fn wait(self) {
        let _ = self.accept.join();
        self.shared.service.wait();
        // Workers have answered everything; unblock readers still parked
        // on idle connections (read side only, so writers keep flushing)
        // and wait for each writer to drain.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
    }
}

/// Binds, spawns the accept loop, and returns immediately. Requests run
/// on `service`'s workers under its admission bounds.
pub fn serve(service: Arc<Service>, config: NetConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let shared = Arc::new(Shared {
        service,
        frontend: Arc::new(NetFrontend {
            metrics: NetMetrics::default(),
            addr: listener.local_addr()?,
        }),
        conns: Mutex::new(Vec::new()),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(Server { shared, accept })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_client: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.service.is_shutting_down() {
                    return;
                }
                // Out of descriptors (or a transient error): back off
                // instead of spinning until connections close.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.service.is_shutting_down() {
            // The wake-up poke, or a late client: refuse politely.
            let mut w = BufWriter::new(stream);
            let _ = frame::write_frame(
                &mut w,
                &WireResponse {
                    id: 0,
                    status: Status::ShuttingDown,
                    body: "server is shutting down".into(),
                }
                .encode(),
            );
            return;
        }
        // Replies are single frames written as soon as they are ready;
        // Nagle would delay each one behind the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let client = next_client;
        next_client += 1;
        shared
            .frontend
            .metrics
            .connections
            .fetch_add(1, Ordering::Relaxed);
        let unblock = stream.try_clone();
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || connection_loop(&conn_shared, stream, client));
        let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        // Forget connections that have ended (closing their stream
        // clones), so the list tracks live connections only.
        conns.retain(|(_, handle)| !handle.is_finished());
        match unblock {
            // Tracked: `Server::wait` unblocks the reader and joins.
            Ok(clone) => conns.push((clone, handle)),
            // No clone to poke it with — leave it detached; the thread
            // still ends at client EOF or stream error.
            Err(_) => drop(handle),
        }
    }
}

/// Reader half of one connection: decode frames, admit or bounce.
/// Responses travel through an mpsc channel to a writer thread so
/// worker answers and reader bounces never interleave mid-frame.
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream, client: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<WireResponse>();
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(write_half);
        while let Ok(resp) = rx.recv() {
            if frame::write_frame(&mut w, &resp.encode()).is_err() {
                break;
            }
        }
    });

    let metrics = &shared.frontend.metrics;
    let mut r = BufReader::new(stream);
    // Clean EOF, mid-frame EOF and I/O errors all end the connection.
    while let Ok(Some(payload)) = frame::read_frame(&mut r) {
        let req = match WireRequest::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Framing is broken; answer once and hang up.
                let _ = tx.send(WireResponse {
                    id: 0,
                    status: Status::Err,
                    body: format!("protocol error: {e}"),
                });
                break;
            }
        };
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        let id = req.id;
        let reply = {
            let tx = tx.clone();
            let frontend = Arc::clone(&shared.frontend);
            move |answer: mmjoin_service::Answer| {
                frontend.metrics.record_served(client);
                let (status, body) = match answer.body {
                    Ok(body) => (Status::Ok, body),
                    Err(body) => (Status::Err, body),
                };
                let _ = tx.send(WireResponse { id, status, body });
            }
        };
        let frontend: Arc<dyn Frontend> = shared.frontend.clone();
        let (status, body) = match shared.service.admit(client, req.line, frontend, reply) {
            Ok(()) => continue,
            Err(Admission::Overloaded) => {
                metrics.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                let (capacity, quota) = shared.service.admission();
                (
                    Status::Overloaded,
                    format!(
                        "admission queue full (capacity {capacity}, per-client quota {quota}); retry"
                    ),
                )
            }
            Err(Admission::ShuttingDown) => {
                metrics
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                (
                    Status::ShuttingDown,
                    "server is draining; no new work accepted".into(),
                )
            }
        };
        let _ = tx.send(WireResponse { id, status, body });
    }
    drop(tx); // Writer exits once admitted requests (tx clones) are answered.
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use mmjoin_storage::Relation;

    #[test]
    fn server_smoke_register_query_shutdown() {
        let service = Arc::new(Service::with_default_registry(2));
        service.register("R", Relation::from_edges([(0, 1), (1, 1), (2, 0)]));
        let server = serve(service, NetConfig::default()).unwrap();
        let addr = server.addr();

        let mut c = Client::connect(addr).unwrap();
        let resp = c.call("query twopath R R").unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(resp.body.starts_with("ok rows "), "{}", resp.body);
        let warm = c.call("query twopath R R").unwrap();
        assert!(warm.body.contains("cached true"), "{}", warm.body);
        // The accepted stream has Nagle off, like the client's (the
        // accept loop registers it just after spawning its reader).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.shared.conns.lock().unwrap().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "connection never registered"
            );
            std::thread::yield_now();
        }
        let conns = server.shared.conns.lock().unwrap();
        assert!(conns.iter().all(|(s, _)| s.nodelay().unwrap()));
        drop(conns);

        let bad = c.call("query warp R R").unwrap();
        assert_eq!(bad.status, Status::Err);
        assert!(bad.body.contains("`warp`"), "{}", bad.body);

        let bye = c.call("shutdown").unwrap();
        assert_eq!(bye.status, Status::Ok);
        assert_eq!(bye.body, "ok shutting down");
        server.wait();
    }

    /// Closed connections leave the tracked list: after many short-lived
    /// clients it holds only the most recent ones, not one entry (and
    /// one open stream clone) per connection ever accepted.
    #[test]
    fn closed_connections_are_not_tracked() {
        let service = Arc::new(Service::with_default_registry(1));
        let server = serve(service, NetConfig::default()).unwrap();
        let tracked = || server.shared.conns.lock().unwrap().len();
        for _ in 0..40 {
            let mut c = Client::connect(server.addr()).unwrap();
            assert_eq!(c.call("engines").unwrap().status, Status::Ok);
        }
        // Each accept prunes the connections that have ended; a probe
        // that closes at once lets the earlier threads finish first.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            drop(Client::connect(server.addr()).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            if tracked() <= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{} connections still tracked after 40 closed",
                tracked()
            );
        }
        assert!(server.metrics().connections >= 41);
        server.shutdown();
        server.wait();
    }
}
