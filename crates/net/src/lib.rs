//! `mmjoin-net` — the TCP front end of the join service.
//!
//! The service crate turns the engines into a long-lived *process*;
//! this crate turns that process into a *server*: a length-prefixed
//! binary protocol over plain `std::net` TCP (the workspace is offline
//! — no tokio, no async), shared by the `mmjoin-netd` daemon and the
//! `mmjoin-cli` client.
//!
//! * [`frame`] — `u32` little-endian length prefix + payload, capped at
//!   [`frame::MAX_FRAME`].
//! * [`wire`] — the tagged request/response messages inside frames,
//!   with a status byte distinguishing success, errors, admission
//!   rejections ([`wire::Status::Overloaded`]) and drain mode
//!   ([`wire::Status::ShuttingDown`]).
//! * [`server`] — thread-per-connection readers admitting each request
//!   onto the service's one bounded [`admission`](mmjoin_service::admission)
//!   queue (global capacity + per-client quota, round-robin across
//!   connections), whose workers
//!   execute it via the shared grammar; graceful shutdown drains every
//!   admitted request.
//! * [`client`] — a blocking client with request/response and
//!   pipelined modes.
//!
//! Commands on the wire are lines in the *same* grammar the stdin REPL
//! speaks ([`mmjoin_service::command`]): one grammar, two transports.

pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::Client;
pub use server::{serve, NetConfig, NetMetricsSnapshot, Server};
pub use wire::{Status, WireRequest, WireResponse};
