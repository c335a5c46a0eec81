//! The load generator: a closed loop over one connection. Every reply is
//! checked against the expected row count.

use crate::netd::rows_of;
use crate::workload::Workload;
use mmjoin_net::{Client, Status};
use std::collections::HashSet;
use std::io;
use std::time::Instant;

/// What one measuring session saw.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub read_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// Requests sent (reads and updates).
    pub attempted: u64,
    /// ERR / OVERLOADED / SHUTTING-DOWN answers.
    pub failed: u64,
    /// OK answers with the wrong row count.
    pub wrong: u64,
    /// Wall time of the session.
    pub wall_s: f64,
    /// The client's own gap between a reply and its next request (ms).
    pub lag_ms: Vec<f64>,
    /// First refusal or mismatch seen, for the error message.
    pub first_failure: Option<String>,
}

impl Samples {
    pub fn merge(&mut self, other: Samples) {
        self.read_ms.extend(other.read_ms);
        self.update_ms.extend(other.update_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.wall_s += other.wall_s;
        self.lag_ms.extend(other.lag_ms);
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    /// Whether every request was answered OK with the expected rows. A
    /// refused request fails the run like a wrong answer: its latency is
    /// missing from the samples, so the figures would look better.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// (ERR + OVERLOADED + SHUTTING-DOWN + wrong answers) ÷ requests.
    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }

    fn refused(&mut self, line: &str, body: &str) {
        self.failed += 1;
        self.first_failure
            .get_or_insert_with(|| format!("`{line}` was refused: `{body}`"));
    }
}

/// Replays the workload's whole read list, one request at a time.
pub fn closed_loop(conn: &mut Client, w: &Workload) -> io::Result<Samples> {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut last_reply: Option<Instant> = None;
    // Relations currently holding their toggle tuple.
    let mut present: HashSet<String> = HashSet::new();
    for read in &w.reads {
        let line = read.read.line();
        if let Some(prev) = last_reply {
            s.lag_ms.push(prev.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let resp = conn.call(&line)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        s.attempted += 1;
        if resp.status != Status::Ok {
            s.refused(&line, &resp.body);
            continue;
        }
        s.read_ms.push(ms);
        let want = read.expected(|r| present.contains(r));
        if rows_of(&resp.body) != Some(want) {
            s.wrong += 1;
            s.first_failure.get_or_insert_with(|| {
                format!("`{line}` answered `{}`, expected rows {want}", resp.body)
            });
        }
        if read.flush {
            let rel = read.read.relations()[0];
            let up = w.toggle(rel, present.contains(rel)).line();
            let t = Instant::now();
            let resp = conn.call(&up)?;
            s.attempted += 1;
            if resp.status == Status::Ok {
                s.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !present.remove(rel) {
                    present.insert(rel.to_string());
                }
            } else {
                s.refused(&up, &resp.body);
            }
        }
        last_reply = Some(Instant::now());
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    Ok(s)
}
