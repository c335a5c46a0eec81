//! Blocking client for the framed protocol. One [`Client`] wraps one
//! TCP connection; `call` is the simple request/response path, while
//! `send`/`recv` expose pipelining (many requests in flight, answers
//! correlated by id).

use crate::frame;
use crate::wire::{WireRequest, WireResponse};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects once.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with retries — the standard way to wait for a freshly
    /// spawned `mmjoin-netd` to start listening.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: u32,
        delay: Duration,
    ) -> io::Result<Client> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // Each request is one small frame the server must see at once;
        // Nagle would hold it back waiting for the previous reply's ACK.
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_id: 1,
        })
    }

    /// Sends one command line, returning its correlation id without
    /// waiting for the answer (pipelining).
    pub fn send(&mut self, line: &str) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let req = WireRequest {
            id,
            line: line.to_string(),
        };
        frame::write_frame(&mut self.writer, &req.encode())?;
        Ok(id)
    }

    /// Receives the next response frame (in server-send order).
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let payload = frame::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        WireResponse::decode(&payload)
    }

    /// Request/response: sends `line` and waits for its answer.
    pub fn call(&mut self, line: &str) -> io::Result<WireResponse> {
        let id = self.send(line)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} does not match request id {id}", resp.id),
            ));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connected_client_disables_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.reader.get_ref().nodelay().unwrap());
        assert!(client.writer.get_ref().nodelay().unwrap());
    }
}
