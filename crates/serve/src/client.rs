//! A blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection; requests are strictly
//! request/response, so a producer loop is just repeated
//! [`Client::push_shard`] calls on the same connection.  Server-side errors
//! come back as `Err("server: ...")`, transport errors as `Err("...")` — both
//! flow into the CLI's single `error:` line convention.

use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, Response};
use std::io::BufReader;
use std::net::TcpStream;

/// A connected client.
pub struct Client {
    /// Responses are read through the buffer; requests are written to the socket
    /// under it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request and returns the server's JSON response document.
    pub fn call(&mut self, request: &Request) -> Result<String, String> {
        let (kind, payload) = request.encode();
        write_frame(self.stream.get_mut(), kind, &payload)?;
        let (kind, payload) = read_frame(&mut self.stream)?
            .ok_or_else(|| "server closed the connection".to_string())?;
        match Response::decode(kind, payload)? {
            Response::Ok(json) => Ok(json),
            Response::Err(message) => Err(format!("server: {message}")),
        }
    }

    /// Pushes one `dprof-report/v1` document under `(workload, build)`.
    pub fn push_shard(
        &mut self,
        workload: &str,
        build: &str,
        shard_id: u64,
        report_json: &str,
    ) -> Result<String, String> {
        self.call(&Request::PushShard {
            workload: workload.into(),
            build: build.into(),
            shard_id,
            report_json: report_json.into(),
        })
    }

    /// Uploads a recorded `.dtrace` session.
    pub fn push_trace(
        &mut self,
        workload: &str,
        build: &str,
        shard_id: u64,
        bytes: Vec<u8>,
    ) -> Result<String, String> {
        self.call(&Request::PushTrace {
            workload: workload.into(),
            build: build.into(),
            shard_id,
            bytes,
        })
    }

    /// Top-N miss types of one key.
    pub fn query_top(&mut self, workload: &str, build: &str, top: u64) -> Result<String, String> {
        self.call(&Request::QueryTop {
            workload: workload.into(),
            build: build.into(),
            top,
        })
    }

    /// Per-type regressions between two builds, worst first.
    pub fn query_regressions(
        &mut self,
        workload: &str,
        from: &str,
        to: &str,
        top: u64,
    ) -> Result<String, String> {
        self.call(&Request::QueryRegressions {
            workload: workload.into(),
            from: from.into(),
            to: to.into(),
            top,
        })
    }

    /// Wilson-gated regression alerts between two builds.
    pub fn query_alerts(&mut self, workload: &str, from: &str, to: &str) -> Result<String, String> {
        self.call(&Request::QueryAlerts {
            workload: workload.into(),
            from: from.into(),
            to: to.into(),
        })
    }

    /// Every key the store holds.
    pub fn list_keys(&mut self) -> Result<String, String> {
        self.call(&Request::ListKeys)
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<String, String> {
        self.call(&Request::Stats)
    }

    /// Forces a snapshot of every dirty key.
    pub fn snapshot(&mut self) -> Result<String, String> {
        self.call(&Request::Snapshot)
    }

    /// Asks the server to stop.
    pub fn shutdown(&mut self) -> Result<String, String> {
        self.call(&Request::Shutdown)
    }
}
