//! The closed-loop client: one connection, one thread, a fixed
//! pipelining window.
//!
//! Untraced rounds drive the program's own `SqlClient`
//! (`send_batch` / `send_sql` / `flush` / `recv`), so a change to the
//! client shows in the end-to-end figures. Traced rounds run the same
//! loop over a raw socket with the client's buffer sizes and codec
//! calls (`wire::encode_batch` / `wire::encode_sql` /
//! `wire::read_response`), but read each response frame off the socket
//! before decoding it, so the wait for the server and the client's own
//! decode are timed apart.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use backsort_engine::PointBatch;
use backsort_server::wire::{self, Response};
use backsort_server::{ClientError, SqlClient};

use crate::gen::SENSOR;
use crate::spans::SpanLog;

/// Requests a client keeps in flight before it waits for an answer.
pub const WINDOW: usize = 4;
/// Largest response frame the client accepts (as `SqlClient`).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// The two request classes the metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A batched INSERT.
    Write,
    /// A SELECT.
    Query,
}

/// What the client remembers about one sent request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Request class.
    pub class: Class,
    /// Session-local tag (e.g. series and batch index).
    pub tag: u64,
    /// Points the request carries (writes only).
    pub points: u64,
}

/// What a checked answer contained.
#[derive(Debug, Clone, Copy, Default)]
pub struct Answer {
    /// Raw rows returned (`Rows` outputs only).
    pub rows: u64,
}

/// One generated request.
pub enum Request<'a> {
    /// A binary batched INSERT into sensor [`SENSOR`] of `device`.
    Batch {
        /// Device path.
        device: &'a str,
        /// The points.
        batch: &'a PointBatch,
    },
    /// A SQL statement.
    Sql(String),
}

impl Request<'_> {
    /// Appends the request's frame, with frame id `id`, to `out`.
    pub fn encode(&self, id: u64, out: &mut Vec<u8>) {
        match self {
            Request::Batch { device, batch } => wire::encode_batch(out, id, device, SENSOR, batch),
            Request::Sql(sql) => wire::encode_sql(out, id, sql),
        }
    }

    fn send(&self, client: &mut SqlClient) -> std::io::Result<u64> {
        match self {
            Request::Batch { device, batch } => client.send_batch(device, SENSOR, batch),
            Request::Sql(sql) => client.send_sql(sql),
        }
    }
}

/// One client's fixed op sequence plus its output oracle.
pub trait Session: Send {
    /// The next request, or `None` when the sequence is exhausted.
    fn next_request(&mut self) -> Option<(Request<'_>, Sent)>;
    /// Checks the answer to an OK-answered request; `Err` is a wrong
    /// answer and fails the run.
    fn check(&mut self, sent: &Sent, output: &backsort_sql::QueryOutput) -> Result<Answer, String>;
    /// Notes that a request was answered BUSY or with an error, so it
    /// took no effect.
    fn refused(&mut self, sent: &Sent);
    /// Starts another round of an unbounded sequence; sequences that
    /// end by themselves ignore it.
    fn start_round(&mut self) {}
    /// Expected totals of every series this session wrote.
    fn totals(&self) -> Vec<crate::workloads::Totals> {
        Vec::new()
    }
}

/// Everything one client measured.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Send-to-decoded latency of write requests, ns (`u64::MAX` for a
    /// request answered BUSY or error: a refusal misses every limit).
    pub write_ns: Vec<u64>,
    /// Same for queries.
    pub query_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered BUSY.
    pub busy: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Points in OK-answered writes.
    pub points_acked: u64,
    /// Raw rows in OK-answered queries.
    pub rows: u64,
    /// Payload bytes of OK answers carrying raw rows (traced rounds
    /// only: `SqlClient::recv` does not expose the frame length).
    pub row_payload_bytes: u64,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

impl ClientStats {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: ClientStats) {
        self.write_ns.extend(other.write_ns);
        self.query_ns.extend(other.query_ns);
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.errors += other.errors;
        self.points_acked += other.points_acked;
        self.rows += other.rows;
        self.row_payload_bytes += other.row_payload_bytes;
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
    }

    /// Requests answered OK.
    pub fn ok(&self) -> u64 {
        self.attempted - self.busy - self.errors
    }

    /// Records the answer `(id, response)` to request `expected` of
    /// `session`, received `latency_ns` after it was started;
    /// `payload_bytes` is the response frame's payload length when known.
    fn record(
        &mut self,
        session: &mut dyn Session,
        expected: u64,
        sent: &Sent,
        (id, response): (u64, Response),
        latency_ns: u64,
        payload_bytes: Option<u64>,
    ) {
        if id != expected {
            self.wrong = Some(format!("response id {id} answers request {expected}"));
        }
        let mut latency = latency_ns;
        match response {
            Response::Busy(_) => {
                self.busy += 1;
                latency = u64::MAX;
                session.refused(sent);
            }
            Response::Error(message) => {
                self.errors += 1;
                latency = u64::MAX;
                session.refused(sent);
                eprintln!("error answer to request {id}: {message}");
            }
            Response::Output(output) => match session.check(sent, &output) {
                Ok(answer) => {
                    self.points_acked += sent.points;
                    if answer.rows > 0 {
                        self.rows += answer.rows;
                        self.row_payload_bytes += payload_bytes.unwrap_or(0);
                    }
                }
                Err(why) => {
                    self.wrong.get_or_insert(why);
                }
            },
        }
        match sent.class {
            Class::Write => self.write_ns.push(latency),
            Class::Query => self.query_ns.push(latency),
        }
    }
}

struct Inflight {
    id: u64,
    sent: Sent,
    start: Instant,
    encoded: Instant,
    flushed: Instant,
}

/// Opens a raw connection to `addr` for [`drive_traced`], with the
/// socket options `SqlClient::connect` sets.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Runs `session` through the program's `SqlClient` until its sequence
/// ends, then drains the requests still in flight.
pub fn drive(mut client: SqlClient, session: &mut dyn Session) -> std::io::Result<ClientStats> {
    let mut stats = ClientStats::default();
    let mut inflight: VecDeque<(u64, Sent, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut exhausted = false;
    loop {
        while !exhausted && stats.wrong.is_none() && inflight.len() < WINDOW {
            let start = Instant::now();
            let Some((request, sent)) = session.next_request() else {
                exhausted = true;
                break;
            };
            let id = request.send(&mut client)?;
            inflight.push_back((id, sent, start));
            stats.attempted += 1;
        }
        client.flush()?;
        let Some((expected, sent, start)) = inflight.pop_front() else {
            break;
        };
        let answer = client.recv().map_err(|e| match e {
            ClientError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        })?;
        let latency = start.elapsed().as_nanos() as u64;
        stats.record(session, expected, &sent, answer, latency, None);
    }
    Ok(stats)
}

/// [`drive`] over a raw socket, recording `client.request` ⊃
/// {`client.encode`, `client.wait`, `client.decode`} per request into
/// `spans`, request ids offset by `req_base`.
pub fn drive_traced(
    stream: TcpStream,
    session: &mut dyn Session,
    spans: &mut SpanLog,
    req_base: u64,
) -> std::io::Result<ClientStats> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut stats = ClientStats::default();
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(WINDOW);
    let mut buf = Vec::new();
    let mut frame = Vec::new();
    let mut next_id = 0u64;
    let mut exhausted = false;
    loop {
        let burst = inflight.len();
        while !exhausted && stats.wrong.is_none() && inflight.len() < WINDOW {
            let start = Instant::now();
            let Some((request, sent)) = session.next_request() else {
                exhausted = true;
                break;
            };
            buf.clear();
            request.encode(next_id, &mut buf);
            let encoded = Instant::now();
            writer.write_all(&buf)?;
            inflight.push_back(Inflight {
                id: next_id,
                sent,
                start,
                encoded,
                flushed: encoded,
            });
            next_id += 1;
            stats.attempted += 1;
        }
        writer.flush()?;
        let flushed = Instant::now();
        for f in inflight.iter_mut().skip(burst) {
            f.flushed = flushed;
        }
        let Some(req) = inflight.pop_front() else {
            break;
        };
        frame.resize(wire::HEADER_BYTES, 0);
        reader.read_exact(&mut frame)?;
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4-byte length")) as usize;
        frame.resize(wire::HEADER_BYTES + len, 0);
        reader.read_exact(&mut frame[wire::HEADER_BYTES..])?;
        let received = Instant::now();
        let answer =
            wire::read_response(&mut frame.as_slice(), MAX_RESPONSE_BYTES)?.ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "empty response frame")
            })?;
        let decoded = Instant::now();
        let latency = decoded.duration_since(req.start).as_nanos() as u64;
        stats.record(
            session,
            req.id,
            &req.sent,
            answer,
            latency,
            Some(len as u64),
        );
        let rid = req_base + req.id;
        let root = spans.push("client.request", req.start, decoded, None, rid);
        spans.push("client.encode", req.start, req.encoded, Some(root), rid);
        spans.push("client.wait", req.flushed, received, Some(root), rid);
        spans.push("client.decode", received, decoded, Some(root), rid);
    }
    Ok(stats)
}
