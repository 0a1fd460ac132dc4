//! In-process replay of a generated request stream through each layer's
//! public functions, one benchmark span per layer call:
//!
//! ```text
//! replay.request
//!   wire.read_request                     (server frame decode)
//!   engine.write_batch ⊃? engine.complete_flush   (binary batch)
//!   sql.parse, sql.execute                (SQL statement)
//!   wire.encode_response                  (server response encode)
//!   wire.read_response                    (client response decode)
//! ```
//!
//! The replay runs on one thread with no socket, queue or lock
//! contention, so its spans are each layer's own cost; the wire phase
//! shows what the same layers cost under load.

use std::time::{Duration, Instant};

use backsort_engine::{SeriesKey, StorageEngine};
use backsort_server::wire::{self, RequestBody, Response};
use backsort_sql::QueryOutput;

use crate::client::Session;
use crate::spans::SpanLog;

/// What a replay did.
pub struct Replay {
    /// The recorded spans.
    pub spans: SpanLog,
    /// Requests replayed.
    pub ops: u64,
    /// Points written by replayed batches.
    pub points: u64,
    /// SQL statements replayed.
    pub statements: u64,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

/// Replays `sessions` round-robin against `engine` until every session
/// is exhausted or `budget` has elapsed.
pub fn replay(
    engine: &StorageEngine,
    sessions: &mut [Box<dyn Session>],
    origin: Instant,
    budget: Duration,
    req_base: u64,
) -> Replay {
    let mut out = Replay {
        spans: SpanLog::new(origin),
        ops: 0,
        points: 0,
        statements: 0,
        wrong: None,
    };
    let started = Instant::now();
    let mut live: Vec<bool> = vec![true; sessions.len()];
    let mut request = Vec::new();
    let mut response_frame = Vec::new();
    'outer: while live.iter().any(|&l| l) && started.elapsed() < budget {
        for (i, session) in sessions.iter_mut().enumerate() {
            if !live[i] {
                continue;
            }
            let id = out.ops;
            let Some((next, sent)) = session.next_request() else {
                live[i] = false;
                continue;
            };
            request.clear();
            next.encode(id, &mut request);
            let rid = req_base + id;
            let t0 = Instant::now();
            let frame = wire::read_request(&mut request.as_slice(), usize::MAX)
                .ok()
                .flatten()
                .expect("generated frames decode");
            let t1 = Instant::now();
            let mut children = vec![("wire.read_request", t0, t1)];
            let response = match frame.body {
                RequestBody::Batch {
                    device,
                    sensor,
                    batch,
                } => {
                    let key = SeriesKey::new(device, sensor);
                    let w0 = Instant::now();
                    let written = engine.write_batch_nonblocking(&key, &batch);
                    let w1 = Instant::now();
                    children.push(("engine.write_batch", w0, w1));
                    match written {
                        Ok(job) => {
                            if let Some(job) = job {
                                engine.complete_flush(job);
                                children.push(("engine.complete_flush", w1, Instant::now()));
                            }
                            out.points += batch.len() as u64;
                            Response::Output(QueryOutput::Inserted(batch.len()))
                        }
                        Err(e) => Response::Error(e.to_string()),
                    }
                }
                RequestBody::Sql(sql) => {
                    out.statements += 1;
                    let p0 = Instant::now();
                    let parsed = backsort_sql::parse(&sql);
                    let p1 = Instant::now();
                    children.push(("sql.parse", p0, p1));
                    match parsed {
                        Ok(statement) => {
                            let executed = backsort_sql::execute_statement(engine, &statement);
                            children.push(("sql.execute", p1, Instant::now()));
                            match executed {
                                Ok(output) => Response::Output(output),
                                Err(e) => Response::Error(e.message),
                            }
                        }
                        Err(e) => Response::Error(e.message),
                    }
                }
            };
            let e0 = Instant::now();
            response_frame.clear();
            wire::encode_response(&mut response_frame, id, &response);
            let e1 = Instant::now();
            let decoded = wire::read_response(&mut response_frame.as_slice(), usize::MAX)
                .ok()
                .flatten()
                .expect("encoded responses decode");
            let e2 = Instant::now();
            children.push(("wire.encode_response", e0, e1));
            children.push(("wire.read_response", e1, e2));
            let root = out.spans.push("replay.request", t0, e2, None, rid);
            for (name, a, b) in children {
                out.spans.push(name, a, b, Some(root), rid);
            }
            out.ops += 1;
            let verdict = match decoded.1 {
                Response::Output(output) => session.check(&sent, &output).map(|_| ()),
                Response::Error(e) | Response::Busy(e) => {
                    session.refused(&sent);
                    Err(format!("replayed {:?} request failed: {e}", sent.class))
                }
            };
            if let Err(why) = verdict {
                out.wrong = Some(why);
                break 'outer;
            }
            if started.elapsed() >= budget {
                break 'outer;
            }
        }
    }
    out
}
