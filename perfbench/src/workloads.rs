//! The three workloads: their generated op sequences (one [`Session`]
//! per client) and the oracle each answer is checked against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use backsort_engine::{AggValue, EngineConfig, PointBatch, SeriesKey, StorageEngine, ValueColumn};
use backsort_sql::QueryOutput;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::client::{Answer, Class, Request, Sent, Session};
use crate::gen::{self, SeriesStream, BATCH_POINTS, SEGMENT, SENSOR};

/// Client connections per workload (the machine the benchmark was
/// sized on has two cores).
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Out-of-order binary batch ingest.
    IngestOoo,
    /// 90% mildly disordered writes, 10% latest-window SELECTs.
    MixedLatest,
    /// Read-only aggregates over flushed, compacted history.
    HistoryAgg,
}

/// An end-to-end figure that a machine slowdown scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// `ops_per_s`.
    Throughput,
    /// `p50_us`.
    Median,
    /// `p99_us`.
    Tail,
    /// `setup_s`.
    Setup,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::IngestOoo,
        Workload::MixedLatest,
        Workload::HistoryAgg,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestOoo => "ingest-ooo",
            Workload::MixedLatest => "mixed-latest",
            Workload::HistoryAgg => "history-agg",
        }
    }

    /// Weights of the calibration parts ([`crate::PART_NAMES`]) in the
    /// machine slowdown that scales `figure`: how the CPU time on that
    /// figure's path splits over the kinds of work. In `mixed-latest`
    /// the client's decode of 2,000-row answers takes about four fifths
    /// of the CPU time (`client.decode_ns_per_resp` against the other
    /// per-layer times) and bounds both its throughput and its tail,
    /// which lies among the queries; that decode is the suffix
    /// validation the scan part repeats. Its median request is a write,
    /// whose path, like all of `ingest-ooo` and `history-agg`, validates
    /// no text: sorting, encoding and decoding points, and socket
    /// hand-offs. Measured on a machine state in which the scan part ran
    /// 1.7x slower and sort and parse did not, `mixed-latest` lost 40% of
    /// its raw throughput, its median latency did not move, and the
    /// other workloads 10% or less. The exchange part weighs half as
    /// much as sort: on a busy machine its wake-ups slowed up to 2x while
    /// `ingest-ooo` lost 20%, and at full weight the normalised figure
    /// overshot (spread over 10 seeds 0.090, at half weight 0.039).
    pub fn reference_weights(self, figure: Figure) -> [f64; crate::PARTS] {
        const DECODE: [f64; crate::PARTS] = [1.0, 1.0, 12.0, 0.5];
        const POINTS: [f64; crate::PARTS] = [1.0, 1.0, 0.0, 0.5];
        match (self, figure) {
            (Workload::MixedLatest, Figure::Throughput | Figure::Tail) => DECODE,
            _ => POINTS,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Data sizes. [`Sizes::full`] is what every reported run uses;
/// [`Sizes::smoke`] only checks that each metric is emitted.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Devices each `ingest-ooo` client writes.
    pub ingest_devices: usize,
    /// Points per `ingest-ooo` device per round.
    pub ingest_points: usize,
    /// Devices each `mixed-latest` client writes and queries.
    pub mixed_devices: usize,
    /// Points per `mixed-latest` device per round.
    pub mixed_points: usize,
    /// `history-agg` series.
    pub history_series: usize,
    /// Points per `history-agg` series.
    pub history_points: usize,
    /// Pre-generated `history-agg` queries per client (cycled).
    pub history_queries: usize,
    /// `history-agg` queries per client per round.
    pub history_round: usize,
}

impl Sizes {
    /// The reported configuration.
    pub fn full() -> Self {
        Self {
            ingest_devices: 4,
            ingest_points: 10 * SEGMENT,
            mixed_devices: 4,
            mixed_points: 2 * SEGMENT,
            history_series: 64,
            history_points: 50_000,
            history_queries: 4_096,
            // Two clients' rounds give 2,000 latencies: a p99 with 20
            // samples beyond it.
            history_round: 1_000,
        }
    }

    /// A small configuration for the emission test.
    pub fn smoke() -> Self {
        Self {
            ingest_devices: 2,
            ingest_points: SEGMENT,
            mixed_devices: 2,
            mixed_points: SEGMENT,
            history_series: 16,
            history_points: 50_000,
            history_queries: 256,
            history_round: 100,
        }
    }
}

/// Points of the latest window each `mixed-latest` query asks for: the
/// paper's §VI query window.
pub const LATEST_WINDOW: i64 = 2_000;
/// Share of `mixed-latest` ops that are queries (paper §VI system mix).
pub const QUERY_SHARE: f64 = 0.1;

/// Expected per-series totals after a round: every acknowledged point,
/// counted and summed.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Device path.
    pub device: String,
    /// Generation-time span of the series: timestamps lie in `0..span`.
    pub span: i64,
    /// Acknowledged points.
    pub count: u64,
    /// Sum of their values.
    pub sum: f64,
}

fn check_inserted(sent: &Sent, output: &QueryOutput) -> Result<(), String> {
    match output {
        QueryOutput::Inserted(n) if *n as u64 == sent.points => Ok(()),
        other => Err(format!(
            "write of {} points answered {other:?}",
            sent.points
        )),
    }
}

fn zero_totals(streams: &[SeriesStream]) -> Vec<Totals> {
    streams
        .iter()
        .map(|s| Totals {
            device: s.device.clone(),
            span: s.pos_of_ts.len() as i64,
            ..Totals::default()
        })
        .collect()
}

fn batch_sum(stream: &SeriesStream, batch: usize) -> f64 {
    let b = &stream.batches[batch];
    b.ts().iter().map(|&t| gen::value(stream.series, t)).sum()
}

/// `ingest-ooo`: each client round-robins 500-point batches over its own
/// devices, in LogNormal arrival order.
pub struct IngestSession {
    streams: Vec<SeriesStream>,
    next_op: usize,
    totals: Vec<Totals>,
}

impl IngestSession {
    fn new(streams: Vec<SeriesStream>) -> Self {
        let totals = zero_totals(&streams);
        Self {
            streams,
            next_op: 0,
            totals,
        }
    }
}

impl Session for IngestSession {
    fn next_request(&mut self) -> Option<(Request<'_>, Sent)> {
        let n = self.streams.len();
        let (stream, batch) = (self.next_op % n, self.next_op / n);
        let s = &self.streams[stream];
        let b = s.batches.get(batch)?;
        self.next_op += 1;
        let sent = Sent {
            class: Class::Write,
            tag: (stream as u64) << 32 | batch as u64,
            points: b.len() as u64,
        };
        Some((
            Request::Batch {
                device: &s.device,
                batch: b,
            },
            sent,
        ))
    }

    fn check(&mut self, sent: &Sent, output: &QueryOutput) -> Result<Answer, String> {
        check_inserted(sent, output)?;
        let (stream, batch) = ((sent.tag >> 32) as usize, (sent.tag & 0xFFFF_FFFF) as usize);
        let t = &mut self.totals[stream];
        t.count += sent.points;
        t.sum += batch_sum(&self.streams[stream], batch);
        Ok(Answer::default())
    }

    fn refused(&mut self, _sent: &Sent) {}

    fn totals(&self) -> Vec<Totals> {
        self.totals.clone()
    }
}

#[derive(Debug, Clone, Copy)]
enum MixedOp {
    Write(usize),
    Query(usize),
}

/// `mixed-latest`: 90% batch writes with mild disorder, 10% SELECTs of
/// the latest [`LATEST_WINDOW`] points of one of the client's series.
pub struct MixedSession {
    streams: Vec<SeriesStream>,
    ops: Vec<MixedOp>,
    next_op: usize,
    /// Per stream: batches sent (always a prefix of its batches).
    sent: Vec<usize>,
    /// Per stream: batches whose answer has been processed.
    answered: Vec<usize>,
    /// Per stream, per batch: acknowledged OK.
    acked: Vec<Vec<bool>>,
    /// Per stream: largest acknowledged timestamp.
    max_acked: Vec<i64>,
    /// Outstanding queries: `(stream, lo, hi, batches answered at send)`.
    queries: std::collections::VecDeque<(usize, i64, i64, usize)>,
    totals: Vec<Totals>,
}

impl MixedSession {
    fn new(streams: Vec<SeriesStream>, rng: &mut rand::rngs::StdRng) -> Self {
        let n = streams.len();
        let writes = streams.iter().map(|s| s.batches.len()).sum::<usize>();
        // Exactly QUERY_SHARE of the ops are queries, at random places: a
        // drawn query count would move a round's throughput by itself.
        let queries = (writes as f64 * QUERY_SHARE / (1.0 - QUERY_SHARE)).round() as usize;
        let mut is_query: Vec<bool> = (0..writes + queries).map(|i| i < queries).collect();
        is_query.shuffle(rng);
        let mut w = 0usize;
        let ops = is_query
            .into_iter()
            .map(|query| {
                if query {
                    MixedOp::Query(rng.gen_range(0..n))
                } else {
                    w += 1;
                    MixedOp::Write((w - 1) % n)
                }
            })
            .collect();
        let totals = zero_totals(&streams);
        Self {
            acked: streams
                .iter()
                .map(|s| vec![false; s.batches.len()])
                .collect(),
            sent: vec![0; n],
            answered: vec![0; n],
            max_acked: vec![-1; n],
            streams,
            ops,
            next_op: 0,
            queries: std::collections::VecDeque::new(),
            totals,
        }
    }

    fn check_rows(
        &self,
        stream: usize,
        lo: i64,
        hi: i64,
        answered_at_send: usize,
        output: &QueryOutput,
    ) -> Result<u64, String> {
        let s = &self.streams[stream];
        let QueryOutput::Rows { columns, rows } = output else {
            return Err(format!("SELECT on {} answered {output:?}", s.device));
        };
        if columns.len() != 1 || columns[0] != SENSOR {
            return Err(format!(
                "SELECT on {} returned columns {columns:?}",
                s.device
            ));
        }
        let mut prev = i64::MIN;
        for (t, values) in rows {
            if *t <= prev || *t < lo || *t > hi {
                return Err(format!(
                    "{}: row time {t} out of order or outside [{lo}, {hi}]",
                    s.device
                ));
            }
            prev = *t;
            let sent_batches = self.sent[stream];
            let arrived = s
                .pos_of_ts
                .get(*t as usize)
                .map(|&p| p as usize / BATCH_POINTS);
            if arrived.is_none_or(|b| b >= sent_batches) {
                return Err(format!("{}: row time {t} was never written", s.device));
            }
            let want = gen::value(s.series, *t);
            match values.as_slice() {
                [Some(v)] if v.as_f64() == want => {}
                other => {
                    return Err(format!(
                        "{}: row {t} has {other:?}, generator wrote {want}",
                        s.device
                    ))
                }
            }
        }
        // Every point acknowledged before the query was sent is present.
        let mut rows_iter = rows.iter().map(|(t, _)| *t).peekable();
        for t in lo.max(0)..=hi.min(s.pos_of_ts.len() as i64 - 1) {
            let b = s.pos_of_ts[t as usize] as usize / BATCH_POINTS;
            let required = b < answered_at_send && self.acked[stream][b];
            while rows_iter.next_if(|&r| r < t).is_some() {}
            let present = rows_iter.peek() == Some(&t);
            if required && !present {
                return Err(format!(
                    "{}: acknowledged point {t} missing from [{lo}, {hi}]",
                    s.device
                ));
            }
        }
        Ok(rows.len() as u64)
    }
}

impl Session for MixedSession {
    fn next_request(&mut self) -> Option<(Request<'_>, Sent)> {
        let op = *self.ops.get(self.next_op)?;
        self.next_op += 1;
        Some(match op {
            MixedOp::Write(stream) => {
                let batch = self.sent[stream];
                self.sent[stream] += 1;
                let s = &self.streams[stream];
                let b = &s.batches[batch];
                let sent = Sent {
                    class: Class::Write,
                    tag: (stream as u64) << 32 | batch as u64,
                    points: b.len() as u64,
                };
                (
                    Request::Batch {
                        device: &s.device,
                        batch: b,
                    },
                    sent,
                )
            }
            MixedOp::Query(stream) => {
                let hi = if self.max_acked[stream] < 0 {
                    LATEST_WINDOW - 1
                } else {
                    self.max_acked[stream]
                };
                let lo = hi - (LATEST_WINDOW - 1);
                let sql = format!(
                    "SELECT {SENSOR} FROM {} WHERE time >= {lo} AND time <= {hi}",
                    self.streams[stream].device
                );
                self.queries
                    .push_back((stream, lo, hi, self.answered[stream]));
                let sent = Sent {
                    class: Class::Query,
                    tag: stream as u64,
                    points: 0,
                };
                (Request::Sql(sql), sent)
            }
        })
    }

    fn check(&mut self, sent: &Sent, output: &QueryOutput) -> Result<Answer, String> {
        match sent.class {
            Class::Write => {
                let (stream, batch) =
                    ((sent.tag >> 32) as usize, (sent.tag & 0xFFFF_FFFF) as usize);
                self.answered[stream] += 1;
                check_inserted(sent, output)?;
                self.acked[stream][batch] = true;
                let s = &self.streams[stream];
                let max = s.batches[batch].ts().iter().copied().max().unwrap_or(-1);
                self.max_acked[stream] = self.max_acked[stream].max(max);
                let t = &mut self.totals[stream];
                t.count += sent.points;
                t.sum += batch_sum(s, batch);
                Ok(Answer::default())
            }
            Class::Query => {
                let (stream, lo, hi, answered) = self
                    .queries
                    .pop_front()
                    .expect("a query answer follows a query send");
                let rows = self.check_rows(stream, lo, hi, answered, output)?;
                Ok(Answer { rows })
            }
        }
    }

    fn refused(&mut self, sent: &Sent) {
        match sent.class {
            Class::Write => self.answered[(sent.tag >> 32) as usize] += 1,
            Class::Query => {
                self.queries.pop_front();
            }
        }
    }

    fn totals(&self) -> Vec<Totals> {
        self.totals.clone()
    }
}

/// One pre-generated `history-agg` query.
#[derive(Debug, Clone, Copy)]
pub struct HistoryQuery {
    series: usize,
    salt: u32,
    lo: i64,
    hi: i64,
    /// `GROUP BY` bucket width, or `None` for a plain aggregate.
    step: Option<i64>,
}

/// `history-agg`: `count`/`avg`/`max_value` over random older ranges of
/// random series, half of them grouped by time. The query list is
/// cycled; each round sends [`Sizes::history_round`] of them.
pub struct HistorySession {
    queries: Arc<Vec<HistoryQuery>>,
    round_len: usize,
    next: usize,
    end: usize,
    outstanding: std::collections::VecDeque<usize>,
}

/// Device path of `history-agg` series `k`. Zero-padded, so name order
/// is load order and each load group's files cover one device range.
pub fn history_device(k: usize) -> String {
    format!("root.hist.d{k:03}")
}

/// `history-agg` series loaded together: 8 series x 50,000 points fill
/// exactly four default (100,000-point) memtables, so each group's four
/// flushed files overlap only each other. Compaction merges every group
/// into one file and then only promotes the device-disjoint results:
/// 64 series leave 8 files, so a query's file pruning has 7 files to
/// dismiss and compaction has real bytes to rewrite.
pub const HISTORY_GROUP: usize = 8;

impl Session for HistorySession {
    fn next_request(&mut self) -> Option<(Request<'_>, Sent)> {
        if self.next == self.end {
            return None;
        }
        let i = self.next % self.queries.len();
        self.next += 1;
        let q = self.queries[i];
        let device = history_device(q.series);
        let sql = match q.step {
            None => format!(
                "SELECT count({SENSOR}), avg({SENSOR}), max_value({SENSOR}) FROM {device} \
                 WHERE time >= {} AND time <= {}",
                q.lo, q.hi
            ),
            Some(step) => format!(
                "SELECT count({SENSOR}), avg({SENSOR}), max_value({SENSOR}) FROM {device} \
                 GROUP BY ({}, {}, {step})",
                q.lo, q.hi
            ),
        };
        self.outstanding.push_back(i);
        let sent = Sent {
            class: Class::Query,
            tag: i as u64,
            points: 0,
        };
        Some((Request::Sql(sql), sent))
    }

    fn refused(&mut self, _sent: &Sent) {
        self.outstanding.pop_front();
    }

    fn start_round(&mut self) {
        self.end = self.next + self.round_len;
    }

    fn check(&mut self, _sent: &Sent, output: &QueryOutput) -> Result<Answer, String> {
        let i = self
            .outstanding
            .pop_front()
            .expect("a query answer follows a query send");
        let q = self.queries[i];
        let reference = |lo: i64, hi: i64| -> Vec<AggValue> {
            if lo > hi {
                return vec![AggValue::Empty; 3];
            }
            let mut sum = 0.0f64;
            let mut max = f64::NEG_INFINITY;
            for t in lo..=hi {
                let v = gen::value(q.salt, t);
                sum += v;
                max = max.max(v);
            }
            let count = (hi - lo + 1) as f64;
            vec![
                AggValue::Number(count),
                AggValue::Number(sum / count),
                AggValue::Number(max),
            ]
        };
        let ok = match (q.step, output) {
            (None, QueryOutput::Aggregates { values, .. }) => *values == reference(q.lo, q.hi),
            (Some(step), QueryOutput::Grouped { buckets, .. }) => {
                let expected: Vec<(i64, Vec<AggValue>)> = (0..)
                    .map(|k| q.lo + k * step)
                    .take_while(|&start| start <= q.hi)
                    .map(|start| (start, reference(start, (start + step - 1).min(q.hi))))
                    .collect();
                *buckets == expected
            }
            _ => false,
        };
        if ok {
            Ok(Answer::default())
        } else {
            Err(format!(
                "{} over [{}, {}] step {:?}: wrong aggregates {output:?}",
                history_device(q.series),
                q.lo,
                q.hi,
                q.step
            ))
        }
    }
}

/// Builds the sessions of one `ingest-ooo` or `mixed-latest` round.
pub fn write_round_sessions(
    workload: Workload,
    sizes: &Sizes,
    templates: &[Vec<u32>],
    seed: u64,
    round: u64,
) -> Vec<Box<dyn Session>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = gen::rng(seed, &[workload as u64, round, c as u64]);
            let (prefix, devices, points) = match workload {
                Workload::IngestOoo => ("root.ingest", sizes.ingest_devices, sizes.ingest_points),
                _ => ("root.mixed", sizes.mixed_devices, sizes.mixed_points),
            };
            let streams: Vec<SeriesStream> = (0..devices)
                .map(|d| {
                    let series = gen::series_salt(seed, c * devices + d);
                    SeriesStream::new(
                        format!("{prefix}.c{c}d{d}"),
                        series,
                        points,
                        templates,
                        &mut rng,
                    )
                })
                .collect();
            let session: Box<dyn Session> = match workload {
                Workload::IngestOoo => Box::new(IngestSession::new(streams)),
                _ => Box::new(MixedSession::new(streams, &mut rng)),
            };
            session
        })
        .collect()
}

/// The loaded `history-agg` engine and what set-up measured.
pub struct History {
    /// The engine, flushed and compacted until idle.
    pub engine: Arc<StorageEngine>,
    /// Points loaded.
    pub points: u64,
    /// Bytes of the compacted file images.
    pub file_bytes: u64,
    /// Files left after compaction.
    pub files: usize,
}

/// One [`HISTORY_GROUP`] of the `history-agg` load, in load order: its
/// series in order in [`BATCH_POINTS`]-point batches, interleaved.
fn history_group_batches(
    sizes: &Sizes,
    seed: u64,
    group: &[usize],
) -> Vec<(SeriesKey, PointBatch)> {
    let batches_per_series = sizes.history_points.div_ceil(BATCH_POINTS);
    let mut out = Vec::with_capacity(group.len() * batches_per_series);
    for b in 0..batches_per_series {
        let lo = (b * BATCH_POINTS) as i64;
        let hi = ((b + 1) * BATCH_POINTS).min(sizes.history_points) as i64;
        for &k in group {
            let ts: Vec<i64> = (lo..hi).collect();
            let salt = gen::series_salt(seed, k);
            let values = ts.iter().map(|&t| gen::value(salt, t)).collect();
            let batch = PointBatch::from_columns(ts, ValueColumn::Double(values))
                .expect("equal-length columns");
            out.push((SeriesKey::new(history_device(k), SENSOR), batch));
        }
    }
    out
}

/// Set-up of `history-agg`: writes every series in order through the
/// engine's public write API into a fresh engine, one [`HISTORY_GROUP`]
/// at a time, flushes, then runs `compact_auto` until it has nothing
/// left to do. Returns the engine and the time the program took: each
/// group's batches are generated before its writes are timed, so
/// `setup_s` times only engine creation, writes, flush and compaction.
pub fn load_history(sizes: &Sizes, seed: u64) -> (Arc<StorageEngine>, Duration) {
    let t = Instant::now();
    let engine = Arc::new(StorageEngine::new(EngineConfig::default()));
    let mut timed = t.elapsed();
    let series: Vec<usize> = (0..sizes.history_series).collect();
    for group in series.chunks(HISTORY_GROUP) {
        let batches = history_group_batches(sizes, seed, group);
        let t = Instant::now();
        for (key, batch) in &batches {
            engine
                .write_batch(key, batch)
                .expect("history batches are all DOUBLE");
        }
        timed += t.elapsed();
    }
    let t = Instant::now();
    engine.flush();
    loop {
        let report = engine.compact_auto();
        if report.files_in == 0 && report.level_moves == 0 {
            break;
        }
    }
    timed += t.elapsed();
    (engine, timed)
}

impl History {
    /// Describes a loaded engine.
    pub fn new(engine: Arc<StorageEngine>, sizes: &Sizes) -> Self {
        let mut file_bytes = 0u64;
        let mut files = 0usize;
        for shard in 0..engine.shard_count() {
            for id in engine.shard_file_ids(shard) {
                file_bytes += engine.file_image(shard, id).map_or(0, |i| i.len() as u64);
                files += 1;
            }
        }
        History {
            engine,
            points: (sizes.history_series * sizes.history_points) as u64,
            file_bytes,
            files,
        }
    }
}

/// The pre-generated query lists of the `history-agg` clients: ranges of
/// 1,000–20,000 points anywhere in the loaded (all flushed) history.
/// The sessions start at round `first_round` of their query lists.
pub fn history_sessions(sizes: &Sizes, seed: u64, first_round: u64) -> Vec<Box<dyn Session>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = gen::rng(seed, &[Workload::HistoryAgg as u64, c as u64]);
            let n = sizes.history_points as i64;
            let queries: Vec<HistoryQuery> = (0..sizes.history_queries)
                .map(|_| {
                    let len = rng.gen_range(1_000..=20_000i64).min(n);
                    let lo = rng.gen_range(0..=n - len);
                    let step = rng.gen_bool(0.5).then(|| (len / 10).max(1));
                    let series = rng.gen_range(0..sizes.history_series);
                    HistoryQuery {
                        series,
                        salt: gen::series_salt(seed, series),
                        lo,
                        hi: lo + len - 1,
                        step,
                    }
                })
                .collect();
            let session: Box<dyn Session> = Box::new(HistorySession {
                queries: Arc::new(queries),
                round_len: sizes.history_round,
                next: first_round as usize * sizes.history_round,
                end: first_round as usize * sizes.history_round,
                outstanding: std::collections::VecDeque::new(),
            });
            session
        })
        .collect()
}

/// Checks every series' point count and value sum against the engine.
/// Reads each series one segment at a time, so no result is larger than
/// [`SEGMENT`] points.
pub fn verify_totals(engine: &StorageEngine, totals: &[Totals]) -> Result<(), String> {
    for t in totals {
        let key = SeriesKey::new(t.device.clone(), SENSOR);
        let (mut count, mut sum) = (0u64, 0.0f64);
        for lo in (0..t.span).step_by(SEGMENT) {
            let rows = engine.query(&key, lo, lo + SEGMENT as i64 - 1);
            count += rows.len() as u64;
            sum += rows.iter().map(|(_, v)| v.as_f64()).sum::<f64>();
        }
        if count != t.count || sum != t.sum {
            return Err(format!(
                "{}: engine holds {count} points summing to {sum}, clients acknowledged {} summing to {}",
                t.device, t.count, t.sum
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_engine::TsValue;

    type Rows = Vec<(i64, Vec<Option<TsValue>>)>;

    fn mixed_session() -> MixedSession {
        let templates = gen::delay_templates(gen::MIXED_DELAY, 1, 9);
        let mut rng = gen::rng(9, &[1]);
        let streams = vec![SeriesStream::new(
            "root.t.d".into(),
            5,
            SEGMENT,
            &templates,
            &mut rng,
        )];
        MixedSession::new(streams, &mut rng)
    }

    /// Drives `session` until it sends a query, acknowledging every
    /// write; returns the query and its correct answer.
    fn first_query(session: &mut MixedSession) -> (Sent, Rows) {
        loop {
            let (_, sent) = session.next_request().expect("a query comes");
            if sent.class == Class::Query && session.sent[0] < 10 {
                // Too early to have rows worth corrupting.
                session.refused(&sent);
                continue;
            }
            if sent.class == Class::Query {
                let &(stream, lo, hi, _) = session.queries.back().expect("query recorded");
                let s = &session.streams[stream];
                let rows = (lo.max(0)..=hi)
                    .filter(|&t| {
                        (s.pos_of_ts[t as usize] as usize / BATCH_POINTS) < session.sent[0]
                    })
                    .map(|t| (t, vec![Some(TsValue::Double(gen::value(s.series, t)))]))
                    .collect();
                return (sent, rows);
            }
            session
                .check(&sent, &QueryOutput::Inserted(sent.points as usize))
                .expect("write acknowledged");
        }
    }

    fn rows_output(rows: Rows) -> QueryOutput {
        QueryOutput::Rows {
            columns: vec![SENSOR.to_string()],
            rows,
        }
    }

    #[test]
    fn mixed_oracle_accepts_the_right_rows() {
        let mut session = mixed_session();
        let (sent, rows) = first_query(&mut session);
        let n = rows.len() as u64;
        assert!(n > 0);
        let answer = session
            .check(&sent, &rows_output(rows))
            .expect("correct rows");
        assert_eq!(answer.rows, n);
    }

    #[test]
    fn mixed_oracle_rejects_wrong_missing_unordered_and_unwritten_rows() {
        let corruptions: [fn(&mut Rows); 4] = [
            |rows| rows[3].1 = vec![Some(TsValue::Double(-1.0))],
            |rows| {
                rows.remove(5);
            },
            |rows| rows.swap(1, 2),
            |rows| {
                let last = rows.last().expect("rows").0;
                rows.push((last + 1, vec![Some(TsValue::Double(0.0))]));
            },
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut session = mixed_session();
            let (sent, mut rows) = first_query(&mut session);
            corrupt(&mut rows);
            assert!(
                session.check(&sent, &rows_output(rows)).is_err(),
                "corruption {i} was accepted"
            );
        }
    }

    #[test]
    fn history_oracle_checks_every_aggregate_and_bucket() {
        let sizes = Sizes::smoke();
        let engine = load_history(&sizes, 4).0;
        let mut right = history_sessions(&sizes, 4, 0);
        let mut wrong = history_sessions(&sizes, 4, 0);
        right[0].start_round();
        wrong[0].start_round();
        for _ in 0..8 {
            let (request, sent) = right[0].next_request().expect("queries cycle");
            let Request::Sql(sql) = request else {
                panic!("history sends SQL")
            };
            wrong[0].next_request().expect("queries cycle");
            let output = backsort_sql::execute(&engine, &sql).expect("query runs");
            right[0]
                .check(&sent, &output)
                .expect("engine answer matches the reference");
            let mut bad = output;
            match &mut bad {
                QueryOutput::Aggregates { values, .. } => values[1] = AggValue::Number(0.5),
                QueryOutput::Grouped { buckets, .. } => buckets[0].1[2] = AggValue::Number(0.5),
                other => panic!("unexpected {other:?}"),
            }
            assert!(
                wrong[0].check(&sent, &bad).is_err(),
                "wrong aggregate accepted"
            );
        }
    }

    #[test]
    fn totals_oracle_rejects_a_lost_point() {
        let engine = StorageEngine::new(EngineConfig::default());
        let key = SeriesKey::new("root.t.d", SENSOR);
        let ts: Vec<i64> = (0..10).collect();
        let values = backsort_engine::ValueColumn::Double(ts.iter().map(|&t| t as f64).collect());
        let batch = backsort_engine::PointBatch::from_columns(ts, values).expect("columns");
        engine.write_batch(&key, &batch).expect("write");
        let mut totals = Totals {
            device: "root.t.d".into(),
            span: 10,
            count: 10,
            sum: 45.0,
        };
        verify_totals(&engine, std::slice::from_ref(&totals)).expect("exact totals");
        totals.count = 11;
        assert!(verify_totals(&engine, &[totals]).is_err());
    }
}
