//! Runs one workload: set-up, closed-loop phases over the real server,
//! the traced replay, the oracle, and the metrics.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use backsort_engine::{EngineConfig, StorageEngine};
use backsort_obs::{HistogramSnapshot, Snapshot};
use backsort_server::{ServerConfig, SqlClient, SqlServer};

use crate::calib;
use crate::client::{self, ClientStats, Session};
use crate::gen;
use crate::metrics;
use crate::replay::{self, Replay};
use crate::spans::SpanLog;
use crate::sys::{self, RssSampler};
use crate::workloads::{self, History, Sizes, Workload, CLIENTS};

/// One invocation's arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Small data sizes and a relaxed percentile rule, for the emission
    /// test only (it checks that every metric is emitted); no
    /// command-line flag sets it.
    pub smoke: bool,
    /// Where spans, program traces and the full report are written.
    pub out_dir: Option<PathBuf>,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One invocation's result.
#[derive(Debug)]
pub struct RunResult {
    /// No answer was wrong.
    pub correct: bool,
    /// Requests sent over the wire in the reported phase.
    pub attempted: u64,
    /// Of those, answered BUSY or with an error.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (fingerprint, sizes, per-class
    /// figures).
    pub notes: Vec<String>,
}

/// Share of a `--trace 1` run's seconds left to the untraced rounds, the
/// baseline of `trace.overhead_frac`; traced rounds cover the rest.
const UNTRACED_SHARE: f64 = 0.25;
/// Traced rounds per untraced round in a `--trace 1` run.
const TRACED_PER_UNTRACED: usize = 3;
/// Wall-time budget of the in-process replay, as a share of the run's
/// measured seconds.
const REPLAY_SHARE: f64 = 0.25;
/// Set-ups of `history-agg` per reported run (the median is reported).
const HISTORY_SETUPS: usize = 5;
/// Samples per request class that leave 10 beyond a p99, plus margin
/// for refusals.
const MIN_CLASS_SAMPLES: usize = 1_100;
/// Delay templates per round.
const TEMPLATES: usize = 4;

/// One round's client-side figures.
#[derive(Debug, Clone)]
pub struct Round {
    /// Requests answered OK.
    pub ok: u64,
    /// Client time of the round, seconds.
    pub seconds: f64,
    /// Every request's latency, ns (`u64::MAX` for a refusal).
    pub latencies: Vec<u64>,
    /// Calibration part times around the round, ns: the mean of the
    /// calibrations before and after it ([`calib::calibrate`]).
    pub calib: [f64; calib::PARTS],
    /// Peak resident memory during the round, KiB.
    pub rss_peak_kib: u64,
}

impl Round {
    fn new(
        stats: &ClientStats,
        seconds: f64,
        around: [[f64; calib::PARTS]; 2],
        rss_peak_kib: u64,
    ) -> Self {
        Self {
            ok: stats.ok(),
            seconds,
            latencies: stats
                .write_ns
                .iter()
                .chain(&stats.query_ns)
                .copied()
                .collect(),
            calib: std::array::from_fn(|i| (around[0][i] + around[1][i]) / 2.0),
            rss_peak_kib,
        }
    }
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Client-side measurements, all rounds pooled.
    pub stats: ClientStats,
    /// Per-round figures.
    pub rounds: Vec<Round>,
    /// Seconds the clients were running.
    pub measured_s: f64,
    /// Registry delta over the measured rounds.
    pub delta: Snapshot,
    /// `(set-up seconds, calibration part times before it)` of each
    /// set-up.
    pub setups: Vec<(f64, [f64; calib::PARTS])>,
    /// File-image bytes after the final flush.
    pub stored_bytes: u64,
    /// Points those bytes hold.
    pub stored_points: u64,
    /// Client spans (traced phases).
    pub spans: Option<SpanLog>,
    /// The program's own exported traces (traced phases).
    pub program_traces: String,
    /// Index of the last round run.
    pub last_round: u64,
    /// The first wrong answer.
    pub wrong: Option<String>,
    /// Wall time of the phase's calibrations, ns.
    pub calib_wall_ns: u64,
    /// Part times of each calibration, ns ([`calib::PART_NAMES`]).
    pub calib_parts: Vec<[f64; calib::PARTS]>,
    /// CPU time other threads used during them, ns (`None` where
    /// per-thread CPU time is not exposed).
    pub calib_others_ns: Option<u64>,
}

impl Phase {
    /// Calibrates the machine ([`calib::calibrate`]), records what other
    /// threads did meanwhile, and returns the part times.
    fn calibrate(&mut self) -> [f64; calib::PARTS] {
        let c = calib::calibrate();
        self.calib_parts.push(c.part_ns);
        let first = self.calib_wall_ns == 0;
        self.calib_wall_ns += c.wall_ns;
        self.calib_others_ns = match (first, self.calib_others_ns, c.others_cpu_ns) {
            (true, _, now) => now,
            (false, Some(total), Some(now)) => Some(total + now),
            _ => None,
        };
        c.part_ns
    }

    /// Whether another round is due: until `seconds` are measured and
    /// every request class seen has enough samples for a p99 (up to
    /// four times `seconds`; past that the percentile rule reports the
    /// shortfall).
    fn wants_more(&self, seconds: f64) -> bool {
        let short = |n: usize| n > 0 && n < MIN_CLASS_SAMPLES;
        self.measured_s < seconds
            || (self.measured_s < 4.0 * seconds
                && (short(self.stats.write_ns.len()) || short(self.stats.query_ns.len())))
    }

    /// Folds a later phase of the same kind in. File-image totals are
    /// not merged: traced runs do not report them.
    fn merge(&mut self, other: Phase) {
        self.rounds.extend(other.rounds);
        self.measured_s += other.measured_s;
        accumulate(&mut self.delta, &other.delta);
        self.setups.extend(other.setups);
        self.stats.absorb(other.stats);
        match (self.spans.as_mut(), other.spans) {
            (Some(all), Some(log)) => all.absorb(log),
            (None, log) => self.spans = log,
            _ => {}
        }
        if !other.program_traces.is_empty() {
            self.program_traces = other.program_traces;
        }
        self.last_round = other.last_round;
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
        self.calib_others_ns = match (self.calib_wall_ns, other.calib_wall_ns) {
            (0, _) => other.calib_others_ns,
            (_, 0) => self.calib_others_ns,
            _ => self
                .calib_others_ns
                .zip(other.calib_others_ns)
                .map(|(a, b)| a + b),
        };
        self.calib_wall_ns += other.calib_wall_ns;
        self.calib_parts.extend(other.calib_parts);
    }

    /// Folds one round's client results in.
    fn add_round(&mut self, stats: ClientStats, spans: Option<SpanLog>, round: Round) {
        self.rounds.push(round);
        self.measured_s += self.rounds.last().map_or(0.0, |r| r.seconds);
        if let Some(why) = &stats.wrong {
            self.wrong.get_or_insert(why.clone());
        }
        self.stats.absorb(stats);
        match (self.spans.as_mut(), spans) {
            (Some(all), Some(log)) => all.absorb(log),
            (None, log) => self.spans = log,
            _ => {}
        }
    }
}

fn server_config(traced: bool) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    if traced {
        cfg.trace_sample_n = 1;
    }
    cfg
}

/// Adds the counters and histograms of `d` into `total`.
fn accumulate(total: &mut Snapshot, d: &Snapshot) {
    for (k, v) in &d.counters {
        *total.counters.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &d.histograms {
        let e = total
            .histograms
            .entry(k.clone())
            .or_insert_with(|| HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                buckets: vec![0; h.buckets.len()],
            });
        e.count += h.count;
        e.sum += h.sum;
        e.max = e.max.max(h.max);
        for (a, b) in e.buckets.iter_mut().zip(&h.buckets) {
            *a += b;
        }
    }
}

/// One client connection, opened before the clients are timed.
enum Conn {
    /// The program's own client (untraced rounds).
    Client(SqlClient),
    /// A raw socket for the split-timing loop and the log its spans
    /// go to (traced rounds).
    Traced(TcpStream, SpanLog),
}

/// Drives every session over its own connection until each sequence
/// ends; returns the pooled stats, the spans and the client seconds.
/// With `origin`, the round is traced: the clients record spans.
fn drive_clients(
    server: &SqlServer,
    sessions: &mut [Box<dyn Session>],
    origin: Option<Instant>,
    req_base: u64,
) -> Result<(ClientStats, Option<SpanLog>, f64), String> {
    let conns = sessions
        .iter()
        .map(|_| match origin {
            None => SqlClient::connect(server.addr()).map(Conn::Client),
            Some(origin) => client::connect(server.addr())
                .map(|stream| Conn::Traced(stream, SpanLog::new(origin))),
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let results: Vec<std::io::Result<(ClientStats, Option<SpanLog>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .zip(conns)
                .enumerate()
                .map(|(c, (session, conn))| {
                    scope.spawn(move || match conn {
                        Conn::Client(sql_client) => {
                            client::drive(sql_client, session.as_mut()).map(|s| (s, None))
                        }
                        Conn::Traced(stream, mut log) => {
                            let base = req_base + ((c as u64) << 32);
                            client::drive_traced(stream, session.as_mut(), &mut log, base)
                                .map(|s| (s, Some(log)))
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
    let elapsed = started.elapsed().as_secs_f64();
    let mut stats = ClientStats::default();
    let mut spans = origin.map(SpanLog::new);
    for r in results {
        let (s, log) = r.map_err(|e| format!("client transport: {e}"))?;
        stats.absorb(s);
        if let (Some(all), Some(log)) = (spans.as_mut(), log) {
            all.absorb(log);
        }
    }
    Ok((stats, spans, elapsed))
}

fn file_bytes(engine: &StorageEngine) -> u64 {
    (0..engine.shard_count())
        .flat_map(|shard| {
            engine
                .shard_file_ids(shard)
                .into_iter()
                .map(move |id| (shard, id))
        })
        .map(|(shard, id)| engine.file_image(shard, id).map_or(0, |i| i.len() as u64))
        .sum()
}

/// The sessions of one `ingest-ooo` / `mixed-latest` round.
fn round_sessions(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    round: u64,
) -> Vec<Box<dyn Session>> {
    let delay = match workload {
        Workload::IngestOoo => gen::INGEST_DELAY,
        _ => gen::MIXED_DELAY,
    };
    let templates = gen::delay_templates(delay, TEMPLATES, gen::sub_seed(seed, &[round, 0x7E]));
    workloads::write_round_sessions(workload, sizes, &templates, seed, round)
}

/// `ingest-ooo` / `mixed-latest`: whole rounds of a fixed op sequence,
/// each against a fresh server, until at least `seconds` of client time
/// are measured (at least one round). A round's inputs are generated
/// first; its set-up (engine creation, server start) is timed; its end
/// (server shutdown, final flush, oracle) is not. The machine is
/// calibrated between rounds, after the server has shut down and the
/// engine is dropped, so no program code is alive to disturb it.
fn write_phase(
    args: &RunArgs,
    sizes: &Sizes,
    seconds: f64,
    traced: bool,
    first_round: u64,
    origin: Instant,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut round = first_round;
    let mut parts = phase.calibrate();
    loop {
        let mut sessions = round_sessions(args.workload, sizes, args.seed, round);
        let setup = Instant::now();
        let engine = Arc::new(StorageEngine::new(EngineConfig::default()));
        let server =
            SqlServer::start_with("127.0.0.1:0", Arc::clone(&engine), server_config(traced))
                .map_err(|e| format!("server start: {e}"))?;
        phase.setups.push((setup.elapsed().as_secs_f64(), parts));

        let before = engine.obs().snapshot();
        let rss = RssSampler::start();
        let (stats, spans, elapsed) = drive_clients(
            &server,
            &mut sessions,
            traced.then_some(origin),
            round << 40,
        )?;
        let rss_peak_kib = rss.finish();
        if traced {
            phase.program_traces = engine.obs().traces().render_chrome_json();
        }
        // Shutdown completes every flush the measured round submitted,
        // so their work lands in the delta.
        server.shutdown();
        accumulate(
            &mut phase.delta,
            &engine.obs().snapshot().delta_since(&before),
        );
        engine.flush();
        engine.flush_unseq();
        phase.stored_bytes += file_bytes(&engine);
        phase.stored_points += stats.points_acked;
        let totals: Vec<_> = sessions.iter().flat_map(|s| s.totals()).collect();
        if let Err(why) = workloads::verify_totals(&engine, &totals) {
            phase.wrong.get_or_insert(why);
        }
        drop(engine);

        let after = phase.calibrate();
        let r = Round::new(&stats, elapsed, [parts, after], rss_peak_kib);
        phase.add_round(stats, spans, r);
        parts = after;
        phase.last_round = round;
        round += 1;
        if phase.wrong.is_some() || !phase.wants_more(seconds) {
            break;
        }
    }
    Ok(phase)
}

/// `history-agg`: rounds of [`Sizes::history_round`] queries per client
/// against one server over the loaded engine, until at least `seconds`
/// of client time are measured (at least one round), calibrating
/// between rounds while the server is idle.
fn history_phase(
    args: &RunArgs,
    sizes: &Sizes,
    history: &History,
    seconds: f64,
    traced: bool,
    first_round: u64,
    origin: Instant,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let engine = &history.engine;
    let mut sessions = workloads::history_sessions(sizes, args.seed, first_round);
    let server = SqlServer::start_with("127.0.0.1:0", Arc::clone(engine), server_config(traced))
        .map_err(|e| format!("server start: {e}"))?;
    let before = engine.obs().snapshot();
    let mut parts = phase.calibrate();
    let mut round = first_round;
    loop {
        sessions.iter_mut().for_each(|s| s.start_round());
        let rss = RssSampler::start();
        let (stats, spans, elapsed) = drive_clients(
            &server,
            &mut sessions,
            traced.then_some(origin),
            round << 40,
        )?;
        let rss_peak_kib = rss.finish();
        let after = phase.calibrate();
        let r = Round::new(&stats, elapsed, [parts, after], rss_peak_kib);
        phase.add_round(stats, spans, r);
        parts = after;
        phase.last_round = round;
        round += 1;
        if phase.wrong.is_some() || !phase.wants_more(seconds) {
            break;
        }
    }
    if traced {
        phase.program_traces = engine.obs().traces().render_chrome_json();
    }
    server.shutdown();
    phase.delta = engine.obs().snapshot().delta_since(&before);
    phase.stored_bytes = history.file_bytes;
    phase.stored_points = history.points;
    Ok(phase)
}

/// Set-up of `history-agg`, `reps` times; returns the last engine and
/// every set-up's program seconds ([`workloads::load_history`]) with the
/// calibration part times measured before it, while no engine was alive.
fn history_setups(
    sizes: &Sizes,
    seed: u64,
    reps: usize,
) -> (History, Vec<(f64, [f64; calib::PARTS])>) {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let parts = calib::calibrate().part_ns;
        let (engine, timed) = workloads::load_history(sizes, seed);
        setups.push((timed.as_secs_f64(), parts));
        last = Some(engine);
    }
    let engine = last.expect("at least one set-up");
    (History::new(engine, sizes), setups)
}

/// Runs one invocation.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let origin = Instant::now();
    let history = (args.workload == Workload::HistoryAgg).then(|| {
        let reps = if args.trace { 1 } else { HISTORY_SETUPS };
        history_setups(&sizes, args.seed, reps)
    });
    let setup_delta = history
        .as_ref()
        .map(|(h, _)| h.engine.obs().snapshot())
        .unwrap_or_default();
    let phase = |seconds: f64, traced: bool, first_round: u64| match &history {
        Some((h, _)) => history_phase(args, &sizes, h, seconds, traced, first_round, origin),
        None => write_phase(args, &sizes, seconds, traced, first_round, origin),
    };

    let mut notes = vec![fingerprint(args)];
    notes.extend(size_notes(
        args.workload,
        &sizes,
        history.as_ref().map(|(h, _)| h),
    ));
    let (reported, replayed, untraced) = if args.trace {
        // One untraced round, then three traced ones, repeated: machine
        // drift and warm-up fall on both sides of trace.overhead_frac.
        let mut untraced = Phase::default();
        let mut traced = Phase::default();
        let traced_seconds = args.seconds * (1.0 - UNTRACED_SHARE);
        let mut round = 0u64;
        while traced.rounds.is_empty() || traced.wants_more(traced_seconds) {
            let u = phase(0.0, false, round)?;
            round = u.last_round + 1;
            untraced.merge(u);
            for _ in 0..TRACED_PER_UNTRACED {
                let t = phase(0.0, true, round)?;
                round = t.last_round + 1;
                traced.merge(t);
                if !traced.wants_more(traced_seconds) {
                    break;
                }
            }
            if untraced.wrong.is_some() || traced.wrong.is_some() {
                break;
            }
        }
        let mut sessions = match &history {
            Some(_) => workloads::history_sessions(&sizes, args.seed, traced.last_round),
            None => round_sessions(args.workload, &sizes, args.seed, traced.last_round),
        };
        sessions.iter_mut().for_each(|s| s.start_round());
        let replay_engine = match &history {
            Some((h, _)) => Arc::clone(&h.engine),
            None => Arc::new(StorageEngine::new(EngineConfig::default())),
        };
        let replay = replay::replay(
            &replay_engine,
            &mut sessions,
            origin,
            Duration::from_secs_f64(args.seconds * REPLAY_SHARE),
            1 << 62,
        );
        (traced, Some(replay), Some(untraced))
    } else {
        let mut p = phase(args.seconds, false, 0)?;
        if let Some((_, setups)) = &history {
            p.setups = setups.clone();
        }
        (p, None, None)
    };

    let wrong = reported
        .wrong
        .clone()
        .or_else(|| untraced.as_ref().and_then(|u| u.wrong.clone()))
        .or_else(|| replayed.as_ref().and_then(|r: &Replay| r.wrong.clone()));
    // A wrong answer is the result; a percentile cut short by it is not
    // a second failure.
    let mut ctx = metrics::Context::new(args.smoke || wrong.is_some());
    let metrics = match (&replayed, &untraced) {
        (Some(replay), Some(untraced)) => metrics::per_layer(
            &mut ctx,
            args.workload,
            &reported,
            untraced,
            replay,
            &setup_delta,
        ),
        _ => metrics::end_to_end(&mut ctx, args.workload, &reported),
    };
    notes.extend(metrics::class_notes(&reported));
    if !ctx.rule_failures.is_empty() {
        return Err(format!("percentile rule: {}", ctx.rule_failures.join("; ")));
    }
    notes.push(calibration_guard(&reported, untraced.as_ref())?);
    notes.extend(ctx.notes);
    if let Some(dir) = &args.out_dir {
        write_outputs(dir, args, &reported, replayed.as_ref(), &metrics, &notes)
            .map_err(|e| format!("writing outputs to {}: {e}", dir.display()))?;
    }
    if let Some(why) = &wrong {
        notes.push(format!("WRONG ANSWER: {why}"));
    }
    Ok(RunResult {
        correct: wrong.is_none(),
        attempted: reported.stats.attempted,
        failed: reported.stats.busy + reported.stats.errors,
        metrics,
        notes,
    })
}

/// Fails the run when other threads (the program's) ran during the
/// calibrations for more than [`calib::MAX_OTHERS_SHARE`] of their time,
/// since the slowdown would then credit the program's work to the
/// machine; otherwise returns a report line.
fn calibration_guard(reported: &Phase, untraced: Option<&Phase>) -> Result<String, String> {
    let phases = std::iter::once(reported).chain(untraced);
    let (mut wall, mut others) = (0u64, Some(0u64));
    for p in phases {
        wall += p.calib_wall_ns;
        others = others.zip(p.calib_others_ns).map(|(a, b)| a + b);
    }
    let Some(others) = others else {
        return Ok("calibration: per-thread CPU time not exposed; guard skipped".to_string());
    };
    let share = others as f64 / wall.max(1) as f64;
    let line = format!(
        "calibration: other threads used {:.3} ms of CPU during {:.1} ms of calibration ({:.3}%)",
        others as f64 / 1e6,
        wall as f64 / 1e6,
        share * 100.0
    );
    if share > calib::MAX_OTHERS_SHARE {
        Err(format!(
            "{line}, above the {}% limit: program threads ran while the machine was calibrated",
            calib::MAX_OTHERS_SHARE * 100.0
        ))
    } else {
        Ok(line)
    }
}

/// The run fingerprint: machine, build, code, seed and every config
/// field that differs from the program's defaults.
fn fingerprint(args: &RunArgs) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let non_default = if args.trace {
        "traced phase: ServerConfig.trace_sample_n=1 (default 64) so every request is traced; \
         untraced phase: none"
    } else {
        "none (ServerConfig and EngineConfig defaults)"
    };
    format!(
        "fingerprint: workload={} seed={} seconds={} trace={} nproc={} profile={} commit={} \
         clients={CLIENTS} window={} non_default_config=[{non_default}]{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        sys::profile(),
        sys::commit(&root),
        client::WINDOW,
        if args.smoke { " SMOKE" } else { "" },
    )
}

fn size_notes(workload: Workload, sizes: &Sizes, history: Option<&History>) -> Vec<String> {
    let cache = EngineConfig::default().cache_bytes;
    match workload {
        Workload::IngestOoo => vec![format!(
            "sizes: {CLIENTS} clients x {} devices x {} points per round, {}-point batches, \
             delays {:?}; acks are memory-only (the server fronts an in-memory StorageEngine, \
             no WAL); flush policy: engine default, a {}-point memtable rotates into the \
             server's flush pool",
            sizes.ingest_devices,
            sizes.ingest_points,
            gen::BATCH_POINTS,
            gen::INGEST_DELAY,
            EngineConfig::default().memtable_max_points,
        )],
        Workload::MixedLatest => vec![format!(
            "sizes: {CLIENTS} clients x {} devices x {} points per round, {}% queries over the \
             latest {} points, delays {:?}",
            sizes.mixed_devices,
            sizes.mixed_points,
            workloads::QUERY_SHARE * 100.0,
            workloads::LATEST_WINDOW,
            gen::MIXED_DELAY,
        )],
        Workload::HistoryAgg => {
            let h = history.expect("history-agg has loaded data");
            let decoded =
                h.points as usize * std::mem::size_of::<(i64, backsort_engine::TsValue)>();
            vec![format!(
                "sizes: {} series x {} points = {} points; decoded {:.1} MiB = {:.1}x the {:.0} MiB \
                 block cache; {} files, {} file-image bytes after compaction",
                sizes.history_series,
                sizes.history_points,
                h.points,
                decoded as f64 / (1 << 20) as f64,
                decoded as f64 / cache as f64,
                cache as f64 / (1 << 20) as f64,
                h.files,
                h.file_bytes,
            )]
        }
    }
}

fn write_outputs(
    dir: &std::path::Path,
    args: &RunArgs,
    reported: &Phase,
    replay: Option<&Replay>,
    metrics: &[Metric],
    notes: &[String],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = notes
        .iter()
        .map(|n| serde_json::to_string(n).unwrap_or_default())
        .collect();
    let report = format!(
        "{{\"notes\": [{}], \"metrics\": {}}}\n",
        notes.join(", "),
        metrics::render_json(metrics)
    );
    std::fs::write(dir.join(format!("{stem}.json")), report)?;
    if args.trace {
        let logs = [
            ("client", reported.spans.as_ref()),
            ("replay", replay.map(|r| &r.spans)),
        ];
        for (kind, log) in logs {
            let Some(log) = log else { continue };
            let file = std::fs::File::create(dir.join(format!("{stem}-{kind}-spans.csv")))?;
            let mut out = std::io::BufWriter::new(file);
            crate::spans::write_csv(log.spans(), &mut out)?;
            std::io::Write::flush(&mut out)?;
        }
        std::fs::write(
            dir.join(format!("{stem}-program-traces.json")),
            &reported.program_traces,
        )?;
    }
    Ok(())
}
