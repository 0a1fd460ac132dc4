//! Turns a phase's measurements into the named metrics of
//! `BENCHMARK.json`.

use backsort_obs::{names, Registry, Snapshot};

use crate::calib;
use crate::client::ClientStats;
use crate::replay::Replay;
use crate::runner::{Metric, Phase};
use crate::spans::{totals_by_name, Span};
use crate::stats::{self, TooFewSamples};
use crate::workloads::{Figure, Workload};

/// Every benchmark span name, for the per-span self-time metrics.
pub const SPAN_NAMES: [&str; 12] = [
    "client.request",
    "client.encode",
    "client.wait",
    "client.decode",
    "replay.request",
    "wire.read_request",
    "engine.write_batch",
    "engine.complete_flush",
    "sql.parse",
    "sql.execute",
    "wire.encode_response",
    "wire.read_response",
];

/// Percentile-rule bookkeeping shared by every metric of one run.
pub struct Context {
    relaxed: bool,
    /// Percentiles that broke the rule (a failed run unless relaxed).
    pub rule_failures: Vec<String>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Context {
    /// A fresh context; `relaxed` turns a broken rule into a note.
    pub fn new(relaxed: bool) -> Self {
        Self {
            relaxed,
            rule_failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn rule(&mut self, what: &str, r: Result<Option<u64>, TooFewSamples>) -> f64 {
        match r {
            Ok(v) => v.unwrap_or(0) as f64,
            Err(e) if self.relaxed => {
                self.notes.push(format!("{what} not reported: {e}"));
                0.0
            }
            Err(e) => {
                self.rule_failures.push(format!("{what}: {e}"));
                0.0
            }
        }
    }

    /// A percentile of raw samples, in µs (`samples` in ns, unsorted).
    /// Empty samples mean the op class is absent: 0.
    fn sample_us(&mut self, what: &str, samples: &[u64], p: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let v = self.rule(what, stats::percentile(&sorted, p).map(Some));
        if v == u64::MAX as f64 {
            f64::INFINITY
        } else {
            v / 1e3
        }
    }

    /// A percentile of a registry histogram delta; 0 when it is empty.
    fn hist(&mut self, d: &Snapshot, name: &str, p: f64) -> f64 {
        let Some(h) = d.histogram(name) else {
            return 0.0;
        };
        let upper = |i: usize| match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        };
        self.rule(name, stats::histogram_percentile(&h.buckets, upper, p))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Renders metrics as the JSON object `{"name": {"value": …, "unit": …}, …}`
/// (a non-finite value becomes `null`).
pub fn render_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn all_latencies(s: &ClientStats) -> Vec<u64> {
    s.write_ns.iter().chain(&s.query_ns).copied().collect()
}

/// The machine slowdown that scales `figure` of `workload`, from a
/// calibration's part times.
fn slowdown(workload: Workload, figure: Figure, parts: &[f64; calib::PARTS]) -> f64 {
    calib::slowdown(parts, &workload.reference_weights(figure))
}

/// Median over rounds of the round's OK rate at the reference machine
/// speed.
fn normalised_rate(workload: Workload, p: &Phase) -> f64 {
    let rates: Vec<f64> = p
        .rounds
        .iter()
        .map(|r| ratio(r.ok as f64, r.seconds) * slowdown(workload, Figure::Throughput, &r.calib))
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        stats::median(&rates)
    }
}

/// The end-to-end metrics of an untraced phase. Each round's rate and
/// percentiles are taken at the reference machine speed (a rate times
/// the round's slowdown for that figure, a latency divided by it; see
/// [`crate::calib`] and [`Workload::reference_weights`]) and the median
/// over rounds is reported, so a stall of the shared machine moves a
/// round or two and not the figure.
pub fn end_to_end(ctx: &mut Context, workload: Workload, p: &Phase) -> Vec<Metric> {
    let s = &p.stats;
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for r in &p.rounds {
        let p50 = ctx.sample_us("p50_us", &r.latencies, 0.5);
        p50s.push(p50 / slowdown(workload, Figure::Median, &r.calib));
        let p99 = ctx.sample_us("p99_us", &r.latencies, 0.99);
        p99s.push(p99 / slowdown(workload, Figure::Tail, &r.calib));
    }
    let setups: Vec<f64> = p
        .setups
        .iter()
        .map(|(t, parts)| t / slowdown(workload, Figure::Setup, parts))
        .collect();
    let slowdowns: Vec<f64> = p
        .rounds
        .iter()
        .map(|r| slowdown(workload, Figure::Throughput, &r.calib))
        .collect();
    let raw_rates: Vec<f64> = p
        .rounds
        .iter()
        .map(|r| ratio(r.ok as f64, r.seconds))
        .collect();
    ctx.notes.push(format!(
        "end-to-end: {} requests in {} rounds over {:.2} measured s; throughput slowdown \
         median {:.3} (min {:.3}, max {:.3}); unnormalised median round ops_per_s={:.1}, \
         pooled ops_per_s={:.1}, median set-up {:.4} s",
        s.attempted,
        p.rounds.len(),
        p.measured_s,
        stats::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        stats::median(&raw_rates),
        ratio(s.ok() as f64, p.measured_s),
        stats::median(&p.setups.iter().map(|x| x.0).collect::<Vec<_>>()),
    ));
    let parts: Vec<String> = calib::PART_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ns: Vec<f64> = p.calib_parts.iter().map(|c| c[i]).collect();
            format!("{name}={:.2}", stats::median(&ns) / 1e6)
        })
        .collect();
    ctx.notes.push(format!(
        "calibration parts (median ms over {} calibrations): {}",
        p.calib_parts.len(),
        parts.join(" ")
    ));
    let per_round: Vec<String> = p
        .rounds
        .iter()
        .zip(&slowdowns)
        .map(|(r, slow)| format!("{:.0}@{slow:.3}", ratio(r.ok as f64, r.seconds)))
        .collect();
    ctx.notes.push(format!(
        "rounds (unnormalised ops/s @ throughput slowdown): {}",
        per_round.join(" ")
    ));
    vec![
        m("setup_s", stats::median(&setups), "s"),
        m("ops_per_s", normalised_rate(workload, p), "1/s"),
        m("p50_us", stats::median(&p50s), "us"),
        m("p99_us", stats::median(&p99s), "us"),
        m("ok_frac", ratio(s.ok() as f64, s.attempted as f64), "ratio"),
        m(
            "rss_peak_mb",
            stats::median(
                &p.rounds
                    .iter()
                    .map(|r| r.rss_peak_kib as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
        m(
            "stored_bytes_per_point",
            ratio(p.stored_bytes as f64, p.stored_points as f64),
            "B/point",
        ),
    ]
}

/// The per-op-class figures (`write_*`, `query_*`, `failed_frac`).
pub fn class_metrics(ctx: &mut Context, p: &Phase) -> Vec<Metric> {
    let s = &p.stats;
    let queries_ok = s.query_ns.iter().filter(|&&l| l != u64::MAX).count() as f64;
    vec![
        m(
            "write_pps",
            ratio(s.points_acked as f64, p.measured_s),
            "points/s",
        ),
        m(
            "write_p50_us",
            ctx.sample_us("write_p50_us", &s.write_ns, 0.5),
            "us",
        ),
        m(
            "write_p99_us",
            ctx.sample_us("write_p99_us", &s.write_ns, 0.99),
            "us",
        ),
        m("query_qps", ratio(queries_ok, p.measured_s), "1/s"),
        m(
            "query_p50_us",
            ctx.sample_us("query_p50_us", &s.query_ns, 0.5),
            "us",
        ),
        m(
            "query_p99_us",
            ctx.sample_us("query_p99_us", &s.query_ns, 0.99),
            "us",
        ),
        m(
            "failed_frac",
            ratio((s.busy + s.errors) as f64, s.attempted as f64),
            "ratio",
        ),
    ]
}

/// Report lines with the per-class figures of the reported phase. A
/// percentile without enough samples is printed as such instead of
/// failing the run: these lines are not reported metrics.
pub fn class_notes(p: &Phase) -> Vec<String> {
    let mut ctx = Context::new(true);
    let s = &p.stats;
    let mut line = format!(
        "classes: writes={} queries={} over {:.2} s:",
        s.write_ns.len(),
        s.query_ns.len(),
        p.measured_s
    );
    for metric in class_metrics(&mut ctx, p) {
        line.push_str(&format!(
            " {}={:.4} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    let mut lines = vec![line];
    lines.extend(ctx.notes.into_iter().map(|n| format!("classes: {n}")));
    lines
}

fn stage(name: &str) -> String {
    Registry::labeled(names::TRACE_SPAN_NANOS, "stage", name)
}

/// The per-layer metrics of a `--trace 1` run: the traced phase, the
/// untraced phase that precedes it, the replay, and (for `history-agg`)
/// the registry as set-up left it.
pub fn per_layer(
    ctx: &mut Context,
    workload: Workload,
    traced: &Phase,
    untraced: &Phase,
    replay: &Replay,
    setup: &Snapshot,
) -> Vec<Metric> {
    let s = &traced.stats;
    let d = &traced.delta;
    let c = |n: &str| d.counter(n) as f64;
    let hsum = |n: &str| d.histogram(n).map_or(0.0, |h| h.sum as f64);
    let hmean = |n: &str| d.histogram(n).map_or(0.0, |h| h.mean());

    let client_spans: &[Span] = traced.spans.as_ref().map_or(&[], |l| l.spans());
    let mut totals = totals_by_name(client_spans);
    totals.extend(totals_by_name(replay.spans.spans()));
    let mean_dur = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.1 as f64, t.0 as f64))
    };
    let dur = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);

    let mut out = class_metrics(ctx, traced);
    let queries = s.query_ns.iter().filter(|&&l| l != u64::MAX).count() as f64;
    let mean_client_us = {
        let ok_lat: Vec<u64> = all_latencies(s)
            .into_iter()
            .filter(|&l| l != u64::MAX)
            .collect();
        ratio(ok_lat.iter().map(|&l| l as f64).sum(), ok_lat.len() as f64) / 1e3
    };
    let flush_points = c(names::FLUSH_POINTS);
    let (sort, encode, write) = (
        c(names::FLUSH_SORT_NANOS),
        c(names::FLUSH_ENCODE_NANOS),
        c(names::FLUSH_WRITE_NANOS),
    );
    let reads = c(names::QUERY_READ_PATH) + c(names::QUERY_SORTED_ON_READ);
    let considered = c(names::QUERY_FILES_CONSIDERED);
    let (hits, misses) = (c(names::CACHE_HITS), c(names::CACHE_MISSES));
    let untraced_ops = normalised_rate(workload, untraced);
    let traced_ops = normalised_rate(workload, traced);

    out.extend([
        m("client.encode_ns_per_req", mean_dur("client.encode"), "ns"),
        m("client.decode_ns_per_resp", mean_dur("client.decode"), "ns"),
        m(
            "wire.response_bytes_per_row",
            ratio(s.row_payload_bytes as f64, s.rows as f64),
            "B/row",
        ),
        m(
            "wire.decode_request_ns_per_frame",
            mean_dur("wire.read_request"),
            "ns",
        ),
        m(
            "wire.encode_response_ns_per_resp",
            mean_dur("wire.encode_response"),
            "ns",
        ),
        m(
            "server.exec_p50_us",
            ctx.hist(d, names::SERVER_REQUEST_NANOS, 0.5) / 1e3,
            "us",
        ),
        m(
            "server.exec_p99_us",
            ctx.hist(d, names::SERVER_REQUEST_NANOS, 0.99) / 1e3,
            "us",
        ),
        m(
            "server.outside_exec_us",
            mean_client_us - hmean(names::SERVER_REQUEST_NANOS) / 1e3,
            "us",
        ),
        m(
            "server.busy_frac",
            ratio(c(names::SERVER_REJECTED_BUSY), c(names::SERVER_FRAMES)),
            "ratio",
        ),
        m("sql.parse_ns_per_stmt", mean_dur("sql.parse"), "ns"),
        m("sql.execute_ns_per_stmt", mean_dur("sql.execute"), "ns"),
        m(
            "engine.write_batch_ns_per_point",
            ratio(dur("engine.write_batch"), replay.points as f64),
            "ns",
        ),
        m(
            "memtable.append_ns_per_point",
            ratio(
                hsum(names::MEMTABLE_BATCH_APPEND_NANOS),
                c(names::ENGINE_WRITE_POINTS),
            ),
            "ns",
        ),
        m(
            "memtable.ooo_frac",
            ratio(c(names::MEMTABLE_OOO_POINTS), c(names::ENGINE_WRITE_POINTS)),
            "ratio",
        ),
        m("flush.count", c(names::FLUSH_COUNT), "count"),
        m(
            "flush.points_per_flush",
            ratio(flush_points, c(names::FLUSH_COUNT)),
            "points",
        ),
        m("flush.sort_ns_per_point", ratio(sort, flush_points), "ns"),
        m(
            "flush.encode_ns_per_point",
            ratio(encode, flush_points),
            "ns",
        ),
        m("flush.write_ns_per_point", ratio(write, flush_points), "ns"),
        m(
            "flush.sort_share",
            ratio(sort, sort + encode + write),
            "ratio",
        ),
        m(
            "sort.block_size_p50",
            ctx.hist(d, names::SORT_BLOCK_SIZE, 0.5),
            "points",
        ),
        m(
            "merge.overlap_q_p50",
            ctx.hist(d, names::MERGE_OVERLAP_Q, 0.5),
            "points",
        ),
        m(
            "query.sorted_on_read_frac",
            ratio(c(names::QUERY_SORTED_ON_READ), reads),
            "ratio",
        ),
        m(
            "query.sort_on_read_p99_us",
            ctx.hist(d, &stage(names::SPAN_QUERY_SORT_ON_READ), 0.99) / 1e3,
            "us",
        ),
        m(
            "query.rows_merged_per_row",
            ratio(c(names::QUERY_ROWS_MERGED), s.rows as f64),
            "ratio",
        ),
        m(
            "query.files_considered_per_query",
            ratio(considered, queries),
            "files",
        ),
        m(
            "query.files_pruned_frac",
            ratio(c(names::QUERY_FILES_PRUNED), considered),
            "ratio",
        ),
        m(
            "query.files_pruned_by_filter_frac",
            ratio(c(names::QUERY_FILES_PRUNED_BY_FILTER), considered),
            "ratio",
        ),
        m("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("cache.evictions", c(names::CACHE_EVICTIONS), "count"),
        m(
            "query.files_stage_p99_us",
            ctx.hist(d, &stage(names::SPAN_QUERY_FILES), 0.99) / 1e3,
            "us",
        ),
        m(
            "query.merge_stage_p99_us",
            ctx.hist(d, &stage(names::SPAN_QUERY_MERGE), 0.99) / 1e3,
            "us",
        ),
        m(
            "compaction.bytes_in",
            setup.counter(names::COMPACTION_BYTES_IN) as f64,
            "B",
        ),
        m(
            "compaction.bytes_out",
            setup.counter(names::COMPACTION_BYTES_OUT) as f64,
            "B",
        ),
        m(
            "compaction.runs",
            setup.counter(names::COMPACTION_RUNS) as f64,
            "count",
        ),
        m(
            "trace.overhead_frac",
            1.0 - ratio(traced_ops, untraced_ops),
            "ratio",
        ),
    ]);
    let client_reqs = s.attempted as f64;
    for name in SPAN_NAMES {
        let per = if name.starts_with("client.") {
            client_reqs
        } else {
            replay.ops as f64
        };
        let own = totals.get(name).map_or(0.0, |t| t.2 as f64);
        out.push(m(&format!("self.{name}.ns_per_op"), ratio(own, per), "ns"));
    }
    out
}
