//! Machine-speed calibration.
//!
//! The benchmark shares its machine: the same single-threaded loop can
//! take 40% longer from one second to the next, and runs minutes apart
//! drift by 20% in throughput with identical code and inputs. Every
//! round is therefore bracketed by a fixed reference workload and the
//! end-to-end timings are reported at the reference speed: a rate is
//! multiplied, and a duration divided, by the slowdown the reference
//! measured ([`slowdown`]).
//!
//! The reference does the kinds of work the program does, in four parts
//! ([`PART_NAMES`]): on every core at once, sorting cache-resident words
//! (the flush sort), parsing decimal text, and validating suffixes of
//! that text (the client's JSON decode does that per character); then
//! two threads trading messages over loopback TCP (socket copies,
//! wake-ups and hand-offs between cores, as between a client and the
//! server's threads). A workload's slowdown weights the parts by where
//! its CPU time goes ([`crate::Workload::reference_weights`]), because
//! the parts do not slow alike: on one machine state the scan part ran
//! 1.7x slower while sort and parse did not, and `mixed-latest`, whose
//! time is mostly that scan, lost 40% of its throughput while the other
//! workloads lost 10% or less. An earlier kernel of dependent loads over a
//! table larger than the cache measured memory latency only and saw
//! neither: its `mixed-latest` figures moved by a third between two
//! sets of runs. Over 20 runs of 4 s per workload, spaced over 12
//! minutes in which raw throughput drifted by 42% to 56%, the inverse
//! time of each part correlated with raw throughput at 0.7 to 0.9 on
//! every workload; that of the loads at 0.3 on `mixed-latest`.
//!
//! The reference is code of this package only. A program thread that
//! ran during a calibration would slow it and so raise the reported
//! figures, crediting the program's work to the machine. The write
//! workloads calibrate after the round's server has shut down and its
//! engine is dropped, so no program thread exists. `history-agg`
//! calibrates between rounds with its idle server alive (restarting the
//! server per round grows the heap with every new set of server
//! threads, and calibrating only around the whole phase misses drift
//! within it). Every calibration therefore also measures the CPU time
//! the process's other threads used meanwhile, and the runner fails a
//! run in which they used more than [`MAX_OTHERS_SHARE`] of the
//! calibration time.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Instant;

/// Words the sort part sorts per run: 256 KiB, cache-resident, branchy
/// compute like the flush sort.
const SORT_WORDS: usize = 1 << 15;
/// Sorts per kernel run.
const SORTS: usize = 10;
/// Decimal numbers in the text the parse part scans.
const TEXT_NUMBERS: usize = 1 << 14;
/// Scans of the text per kernel run: UTF-8 validation, splitting and
/// integer parsing, byte work like the client's JSON decode.
const PARSES: usize = 24;
/// Suffix validations of the text per kernel run: each checks the
/// UTF-8 of the text from an offset to its end, streaming tens of KiB
/// through the core's caches as the client's JSON string decode does.
const SCANS: usize = 4096;
/// The parts of a calibration, in the order of [`Calibration::part_ns`].
pub const PART_NAMES: [&str; PARTS] = ["sort", "parse", "scan", "exchange"];
/// Number of parts.
pub const PARTS: usize = 4;
/// Runs of each part per calibration; their mean is kept, since the
/// round beside it lives through the same bursts of a busy machine.
const REPS: usize = 5;
/// Each part's time on an unloaded 2-vCPU machine of the kind the
/// benchmark was sized on; only scales the reported figures.
pub const NOMINAL_PART_NS: [f64; PARTS] = [8.0e6, 9.0e6, 12.0e6, 13.0e6];

/// xorshift64 stream.
fn words(n: usize, mut x: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// The kernel's inputs, built once.
struct Inputs {
    unsorted: Vec<u64>,
    text: String,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| Inputs {
        unsorted: words(SORT_WORDS, 0x1234_5678_9ABC_DEF1),
        text: words(TEXT_NUMBERS, 0x2545_F491_4F6C_DD1D)
            .iter()
            .map(|v| format!("{},", v >> 44))
            .collect(),
    })
}

/// One kernel run, in three parts of similar time, each returned in ns:
/// sorting cache-resident words, parsing decimal text and validating
/// suffixes of that text. The last slot is the exchange part's, left 0.
fn kernel(inputs: &Inputs) -> [f64; PARTS] {
    let started = Instant::now();
    let mut w = inputs.unsorted.clone();
    for _ in 0..SORTS {
        w.copy_from_slice(&inputs.unsorted);
        w.sort_unstable();
        std::hint::black_box(&w);
    }
    let t1 = started.elapsed().as_nanos() as f64;
    let mut sum = 0u64;
    for _ in 0..PARSES {
        let text = std::hint::black_box(inputs.text.as_bytes());
        let text = std::str::from_utf8(text).expect("the kernel text is ASCII");
        for field in text.split(',') {
            sum = sum.wrapping_add(field.parse::<u64>().unwrap_or(0));
        }
    }
    std::hint::black_box(sum);
    let t2 = started.elapsed().as_nanos() as f64;
    let bytes = inputs.text.as_bytes();
    let stride = bytes.len() / SCANS;
    let mut valid = 0usize;
    for k in 0..SCANS {
        let rest = std::hint::black_box(&bytes[k * stride..]);
        valid += usize::from(std::str::from_utf8(rest).is_ok());
    }
    std::hint::black_box(valid);
    let t3 = started.elapsed().as_nanos() as f64;
    [t1, t2 - t1, t3 - t2, 0.0]
}

/// Round trips of a loopback exchange.
const EXCHANGES: usize = 300;
/// Bytes sent each way per round trip: a batch frame one way, a
/// medium answer back.
const MESSAGE_BYTES: usize = 32 << 10;

/// Two threads trade [`MESSAGE_BYTES`] over a loopback TCP connection
/// [`EXCHANGES`] times, each waiting for the other, as a client and the
/// server's threads do: socket copies, wake-ups and hand-offs between
/// cores, which per-core loops never exercise. Returns its duration in
/// ns.
fn exchange() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener for calibration");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|s| {
        s.spawn(move || {
            let (mut peer, _) = listener.accept().expect("calibration peer connects");
            peer.set_nodelay(true).expect("TCP_NODELAY");
            let mut buf = vec![0u8; MESSAGE_BYTES];
            for _ in 0..EXCHANGES {
                peer.read_exact(&mut buf).expect("calibration read");
                peer.write_all(&buf).expect("calibration write");
            }
        });
        let mut conn = TcpStream::connect(addr).expect("calibration connect");
        conn.set_nodelay(true).expect("TCP_NODELAY");
        let message = vec![0x5Au8; MESSAGE_BYTES];
        let mut buf = vec![0u8; MESSAGE_BYTES];
        let started = Instant::now();
        for _ in 0..EXCHANGES {
            conn.write_all(&message).expect("calibration write");
            conn.read_exact(&mut buf).expect("calibration read");
        }
        started.elapsed().as_nanos() as f64
    })
}

/// Largest share of a run's calibration wall time that the process's
/// other threads may spend on a CPU before the run fails.
pub const MAX_OTHERS_SHARE: f64 = 0.02;

/// One calibration.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Mean time of each part ([`PART_NAMES`]), ns.
    pub part_ns: [f64; PARTS],
    /// Wall time the calibration took, ns.
    pub wall_ns: u64,
    /// CPU time, ns, that the process's threads other than the caller
    /// and the kernel threads used during the calibration; `None` where
    /// the kernel does not expose per-thread CPU time.
    pub others_cpu_ns: Option<u64>,
}

/// Machine speed for work whose CPU time splits over the kinds of work
/// as `weights` does: the weighted mean of each part's time over its
/// [`NOMINAL_PART_NS`] (above 1 means slower than nominal).
pub fn slowdown(part_ns: &[f64; PARTS], weights: &[f64; PARTS]) -> f64 {
    let weighted: f64 = (0..PARTS)
        .map(|i| weights[i] * part_ns[i] / NOMINAL_PART_NS[i])
        .sum();
    weighted / weights.iter().sum::<f64>()
}

/// CPU time, ns, of every live thread of this process except the
/// caller, from `se.sum_exec_runtime` (ms) in
/// `/proc/self/task/<tid>/sched`.
fn others_cpu_ns() -> Option<BTreeMap<String, u64>> {
    let me = std::fs::read_link("/proc/thread-self").ok()?;
    let me = me.file_name()?.to_str()?.to_string();
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let tid = entry.ok()?.file_name().into_string().ok()?;
        if tid == me {
            continue;
        }
        // A thread that exits meanwhile has no file any more.
        let Ok(text) = std::fs::read_to_string(format!("/proc/self/task/{tid}/sched")) else {
            continue;
        };
        let line = text
            .lines()
            .find(|l| l.starts_with("se.sum_exec_runtime"))?;
        let ms: f64 = line.split(':').nth(1)?.trim().parse().ok()?;
        out.insert(tid, (ms * 1e6) as u64);
    }
    Some(out)
}

/// Measures the machine speed: the mean of [`REPS`] runs, each the
/// mean of one kernel per available core run concurrently, plus the
/// mean of [`REPS`] loopback exchanges ([`exchange`]). The kernel
/// threads live only inside the calibration, so the threads present
/// both before and after it are the caller's others.
pub fn calibrate() -> Calibration {
    let inputs = inputs();
    let threads = crate::sys::nproc();
    let before = others_cpu_ns();
    let started = Instant::now();
    let runs: Vec<[f64; PARTS]> = (0..REPS)
        .map(|_| {
            let mut total = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| kernel(inputs))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .fold([0.0; PARTS], |mut sum, run| {
                        sum.iter_mut().zip(run).for_each(|(s, t)| *s += t);
                        sum
                    })
            });
            total.iter_mut().for_each(|t| *t /= threads as f64);
            total[PARTS - 1] = exchange();
            total
        })
        .collect();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let others_cpu_ns = before.zip(others_cpu_ns()).map(|(before, after)| {
        after
            .iter()
            .filter_map(|(tid, &ns)| before.get(tid).map(|&was| ns.saturating_sub(was)))
            .sum()
    });
    let part_ns: [f64; PARTS] =
        std::array::from_fn(|i| runs.iter().map(|r| r[i]).sum::<f64>() / REPS as f64);
    Calibration {
        part_ns,
        wall_ns,
        others_cpu_ns,
    }
}
