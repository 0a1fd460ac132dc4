//! The calibration reference is left alone by an idle server and notices a
//! busy thread. Kept in a test binary of its own: the calibration
//! counts the CPU time of every other thread of the process, so tests
//! running beside it would be counted too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use backsort_engine::{EngineConfig, StorageEngine};
use backsort_server::SqlServer;
use perfbench::{calibrate, slowdown, MAX_OTHERS_SHARE, PARTS};

/// Every calibration part weighted alike.
const EVEN: [f64; PARTS] = [1.0; PARTS];

/// Runs the tests of this file one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// An idle server (accept thread, worker pool, flush pool) neither runs
/// during a calibration nor moves it: interleaved measurements with and
/// without one agree. A server thread that polled or spun while idle
/// would fail this.
#[test]
fn an_idle_server_does_not_move_the_slowdown() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut absent = Vec::new();
    let mut alive = Vec::new();
    for _ in 0..5 {
        absent.push(slowdown(&calibrate().part_ns, &EVEN));
        let engine = Arc::new(StorageEngine::new(EngineConfig::default()));
        let server = SqlServer::start("127.0.0.1:0", engine).expect("server starts");
        std::thread::sleep(Duration::from_millis(20));
        let c = calibrate();
        if let Some(others) = c.others_cpu_ns {
            assert!(
                (others as f64) < MAX_OTHERS_SHARE * c.wall_ns as f64,
                "idle server threads ran {others} ns during a {} ns calibration",
                c.wall_ns
            );
        }
        alive.push(slowdown(&c.part_ns, &EVEN));
        server.shutdown();
    }
    let (absent, alive) = (median(absent), median(alive));
    assert!(
        (alive / absent - 1.0).abs() < 0.15,
        "slowdown {alive:.3} with an idle server, {absent:.3} without"
    );
}

/// A thread that spins during a calibration is seen.
#[test]
fn a_busy_thread_is_seen() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stop = AtomicBool::new(false);
    let c = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let c = calibrate();
        stop.store(true, Ordering::Relaxed);
        c
    });
    if let Some(others) = c.others_cpu_ns {
        assert!(
            (others as f64) > MAX_OTHERS_SHARE * c.wall_ns as f64,
            "a spinning thread ran only {others} ns during a {} ns calibration",
            c.wall_ns
        );
    }
}
