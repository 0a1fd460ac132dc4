//! Seeded input generation. The program only ever sees what these
//! functions produce; the same seed always yields the same inputs.
//!
//! Distribution parameters, batch size, window and data sizes are
//! constants: the seed draws every sample (delays, series choices,
//! query ranges, op order) but not the shape of the load. A
//! seed-dependent pipelining window, for instance, would move latency
//! by Little's law and make the seed-to-seed spread of every latency
//! metric exceed its bound.

use backsort_engine::{PointBatch, ValueColumn};
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points per INSERT batch: the paper's tuned batch size.
pub const BATCH_POINTS: usize = 500;
/// Sensor name of every series (one sensor per device).
pub const SENSOR: &str = "s";
/// Generation-order points per delay template; longer series repeat
/// templates shifted by whole segments.
pub const SEGMENT: usize = 50_000;

/// Delay model of `ingest-ooo`: the paper's delay-only LogNormal family,
/// with a median delay of ~20 intervals and a tail reaching thousands,
/// so nearly every batch arrives out of order.
pub const INGEST_DELAY: DelayModel = DelayModel::LogNormal {
    mu: 3.0,
    sigma: 1.5,
};
/// Delay model of `mixed-latest`: mild AbsNormal disorder.
pub const MIXED_DELAY: DelayModel = DelayModel::AbsNormal {
    mu: 0.0,
    sigma: 8.0,
};

/// A seed for one named sub-stream, so workloads, rounds and clients
/// draw independent samples from one run seed.
pub fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h = (h ^ p).wrapping_mul(0x0100_0000_01B3).rotate_left(29) ^ (h >> 31);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h
}

/// The value every generator writes for series `series` at time `t`:
/// a sawtooth with a little hashed noise, always an integer below 2^20
/// so sums and averages are exact in `f64` whatever the summation
/// order.
pub fn value(series: u32, t: i64) -> f64 {
    let noise = (t as u64 ^ u64::from(series).wrapping_mul(0x9E37_79B9))
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        >> 60;
    (u64::from(series % 64) * 4096 + (t as u64 % 4096) + noise) as f64
}

/// Arrival-order permutations of `0..SEGMENT`, drawn from `delay`.
pub fn delay_templates(delay: DelayModel, count: usize, seed: u64) -> Vec<Vec<u32>> {
    (0..count)
        .map(|i| {
            let spec = StreamSpec::new(SEGMENT, delay, sub_seed(seed, &[i as u64]));
            generate_pairs(&spec)
                .into_iter()
                .map(|(t, _)| t as u32)
                .collect()
        })
        .collect()
}

/// One out-of-order series: its batches in arrival order, plus the
/// arrival position of every timestamp (for the oracle).
pub struct SeriesStream {
    /// Device path.
    pub device: String,
    /// Value-function salt.
    pub series: u32,
    /// Batches in arrival order, [`BATCH_POINTS`] points each.
    pub batches: Vec<PointBatch>,
    /// `pos_of_ts[t]` = arrival index of timestamp `t`.
    pub pos_of_ts: Vec<u32>,
}

impl SeriesStream {
    /// Builds `points` (a multiple of [`SEGMENT`]) generation-order
    /// points whose arrival order repeats `templates`, chosen per
    /// segment by `rng`.
    pub fn new(
        device: String,
        series: u32,
        points: usize,
        templates: &[Vec<u32>],
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(points % SEGMENT, 0, "series length is whole segments");
        let mut ts: Vec<i64> = Vec::with_capacity(points);
        for seg in 0..points / SEGMENT {
            let template = &templates[rng.gen_range(0..templates.len())];
            let base = (seg * SEGMENT) as i64;
            ts.extend(template.iter().map(|&o| base + i64::from(o)));
        }
        let mut pos_of_ts = vec![0u32; points];
        for (pos, &t) in ts.iter().enumerate() {
            pos_of_ts[t as usize] = pos as u32;
        }
        let batches = ts
            .chunks(BATCH_POINTS)
            .map(|chunk| {
                let values = ValueColumn::Double(chunk.iter().map(|&t| value(series, t)).collect());
                PointBatch::from_columns(chunk.to_vec(), values).expect("equal-length columns")
            })
            .collect();
        Self {
            device,
            series,
            batches,
            pos_of_ts,
        }
    }
}

/// The value-function salt of series `index` under `seed`, so every
/// seed writes different values.
pub fn series_salt(seed: u64, index: usize) -> u32 {
    (sub_seed(seed, &[0x5A17]) as u32).wrapping_add(index as u32)
}

/// An RNG for one named sub-stream of the run seed.
pub fn rng(seed: u64, parts: &[u64]) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_permutations_of_generation_time() {
        let templates = delay_templates(INGEST_DELAY, 2, 5);
        let a = SeriesStream::new("d".into(), 1, 2 * SEGMENT, &templates, &mut rng(5, &[1]));
        let b = SeriesStream::new("d".into(), 1, 2 * SEGMENT, &templates, &mut rng(5, &[1]));
        assert_eq!(a.batches, b.batches);
        let mut ts: Vec<i64> = a.batches.iter().flat_map(|b| b.ts().to_vec()).collect();
        let arrived_in_order = ts.windows(2).filter(|w| w[0] < w[1]).count();
        assert!(
            arrived_in_order < ts.len() - 1,
            "stream must be out of order"
        );
        ts.sort_unstable();
        assert_eq!(ts, (0..2 * SEGMENT as i64).collect::<Vec<_>>());
        assert_eq!(a.pos_of_ts[a.batches[0].ts()[3] as usize], 3);
    }

    #[test]
    fn values_are_small_integers() {
        for t in [0i64, 1, 4095, 4096, 1 << 40] {
            let v = value(63, t);
            assert_eq!(v.fract(), 0.0);
            assert!(v < (1u64 << 20) as f64);
        }
    }
}
