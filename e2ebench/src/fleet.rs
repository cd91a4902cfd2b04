//! The device fleet, its deterministic telemetry, and the reference
//! oracle that checks every answer against it.
//!
//! Every row the benchmark sends is a pure function of the seed and its
//! key, and every workload sends rows on a fixed schedule, so the naive
//! evaluators below re-derive each panel's expected answer from the
//! schedule alone, without the program under test.

use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::value::{ColumnType, Value};

pub const SECOND: i64 = 1_000_000;
pub const MINUTE: i64 = 60 * SECOND;
pub const HOUR: i64 = 60 * MINUTE;
pub const DAY: i64 = 24 * HOUR;

/// The base table every workload writes.
pub const TABLE: &str = "telemetry";
/// The hourly rollup over [`TABLE`] (dashboard).
pub const ROLLUP: &str = "telemetry_1h";

/// `(network, device, ts, bytes, clients)`, keyed `(network, device, ts)`.
pub fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::I64),
            ColumnDef::new("clients", ColumnType::I64),
        ],
        &["network", "device", "ts"],
    )
    .expect("benchmark schema is valid")
}

/// splitmix64: the benchmark's only source of pseudo-randomness.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The measured values of one sample: `(bytes, clients)`. `bytes` is
/// non-negative and small enough that no sum overflows.
pub fn sample_values(seed: u64, network: i64, device: i64, ts: i64) -> (i64, i64) {
    let h = mix(seed ^ mix((network as u64) << 40 ^ (device as u64) << 20 ^ ts as u64));
    ((h % 1_000_000) as i64, ((h >> 32) % 64) as i64)
}

pub fn row(seed: u64, network: i64, device: i64, ts: i64) -> Vec<Value> {
    let (b, c) = sample_values(seed, network, device, ts);
    vec![
        Value::I64(network),
        Value::I64(device),
        Value::Timestamp(ts),
        Value::I64(b),
        Value::I64(c),
    ]
}

/// The fleet that dashboards look at: `networks` networks of
/// `devices` devices each, one sample per `step` in `[start, end)`.
/// Device 0 of every network is the *silent* one: it stopped reporting
/// at `silent_from`, so every summary over a recent window of it covers
/// no rows. Which devices are silent does not depend on the seed, so the
/// number of empty-window summaries is the same in every run.
#[derive(Clone, Debug)]
pub struct Fleet {
    pub seed: u64,
    pub networks: i64,
    pub devices: i64,
    pub start: i64,
    pub step: i64,
    pub end: i64,
    pub silent_from: i64,
}

impl Fleet {
    pub fn silent(&self, device: i64) -> bool {
        device == 0
    }

    /// Where the device's samples stop.
    fn device_end(&self, device: i64) -> i64 {
        if self.silent(device) {
            self.end.min(self.silent_from)
        } else {
            self.end
        }
    }

    /// Every sample time of one device in `[lo, hi)`.
    pub fn sample_times(&self, device: i64, lo: i64, hi: i64) -> Vec<i64> {
        let hi = hi.min(self.device_end(device));
        let first = if lo <= self.start {
            0
        } else {
            (lo - self.start + self.step - 1) / self.step
        };
        (first..)
            .map(|i| self.start + i * self.step)
            .take_while(|&ts| ts < hi)
            .collect()
    }

    /// The device's newest sample time, if any.
    pub fn last_time(&self, device: i64) -> Option<i64> {
        let end = self.device_end(device);
        (end > self.start).then(|| self.start + (end - 1 - self.start) / self.step * self.step)
    }

    /// Whether `ts` is a sample time of `device`.
    pub fn is_sample_time(&self, device: i64, ts: i64) -> bool {
        ts >= self.start && ts < self.device_end(device) && (ts - self.start) % self.step == 0
    }
}

/// Expected hourly usage of one network over `[lo, hi)`, per device:
/// `(device, bucket_start, sum, count, min, max)` in `(device, bucket)`
/// order, with `TIME_BUCKET` semantics (`floor(ts / width) * width`).
pub fn usage_reference(f: &Fleet, network: i64, lo: i64, hi: i64) -> Vec<[i64; 6]> {
    let mut buckets: std::collections::BTreeMap<(i64, i64), [i64; 6]> = Default::default();
    for d in 0..f.devices {
        for ts in f.sample_times(d, lo, hi) {
            let (b, _) = sample_values(f.seed, network, d, ts);
            let k = ts.div_euclid(HOUR) * HOUR;
            let e = buckets
                .entry((d, k))
                .or_insert([d, k, 0, 0, i64::MAX, i64::MIN]);
            e[2] += b;
            e[3] += 1;
            e[4] = e[4].min(b);
            e[5] = e[5].max(b);
        }
    }
    buckets.into_values().collect()
}

/// Compares a usage answer, sorted by `(device, bucket)`, with its
/// reference.
pub fn usage_matches(rows: &[Vec<Value>], want: &[[i64; 6]]) -> bool {
    rows.len() == want.len()
        && rows.iter().zip(want).all(|(r, w)| {
            r.len() == 6
                && r.iter()
                    .zip(w)
                    .all(|(v, &x)| matches!(v, Value::Timestamp(y) | Value::I64(y) if *y == x))
        })
}

/// Expected ungrouped `COUNT(*), SUM(bytes)` over `[lo, hi)` of one
/// device, or of the whole network when `device` is `None`. An aggregate
/// without `GROUP BY` has exactly one result row, also over an empty
/// window.
pub fn summary_reference(
    f: &Fleet,
    network: i64,
    device: Option<i64>,
    lo: i64,
    hi: i64,
) -> [i64; 2] {
    let devices = match device {
        Some(d) => d..d + 1,
        None => 0..f.devices,
    };
    let (mut count, mut sum) = (0, 0);
    for d in devices {
        for ts in f.sample_times(d, lo, hi) {
            count += 1;
            sum += sample_values(f.seed, network, d, ts).0;
        }
    }
    [count, sum]
}

pub fn summary_matches(rows: &[Vec<Value>], want: [i64; 2]) -> bool {
    rows.len() == 1
        && rows[0].len() == 2
        && rows[0]
            .iter()
            .zip(want)
            .all(|(v, x)| matches!(v, Value::I64(y) if *y == x))
}

/// History check: the rows are exactly the device's samples in the
/// window, in key order, each once, with the generated values.
pub fn history_matches(
    f: &Fleet,
    network: i64,
    device: i64,
    rows: &[Vec<Value>],
    want_times: &[i64],
) -> bool {
    rows.len() == want_times.len()
        && rows
            .iter()
            .zip(want_times)
            .all(|(r, &ts)| *r == row(f.seed, network, device, ts))
}

/// Status check for one device: the latest row is the device's newest
/// sample, with the generated values.
pub fn latest_matches(f: &Fleet, network: i64, device: i64, got: &Option<Vec<Value>>) -> bool {
    match (got, f.last_time(device)) {
        (None, None) => true,
        (Some(r), Some(ts)) => *r == row(f.seed, network, device, ts),
        _ => false,
    }
}
