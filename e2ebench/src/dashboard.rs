//! `dashboard`: read-only refreshes of a loaded, merged, rolled-up
//! table several times larger than the block cache.
//!
//! Set-up loads three days of 5-minute samples for 64 networks of 16
//! devices, flushes and merges them, folds the hourly rollup, and runs
//! every distinct summary statement once so the result cache holds them
//! all. The two SQL panels then each stay in one mode: every `summary`
//! is a result-cache hit, and at full size no `usage` answer (about
//! 80 KiB) fits the 64 KiB result-cache budget, so every `usage` panel
//! is served from the rollup and the base table. Two closed-loop clients refresh
//! Zipf-chosen networks for the measured interval.

use crate::env::{Env, EPOCH};
use crate::fleet::{self, Fleet, Rng, Zipf, DAY, HOUR, MINUTE, ROLLUP, TABLE};
use crate::panels::{self, Panels, Reference, Samples, Windows, ROUND};
use crate::report::Metrics;
use crate::trace::{self, Sched, Span};
use crate::{Outcome, RunArgs};
use littletable_core::Options;
use littletable_server::ServerConfig;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const ZIPF_S: f64 = 1.1;

pub fn fleet(seed: u64, quick: bool) -> Fleet {
    let end = EPOCH + 3 * DAY + 3 * HOUR + 40 * MINUTE;
    Fleet {
        seed,
        networks: if quick { 8 } else { 64 },
        devices: 16,
        start: end - if quick { DAY } else { 3 * DAY },
        step: 5 * MINUTE,
        end,
        silent_from: end - 6 * HOUR,
    }
}

pub const WINDOWS: Windows = Windows {
    usage_hours: 72,
    history: 24 * HOUR,
    summary: 2 * HOUR,
};

/// The default options but for the block cache, a fraction of the
/// table's size. The result cache keeps its default share, a sixteenth.
pub fn options() -> Options {
    Options {
        block_cache_bytes: 1 << 20,
        ..Options::default()
    }
}

/// Loads `f`'s history in time order, one batch per sample instant.
fn load_history(env: &Env, f: &Fleet) {
    let t = env.db.table(TABLE).expect("table exists");
    let mut ts = f.start;
    while ts < f.end {
        let rows: Vec<_> = (0..f.networks)
            .flat_map(|n| (0..f.devices).map(move |d| (n, d)))
            .filter(|&(_, d)| f.is_sample_time(d, ts))
            .map(|(n, d)| fleet::row(f.seed, n, d, ts))
            .collect();
        env.clock.advance_to(ts);
        let rep = t.insert(rows).expect("history insert");
        assert_eq!(rep.duplicates, 0, "history rows collided");
        ts += f.step;
    }
}

pub fn setup(f: &Fleet) -> Env {
    let env = Env::start(options(), ServerConfig::default(), EPOCH);
    env.db
        .create_table(TABLE, fleet::schema(), None)
        .expect("create table");
    env.db
        .create_rollup(ROLLUP, TABLE, HOUR, vec!["bytes".into()], Vec::new())
        .expect("create rollup");
    load_history(&env, f);
    env.clock.advance_to(f.end);
    env.db.flush_all().expect("flush history");
    env.db.maintain_until_quiescent().expect("merge and fold");
    // Fill the result cache with every distinct summary.
    for n in 0..f.networks {
        for sql in panels::summary_panels(f, &WINDOWS, n) {
            env.session.execute(&sql).expect("warm-up query");
        }
    }
    env
}

pub fn run(args: &RunArgs) -> Outcome {
    let f = fleet(args.seed, args.quick);
    let (env, setup_times) = crate::repeat_setup(args, || setup(&f));
    let reference = Reference::new(&f, &WINDOWS);
    let table = env.db.table(TABLE).expect("table exists");
    let (table_bytes, table_rows) = (table.disk_bytes(), table.disk_rows());
    let s0 = table.stats().snapshot();
    let db0 = env.db.stats();
    let d0 = env.vfs.model().stats();
    let threads0 = trace::process_threads();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let barrier = Barrier::new(CLIENTS);
    let zipf = Zipf::new(f.networks as usize, ZIPF_S);
    struct ClientOut {
        samples: Samples,
        attempted: u64,
        failed: u64,
        refreshes: u64,
        finished: Instant,
        sched: Sched,
        spans: Vec<Span>,
    }
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (env, f, reference) = (&env, &f, &reference);
                let (zipf, barrier) = (&zipf, &barrier);
                std::thread::Builder::new()
                    .name(format!("bench-load-{c}"))
                    .spawn_scoped(s, move || {
                        let mut rng = Rng::new(f.seed, 100 + c as u64);
                        let mut p = Panels::new(env, f, reference, WINDOWS, args.trace, epoch);
                        barrier.wait();
                        let sched0 = trace::thread_sched();
                        while Instant::now() < deadline {
                            for slot in 0..ROUND {
                                let n = zipf.sample(&mut rng) as i64;
                                let dev = rng.below(f.devices as u64) as i64;
                                p.refresh(n, dev, slot);
                            }
                        }
                        let finished = Instant::now();
                        let sched1 = trace::thread_sched();
                        ClientOut {
                            attempted: p.attempted,
                            failed: p.failed,
                            refreshes: p.refreshes,
                            samples: p.samples,
                            finished,
                            sched: Sched {
                                cpu_ns: sched1.cpu_ns - sched0.cpu_ns,
                                wait_ns: sched1.wait_ns - sched0.wait_ns,
                            },
                            spans: p.tr.spans,
                        }
                    })
                    .expect("spawn client")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dashboard client panicked"))
            .collect()
    });
    let threads1 = trace::process_threads();
    let s1 = table.stats().snapshot();
    let db1 = env.db.stats();
    let d1 = env.vfs.model().stats();
    let elapsed = outs
        .iter()
        .map(|o| o.finished - epoch)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    // Each client's closed-loop rate over its own run, summed.
    let rate: f64 = outs
        .iter()
        .map(|o| o.refreshes as f64 / (o.finished - epoch).as_secs_f64())
        .sum();
    let mut samples = Samples::default();
    let (mut attempted, mut failed, mut refreshes) = (0, 0, 0);
    let mut loads = Vec::new();
    let mut spans = Vec::new();
    for o in outs {
        attempted += o.attempted;
        failed += o.failed;
        refreshes += o.refreshes;
        samples.extend(o.samples);
        loads.push(o.sched);
        spans.push(o.spans);
    }
    let mut e2e = Metrics::default();
    e2e.put(
        "setup_s",
        crate::report::median(&setup_times).unwrap_or(0.0),
        "s",
    );
    e2e.put(
        "bytes_per_row_stored",
        table_bytes as f64 / table_rows.max(1) as f64,
        "B/row",
    );
    crate::put_refresh_metrics(&mut e2e, &samples, rate);

    let mut layers = Metrics::default();
    if args.trace {
        let tab = trace::layer_table(&spans);
        crate::put_read_layers(&mut layers, &tab);
        let groups = trace::group_delta(&threads0, &threads1);
        crate::put_thread_groups(&mut layers, &groups, &loads);
        crate::put_counters(&mut layers, &s0, &s1, &db0, &db1, &d0, &d1, refreshes, 0);
    }
    let rc_hits = db1.result_cache_hits - db0.result_cache_hits;
    let rc_all = rc_hits + db1.result_cache_misses - db0.result_cache_misses;
    Outcome {
        attempted,
        failed,
        e2e,
        layers,
        spans,
        config: env.config_json(),
        notes: format!(
            "{{\"refreshes\": {refreshes}, \"measured_s\": {elapsed}, \
             \"table_bytes\": {table_bytes}, \"table_rows\": {table_rows}, \
             \"rollup_bytes\": {}, \"block_cache_bytes\": {}, \"tablets\": {}, \
             \"result_cache_budget\": {}, \"result_cache_bytes\": {}, \
             \"result_cache_entries\": {}, \
             \"result_cache_hit_share\": {}, \"rollup_served_per_refresh\": {}}}",
            env.db.table(ROLLUP).map(|t| t.disk_bytes()).unwrap_or(0),
            env.opts.block_cache_bytes,
            table.num_disk_tablets(),
            env.opts.result_cache_budget(),
            db1.result_cache_bytes,
            db1.result_cache_entries,
            crate::report::num(rc_hits as f64 / rc_all.max(1) as f64),
            crate::report::num((s1.rollup_hits - s0.rollup_hits) as f64 / refreshes.max(1) as f64),
        ),
    }
}
