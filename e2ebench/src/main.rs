//! End-to-end benchmark of LittleTable: the real server over the real
//! engine on the simulated disk, driven over loopback TCP and through
//! the SQL session, every answer checked against an independent
//! reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ingest|dashboard --seed N --seconds S --trace 0|1
//! cargo run ... -- --quick        # every workload and check, small
//! cargo run ... -- --self-check   # the oracle must reject wrong answers
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. End-to-end metrics
//! come from untraced runs (`--trace 0`); `--trace 1` reports the
//! per-layer metrics instead. Both write a report with the host, the
//! configuration and the workload's notes under `e2ebench/results/`,
//! and the traced run adds every span and the per-layer table.

mod dashboard;
mod env;
mod fleet;
mod ingest;
mod panels;
mod report;
mod trace;
mod wire;

use littletable_core::stats::{DbStatsSnapshot, StatsSnapshot};
use littletable_vfs::DiskStats;
use report::{median, num, p99, q, Metrics};
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics the benchmark gates on (`BENCHMARK.json`),
/// printed on the result line of an untraced run. Every workload
/// reports each of them; an operation is a 512-row batch on `ingest`
/// and a four-panel refresh on `dashboard`. Every other figure, such as
/// the per-panel medians and the p99s, goes to the report file only.
pub const GATED: [&str; 4] = ["setup_s", "op_ms_p50", "rows_per_s", "bytes_per_row_stored"];

/// The per-layer metrics printed on the result line of a traced run,
/// each reported by every workload (a count or ratio of a path the
/// workload does not take reads 0). Layer figures that only one
/// workload has, such as the SQL layer's, go to the report file only.
pub const LAYERS: [&str; 25] = [
    "client.load_thread_cpu_s",
    "client.load_thread_wait_s",
    "proto.ns_per_row",
    "server.ingest_thread_cpu_s",
    "server.ingest_thread_wait_s",
    "server.commit_thread_cpu_share",
    "core.ns_per_row",
    "core.unique_slow_share",
    "core.duplicate_rows",
    "core.write_amplification",
    "core.tablets_flushed",
    "core.merges",
    "core.rows_scanned_per_returned",
    "core.rows_materialized_per_scanned",
    "core.snapshot_loads_per_op",
    "core.cache_hit_ratio",
    "core.cache_compressed_hit_share",
    "core.cache_evicted_kb_per_op",
    "core.cache_split_fraction",
    "core.result_cache_hit_ratio",
    "core.rollup_hits_per_op",
    "vfs.bytes_written_per_user_byte",
    "vfs.seeks_per_op",
    "vfs.bytes_read_kb_per_op",
    "vfs.disk_busy_ms_per_op",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub spans: Vec<Vec<trace::Span>>,
    pub config: String,
    pub notes: String,
}

/// Runs the set-up [`SETUPS`] times (each from nothing; earlier results
/// are dropped) and returns the last result with every set-up's time.
pub fn repeat_setup<T>(args: &RunArgs, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let n = if args.quick { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Refresh and panel figures: `op_ms_p50` is the median refresh and
/// `rows_per_s` the history panel's rows per second of its own time.
/// Panel medians are medians of per-round means: a cached SQL panel
/// takes tens of microseconds, too short to compare run to run one at a
/// time.
pub fn put_refresh_metrics(m: &mut Metrics, s: &panels::Samples, refreshes_per_s: f64) {
    let round = panels::ROUND;
    m.put_opt("op_ms_p50", median(&s.refresh_ms), "ms");
    m.put_opt("refresh_ms_p99", p99(&s.refresh_ms), "ms");
    m.put("refreshes_per_s", refreshes_per_s, "1/s");
    m.put_opt(
        "status_panel_ms_p50",
        report::group_median(&s.status_ms, round),
        "ms",
    );
    m.put_opt(
        "usage_panel_ms_p50",
        report::group_median(&s.usage_ms, round),
        "ms",
    );
    m.put_opt(
        "history_panel_ms_p50",
        report::group_median(&s.history_ms, round),
        "ms",
    );
    m.put_opt(
        "summary_panel_ms_p50",
        report::group_median(&s.summary_ms, round),
        "ms",
    );
    let hist_s: f64 = s.history_ms.iter().sum::<f64>() / 1e3;
    m.put(
        "rows_per_s",
        s.history_rows as f64 / hist_s.max(1e-9),
        "rows/s",
    );
}

/// Mean nanoseconds per unit of the spans called `name`.
pub fn per_unit(tab: &BTreeMap<&'static str, trace::LayerRow>, name: &str) -> Option<f64> {
    tab.get(name)
        .map(|r| r.total_ns as f64 / r.units.max(1) as f64)
}

/// Per-call costs of the read-path layers, from the spans: the
/// protocol and engine per row returned, and the SQL and point-read
/// calls that only the dashboard makes.
pub fn put_read_layers(m: &mut Metrics, tab: &BTreeMap<&'static str, trace::LayerRow>) {
    m.put_opt("proto.ns_per_row", per_unit(tab, "proto.encode_rows"), "ns");
    let us = |name: &str| per_unit(tab, name).map(|ns| ns / 1e3);
    let (parse, plan, exec) = (us("sql.parse"), us("sql.plan"), us("sql.execute"));
    m.put_opt("sql.parse_us", parse, "us");
    m.put_opt("sql.plan_us", plan, "us");
    if let (Some(p), Some(l), Some(e)) = (parse, plan, exec) {
        m.put("sql.exec_self_us", e - p - l, "us");
    }
    m.put_opt(
        "core.pushdown_ns_per_row_scanned",
        per_unit(tab, "core.pushdown"),
        "ns",
    );
    m.put_opt("core.ns_per_row", per_unit(tab, "core.query"), "ns");
    m.put_opt("core.latest_us", us("core.latest"), "us");
}

/// CPU and run-queue wait of the server's thread groups and of the
/// benchmark's own load threads.
pub fn put_thread_groups(
    m: &mut Metrics,
    groups: &BTreeMap<String, trace::Sched>,
    loads: &[trace::Sched],
) {
    let g = |name: &str| groups.get(name).copied().unwrap_or_default();
    m.put(
        "server.ingest_thread_cpu_s",
        g("lt-ingest").cpu_ns as f64 / 1e9,
        "s",
    );
    m.put(
        "server.ingest_thread_wait_s",
        g("lt-ingest").wait_ns as f64 / 1e9,
        "s",
    );
    m.put(
        "server.commit_thread_cpu_s",
        g("lt-commit").cpu_ns as f64 / 1e9,
        "s",
    );
    m.put(
        "server.commit_thread_wait_s",
        g("lt-commit").wait_ns as f64 / 1e9,
        "s",
    );
    m.put(
        "server.commit_thread_cpu_share",
        ratio(
            g("lt-commit").cpu_ns,
            g("lt-commit").cpu_ns + g("lt-ingest").cpu_ns,
        ),
        "ratio",
    );
    m.put(
        "client.load_thread_cpu_s",
        loads.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e9,
        "s",
    );
    m.put(
        "client.load_thread_wait_s",
        loads.iter().map(|s| s.wait_ns).sum::<u64>() as f64 / 1e9,
        "s",
    );
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Bytes the user handed over per row: five 8-byte cells.
const USER_BYTES_PER_ROW: u64 = 40;

/// Engine, cache and disk-model counters between two snapshots, the
/// same set on every workload: `ops` operations were made and
/// `rows_written` rows offered for insert in between.
#[allow(clippy::too_many_arguments)]
pub fn put_counters(
    m: &mut Metrics,
    s0: &StatsSnapshot,
    s1: &StatsSnapshot,
    db0: &DbStatsSnapshot,
    db1: &DbStatsSnapshot,
    d0: &DiskStats,
    d1: &DiskStats,
    ops: u64,
    rows_written: u64,
) {
    let d = |f: fn(&StatsSnapshot) -> u64| f(s1) - f(s0);
    let per_op = |x: f64| x / ops.max(1) as f64;
    // Rows that took the uniqueness check's slow path (a point read of
    // every tablet whose time span holds the row), per row offered.
    let dups = d(|s| s.duplicate_keys);
    m.put(
        "core.unique_slow_share",
        ratio(d(|s| s.unique_slow), d(|s| s.rows_inserted) + dups),
        "ratio",
    );
    m.put("core.duplicate_rows", dups as f64, "count");
    let flushed = d(|s| s.bytes_flushed);
    m.put(
        "core.write_amplification",
        ratio(flushed + d(|s| s.bytes_merge_written), flushed),
        "ratio",
    );
    m.put(
        "core.tablets_flushed",
        d(|s| s.tablets_flushed) as f64,
        "count",
    );
    m.put("core.merges", d(|s| s.merges) as f64, "count");
    m.put("core.rollup_folds", d(|s| s.rollup_folds) as f64, "count");
    m.put(
        "core.tablets_expired",
        d(|s| s.tablets_expired) as f64,
        "count",
    );
    let scanned = d(|s| s.rows_scanned);
    m.put(
        "core.rows_scanned_per_returned",
        ratio(scanned, d(|s| s.rows_returned)),
        "ratio",
    );
    m.put(
        "core.rows_materialized_per_scanned",
        ratio(d(|s| s.rows_materialized), scanned),
        "ratio",
    );
    m.put(
        "core.blocks_pruned_per_query",
        ratio(
            d(|s| s.blocks_pruned),
            d(|s| s.queries) + d(|s| s.pushdown_scans),
        ),
        "count",
    );
    m.put(
        "core.snapshot_loads_per_op",
        per_op(d(|s| s.snapshot_loads) as f64),
        "count",
    );
    // A block read is a decompressed-tier hit, a compressed-tier hit
    // (decompress, no disk) or a miss.
    let compressed = d(|s| s.cache_compressed_hits);
    let hits = d(|s| s.cache_hits) + compressed;
    m.put(
        "core.cache_hit_ratio",
        ratio(hits, hits + d(|s| s.cache_misses)),
        "ratio",
    );
    m.put(
        "core.cache_compressed_hit_share",
        ratio(compressed, hits),
        "ratio",
    );
    m.put(
        "core.cache_evicted_kb_per_op",
        per_op(d(|s| s.cache_evicted_bytes) as f64 / 1e3),
        "kB",
    );
    m.put(
        "core.cache_split_fraction",
        db1.cache_split_fraction,
        "ratio",
    );
    let rc = db1.result_cache_hits - db0.result_cache_hits;
    m.put(
        "core.result_cache_hit_ratio",
        ratio(rc, rc + db1.result_cache_misses - db0.result_cache_misses),
        "ratio",
    );
    m.put(
        "core.rollup_hits_per_op",
        per_op(d(|s| s.rollup_hits) as f64),
        "count",
    );
    let written = d1.bytes_written - d0.bytes_written;
    m.put(
        "vfs.bytes_written_per_user_byte",
        if rows_written == 0 {
            0.0
        } else {
            ratio(written, rows_written * USER_BYTES_PER_ROW)
        },
        "ratio",
    );
    m.put(
        "vfs.seeks_per_op",
        per_op((d1.seeks - d0.seeks) as f64),
        "count",
    );
    m.put(
        "vfs.bytes_read_kb_per_op",
        per_op((d1.bytes_read - d0.bytes_read) as f64 / 1e3),
        "kB",
    );
    m.put(
        "vfs.disk_busy_ms_per_op",
        per_op((d1.busy_micros - d0.busy_micros) as f64 / 1e3),
        "ms",
    );
}

fn host_json(args: &RunArgs) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"quick\": {}}}",
        q(env!("E2EBENCH_PROFILE")),
        q(env!("E2EBENCH_RUSTC")),
        q(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        args.quick
    )
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes the run's report (and, traced, its spans and layer table).
fn write_report(args: &RunArgs, out: &Outcome, host: &str) {
    use std::fmt::Write as _;
    let mut s = format!(
        "{{\"host\": {host}, \"config\": {}, \"notes\": {}, \"attempted\": {}, \"failed\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}",
        out.config,
        out.notes,
        out.attempted,
        out.failed,
        out.e2e.json(),
        out.layers.json()
    );
    if args.trace {
        s.push_str(", \"layers\": {");
        let tab = trace::layer_table(&out.spans);
        for (i, (name, r)) in tab.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"calls\": {}, \"units\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                if i > 0 { ", " } else { "" },
                q(name),
                r.calls,
                r.units,
                num(r.total_ns as f64 / 1e6),
                num(r.self_ns as f64 / 1e6)
            );
        }
        s.push_str("}, \"spans\": [");
        let mut first = true;
        for (t, spans) in out.spans.iter().enumerate() {
            for sp in spans {
                let parent = if sp.parent == trace::NONE {
                    "null".to_string()
                } else {
                    format!("\"{t}.{}\"", sp.parent)
                };
                let _ = write!(
                    s,
                    "{}[{}, {}, {}, {}, {}, {}]",
                    if first { "" } else { ",\n" },
                    q(sp.name),
                    sp.start_ns,
                    sp.end_ns,
                    parent,
                    sp.request,
                    sp.units
                );
                first = false;
            }
        }
        s.push_str("], \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\", \"units\"]");
    }
    s.push_str("}\n");
    let dir = results_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, s)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn run_one(args: &RunArgs) -> Outcome {
    match args.workload.as_str() {
        "ingest" => ingest::run(args),
        "dashboard" => dashboard::run(args),
        w => {
            eprintln!("unknown workload {w:?}: expected ingest or dashboard");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload ingest|dashboard --seed N --seconds S --trace 0|1\n\
         \x20      e2ebench --quick | --self-check"
    );
    std::process::exit(2);
}

fn parse_args() -> (RunArgs, bool) {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut self_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = val() == "1",
            "--quick" => args.quick = true,
            "--self-check" => self_check = true,
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    (args, self_check)
}

fn main() {
    let (args, self_check) = parse_args();
    if self_check {
        std::process::exit(if panels::self_check() { 0 } else { 1 });
    }
    if args.quick && args.workload.is_empty() {
        std::process::exit(quick_all(args.seed));
    }
    if args.workload.is_empty() {
        usage();
    }
    let host = host_json(&args);
    let out = run_one(&args);
    write_report(&args, &out, &host);
    println!("{{\"host\": {host}, \"config\": {}}}", out.config);
    let metrics = match manifest_metrics(&out, args.trace) {
        Ok(m) => m.json(),
        Err(missing) => {
            eprintln!("{}: no figure for {missing:?}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == known_failures(&args.workload, out.attempted),
        out.attempted,
        out.failed,
    );
}

/// The metrics of the result line: every gated end-to-end metric, or
/// traced every per-layer one; `Err` names those the run did not make.
fn manifest_metrics(out: &Outcome, trace: bool) -> Result<Metrics, Vec<&'static str>> {
    let (all, names): (_, &[&'static str]) = if trace {
        (&out.layers, &LAYERS)
    } else {
        (&out.e2e, &GATED)
    };
    let missing: Vec<&'static str> = names
        .iter()
        .copied()
        .filter(|n| !all.items.iter().any(|(m, _, _)| m == n))
        .collect();
    if missing.is_empty() {
        Ok(all.only(names))
    } else {
        Err(missing)
    }
}

/// The failed operations a correct run has: the empty-window summaries,
/// one per round of dashboard refreshes, which the program answers with
/// no row instead of one. Any other failure makes the run incorrect.
fn known_failures(workload: &str, attempted: u64) -> u64 {
    match workload {
        "dashboard" => attempted / (panels::PANELS * panels::ROUND as u64),
        _ => 0,
    }
}

/// Every workload, untraced and traced, at a small size, plus the
/// oracle self-check. Fails unless the only failed operations are the
/// known empty-window summaries (one per round of refreshes) and every
/// run makes every metric of its result line.
fn quick_all(seed: u64) -> i32 {
    let mut ok = panels::self_check();
    for w in ["ingest", "dashboard"] {
        for trace in [false, true] {
            let args = RunArgs {
                workload: w.into(),
                seed,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let out = run_one(&args);
            let host = host_json(&args);
            write_report(&args, &out, &host);
            let complete = manifest_metrics(&out, trace);
            if let Err(missing) = &complete {
                println!("{w} trace={}: no figure for {missing:?}", u8::from(trace));
            }
            let good = out.failed == known_failures(w, out.attempted) && complete.is_ok();
            ok &= good;
            println!(
                "{w} trace={} attempted={} failed={} {} metrics={}",
                u8::from(trace),
                out.attempted,
                out.failed,
                if good { "ok" } else { "UNEXPECTED" },
                if trace {
                    out.layers.json()
                } else {
                    out.e2e.json()
                }
            );
        }
    }
    i32::from(!ok)
}
