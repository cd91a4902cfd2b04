//! `ingest`: two collectors stream a closed loop of pipelined 512-row
//! batches for a 16,384-device fleet.
//!
//! Rows arrive in time order: the collectors take regular batches from
//! one shared sequence, and regular batch `g` carries one sample for
//! each of 512 devices at tick `g / 32` (32 batches cover the fleet).
//! Every 32 regular batches it sends, a collector adds two out-of-order
//! sends: a *retransmit* of its own regular batch 16 before (already
//! acknowledged, since at most [`WINDOW`] batches are in flight on a
//! connection, so every row must come back a duplicate) and a *late*
//! batch of samples 30 s older than the newest row of each of its
//! devices (new keys below the table's newest timestamp, so they miss
//! the uniqueness check's newest-timestamp fast path).
//!
//! A run is a series of passes, each a fresh set-up followed by the
//! same fixed span of sends, as many as `--seconds` hold and at least
//! [`MIN_PASSES`]; every figure is the median over the passes.
//!
//! The shared sequence keeps both collectors on the same tick: a
//! collector that fell behind would send every row below the table's
//! newest timestamp, miss the uniqueness check's newest-timestamp fast
//! path and fall further behind, and identical runs would differ
//! twofold in rate.

use crate::env::{Env, EPOCH};
use crate::fleet::{self, MINUTE, SECOND, TABLE};
use crate::report::Metrics;
use crate::trace::{self, Sched, Span, Tracer, NONE};
use crate::wire::Wire;
use crate::{Outcome, RunArgs};
use littletable_core::value::Value;
use littletable_core::{Options, Table};
use littletable_proto::{decode_request_frame, Request, Response};
use littletable_server::{handle_request, ServerConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

pub const COLLECTORS: usize = 2;
pub const BATCH: usize = 512;
/// Batches in flight per connection.
pub const WINDOW: usize = 8;
/// Ticks loaded during set-up, before the measured stream starts.
const PRELOAD_TICKS: u64 = 16;

/// Regular batches per tick, which cover the fleet once.
fn blocks(quick: bool) -> u64 {
    if quick {
        4
    } else {
        32
    }
}

/// Sends (regular, late and retransmitted: 17 per 16 regular ones)
/// that `rows_per_s` and `op_ms_p50` are taken over. The cost of a row changes as
/// the table grows through a time period, so the rate is taken over the
/// same rows in every run, not over whatever a run's seconds reach.
fn span_sends(quick: bool) -> u64 {
    if quick {
        68
    } else {
        4352
    }
}

/// The engine's default options.
pub fn options() -> Options {
    Options::default()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Regular,
    Late,
    Retransmit,
}

struct Send {
    kind: Kind,
    /// The regular batch the rows derive from.
    g: u64,
}

/// The regular batches both collectors take from, and the tally of
/// acknowledged sends that ends the measured span.
struct Stream {
    seed: u64,
    blocks: u64,
    next: AtomicU64,
    acked: AtomicU64,
    span_sends: u64,
    span_done: OnceLock<Instant>,
}

impl Stream {
    fn ts(&self, g: u64) -> i64 {
        EPOCH + (g / self.blocks) as i64 * MINUTE
    }

    fn rows(&self, s: &Send) -> Vec<Vec<Value>> {
        let ts = match s.kind {
            Kind::Late => self.ts(s.g) - 30 * SECOND,
            _ => self.ts(s.g),
        };
        let first = (s.g % self.blocks) * BATCH as u64;
        (first..first + BATCH as u64)
            .map(|d| fleet::row(self.seed, (d / 64) as i64, (d % 64) as i64, ts))
            .collect()
    }

    /// `(inserted, duplicates)` the server must acknowledge.
    fn expected(s: &Send) -> (u64, u64) {
        match s.kind {
            Kind::Retransmit => (0, BATCH as u64),
            _ => (BATCH as u64, 0),
        }
    }

    /// Counts one acknowledged send; true while the span lasts.
    fn ack(&self) -> bool {
        let n = self.acked.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.span_sends {
            let _ = self.span_done.set(Instant::now());
        }
        n <= self.span_sends
    }
}

#[derive(Default)]
struct CollectorOut {
    attempted: u64,
    failed: u64,
    rows_acked: u64,
    distinct_rows: u64,
    retransmitted_rows: u64,
    /// Send-to-ack times of the span's batches sent over the wire.
    ack_ms: Vec<f64>,
    finished: Option<Instant>,
    sched: Sched,
    spans: Vec<Span>,
}

/// One set-up: engine, server, table, and the preloaded first ticks.
fn setup(args: &RunArgs) -> (Env, Stream) {
    let env = Env::start(options(), ServerConfig::default(), EPOCH);
    env.db
        .create_table(TABLE, fleet::schema(), None)
        .expect("create table");
    let blocks = blocks(args.quick);
    let preload = PRELOAD_TICKS * blocks;
    let stream = Stream {
        seed: args.seed,
        blocks,
        next: AtomicU64::new(preload),
        acked: AtomicU64::new(0),
        span_sends: span_sends(args.quick),
        span_done: OnceLock::new(),
    };
    let t = env.db.table(TABLE).expect("table exists");
    for g in 0..preload {
        env.clock.advance_to(stream.ts(g));
        let rows = stream.rows(&Send {
            kind: Kind::Regular,
            g,
        });
        let rep = t.insert(rows).expect("preload insert");
        assert_eq!(rep.inserted, BATCH, "preload rows rejected");
    }
    env.db.flush_all().expect("preload flush");
    (env, stream)
}

/// Passes a run makes at least; more while `--seconds` allow another.
const MIN_PASSES: usize = 3;

/// The figures of one pass: a fresh set-up, then the measured span.
struct Pass {
    setup_s: f64,
    rows_per_s: f64,
    ack_ms_p50: f64,
    bytes_per_row: f64,
    attempted: u64,
    failed: u64,
    layers: Metrics,
    spans: Vec<Vec<Span>>,
    config: String,
    notes: String,
}

/// Makes passes until `--seconds` have gone by (another pass starts
/// only if one more fits) and reports the median of each figure. Every
/// pass streams the same rows into a table of the same size, so the
/// passes differ only in the host's noise.
pub fn run(args: &RunArgs) -> Outcome {
    let min = if args.quick { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let measure = Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(args));
        let n = passes.len() as u32;
        if passes.len() >= min && start.elapsed() * (n + 1) / n > measure {
            break;
        }
    }
    let med = |f: fn(&Pass) -> f64| {
        crate::report::median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut e2e = Metrics::default();
    e2e.put("setup_s", med(|p| p.setup_s), "s");
    e2e.put("op_ms_p50", med(|p| p.ack_ms_p50), "ms");
    e2e.put("rows_per_s", med(|p| p.rows_per_s), "rows/s");
    e2e.put("bytes_per_row_stored", med(|p| p.bytes_per_row), "B/row");
    let rates: Vec<String> = passes
        .iter()
        .map(|p| crate::report::num(p.rows_per_s))
        .collect();
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let last = passes.pop().expect("at least one pass");
    Outcome {
        attempted,
        failed,
        e2e,
        layers: last.layers,
        spans: last.spans,
        config: last.config,
        notes: format!(
            "{{\"passes\": {}, \"rows_per_s_per_pass\": [{}], \"last_pass\": {}}}",
            rates.len(),
            rates.join(", "),
            last.notes
        ),
    }
}

/// One set-up and the measured span on it, checked.
fn pass(args: &RunArgs) -> Pass {
    let t = Instant::now();
    let (mut env, stream) = setup(args);
    let setup_s = t.elapsed().as_secs_f64();
    let table = env.db.table(TABLE).expect("table exists");
    let s0 = table.stats().snapshot();
    let db0 = env.db.stats();
    let d0 = env.vfs.model().stats();
    let threads0 = trace::process_threads();
    let epoch = Instant::now();
    let barrier = Barrier::new(COLLECTORS);
    let outs: Vec<CollectorOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..COLLECTORS)
            .map(|c| {
                let (env, stream, barrier) = (&env, &stream, &barrier);
                let table = table.clone();
                std::thread::Builder::new()
                    .name(format!("bench-load-{c}"))
                    .spawn_scoped(s, move || {
                        collector(env, &table, stream, args, epoch, barrier)
                    })
                    .expect("spawn collector")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("collector panicked"))
            .collect()
    });
    let threads1 = trace::process_threads();
    let end = outs
        .iter()
        .filter_map(|o| o.finished)
        .max()
        .unwrap_or(epoch);
    let elapsed = (end - epoch).as_secs_f64().max(1e-9);
    let rows_acked: u64 = outs.iter().map(|o| o.rows_acked).sum();
    let distinct: u64 = outs.iter().map(|o| o.distinct_rows).sum();
    let span_s = stream
        .span_done
        .get()
        .map_or(elapsed, |t| (*t - epoch).as_secs_f64());
    let span_rows = stream.span_sends * BATCH as u64;
    let retrans: u64 = outs.iter().map(|o| o.retransmitted_rows).sum();
    let ack_ms: Vec<f64> = outs.iter().flat_map(|o| o.ack_ms.iter().copied()).collect();
    let mut attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let sends = attempted;
    let mut failed: u64 = outs.iter().map(|o| o.failed).sum();

    // Untimed from here: drain to quiescence, then check the totals.
    // Dropping an undrained set-up takes about as long as draining it,
    // so every pass drains and checks the table.
    env.quiesce();
    let s1 = table.stats().snapshot();
    let db1 = env.db.stats();
    let d1 = env.vfs.model().stats();
    let preload_rows = PRELOAD_TICKS * stream.blocks * BATCH as u64;
    attempted += 2;
    if table.disk_rows() != preload_rows + distinct {
        eprintln!(
            "ingest: table holds {} rows, generator sent {} distinct rows",
            table.disk_rows(),
            preload_rows + distinct
        );
        failed += 1;
    }
    let dups = s1.duplicate_keys - s0.duplicate_keys;
    if dups != retrans {
        eprintln!("ingest: engine counted {dups} duplicates, generator retransmitted {retrans}");
        failed += 1;
    }

    let mut layers = Metrics::default();
    let mut spans = Vec::new();
    if args.trace {
        let loads: Vec<Sched> = outs.iter().map(|o| o.sched).collect();
        for o in outs {
            spans.push(o.spans);
        }
        let tab = trace::layer_table(&spans);
        layers.put_opt(
            "client.ingest_send_us_per_batch",
            tab.get("client.send_batch")
                .map(|r| r.total_ns as f64 / 1e3 / r.calls.max(1) as f64),
            "us",
        );
        layers.put_opt(
            "proto.ns_per_row",
            crate::per_unit(&tab, "proto.decode"),
            "ns",
        );
        let handle = crate::per_unit(&tab, "server.handle_request");
        let insert = crate::per_unit(&tab, "core.insert");
        if let (Some(h), Some(i)) = (handle, insert) {
            layers.put("server.handle_self_ns_per_row", h - i, "ns");
        }
        let groups = trace::group_delta(&threads0, &threads1);
        crate::put_thread_groups(&mut layers, &groups, &loads);
        layers.put_opt("core.ns_per_row", insert, "ns");
        let commit_cpu = groups.get("lt-commit").map(|g| g.cpu_ns).unwrap_or(0);
        layers.put(
            "core.maintain_ms_per_mrow",
            commit_cpu as f64 / 1e6 / (rows_acked as f64 / 1e6).max(1e-9),
            "ms",
        );
        crate::put_counters(
            &mut layers,
            &s0,
            &s1,
            &db0,
            &db1,
            &d0,
            &d1,
            sends,
            rows_acked,
        );
    }
    Pass {
        setup_s,
        rows_per_s: span_rows as f64 / span_s,
        ack_ms_p50: crate::report::median(&ack_ms).unwrap_or(0.0),
        bytes_per_row: table.disk_bytes() as f64 / table.disk_rows().max(1) as f64,
        attempted,
        failed,
        layers,
        spans,
        config: env.config_json(),
        notes: format!(
            "{{\"rows_acked\": {rows_acked}, \"distinct_rows\": {distinct}, \
             \"retransmitted_rows\": {retrans}, \"measured_s\": {elapsed}, \
             \"span_rows\": {span_rows}, \"span_s\": {span_s}, \
             \"table_bytes\": {}, \"table_rows\": {}, \"block_cache_bytes\": {}}}",
            table.disk_bytes(),
            table.disk_rows(),
            env.opts.block_cache_bytes
        ),
    }
}

fn collector(
    env: &Env,
    table: &Arc<Table>,
    g: &Stream,
    args: &RunArgs,
    epoch: Instant,
    barrier: &Barrier,
) -> CollectorOut {
    let traced = args.trace;
    let mut out = CollectorOut::default();
    let mut tr = Tracer::new(traced, epoch);
    let mut wire = Wire::connect(env.addr());
    let mut extras: VecDeque<Send> = VecDeque::new();
    let mut inflight: VecDeque<(u64, Send, Instant)> = VecDeque::new();
    // This collector's last 17 regular batches, newest last, and how
    // many it has sent.
    let mut mine: VecDeque<u64> = VecDeque::new();
    let mut own = 0u64;
    barrier.wait();
    let sched0 = trace::thread_sched();
    // Checks an acknowledgement; true while the measured span lasts.
    let check = |out: &mut CollectorOut, s: &Send, got: (u64, u64)| {
        let in_span = g.ack();
        out.attempted += 1;
        out.rows_acked += BATCH as u64;
        if got != Stream::expected(s) {
            eprintln!("ingest: {:?} batch {} acked {got:?}", s.kind, s.g);
            out.failed += 1;
        }
        match s.kind {
            Kind::Retransmit => out.retransmitted_rows += BATCH as u64,
            _ => out.distinct_rows += got.0,
        }
        in_span
    };
    let recv_one = |wire: &mut Wire,
                    tr: &mut Tracer,
                    inflight: &mut VecDeque<(u64, Send, Instant)>,
                    out: &mut CollectorOut| {
        let (want, s, sent) = inflight.pop_front().expect("a batch in flight");
        let span = tr.begin("client.ack_wait", NONE, want);
        let (id, resp) = wire.recv();
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        tr.end(span, 1);
        assert_eq!(id, want, "acks out of order");
        match resp {
            Response::InsertResult {
                inserted,
                duplicates,
            } => {
                if check(out, &s, (inserted, duplicates)) {
                    out.ack_ms.push(ms);
                }
            }
            other => {
                eprintln!("ingest: batch {} answered {other:?}", s.g);
                out.attempted += 1;
                out.failed += 1;
            }
        }
    };
    // Sends go on until the span is acknowledged whole; the few that
    // were in flight by then are drained but not measured.
    while g.acked.load(Ordering::Relaxed) < g.span_sends {
        let s = match extras.pop_front() {
            Some(s) => s,
            None => {
                let s = Send {
                    kind: Kind::Regular,
                    g: g.next.fetch_add(1, Ordering::Relaxed),
                };
                own += 1;
                mine.push_back(s.g);
                if mine.len() > 17 {
                    mine.pop_front();
                }
                if own.is_multiple_of(32) {
                    extras.push_back(Send {
                        kind: Kind::Retransmit,
                        g: mine[0],
                    });
                }
                if own % 32 == 16 {
                    extras.push_back(Send {
                        kind: Kind::Late,
                        g: s.g,
                    });
                }
                s
            }
        };
        while inflight.len() >= WINDOW {
            recv_one(&mut wire, &mut tr, &mut inflight, &mut out);
        }
        let root = tr.begin("client.batch", NONE, s.g);
        let send = tr.begin("client.send_batch", root, s.g);
        let rows = g.rows(&s);
        env.clock.advance_to(g.ts(s.g));
        // In the traced run a share of regular batches bypasses the
        // socket so the dispatcher and the engine insert can be timed
        // apart: handle_request on one share, Table::insert on another.
        let share = if traced && s.kind == Kind::Regular {
            s.g % 8
        } else {
            0
        };
        match share {
            3 => {
                tr.end(send, 1);
                let req = Request::Insert {
                    table: TABLE.into(),
                    rows: rows
                        .into_iter()
                        .map(|r| r.into_iter().map(Some).collect())
                        .collect(),
                };
                let span = tr.begin("server.handle_request", root, s.g);
                let resp = handle_request(&env.db, req);
                tr.end(span, BATCH as u64);
                match resp {
                    Response::InsertResult {
                        inserted,
                        duplicates,
                    } => {
                        check(&mut out, &s, (inserted, duplicates));
                    }
                    _ => {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                }
            }
            5 => {
                tr.end(send, 1);
                let span = tr.begin("core.insert", root, s.g);
                let rep = table.insert(rows);
                tr.end(span, BATCH as u64);
                match rep {
                    Ok(rep) => {
                        check(&mut out, &s, (rep.inserted as u64, rep.duplicates as u64));
                    }
                    Err(_) => {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                }
            }
            _ => {
                let req = Request::Insert {
                    table: TABLE.into(),
                    rows: rows
                        .into_iter()
                        .map(|r| r.into_iter().map(Some).collect())
                        .collect(),
                };
                let enc = tr.begin("proto.encode", send, s.g);
                let (id, frame) = wire.encode(&req);
                tr.end(enc, BATCH as u64);
                let w = tr.begin("client.write", send, s.g);
                let sent = Instant::now();
                wire.send_frame(&frame);
                tr.end(w, 1);
                tr.end(send, 1);
                if traced {
                    let span = tr.begin("proto.decode", root, s.g);
                    let decoded = decode_request_frame(&frame);
                    tr.end(span, BATCH as u64);
                    std::hint::black_box(decoded.is_ok());
                }
                inflight.push_back((id, s, sent));
            }
        }
        tr.end(root, 1);
    }
    while !inflight.is_empty() {
        recv_one(&mut wire, &mut tr, &mut inflight, &mut out);
    }
    out.finished = Some(Instant::now());
    let sched1 = trace::thread_sched();
    out.sched = Sched {
        cpu_ns: sched1.cpu_ns - sched0.cpu_ns,
        wait_ns: sched1.wait_ns - sched0.wait_ns,
    };
    out.spans = tr.spans;
    out
}
