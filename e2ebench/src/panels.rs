//! One dashboard refresh: four panels over one network, each timed on
//! its own and checked against the reference outside its timing.
//!
//! * `status`: `Latest` over the wire for every device of the network
//!   (pipelined, one write).
//! * `usage`: SQL `SUM/COUNT/MIN/MAX` per device per hour
//!   (`GROUP BY device, TIME_BUCKET`) over the network; whole hours come
//!   from the rollup, the unaligned tail from the base table.
//! * `history`: a raw window scan of one device over the wire, in pages
//!   of [`PAGE`] rows, each resumed past the last key of the one before.
//! * `summary`: SQL ungrouped `COUNT(*), SUM(bytes)` over a recent
//!   window, of the whole network or, once a round, of its silent device.

use crate::env::Env;
use crate::fleet::{self, Fleet, HOUR, TABLE};
use crate::trace::{Tracer, NONE};
use crate::wire::Wire;
use littletable_core::value::Value;
use littletable_core::{PushdownRequest, Query, ScanUnit, Table};
use littletable_proto::{encode_response_frame, Request, Response};
use littletable_sql::{ast::Statement, parse, plan::plan_select, SqlOutput};
use std::sync::Arc;
use std::time::Instant;

/// Refreshes per round. The first refresh of a round summarises the
/// network's silent device, the others the whole network, so exactly one
/// summary per round covers an empty window.
pub const ROUND: usize = 8;
pub const PANELS: u64 = 4;
/// Rows per history page: the client pages through the window, resuming
/// past the last key of each full page (or of a server-truncated one).
pub const PAGE: usize = 128;

/// Window lengths, in virtual micros.
#[derive(Clone, Copy)]
pub struct Windows {
    pub usage_hours: i64,
    pub history: i64,
    pub summary: i64,
}

#[derive(Default)]
pub struct Samples {
    pub refresh_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub usage_ms: Vec<f64>,
    pub history_ms: Vec<f64>,
    pub summary_ms: Vec<f64>,
    pub history_rows: u64,
}

impl Samples {
    pub fn extend(&mut self, o: Samples) {
        self.refresh_ms.extend(o.refresh_ms);
        self.status_ms.extend(o.status_ms);
        self.usage_ms.extend(o.usage_ms);
        self.history_ms.extend(o.history_ms);
        self.summary_ms.extend(o.summary_ms);
        self.history_rows += o.history_rows;
    }
}

/// The usage window starts on the hour, `usage_hours - 1` whole hours
/// before the hour holding `hi - 1`.
fn usage_lo(win: &Windows, hi: i64) -> i64 {
    (hi - 1).div_euclid(HOUR) * HOUR - (win.usage_hours - 1) * HOUR
}

fn usage_sql(network: i64, lo: i64, hi: i64) -> String {
    format!(
        "SELECT device, TIME_BUCKET(ts, INTERVAL '1h'), SUM(bytes), COUNT(*), MIN(bytes), \
         MAX(bytes) FROM {TABLE} WHERE network = {network} AND ts >= {lo} AND ts < {hi} \
         GROUP BY device, TIME_BUCKET(ts, INTERVAL '1h')"
    )
}

/// What a summary covers: the network's silent device 0, or the whole
/// network (`None`).
const SUMMARY_SUBJECTS: [Option<i64>; 2] = [Some(0), None];

/// The summary subject of position `slot` in its round: the silent
/// device first, then the whole network.
fn summary_subject(slot: usize) -> usize {
    usize::from(slot != 0)
}

fn summary_sql(network: i64, device: Option<i64>, lo: i64, hi: i64) -> String {
    let device = device
        .map(|d| format!(" AND device = {d}"))
        .unwrap_or_default();
    format!(
        "SELECT COUNT(*), SUM(bytes) FROM {TABLE} \
         WHERE network = {network}{device} AND ts >= {lo} AND ts < {hi}"
    )
}

/// Every distinct summary statement a refresh of `network` can issue.
pub fn summary_panels(f: &Fleet, win: &Windows, network: i64) -> Vec<String> {
    SUMMARY_SUBJECTS
        .into_iter()
        .map(|d| summary_sql(network, d, f.end - win.summary, f.end))
        .collect()
}

/// Every panel's expected answer, worked out from the schedule alone
/// before the measured interval: `usage[network]`, and
/// `summary[network]` for the silent device and for the whole network.
pub struct Reference {
    usage: Vec<Vec<[i64; 6]>>,
    summary: Vec<[[i64; 2]; 2]>,
}

impl Reference {
    pub fn new(f: &Fleet, win: &Windows) -> Reference {
        let hi = f.end;
        let (u_lo, s_lo) = (usage_lo(win, hi), hi - win.summary);
        Reference {
            usage: (0..f.networks)
                .map(|n| fleet::usage_reference(f, n, u_lo, hi))
                .collect(),
            summary: (0..f.networks)
                .map(|n| SUMMARY_SUBJECTS.map(|d| fleet::summary_reference(f, n, d, s_lo, hi)))
                .collect(),
        }
    }
}

pub struct Panels<'a> {
    env: &'a Env,
    fleet: &'a Fleet,
    reference: &'a Reference,
    table: Arc<Table>,
    wire: Wire,
    pub tr: Tracer,
    win: Windows,
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub refreshes: u64,
    /// Self-check only: corrupt every answer before it is checked.
    pub perturb: bool,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl<'a> Panels<'a> {
    pub fn new(
        env: &'a Env,
        fleet: &'a Fleet,
        reference: &'a Reference,
        win: Windows,
        traced: bool,
        epoch: Instant,
    ) -> Panels<'a> {
        Panels {
            env,
            fleet,
            reference,
            table: env.db.table(TABLE).expect("table exists"),
            wire: Wire::connect(env.addr()),
            tr: Tracer::new(traced, epoch),
            win,
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            refreshes: 0,
            perturb: false,
        }
    }

    fn outcome(&mut self, panel: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("{panel} panel: answer differs from the reference");
            }
        }
    }

    /// One refresh of `network`; `slot` is its position in the round.
    /// Returns the refresh wall time in ms (panel checks excluded).
    pub fn refresh(&mut self, network: i64, hist_device: i64, slot: usize) -> f64 {
        let subject = summary_subject(slot);
        let traced = self.tr.on;
        // Odd refreshes of the traced run call the engine in-process
        // instead of over the wire, so the engine's share can be timed.
        let direct = traced && self.refreshes % 2 == 1;
        let req_id = self.refreshes;
        self.refreshes += 1;
        let hi = self.fleet.end;
        let root = self.tr.begin("client.refresh", NONE, req_id);
        let mut refresh_ms = 0.0;

        // status
        let span = self.tr.begin("panel.status", root, req_id);
        let t = Instant::now();
        let mut latest = self.status(network, direct, span, req_id);
        let d = ms(t);
        if self.perturb {
            match &mut latest[1] {
                Some(r) => bump(r, 3),
                none => *none = Some(Vec::new()),
            }
        }
        self.tr.end(span, 1);
        refresh_ms += d;
        self.samples.status_ms.push(d);
        let ok = latest.len() == self.fleet.devices as usize
            && latest
                .iter()
                .enumerate()
                .all(|(dev, got)| fleet::latest_matches(self.fleet, network, dev as i64, got));
        self.outcome("status", ok);

        // usage
        let lo = usage_lo(&self.win, hi);
        let sql = usage_sql(network, lo, hi);
        let span = self.tr.begin("panel.usage", root, req_id);
        let t = Instant::now();
        let mut rows = self.sql(&sql, span, req_id);
        let d = ms(t);
        self.tr.end(span, 1);
        refresh_ms += d;
        self.samples.usage_ms.push(d);
        if self.perturb {
            perturb_rows(&mut rows, 2);
        }
        if traced && req_id.is_multiple_of(4) {
            self.pushdown(network, lo, hi, root, req_id);
        }
        let ok = rows.is_some_and(|mut rows| {
            rows.sort_by_key(|r| {
                [0, 1].map(|c| match r.get(c) {
                    Some(Value::Timestamp(t)) | Some(Value::I64(t)) => *t,
                    _ => i64::MIN,
                })
            });
            fleet::usage_matches(&rows, &self.reference.usage[network as usize])
        });
        self.outcome("usage", ok);

        // history
        let h_lo = hi - self.win.history;
        let span = self.tr.begin("panel.history", root, req_id);
        let t = Instant::now();
        let mut rows = self.history(network, hist_device, h_lo, hi, direct, span, req_id);
        let d = ms(t);
        if self.perturb {
            let mut r = Some(rows);
            perturb_rows(&mut r, 3);
            rows = r.unwrap_or_default();
        }
        self.tr.end(span, rows.len() as u64);
        refresh_ms += d;
        self.samples.history_ms.push(d);
        self.samples.history_rows += rows.len() as u64;
        let want = self.fleet.sample_times(hist_device, h_lo, hi);
        let ok = fleet::history_matches(self.fleet, network, hist_device, &rows, &want);
        self.outcome("history", ok);

        // summary
        let s_lo = hi - self.win.summary;
        let sql = summary_sql(network, SUMMARY_SUBJECTS[subject], s_lo, hi);
        let span = self.tr.begin("panel.summary", root, req_id);
        let t = Instant::now();
        let mut rows = self.sql(&sql, span, req_id);
        let d = ms(t);
        self.tr.end(span, 1);
        refresh_ms += d;
        self.samples.summary_ms.push(d);
        if self.perturb {
            perturb_rows(&mut rows, 0);
        }
        let want = self.reference.summary[network as usize][subject];
        let ok = rows.is_some_and(|rows| fleet::summary_matches(&rows, want));
        self.outcome("summary", ok);

        self.tr.end(root, 1);
        self.samples.refresh_ms.push(refresh_ms);
        refresh_ms
    }

    fn status(
        &mut self,
        network: i64,
        direct: bool,
        parent: usize,
        req: u64,
    ) -> Vec<Option<Vec<Value>>> {
        let n = self.fleet.devices;
        if direct {
            return (0..n)
                .map(|d| {
                    let span = self.tr.begin("core.latest", parent, req);
                    let r = self.table.latest(&[Value::I64(network), Value::I64(d)]);
                    self.tr.end(span, 1);
                    r.ok().flatten().map(|r| r.values)
                })
                .collect();
        }
        let span = self.tr.begin("client.latest_wire", parent, req);
        let frames: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|d| {
                self.wire.encode(&Request::Latest {
                    table: TABLE.into(),
                    prefix: vec![Value::I64(network), Value::I64(d)],
                })
            })
            .collect();
        let bodies: Vec<Vec<u8>> = frames.iter().map(|(_, f)| f.clone()).collect();
        self.wire.send_frames(&bodies);
        let out = frames
            .iter()
            .map(|(id, _)| {
                let (got, resp) = self.wire.recv();
                match resp {
                    Response::LatestRow { row } if got == *id => row,
                    _ => Some(Vec::new()),
                }
            })
            .collect();
        self.tr.end(span, n as u64);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn history(
        &mut self,
        network: i64,
        device: i64,
        lo: i64,
        hi: i64,
        direct: bool,
        parent: usize,
        req: u64,
    ) -> Vec<Vec<Value>> {
        let base = Query::all()
            .with_prefix(vec![Value::I64(network), Value::I64(device)])
            .with_ts_range(lo, hi)
            .with_limit(PAGE);
        let mut q = base.clone();
        let mut out: Vec<Vec<Value>> = Vec::new();
        loop {
            let (rows, more) = if direct {
                let span = self.tr.begin("core.query", parent, req);
                let mut rows = Vec::new();
                let mut more = false;
                if let Ok(mut cur) = self.table.query(&q) {
                    while let Ok(Some(r)) = cur.next_row() {
                        rows.push(r.values);
                    }
                    more = cur.more_available();
                }
                self.tr.end(span, rows.len() as u64);
                (rows, more)
            } else {
                let span = self.tr.begin("client.query_wire", parent, req);
                let resp = self.wire.call(&Request::Query {
                    table: TABLE.into(),
                    query: q.clone(),
                });
                self.tr.end(span, 1);
                match resp {
                    Response::Rows {
                        rows,
                        more_available,
                    } => {
                        if self.tr.on {
                            let resp = Response::Rows {
                                rows,
                                more_available,
                            };
                            let span = self.tr.begin("proto.encode_rows", parent, req);
                            let frame = encode_response_frame(req, &resp);
                            let Response::Rows { rows, .. } = resp else {
                                unreachable!()
                            };
                            self.tr.end(span, rows.len() as u64);
                            std::hint::black_box(frame.len());
                            (rows, more_available)
                        } else {
                            (rows, more_available)
                        }
                    }
                    _ => return Vec::new(),
                }
            };
            let full = rows.len() == PAGE;
            out.extend(rows);
            if !more && !full {
                return out;
            }
            let Some(last) = out.last() else {
                return out;
            };
            q = base.clone().with_key_min(last[..3].to_vec(), false);
        }
    }

    /// Parses, plans and runs one statement; in the traced run parse
    /// and plan are also timed on their own, outside `Session::execute`.
    fn sql(&mut self, sql: &str, parent: usize, req: u64) -> Option<Vec<Vec<Value>>> {
        if self.tr.on {
            let span = self.tr.begin("sql.parse", parent, req);
            let stmt = parse(sql);
            self.tr.end(span, 1);
            if let Ok(Statement::Select(sel)) = stmt {
                let schema = self.table.schema();
                let span = self.tr.begin("sql.plan", parent, req);
                let plan = plan_select(&sel, &schema, self.env.db.now());
                self.tr.end(span, 1);
                std::hint::black_box(plan.is_ok());
            }
        }
        let span = self.tr.begin("sql.execute", parent, req);
        let out = self.env.session.execute(sql);
        self.tr.end(span, 1);
        match out {
            Ok(SqlOutput::Rows { rows, .. }) => Some(rows),
            _ => None,
        }
    }

    /// Traced run only: the usage panel's base-table box through
    /// `Table::pushdown_scan`, timed per row scanned.
    fn pushdown(&mut self, network: i64, lo: i64, hi: i64, parent: usize, req: u64) {
        let pr = PushdownRequest {
            query: Query::all()
                .with_prefix(vec![Value::I64(network)])
                .with_ts_range(lo, hi),
            predicates: Vec::new(),
            stats_cols: None,
        };
        let mut rows = 0u64;
        let span = self.tr.begin("core.pushdown", parent, req);
        let r = self.table.pushdown_scan(&pr, &mut |u| {
            rows += match u {
                ScanUnit::Stats { rows, .. } => rows,
                ScanUnit::Block { block, .. } => block.len() as u64,
                ScanUnit::Rows(r) => r.len() as u64,
            };
            Ok(())
        });
        self.tr.end(span, rows);
        std::hint::black_box(r.is_ok());
    }
}

/// Adds one to an integer cell, or replaces any other cell by `I64(0)`.
fn bump(row: &mut [Value], col: usize) {
    if let Some(v) = row.get_mut(col) {
        *v = match v {
            Value::I64(x) => Value::I64(*x + 1),
            _ => Value::I64(0),
        };
    }
}

/// Corrupts an answer: bumps a cell of its first row, or invents a row
/// when there is none.
fn perturb_rows(rows: &mut Option<Vec<Vec<Value>>>, col: usize) {
    match rows.as_mut().and_then(|r| r.first_mut()) {
        Some(first) => bump(first, col),
        None => *rows = Some(vec![vec![Value::I64(1); col + 1]]),
    }
}

/// Feeds the oracle the program's real answers, then the same answers
/// perturbed: every honest panel but the known empty-window summary
/// must pass, and every perturbed one must be counted as failed.
pub fn self_check() -> bool {
    let f = crate::dashboard::fleet(7, true);
    let win = crate::dashboard::WINDOWS;
    let env = crate::dashboard::setup(&f);
    let reference = Reference::new(&f, &win);
    let mut p = Panels::new(&env, &f, &reference, win, false, Instant::now());
    for slot in 0..ROUND {
        p.refresh(slot as i64 % f.networks, 1 + slot as i64, slot);
    }
    let honest = (p.attempted, p.failed);
    p.perturb = true;
    for slot in 0..ROUND {
        p.refresh(slot as i64 % f.networks, 1 + slot as i64, slot);
    }
    let perturbed = (p.attempted - honest.0, p.failed - honest.1);
    let ok = honest.1 <= 1 && perturbed.0 == perturbed.1;
    println!(
        "self-check: honest answers {}/{} failed (the empty-window summary may), \
         perturbed answers {}/{} failed: {}",
        honest.1,
        honest.0,
        perturbed.1,
        perturbed.0,
        if ok { "ok" } else { "ORACLE DID NOT REJECT" }
    );
    ok
}
