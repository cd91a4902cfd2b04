//! Spans around the benchmark's calls into each layer, and per-thread
//! CPU accounting from `/proc/self/task/*/schedstat`.
//!
//! A [`Tracer`] belongs to one load thread and keeps its spans in
//! memory; nothing is written until the run ends. With tracing off,
//! [`Tracer::begin`] returns at once without reading the clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel id of the span that does not exist (tracing off, or root).
pub const NONE: usize = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
    /// Work units (rows, requests) the call handled, for per-unit costs.
    pub units: u64,
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            units: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize, units: u64) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.units = units;
    }
}

/// Per-span-name totals: calls, units, total and self nanoseconds.
#[derive(Default, Clone, Debug)]
pub struct LayerRow {
    pub calls: u64,
    pub units: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds every thread's spans into a per-name table. A span's self
/// time is its duration minus the time its child spans cover (children
/// of one span never overlap: each tracer belongs to one thread).
pub fn layer_table(threads: &[Vec<Span>]) -> BTreeMap<&'static str, LayerRow> {
    let mut out: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let r = out.entry(s.name).or_default();
            r.calls += 1;
            r.units += s.units;
            r.total_ns += d;
            r.self_ns += d.saturating_sub(child_ns[i]);
        }
    }
    out
}

/// On-CPU and run-queue nanoseconds of one thread.
#[derive(Default, Clone, Copy, Debug)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

fn parse_schedstat(s: &str) -> Option<Sched> {
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some(Sched {
        cpu_ns: it.next()??,
        wait_ns: it.next()??,
    })
}

/// The calling thread's schedstat.
pub fn thread_sched() -> Sched {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or_default()
}

/// Every live thread of this process: `(tid, name, schedstat)`.
pub fn process_threads() -> Vec<(u64, String, Sched)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|t| t.parse::<u64>().ok()) else {
            continue;
        };
        let p = e.path();
        let name = std::fs::read_to_string(p.join("comm")).unwrap_or_default();
        let sched = std::fs::read_to_string(p.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .unwrap_or_default();
        out.push((tid, name.trim().to_string(), sched));
    }
    out
}

/// Thread-group name: `lt-ingest-3` → `lt-ingest`.
pub fn group_of(name: &str) -> String {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('-')
        .to_string()
}

/// CPU and wait per thread group between two [`process_threads`]
/// snapshots, over threads alive at both.
pub fn group_delta(
    before: &[(u64, String, Sched)],
    after: &[(u64, String, Sched)],
) -> BTreeMap<String, Sched> {
    let mut out: BTreeMap<String, Sched> = BTreeMap::new();
    for (tid, name, s1) in after {
        if let Some((_, _, s0)) = before.iter().find(|(t, _, _)| t == tid) {
            let g = out.entry(group_of(name)).or_default();
            g.cpu_ns += s1.cpu_ns.saturating_sub(s0.cpu_ns);
            g.wait_ns += s1.wait_ns.saturating_sub(s0.wait_ns);
        }
    }
    out
}
