//! The system under test: `littletable-server` over `littletable-core`
//! on `SimVfs`, in this process, with a virtual engine clock that only
//! the load generator moves.

use crate::report::q;
use littletable_core::{Db, Options};
use littletable_server::{Server, ServerConfig};
use littletable_sql::Session;
use littletable_vfs::{DiskParams, SimClock, SimVfs};
use std::sync::{Arc, Mutex};

/// A fixed virtual start instant (a Monday 00:00 UTC), so time periods,
/// rollup buckets and TTL horizons fall on the same rows in every run.
pub const EPOCH: i64 = 1_700_438_400_000_000;

/// Engine clock advanced by the generator in step with the data
/// timestamps, never backwards even with several senders.
pub struct Monotonic {
    clock: SimClock,
    max: Mutex<i64>,
}

impl Monotonic {
    pub fn new(clock: SimClock, start: i64) -> Monotonic {
        Monotonic {
            clock,
            max: Mutex::new(start),
        }
    }

    pub fn advance_to(&self, ts: i64) {
        let mut m = self.max.lock().expect("clock mutex poisoned");
        if ts > *m {
            self.clock.set(ts);
            *m = ts;
        }
    }
}

pub struct Env {
    pub vfs: SimVfs,
    pub clock: Arc<Monotonic>,
    pub db: Db,
    pub server: Server,
    pub session: Session,
    pub opts: Options,
    pub cfg: ServerConfig,
}

impl Env {
    /// Opens the engine (disk model on its own clock) and starts the
    /// server on an ephemeral loopback port.
    pub fn start(opts: Options, cfg: ServerConfig, start: i64) -> Env {
        let clock = SimClock::new(start);
        let vfs = SimVfs::new(DiskParams::paper_disk(), SimClock::new(start));
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts.clone())
            .expect("open engine on SimVfs");
        let mut server =
            Server::bind_with(db.clone(), "127.0.0.1:0", cfg.clone()).expect("bind loopback");
        server.start().expect("start server");
        Env {
            vfs,
            clock: Arc::new(Monotonic::new(clock, start)),
            session: Session::new(db.clone()),
            db,
            server,
            opts,
            cfg,
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The engine options and server configuration in effect, as JSON.
    pub fn config_json(&self) -> String {
        let o = &self.opts;
        let c = &self.cfg;
        format!(
            "{{\"options\": {{\"flush_size\": {}, \"flush_age_us\": {}, \"block_size\": {}, \
             \"max_tablet_size\": {}, \"merge_delay_us\": {}, \"merge_enabled\": {}, \
             \"respect_periods\": {}, \"bloom_filters\": {}, \"uniqueness_fast_paths\": {}, \
             \"server_row_limit\": {}, \"max_sealed_backlog\": {}, \"background\": {}, \
             \"block_cache_bytes\": {}, \"compressed_cache_fraction\": {}, \
             \"adaptive_cache_split\": {}, \"block_format\": {}, \"result_cache_fraction\": {}}}, \
             \"server\": {{\"workers\": {}, \"group_commit_rows\": {}, \
             \"group_commit_interval_ms\": {}, \"commit_shards\": {}, \"max_conn_buffer\": {}}}, \
             \"flush_policy\": {}}}",
            o.flush_size,
            o.flush_age,
            o.block_size,
            o.max_tablet_size,
            o.merge_delay,
            o.merge_enabled,
            o.respect_periods,
            o.bloom_filters,
            o.uniqueness_fast_paths,
            o.server_row_limit,
            o.max_sealed_backlog,
            o.background,
            o.block_cache_bytes,
            o.compressed_cache_fraction,
            o.adaptive_cache_split,
            q(&format!("{:?}", o.block_format)),
            o.result_cache_fraction,
            c.workers,
            c.group_commit_rows,
            c.group_commit_interval_ms,
            c.commit_shards,
            c.max_conn_buffer,
            q(&format!(
                "group commit: a maintenance pass per table once {} rows are dirty or {} ms \
                 after the first dirty row; a memtable seals at {} bytes or {} virtual s \
                 after its first insert",
                c.group_commit_rows,
                c.group_commit_interval_ms,
                o.flush_size,
                o.flush_age / 1_000_000
            )),
        )
    }

    /// Stops the server (its committers run one last pass and every
    /// thread is joined), then flushes and merges to quiescence.
    pub fn quiesce(&mut self) {
        self.server.shutdown();
        self.db.flush_all().expect("final flush");
        self.db
            .maintain_until_quiescent()
            .expect("final maintenance");
    }
}
