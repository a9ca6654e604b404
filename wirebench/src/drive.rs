//! The timed window: one closed-loop wire reader, plus (for `annotate`)
//! one in-process writer the reader paces, and — in the traced run — the
//! in-process replay of every read through the server's layers.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instn_annot::Attachment;
use instn_core::instance::InstanceKind;
use instn_index::PointerMode;
use instn_mining::nb::NaiveBayes;
use instn_query::exec::OpMetrics;
use instn_query::{Session, SharedDatabase};
use instn_serve::{Response, WireRow};
use instn_sql::{parse, plan_select, refresh_statistics, PlanSource, SelectStmt, Statement};
use instn_storage::io::IoStats;

use crate::setup::Env;
use crate::trace::{Acc, Tracer};
use crate::workload::{
    question_eq, statement, Req, Stream, Workload, Write, WriteStream, READS_PER_WRITE,
};

/// IoStats stripe the writer thread pins, so its page and WAL traffic can
/// be told apart from the reader's (Exchange workers take the stripes from
/// 0 up and the coordinator the last one).
const WRITER_STRIPE: usize = instn_storage::io::PIN_STRIPES - 2;
/// Snippet budget of TextSummary1 (paper: ≤ 400 chars).
const SNIPPET_CHARS: usize = 400;
/// Texts at least this long get a snippet (TextSummary1's threshold).
const SNIPPET_MIN_CHARS: usize = 1_000;

/// Per-layer accumulators of the traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub roundtrip_us: Acc,
    pub overhead_us: Acc,
    pub encode_us: Acc,
    pub payload_bytes: Acc,
    pub parse_us: Acc,
    pub plan_us: Acc,
    pub plan_hits: u64,
    pub optimize_us: Acc,
    pub stats_refresh_us: Acc,
    pub stats_rescans: u64,
    pub execute_us: Acc,
    pub leaf_rows: u64,
    pub rows_returned: u64,
    pub index_refresh_us: Acc,
    pub deltas_applied: u64,
    pub indexes_replayed: u64,
    pub rebuilds: u64,
    pub read_lock_wait_us: Acc,
    pub page_reads: u64,
    pub replays: u64,
    // Writer side.
    pub add_annotation_us: Acc,
    pub write_lock_wait_us: Acc,
    pub classify_us: Acc,
    pub snippet_us: Acc,
    pub page_writes: u64,
    pub wal_bytes: u64,
    pub writes: u64,
}

/// What the writer thread measured.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Latency from each write's issue to its completion.
    pub latency_ms: Vec<f64>,
    /// How late each write was issued relative to its schedule.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Writes the reader scheduled; the writer must attempt each.
    pub scheduled: u64,
    pub layers: Layers,
    pub spans: Vec<crate::trace::Span>,
}

/// Payload variants seen for one request, with counts.
pub type Seen = Vec<(Vec<u8>, u64)>;

/// What one window measured.
#[derive(Debug, Default)]
pub struct WindowOut {
    pub read_latency_ms: Vec<f64>,
    pub read_failed: u64,
    pub window_s: f64,
    /// Distinct requests, with every distinct payload answered for each
    /// (kept only while nothing writes, so repeats must agree).
    pub seen: BTreeMap<Req, Seen>,
    pub writer: WriterOut,
    pub layers: Layers,
    pub spans: Vec<crate::trace::Span>,
}

/// The in-process twin of the server's connection session, used by the
/// traced run to replay each read layer by layer.
pub struct Replay {
    session: Session,
    prepared: Vec<SelectStmt>,
    stats: Arc<IoStats>,
}

fn parse_select(sql: &str) -> Result<SelectStmt, String> {
    match parse(sql.trim()) {
        Ok(Statement::Select(sel)) => Ok(sel),
        Ok(_) => Err(format!("not a SELECT: {sql}")),
        Err(e) => Err(e.to_string()),
    }
}

impl Replay {
    /// A session set up like the server's: same DOP, plan cache on, the
    /// same Summary-BTree registered, every prepared statement planned.
    pub fn new(env: &Env, workload: Workload) -> Result<Replay, String> {
        let mut session = env.shared.session();
        session.exec_config.dop = crate::setup::DOP;
        session.plan_cache.set_enabled(true);
        if workload.indexed() {
            session
                .register_summary_index(
                    "ClassBird2",
                    env.birds,
                    "ClassBird2",
                    PointerMode::Backward,
                )
                .map_err(|e| e.to_string())?;
        }
        let prepared = env
            .lits
            .ks
            .iter()
            .map(|&k| parse_select(&question_eq(k)))
            .collect::<Result<Vec<_>, _>>()?;
        for sel in &prepared {
            plan_select(&mut session, sel).map_err(|e| e.to_string())?;
        }
        if prepared.is_empty() {
            // Pay the session's first full ANALYZE outside the window.
            let sel = parse_select("SELECT id FROM Birds r WHERE r.id = 0")?;
            plan_select(&mut session, &sel).map_err(|e| e.to_string())?;
        }
        let stats = Arc::clone(env.shared.read().stats());
        Ok(Replay {
            session,
            prepared,
            stats,
        })
    }

    /// Replay one read: parse → lock → statistics → `plan_select` →
    /// `refresh_stale_indexes` → `execute_with_metrics` → encode. Returns
    /// the in-process time the server's path would also spend (µs).
    fn run(
        &mut self,
        req: &Req,
        shared: &SharedDatabase,
        tracer: &mut Tracer,
        rid: u64,
        parent: u64,
        l: &mut Layers,
    ) -> Result<f64, String> {
        let mut in_process = 0.0;
        let span = |tracer: &mut Tracer, name, acc: &mut Acc, t0: Instant, t1: Instant| {
            tracer.record(name, rid, Some(parent), t0, t1);
            acc.add_us(t0, t1);
            t1.saturating_duration_since(t0).as_secs_f64() * 1e6
        };
        let sel = match req {
            Req::Text(sql) => {
                let t0 = Instant::now();
                let parsed = parse(sql.trim());
                let t1 = Instant::now();
                in_process += span(tracer, "sql.parse", &mut l.parse_us, t0, t1);
                match parsed {
                    Ok(Statement::Select(sel)) => sel,
                    _ => return Err(format!("replay parse failed: {sql}")),
                }
            }
            Req::Prepared(i) => self.prepared[*i].clone(),
        };

        let t0 = Instant::now();
        drop(shared.try_read().map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        in_process += span(
            tracer,
            "core.read_lock_wait",
            &mut l.read_lock_wait_us,
            t0,
            t1,
        );

        // Statistics are caught up explicitly so their cost is timed on
        // its own; `plan_select` then finds them current.
        let t0 = Instant::now();
        let rescanned = {
            let db = shared.try_read().map_err(|e| e.to_string())?;
            refresh_statistics(&mut self.session, &db)
                .map_err(|e| e.to_string())?
                .1
        };
        let t1 = Instant::now();
        let stats_us = span(tracer, "opt.stats_refresh", &mut l.stats_refresh_us, t0, t1);
        l.stats_rescans += rescanned as u64;

        let t0 = Instant::now();
        let planned = plan_select(&mut self.session, &sel).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        in_process += span(tracer, "sql.plan", &mut l.plan_us, t0, t1);
        if planned.source == PlanSource::CacheHit {
            l.plan_hits += 1;
        } else {
            // The server catches statistics up inside `plan_select` only
            // when it plans.
            in_process += stats_us;
            l.optimize_us.add_us(t0, t1);
        }

        let io0 = self.stats.snapshot();
        let w0 = self.stats.worker_snapshot(WRITER_STRIPE);
        let t0 = Instant::now();
        let report = self
            .session
            .try_with_ctx(|ctx| {
                ctx.refresh_stale_indexes()
                    .map(|_| ctx.maintenance_report())
            })
            .and_then(|r| r)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        in_process += span(tracer, "index.refresh", &mut l.index_refresh_us, t0, t1);
        l.deltas_applied += report.deltas_applied;
        l.indexes_replayed += report.indexes_replayed;
        l.rebuilds += report.indexes_rebuilt + report.forced_rebuilds;

        let t0 = Instant::now();
        let (rows, metrics) = self
            .session
            .execute_with_metrics(&planned.plan.plan)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        in_process += span(tracer, "query.execute", &mut l.execute_us, t0, t1);
        let io = self.stats.snapshot().since(&io0);
        let w = self.stats.worker_snapshot(WRITER_STRIPE).since(&w0);
        l.page_reads += io.reads().saturating_sub(w.reads());
        l.leaf_rows += leaf_rows(&metrics);
        l.rows_returned += rows.len() as u64;

        let t0 = Instant::now();
        let payload = Response::Rows {
            columns: planned.plan.columns.clone(),
            rows: rows.iter().map(WireRow::from_tuple).collect(),
        }
        .encode();
        let t1 = Instant::now();
        std::hint::black_box(payload.len());
        in_process += span(tracer, "serve.encode", &mut l.encode_us, t0, t1);
        l.replays += 1;
        Ok(in_process)
    }
}

/// Rows produced by the plan's leaves (what the executor examined).
fn leaf_rows(m: &OpMetrics) -> u64 {
    if m.children.is_empty() {
        m.rows
    } else {
        m.children.iter().map(leaf_rows).sum()
    }
}

/// The trained classifiers a write runs through (ClassBird2 only where
/// it is linked).
pub fn classifiers(workload: Workload) -> Vec<NaiveBayes> {
    let mut kinds = vec![instn_bench::workloads::classbird1_kind(
        crate::setup::CORPUS_SEED,
    )];
    if workload.indexed() {
        kinds.push(instn_bench::workloads::classbird2_kind(
            crate::setup::MODEL_SEED,
        ));
    }
    kinds
        .into_iter()
        .filter_map(|k| match k {
            InstanceKind::Classifier { model } => Some(model),
            _ => None,
        })
        .collect()
}

/// How the writer paces its annotations.
pub enum Pace<'a> {
    /// Back to back, each write timed from its issue.
    Closed(&'a [Write]),
    /// One write per due time the reader sends, taken from the stream. Its
    /// lag, from the due time to its issue, is recorded; the write itself
    /// is timed from its issue, so it holds the write-lock wait but not the
    /// writer thread's wake-up, which follows where the scheduler placed
    /// the thread (two modes 50 % apart on a 2-vCPU host). The writer
    /// stops when the reader hangs up and the queue is drained.
    Reads(&'a mut WriteStream, Receiver<Instant>),
}

/// The writer. `traced` carries the classifiers to time beside each
/// write.
pub fn run_writer(
    env_shared: &SharedDatabase,
    birds: instn_storage::TableId,
    oids: &[instn_storage::Oid],
    mut pace: Pace,
    start: Instant,
    traced: Option<&[NaiveBayes]>,
) -> WriterOut {
    let _pin = IoStats::pin_worker(WRITER_STRIPE);
    let stats = Arc::clone(env_shared.read().stats());
    let mut out = WriterOut::default();
    let mut tracer = Tracer::new(start, 1 << 40);
    for i in 0.. {
        let (due, w) = match &mut pace {
            Pace::Closed(writes) => match writes.get(i) {
                Some(w) => (None, w.clone()),
                None => break,
            },
            Pace::Reads(stream, due) => {
                stream.prepare();
                match due.recv() {
                    Ok(due) => (Some(due), stream.next_write()),
                    Err(_) => break,
                }
            }
        };
        let w = &w;
        let issued = Instant::now();
        if let Some(due) = due {
            out.lag_ms
                .push(issued.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        out.attempted += 1;
        let attach = vec![Attachment::row(oids[w.bird])];
        let ok = match traced {
            None => env_shared
                .with_write(|db| db.add_annotation(birds, &w.text, w.category, "wirebench", attach))
                .is_ok(),
            Some(models) => {
                let rid = (1 << 40) + i as u64;
                let root = tracer.open();
                let t0 = Instant::now();
                let Ok(mut db) = env_shared.try_write() else {
                    out.failed += 1;
                    continue;
                };
                let t1 = Instant::now();
                let l = &mut out.layers;
                l.write_lock_wait_us.add_us(t0, t1);
                tracer.record("core.write_lock_wait", rid, Some(root), t0, t1);
                let w0 = stats.worker_snapshot(WRITER_STRIPE);
                let t2 = Instant::now();
                let res = db.add_annotation(birds, &w.text, w.category, "wirebench", attach);
                let t3 = Instant::now();
                let io = stats.worker_snapshot(WRITER_STRIPE).since(&w0);
                drop(db);
                l.add_annotation_us.add_us(t2, t3);
                tracer.record("core.add_annotation", rid, Some(root), t2, t3);
                l.page_writes += io.writes();
                l.wal_bytes += io.wal_bytes;
                l.writes += 1;
                let done = Instant::now();
                out.latency_ms
                    .push(done.saturating_duration_since(issued).as_secs_f64() * 1e3);
                // Side measurements, after the write completed so they do
                // not delay it.
                for m in models {
                    let c0 = Instant::now();
                    std::hint::black_box(m.classify(&w.text));
                    let c1 = Instant::now();
                    l.classify_us.add_us(c0, c1);
                    tracer.record("mining.classify", rid, Some(root), c0, c1);
                }
                if w.text.chars().count() >= SNIPPET_MIN_CHARS {
                    let s0 = Instant::now();
                    std::hint::black_box(instn_mining::lsa::snippet(&w.text, SNIPPET_CHARS));
                    let s1 = Instant::now();
                    l.snippet_us.add_us(s0, s1);
                    tracer.record("mining.snippet", rid, Some(root), s0, s1);
                }
                tracer.close(root, "write", rid, None, issued, Instant::now());
                if res.is_err() {
                    out.failed += 1;
                }
                continue;
            }
        };
        out.latency_ms.push(
            Instant::now()
                .saturating_duration_since(issued)
                .as_secs_f64()
                * 1e3,
        );
        if !ok {
            out.failed += 1;
        }
    }
    out.spans = tracer.spans;
    out
}

/// Send one request and return the raw payload plus whether it decoded
/// to a row set — the client-observed part of a read.
fn send(env: &mut Env, req: &Req) -> (Vec<u8>, bool) {
    let raw = match req {
        Req::Text(s) => env.client.query_raw(s, Duration::ZERO),
        Req::Prepared(i) => env
            .client
            .execute_prepared_raw(env.handles[*i], Duration::ZERO),
    };
    match raw {
        Ok(raw) => {
            let ok = matches!(Response::decode(&raw), Ok(Response::Rows { .. }));
            (raw, ok)
        }
        Err(_) => (Vec::new(), false),
    }
}

/// Run one timed window on a set-up environment, sending the next
/// requests of `stream`. With `writes`, a writer thread takes one
/// annotation from it per `READS_PER_WRITE` completed reads.
pub fn run_window(
    env: &mut Env,
    workload: Workload,
    stream: &mut Stream,
    window: Duration,
    writes: Option<&mut WriteStream>,
    mut replay: Option<(&mut Replay, &[NaiveBayes])>,
) -> Result<WindowOut, String> {
    let mut out = WindowOut::default();
    let start = Instant::now();
    let end = start + window;
    let shared = env.shared.clone();
    let birds = env.birds;
    let oids = env.bird_oids.clone();
    let models = replay.as_ref().map(|(_, m)| *m);
    let mut tracer = Tracer::new(start, 0);
    let mut err = None;
    std::thread::scope(|scope| {
        let (shared, oids) = (&shared, &oids);
        let mut due_tx = None;
        let writer = writes.map(|ws| {
            let (tx, rx) = mpsc::channel();
            due_tx = Some(tx);
            scope.spawn(move || run_writer(shared, birds, oids, Pace::Reads(ws, rx), start, models))
        });
        let mut rid = 0u64;
        while Instant::now() < end {
            let req = stream.next_req();
            rid += 1;
            let t0 = Instant::now();
            let (raw, ok) = send(env, &req);
            let t1 = Instant::now();
            out.read_latency_ms
                .push(t1.saturating_duration_since(t0).as_secs_f64() * 1e3);
            if !ok {
                out.read_failed += 1;
            }
            if let Some(tx) = &due_tx {
                if rid.is_multiple_of(READS_PER_WRITE) && tx.send(t1).is_ok() {
                    out.writer.scheduled += 1;
                }
            }
            let raw_len = raw.len();
            let seen = out.seen.entry(req.clone()).or_default();
            if !workload.writes() {
                match seen.iter_mut().find(|(p, _)| *p == raw) {
                    Some((_, n)) => *n += 1,
                    None => seen.push((raw, 1)),
                }
            }
            if let Some((rp, _)) = replay.as_mut() {
                let root = tracer.open();
                tracer.record("serve.roundtrip", rid, Some(root), t0, t1);
                let l = &mut out.layers;
                l.roundtrip_us.add_us(t0, t1);
                l.payload_bytes.add(raw_len as f64);
                let r0 = Instant::now();
                let replay_id = tracer.open();
                match rp.run(&req, shared, &mut tracer, rid, replay_id, l) {
                    Ok(in_process_us) => {
                        let rt = t1.saturating_duration_since(t0).as_secs_f64() * 1e6;
                        l.overhead_us.add(rt - in_process_us);
                    }
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
                let r1 = Instant::now();
                tracer.close(replay_id, "replay", rid, Some(root), r0, r1);
                tracer.close(root, "request", rid, None, t0, r1);
            }
        }
        out.window_s = start.elapsed().as_secs_f64();
        drop(due_tx);
        if let Some(h) = writer {
            let scheduled = out.writer.scheduled;
            out.writer = h.join().expect("writer thread panicked");
            out.writer.scheduled = scheduled;
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    out.spans = tracer.spans;
    Ok(out)
}

/// The statement text of every distinct request a window sent.
pub fn distinct_statements(out: &WindowOut, ks: &[u64]) -> Vec<(Req, String)> {
    out.seen
        .keys()
        .map(|r| (r.clone(), statement(r, ks)))
        .collect()
}
