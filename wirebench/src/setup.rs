//! Set-up: seeded corpus, loopback server, one connection, indexes,
//! prepared handles and warm-up — everything `setup_s` times.

use std::time::{Duration, Instant};

use instn_bench::workloads::{build_db, instance_registry, BenchConfig};
use instn_opt::Statistics;
use instn_query::exec::default_dop;
use instn_query::SharedDatabase;
use instn_serve::{Client, Response, ServeConfig, Server, ServerHandle};
use instn_storage::{Oid, TableId};

use crate::workload::{question_eq, Literals, Workload};

/// Corpus scale: 45 000 / 20 = 2 250 Birds, 11 250 Synonyms.
pub const SCALE_DOWN: usize = 20;
/// Mean annotations per Birds tuple (about 67 K in all).
pub const ANNOTS_PER_TUPLE: usize = 30;
/// Most Birds an indexed probe value may match in the set-up statistics:
/// each probe returns a few rows (8, 4 and 3 on the fixed corpus), so
/// parsing, planning, dispatch and the socket weigh most. At 30 rows
/// execution (two to three physical page reads a row through the
/// capacity-0 pool) dominated, and the probes' latency swung with the
/// host's load about twice as much.
pub const PROBE_MAX_ROWS: f64 = 10.0;
/// Probe values: the most common ones under the cap.
pub const PROBE_VALUES: usize = 3;
/// Selectivities of the scan's summary filter `Disease > t`.
pub const FILTER_SELECTIVITY: [f64; 5] = [0.9, 0.7, 0.5, 0.3, 0.1];
/// Selectivities, on Birds, of the scan join's `Disease > t`.
pub const JOIN_SELECTIVITY: [f64; 3] = [0.02, 0.05, 0.1];
/// Seed of the corpus (`build_db`'s default, the repository's figure
/// corpus). It is fixed rather than drawn from `--seed`: how many Birds a
/// Summary-BTree probe value matches differs from corpus to corpus by up
/// to 3×, and with it the probe workload's latency by 40 %, which would
/// drown a change of the program in the spread between seeds. `--seed`
/// drives the request streams and the writer's annotations.
pub const CORPUS_SEED: u64 = 2015;
/// Training seed of the instance catalog `ALTER TABLE … ADD` links from
/// (ClassBird2): the model is a fixed setting, the annotations it
/// classifies come from `--seed`.
pub const MODEL_SEED: u64 = 2015;
/// The DDL `annotate` runs over the wire during set-up.
pub const ADD_INDEX: &str = "ALTER TABLE Birds ADD INDEXABLE ClassBird2";

/// The fixed settings every run uses (printed beside the metrics).
pub fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.exec_config.dop = DOP;
    config.plan_cache = true;
    assert!(
        config.query_stall.is_zero() && config.exec_config.io_stall.is_zero(),
        "no simulated stall may be set"
    );
    config
}

/// The machine's core count, which is the DOP the server binary picks:
/// `default_dop()` with no `INSTN_DOP` override.
pub fn nproc() -> usize {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert_eq!(default_dop(), nproc, "INSTN_DOP must be unset");
    nproc
}

/// The server's DOP, on every workload. At the binary's default, `nproc`,
/// each request's Exchange spawns worker threads, and on a host of a few
/// shared cores the latency then follows where the scheduler places them
/// rather than the program: a probe piece's median moved by up to 60 %
/// within one run, and scan pieces fell into two modes 60 % apart.
pub const DOP: usize = 1;

/// A running workload environment.
pub struct Env {
    pub shared: SharedDatabase,
    pub server: ServerHandle,
    pub client: Client,
    pub birds: TableId,
    pub synonyms: TableId,
    pub bird_oids: Vec<Oid>,
    /// Statement literals chosen from the set-up statistics.
    pub lits: Literals,
    /// Prepared handle for `question_eq(ks[i])`.
    pub handles: Vec<u64>,
    /// Rows `question_eq(ks[i])` returned at warm-up.
    pub probe_rows: Vec<usize>,
    pub setup_time: Duration,
}

/// The row count of a row-set response.
fn expect_rows(resp: Response, what: &str) -> Result<usize, String> {
    match resp {
        Response::Rows { rows, .. } => Ok(rows.len()),
        other => Err(format!("{what}: unexpected response {other:?}")),
    }
}

/// Build the corpus and bring up everything the workload needs.
pub fn setup(workload: Workload) -> Result<Env, String> {
    let started = Instant::now();
    let mut b = build_db(&BenchConfig {
        scale_down: SCALE_DOWN,
        annots_per_tuple: ANNOTS_PER_TUPLE,
        seed: CORPUS_SEED,
        ..BenchConfig::default()
    });
    b.db.enable_wal();
    b.db.metrics().set_enabled(true);
    if b.db.buffer_pool().capacity() != 0 {
        return Err("the buffer pool must have capacity 0".into());
    }
    let shared = SharedDatabase::new(b.db);
    let server = Server::start(
        shared.clone(),
        instance_registry(MODEL_SEED),
        "127.0.0.1:0",
        serve_config(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut lits = Literals::default();
    let mut handles = Vec::new();
    let mut probe_rows = Vec::new();
    if workload.indexed() {
        match client.query(ADD_INDEX).map_err(|e| e.to_string())? {
            Response::Text(t) if t.contains("summary index registered") => {}
            other => return Err(format!("{ADD_INDEX}: unexpected response {other:?}")),
        }
        let stats = Statistics::analyze(&shared.read()).map_err(|e| e.to_string())?;
        let ls = stats
            .label_stats(b.birds, "ClassBird2", "Question")
            .ok_or("no ClassBird2 statistics")?;
        // The upper tail past the most common count: the range probe runs
        // as an index scan from `k` upward plus a filter, so from the
        // lower tail it would scan most of the index.
        let eq = |k: u64| ls.selectivity(Some(k), Some(k));
        let mode = (ls.min..=ls.max)
            .max_by(|&a, &b| eq(a).total_cmp(&eq(b)).then(b.cmp(&a)))
            .unwrap_or(ls.min);
        let n = b.bird_oids.len() as f64;
        let mut tail: Vec<u64> = (mode + 1..=ls.max)
            .filter(|&k| eq(k) > 0.0 && eq(k) * n <= PROBE_MAX_ROWS)
            .collect();
        tail.sort_by(|&a, &b| eq(b).total_cmp(&eq(a)).then(a.cmp(&b)));
        tail.truncate(PROBE_VALUES);
        tail.sort_unstable();
        lits.ks = tail;
        if lits.ks.is_empty() {
            return Err("no Question value is selective enough to probe".into());
        }
        for &k in &lits.ks {
            let (h, _) = client
                .prepare(&question_eq(k))
                .map_err(|e| format!("prepare: {e}"))?;
            handles.push(h);
        }
        // Warm-up: every handle once (the plan is already cached by
        // Prepare; this runs the executor and the index path).
        for &h in &handles {
            probe_rows.push(expect_rows(
                client.execute_prepared(h).map_err(|e| e.to_string())?,
                "warm-up",
            )?);
        }
    } else {
        let stats = Statistics::analyze(&shared.read()).map_err(|e| e.to_string())?;
        let ls = stats
            .label_stats(b.birds, "ClassBird1", "Disease")
            .ok_or("no ClassBird1 statistics")?;
        // The threshold `t` whose `Disease > t` selectivity is nearest.
        let at = |target: f64| {
            (ls.min..=ls.max)
                .min_by(|&a, &b| {
                    let off = |t: u64| (ls.selectivity(Some(t + 1), None) - target).abs();
                    off(a).total_cmp(&off(b))
                })
                .unwrap_or(ls.min)
        };
        lits.filter = FILTER_SELECTIVITY.iter().map(|&s| at(s)).collect();
        lits.join = JOIN_SELECTIVITY.iter().map(|&s| at(s)).collect();
        // Warm-up: the first statement pays the session's full ANALYZE.
        for stmt in [
            "SELECT id, common_name FROM Birds r WHERE r.id = 0",
            "SELECT id FROM Birds r WHERE \
             r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 4",
        ] {
            expect_rows(client.query(stmt).map_err(|e| e.to_string())?, "warm-up")?;
        }
    }
    Ok(Env {
        shared,
        server,
        client,
        birds: b.birds,
        synonyms: b.synonyms,
        bird_oids: b.bird_oids,
        lits,
        handles,
        probe_rows,
        setup_time: started.elapsed(),
    })
}

impl Env {
    /// Close the connection and stop the server, joining its threads.
    /// The drain's checkpoint is skipped: nothing reads it afterwards.
    pub fn teardown(self) {
        drop(self.client);
        drop(self.server);
    }
}
