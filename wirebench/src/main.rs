//! `wirebench` — the end-to-end wire benchmark.
//!
//! One process builds a seeded corpus, starts `instn_serve::Server` over
//! loopback with no simulated stall, drives one workload over one
//! `instn_serve::Client` connection, checks every answer against the serial
//! oracle, and prints the metrics `BENCHMARK.json` declares. The last line
//! of standard output is one JSON object.
//!
//! ```text
//! wirebench --workload <scan|annotate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs an
//! untraced window and then a traced one, replaying each read in-process
//! through the server's layers, and reports the per-layer metrics; its
//! spans go to `.bench_out/spans-<workload>-seed<n>.json`.

mod check;
mod drive;
mod manifest;
mod setup;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use instn_storage::tuple::encode_tuple;

use crate::drive::{
    classifiers, run_window, run_writer, Layers, Pace, Replay, WindowOut, WriterOut,
};
use crate::setup::{nproc, setup, Env};
use crate::trace::ratio;
use crate::workload::{
    stream_hash, writer_schedule, Stream, Workload, WriteStream, READS_PER_WRITE,
};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 28] = [
    ("serve.roundtrip_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.payload_bytes", "bytes"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("opt.optimize_us", "us"),
    ("opt.stats_refresh_us", "us"),
    ("opt.stats_rescans", "count"),
    ("query.execute_us", "us"),
    ("query.rows_examined_per_row", "ratio"),
    ("query.rows_returned", "rows"),
    ("index.refresh_us", "us"),
    ("index.deltas_per_refresh", "ratio"),
    ("index.rebuilds", "count"),
    ("core.add_annotation_us", "us"),
    ("core.write_lock_wait_us", "us"),
    ("core.read_lock_wait_us", "us"),
    ("core.summary_decode_us_per_row", "us"),
    ("mining.classify_us", "us"),
    ("mining.snippet_us", "us"),
    ("storage.page_reads_per_read", "pages"),
    ("storage.page_writes_per_write", "pages"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("storage.heap_scan_us_per_row", "us"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.writer_lag_p99_ms", "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Window pieces each set-up serves. A piece's latencies shift with other
/// tenants' load on the host while it ran, which only ever slows it, so
/// the gated latency figures are those of the best piece.
const PIECES_PER_SETUP: usize = 4;
/// Annotations the write probe issues, back to back, after each piece on
/// workloads without a writer. Few enough that the pieces read nearly the
/// same data (a set-up's probes add 2 % to its annotations); spread over
/// the run so a quiet stretch of the host is among them.
const PROBE_WRITES_PER_PIECE: usize = 400;
/// Latest the writer may issue a write after the read that scheduled it
/// before the run counts as invalid (its backlog grew).
const MAX_WRITER_LAG_MS: f64 = 1_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds, --trace".into());
    }
    Ok(args)
}

/// Refuse settings that silently change the program being measured.
fn check_environment() -> Result<(), String> {
    for var in ["INSTN_DOP", "INSTN_PLAN_CACHE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it so the measured program is the pinned one"
            ));
        }
    }
    Ok(())
}

/// The printed names must be exactly the ones `BENCHMARK.json` declares.
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let declared = manifest::declared(&manifest::parse(&text)?)?;
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if declared.workloads != workloads {
        return Err(format!(
            "BENCHMARK.json workloads {:?} != {workloads:?}",
            declared.workloads
        ));
    }
    if declared.end_to_end != own(&END_TO_END) {
        return Err("BENCHMARK.json end_to_end metrics differ from the printed ones".into());
    }
    if declared.per_layer != own(&PER_LAYER) {
        return Err("BENCHMARK.json per_layer metrics differ from the printed ones".into());
    }
    Ok(())
}

/// The commit of the checkout when it is a git work tree, else "unknown".
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the program's sources (`src/`, `crates/`), identifying the
/// measured code where no commit is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        let p = Path::new(root);
        if p.is_file() {
            files.push(p.to_path_buf());
        } else {
            walk(p, &mut files);
        }
    }
    files.sort();
    let mut h = workload::FNV_OFFSET;
    for f in &files {
        h = workload::fnv1a(h, f.to_string_lossy().as_bytes());
        h = workload::fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Nearest-rank percentile of `v` (`q` in 0..=1).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Quantile `q` of samples split over window pieces: the median of the
/// per-piece quantiles when each piece alone has ten samples beyond `q`,
/// so a piece that ran on a slow stretch of the host moves it little;
/// otherwise the quantile of all samples pooled.
fn across(parts: &[Vec<f64>], q: f64) -> f64 {
    let enough = ((10.0 / (1.0 - q)).ceil() as usize).max(1);
    if parts.iter().all(|p| p.len() >= enough) {
        let each: Vec<f64> = parts.iter().map(|p| percentile(p, q)).collect();
        percentile(&each, 0.5)
    } else {
        percentile(&parts.concat(), q)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pages of the Birds and Synonyms heaps, their summary storage and
/// annotation stores (× 8 KiB) over user bytes (tuple bytes + raw
/// annotation text bytes).
fn space_amp(env: &Env) -> Result<f64, String> {
    let db = env.shared.read();
    let mut pages = 0usize;
    let mut user = 0usize;
    for t in [env.birds, env.synonyms] {
        let table = db.table(t).map_err(|e| e.to_string())?;
        pages += table.page_count()
            + db.summary_storage(t).page_count()
            + db.annotation_store(t).page_count();
        user += table
            .scan()
            .map(|(_, tup)| encode_tuple(&tup).len())
            .sum::<usize>();
        let store = db.annotation_store(t);
        for id in store.ids() {
            user += store.get(id).map_err(|e| e.to_string())?.text.len();
        }
    }
    Ok((pages * instn_storage::PAGE_SIZE) as f64 / user as f64)
}

/// Reference floors: µs per Birds row for a heap scan and for reading and
/// decoding every summary set (median of three passes each).
fn reference_floors(env: &Env) -> (f64, f64) {
    let db = env.shared.read();
    let n = env.bird_oids.len() as f64;
    let mut scan = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let rows = db.table(env.birds).map(|t| t.scan().count()).unwrap_or(0);
        std::hint::black_box(rows);
        scan.push(t0.elapsed().as_secs_f64() * 1e6 / n);
        let t0 = Instant::now();
        for &oid in &env.bird_oids {
            std::hint::black_box(db.summaries_of(env.birds, oid).map(|s| s.len()).ok());
        }
        decode.push(t0.elapsed().as_secs_f64() * 1e6 / n);
    }
    (percentile(&scan, 0.5), percentile(&decode, 0.5))
}

/// Request counts of one checked phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

/// Check a window's answers against the oracle. Without writes, every
/// payload seen for a statement is compared; with writes, every distinct
/// statement is re-issued over the wire after the writer stopped and
/// compared against the final state.
fn check_answers(
    env: &mut Env,
    workload: Workload,
    out: &WindowOut,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.attempted += out.read_latency_ms.len() as u64 + out.writer.attempted;
    tally.failed += out.read_failed + out.writer.failed;
    let mut mismatches = 0;
    for (req, stmt) in drive::distinct_statements(out, &env.lits.ks) {
        let oracle = check::oracle_payload(&env.shared, &stmt)?;
        let expected = check::digest(&stmt, &oracle).ok_or("oracle payload is not a row set")?;
        if workload.writes() {
            tally.attempted += 1;
            let raw = match &req {
                workload::Req::Text(s) => env.client.query_raw(s, Duration::ZERO),
                workload::Req::Prepared(i) => env
                    .client
                    .execute_prepared_raw(env.handles[*i], Duration::ZERO),
            }
            .map_err(|e| e.to_string())?;
            if check::digest(&stmt, &raw) != Some(expected) {
                eprintln!("MISMATCH after the writer stopped: {stmt}");
                mismatches += 1;
            }
        } else {
            for (payload, n) in &out.seen[&req] {
                // Error payloads are already counted as failed reads.
                if let Some(d) = check::digest(&stmt, payload) {
                    if d != expected {
                        eprintln!("MISMATCH ({n}×): {stmt}");
                        mismatches += n;
                    }
                }
            }
        }
    }
    tally.mismatches += mismatches;
    tally.failed += mismatches;
    Ok(())
}

/// The writer must keep to its schedule: a run whose backlog grew is
/// invalid.
fn check_writer(w: &WriterOut) -> Result<(), String> {
    let worst = w.lag_ms.iter().copied().fold(0.0, f64::max);
    if w.attempted < w.scheduled || worst > MAX_WRITER_LAG_MS {
        return Err(format!(
            "writer fell behind its schedule ({} of {} issued, worst lag {worst:.1} ms): run invalid",
            w.attempted, w.scheduled
        ));
    }
    Ok(())
}

fn print_settings(args: &Args, nproc: usize) {
    println!(
        "wirebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "  nproc={nproc} commit={} source_digest={}",
        commit(),
        source_digest()
    );
    println!(
        "  corpus: build_db seed={} (fixed; --seed drives the requests and the writer) \
         scale_down={} annots_per_tuple={} (ClassBird1 + TextSummary1 linked); ALTER catalog \
         trained with seed {}",
        setup::CORPUS_SEED,
        setup::SCALE_DOWN,
        setup::ANNOTS_PER_TUPLE,
        setup::MODEL_SEED
    );
    let c = setup::serve_config();
    println!(
        "  serve: ServeConfig::default() with exec_config.dop={} morsel_rows={} plan_cache={} \
         query_stall={:?} io_stall={:?} max_connections={} default_deadline={:?}",
        c.exec_config.dop,
        c.exec_config.morsel_rows,
        c.plan_cache,
        c.query_stall,
        c.exec_config.io_stall,
        c.max_connections,
        c.default_deadline
    );
    println!("  engine: metrics registry enabled, buffer-pool capacity 0, WAL attached (forced before every page write)");
    println!(
        "  load: 1 wire connection, closed loop{}",
        if args.workload.writes() {
            format!(
                "; 1 in-process writer, one annotation per {READS_PER_WRITE} reads, timed from \
                 its issue (lag from the scheduling read checked <= {MAX_WRITER_LAG_MS} ms)"
            )
        } else {
            String::new()
        }
    );
}

/// The first line of the server's EXPLAIN for `sql` (its plan root).
fn plan_root(env: &mut Env, sql: &str) -> String {
    match env.client.query(&format!("EXPLAIN {sql}")) {
        Ok(instn_serve::Response::Text(t)) => t.lines().next().unwrap_or("").trim().to_string(),
        other => format!("{other:?}"),
    }
}

/// Stream determinism: the same seed repeats its stream, another differs.
fn check_stream(args: &Args, env: &mut Env) -> Result<(), String> {
    let n = env.bird_oids.len();
    let lits = &env.lits;
    let h = stream_hash(args.seed, args.workload, lits, n, 4096, 1024);
    let again = stream_hash(args.seed, args.workload, lits, n, 4096, 1024);
    let other = stream_hash(
        args.seed.wrapping_add(1),
        args.workload,
        lits,
        n,
        4096,
        1024,
    );
    if h != again {
        return Err("the same seed produced two different streams".into());
    }
    if h == other {
        return Err("a different seed produced the same stream".into());
    }
    println!(
        "  stream_hash={h:016x} (first 4096 reads{}; seed+1 gives {other:016x})",
        if args.workload.writes() {
            " + 1024 writes"
        } else {
            ""
        },
    );
    if args.workload.indexed() {
        println!(
            "  probe values (Question) {:?}, rows {:?}",
            lits.ks, env.probe_rows
        );
        let ks = lits.ks.clone();
        for k in ks {
            let eq = plan_root(env, &workload::question_eq(k));
            let range = plan_root(env, &workload::question_range(k));
            println!("    k={k}: equality plan {eq}; range plan {range}");
        }
    } else {
        println!(
            "  Disease thresholds: filter {:?}, join {:?}",
            lits.filter, lits.join
        );
    }
    Ok(())
}

fn probe_writes(args: &Args, env: &Env) -> Vec<workload::Write> {
    let count = PROBE_WRITES_PER_PIECE * SETUP_REPS * PIECES_PER_SETUP;
    writer_schedule(args.seed, count, env.bird_oids.len())
}

fn write_stream(args: &Args, env: &Env) -> Option<WriteStream> {
    args.workload
        .writes()
        .then(|| WriteStream::new(args.seed, env.bird_oids.len()))
}

/// The write probe of workloads without a writer: the writer's
/// annotations issued back to back (closed loop) after the reads, with no
/// concurrent reader, each timed from its issue.
fn write_probe(
    env: &Env,
    writes: &[workload::Write],
    models: Option<&[instn_mining::NaiveBayes]>,
) -> WriterOut {
    run_writer(
        &env.shared,
        env.birds,
        &env.bird_oids,
        Pace::Closed(writes),
        Instant::now(),
        models,
    )
}

struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
}

/// The untraced run: `SETUP_REPS` set-ups, each serving
/// `PIECES_PER_SETUP` equal pieces of the window, each piece checked on
/// its own.
fn untraced(args: &Args) -> Result<Report, String> {
    let pieces = SETUP_REPS * PIECES_PER_SETUP;
    let piece = Duration::from_secs_f64(args.seconds as f64 / pieces as f64);
    let mut setup_s = Vec::new();
    let mut phases = [Duration::ZERO; 3];
    let mut stream = None;
    let mut writer = None;
    let mut probe = Vec::new();
    let mut reads: Vec<Vec<f64>> = Vec::new();
    let mut qps = Vec::new();
    let mut writes_ms: Vec<Vec<f64>> = Vec::new();
    let mut tally = Tally::default();
    let mut space = 0.0;
    for i in 0..SETUP_REPS {
        let mut env = setup(args.workload)?;
        setup_s.push(env.setup_time.as_secs_f64());
        if i == 0 {
            check_stream(args, &mut env)?;
        }
        let stream = stream.get_or_insert_with(|| {
            Stream::new(
                args.seed,
                args.workload,
                &env.lits,
                env.bird_oids.len() as u64,
            )
        });
        // Each piece continues the writer's stream, or the write probe's
        // list, where the last ended.
        if i == 0 {
            writer = write_stream(args, &env);
            probe = probe_writes(args, &env);
        }
        for j in 0..PIECES_PER_SETUP {
            let t0 = Instant::now();
            let part = run_window(
                &mut env,
                args.workload,
                stream,
                piece,
                writer.as_mut(),
                None,
            )?;
            let t1 = Instant::now();
            check_answers(&mut env, args.workload, &part, &mut tally)?;
            phases[0] += t1 - t0;
            phases[1] += t1.elapsed();
            qps.push(part.read_latency_ms.len() as f64 / part.window_s);
            reads.push(part.read_latency_ms);
            let w = if args.workload.writes() {
                part.writer
            } else {
                let t0 = Instant::now();
                let n = (i * PIECES_PER_SETUP + j) * PROBE_WRITES_PER_PIECE;
                let w = write_probe(&env, &probe[n..n + PROBE_WRITES_PER_PIECE], None);
                tally.attempted += w.attempted;
                tally.failed += w.failed;
                phases[2] += t0.elapsed();
                w
            };
            check_writer(&w)?;
            writes_ms.push(w.latency_ms);
        }
        if i + 1 == SETUP_REPS {
            space = space_amp(&env)?;
        }
        env.teardown();
    }
    println!(
        "  phases: windows {:.1} s, answer checks {:.1} s, writes after the windows {:.1} s",
        phases[0].as_secs_f64(),
        phases[1].as_secs_f64(),
        phases[2].as_secs_f64()
    );
    let n_reads: usize = reads.iter().map(Vec::len).sum();

    let n_writes: usize = writes_ms.iter().map(Vec::len).sum();
    println!(
        "  setup_s samples: {:?}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    );
    println!(
        "  reads={n_reads} (per piece {:?}), writes={n_writes} ({}), answer mismatches={}",
        reads.iter().map(Vec::len).collect::<Vec<_>>(),
        if args.workload.writes() {
            "paced by the reads, beside them"
        } else {
            "closed-loop write probe after each piece"
        },
        tally.mismatches
    );
    let per_piece = |v: &[Vec<f64>], q: f64| -> Vec<String> {
        v.iter()
            .map(|p| format!("{:.4}", percentile(p, q)))
            .collect()
    };
    println!("  read p50 per piece (ms): {:?}", per_piece(&reads, 0.5));
    println!("  read p99 per piece (ms): {:?}", per_piece(&reads, 0.99));
    println!(
        "  write p99 per piece (ms): {:?}",
        per_piece(&writes_ms, 0.99)
    );
    if n_reads < 1_000 {
        println!("  WARNING: read_p99_ms rests on {n_reads} < 1000 reads");
    }
    println!(
        "  failed_frac={} ({} of {} requests)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    // Gated figures: the best piece. Load from other tenants of the host
    // only ever slows a piece, and it comes in stretches that can cover
    // several pieces, so the least-disturbed piece is the steadiest
    // estimate of the program's own cost.
    let best_latency = |v: &[Vec<f64>], q: f64| {
        v.iter()
            .map(|p| percentile(p, q))
            .fold(f64::INFINITY, f64::min)
    };
    let metrics = vec![
        ("setup_s", percentile(&setup_s, 0.5), "s"),
        ("read_p50_ms", best_latency(&reads, 0.5), "ms"),
        ("read_qps", qps.iter().copied().fold(0.0, f64::max), "1/s"),
        ("write_p50_ms", best_latency(&writes_ms, 0.5), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("space_amp", space, "ratio"),
    ];
    println!(
        "  setup_s = {:.4} s (median of {})",
        metrics[0].1,
        setup_s.len()
    );
    println!(
        "  read_p50_ms = {:.4} ms (best of {} pieces, {n_reads} reads)",
        metrics[1].1,
        reads.len()
    );
    println!(
        "  read_qps = {:.4} 1/s (best of {} pieces)",
        metrics[2].1,
        qps.len()
    );
    println!(
        "  write_p50_ms = {:.4} ms (best of {} pieces, {n_writes} writes)",
        metrics[3].1,
        writes_ms.len()
    );
    println!("  peak_rss_mb = {:.4} MiB", metrics[4].1);
    println!("  space_amp = {:.4} ratio", metrics[5].1);
    // Tails are printed, not gated: on a shared 2-vCPU host a run that
    // falls in a busy stretch doubles them.
    println!(
        "  read_p99_ms = {:.4} ms (not gated; n={n_reads})",
        across(&reads, 0.99)
    );
    println!(
        "  write_p99_ms = {:.4} ms (not gated; n={n_writes})",
        across(&writes_ms, 0.99)
    );
    Ok(Report { metrics, tally })
}

fn traced(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    // Untraced reference window, on its own set-up.
    let mut env = setup(args.workload)?;
    check_stream(args, &mut env)?;
    let window = Duration::from_secs(args.seconds);
    let fresh_stream = |env: &Env| {
        Stream::new(
            args.seed,
            args.workload,
            &env.lits,
            env.bird_oids.len() as u64,
        )
    };
    let mut stream = fresh_stream(&env);
    let mut writer = write_stream(args, &env);
    let plain = run_window(
        &mut env,
        args.workload,
        &mut stream,
        window,
        writer.as_mut(),
        None,
    )?;
    check_answers(&mut env, args.workload, &plain, &mut tally)?;
    check_writer(&plain.writer)?;
    env.teardown();

    // Traced window on a fresh, identical set-up.
    let mut env = setup(args.workload)?;
    let mut replay = Replay::new(&env, args.workload)?;
    let models = classifiers(args.workload);
    let (heap_scan_us, decode_us) = reference_floors(&env);
    let mut stream = fresh_stream(&env);
    let mut writer = write_stream(args, &env);
    let mut out = run_window(
        &mut env,
        args.workload,
        &mut stream,
        window,
        writer.as_mut(),
        Some((&mut replay, &models)),
    )?;
    check_answers(&mut env, args.workload, &out, &mut tally)?;
    if !args.workload.writes() {
        let probe = write_probe(&env, &probe_writes(args, &env), Some(&models));
        tally.attempted += probe.attempted;
        tally.failed += probe.failed;
        out.writer = probe;
    }
    check_writer(&out.writer)?;
    env.teardown();

    let mut spans = std::mem::take(&mut out.spans);
    spans.append(&mut out.writer.spans);
    let path = PathBuf::from(format!(
        ".bench_out/spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans_file(
        &path,
        &[
            ("workload", args.workload.name().to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
        ],
        &spans,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans: {} written to {}", spans.len(), path.display());
    println!("  self time by span (count, inclusive ms, self ms):");
    for (name, (n, incl, own)) in trace::self_times(&spans) {
        println!(
            "    {name:<24} {n:>7} {:>12.3} {:>12.3}",
            incl as f64 / 1e6,
            own as f64 / 1e6
        );
    }

    let mut l: Layers = out.layers.clone();
    let w = &out.writer.layers;
    l.add_annotation_us.merge(&w.add_annotation_us);
    l.write_lock_wait_us.merge(&w.write_lock_wait_us);
    l.classify_us.merge(&w.classify_us);
    l.snippet_us.merge(&w.snippet_us);
    l.page_writes += w.page_writes;
    l.wal_bytes += w.wal_bytes;
    l.writes += w.writes;
    let p50_plain = percentile(&plain.read_latency_ms, 0.5);
    let p50_traced = percentile(&out.read_latency_ms, 0.5);
    println!(
        "  reads: untraced {} (p50 {p50_plain:.4} ms), traced {} (p50 {p50_traced:.4} ms); \
         writes traced {}; answer mismatches={}",
        plain.read_latency_ms.len(),
        out.read_latency_ms.len(),
        l.writes,
        tally.mismatches
    );
    let metrics = vec![
        ("serve.roundtrip_us", l.roundtrip_us.mean(), "us"),
        ("serve.overhead_us", l.overhead_us.mean(), "us"),
        ("serve.encode_us", l.encode_us.mean(), "us"),
        ("serve.payload_bytes", l.payload_bytes.mean(), "bytes"),
        ("sql.parse_us", l.parse_us.mean(), "us"),
        ("sql.plan_us", l.plan_us.mean(), "us"),
        (
            "sql.plan_cache_hit_ratio",
            ratio(l.plan_hits as f64, l.plan_us.n as f64),
            "ratio",
        ),
        ("opt.optimize_us", l.optimize_us.mean(), "us"),
        ("opt.stats_refresh_us", l.stats_refresh_us.mean(), "us"),
        ("opt.stats_rescans", l.stats_rescans as f64, "count"),
        ("query.execute_us", l.execute_us.mean(), "us"),
        (
            "query.rows_examined_per_row",
            ratio(l.leaf_rows as f64, l.rows_returned as f64),
            "ratio",
        ),
        (
            "query.rows_returned",
            ratio(l.rows_returned as f64, l.replays as f64),
            "rows",
        ),
        ("index.refresh_us", l.index_refresh_us.mean(), "us"),
        (
            "index.deltas_per_refresh",
            ratio(l.deltas_applied as f64, l.indexes_replayed as f64),
            "ratio",
        ),
        ("index.rebuilds", l.rebuilds as f64, "count"),
        ("core.add_annotation_us", l.add_annotation_us.mean(), "us"),
        ("core.write_lock_wait_us", l.write_lock_wait_us.mean(), "us"),
        ("core.read_lock_wait_us", l.read_lock_wait_us.mean(), "us"),
        ("core.summary_decode_us_per_row", decode_us, "us"),
        ("mining.classify_us", l.classify_us.mean(), "us"),
        ("mining.snippet_us", l.snippet_us.mean(), "us"),
        (
            "storage.page_reads_per_read",
            ratio(l.page_reads as f64, l.replays as f64),
            "pages",
        ),
        (
            "storage.page_writes_per_write",
            ratio(l.page_writes as f64, l.writes as f64),
            "pages",
        ),
        (
            "storage.wal_bytes_per_write",
            ratio(l.wal_bytes as f64, l.writes as f64),
            "bytes",
        ),
        ("storage.heap_scan_us_per_row", heap_scan_us, "us"),
        (
            "obs.trace_overhead_frac",
            ratio(p50_traced, p50_plain) - 1.0,
            "ratio",
        ),
        (
            "bench.writer_lag_p99_ms",
            percentile(&out.writer.lag_ms, 0.99),
            "ms",
        ),
    ];
    for (name, v, unit) in &metrics {
        println!("  {name} = {v:.4} {unit}");
    }
    Ok(Report { metrics, tally })
}

fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.mismatches == 0,
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    check_environment()?;
    check_manifest()?;
    print_settings(&args, nproc());
    let report = if args.trace {
        traced(&args)?
    } else {
        untraced(&args)?
    };
    let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
    let expected: Vec<&str> = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|(n, _)| *n)
    .collect();
    assert_eq!(
        names, expected,
        "reported metrics follow the declared lists"
    );
    let ok = report.tally.mismatches == 0 && report.tally.failed == 0;
    println!("{}", json_result(&report));
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wirebench: failed or mismatching requests (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::from(2)
        }
    }
}
