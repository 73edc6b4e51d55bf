//! `create-bench-e2e run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the server up (several times; `setup_s` is the median), checks
//! the gold cohorts, warms, runs the timed window with closed-loop
//! keep-alive clients, stops the server, checks what it answered, and —
//! in a traced run — replays the window's requests single-threaded to
//! time every layer. The last stdout line is the result JSON; the full
//! ledger with provenance and sample counts goes to stderr and to
//! `<out>/<workload>-seed<n>-trace<t>.json`.
//!
//! `prepare`, `serve` and `index-probe` are the child processes `run`
//! starts; they are not meant to be called by hand.

use create_bench_e2e::checks::{self, Tally};
use create_bench_e2e::load::{self, PhaseResult, Sample};
use create_bench_e2e::metrics::{Ledger, Scrape, END_TO_END, PER_LAYER};
use create_bench_e2e::setup::{self, ServerProcess};
use create_bench_e2e::stats::{median, Dist};
use create_bench_e2e::traced::{self, Replay};
use create_bench_e2e::workload::{
    Class, ClientStream, Inputs, Op, Pool, Scale, Workload, CLIENTS, K, ZIPF_S,
};
use create_docstore::json::{obj, parse_json};
use create_docstore::Value;
use create_obs::names;
use create_server::build_api;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale_name: String,
    scale: Scale,
    out: PathBuf,
    dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::ReadCold,
        seed: 1,
        seconds: 10,
        trace: false,
        scale_name: "standard".to_string(),
        scale: Scale::standard(),
        out: PathBuf::from("bench_e2e/out"),
        dir: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Workload::parse(value).ok_or_else(|| bad("workload"))?
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--scale" => {
                parsed.scale = Scale::parse(value).ok_or_else(|| bad("scale"))?;
                parsed.scale_name = value.clone();
            }
            "--out" => parsed.out = PathBuf::from(value),
            "--dir" => parsed.dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: create-bench-e2e run --workload <name> --seed <n> --seconds <s> --trace <0|1>"
        );
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" => run(&args),
        "prepare" => setup::prepare(&args.dir, args.seed, &args.scale),
        "serve" => setup::serve(&args.dir, args.seed, &args.scale),
        "index-probe" => index_probe(&args),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("create-bench-e2e {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `index-probe`: builds the standalone index in a fresh process and
/// prints `INDEX <rss-before MiB> <rss-after MiB> <postings bytes>`.
fn index_probe(args: &Args) -> Result<(), String> {
    let (_, reports) = create_bench_e2e::workload::corpus(args.seed, args.scale.reports);
    let before = setup::own_rss_mib();
    let index = traced::standalone_index(&reports);
    let after = setup::own_rss_mib();
    println!("INDEX {before} {after} {}", index.postings_bytes());
    Ok(())
}

/// What the socket side of a run measured.
struct Served {
    setup_s: Vec<f64>,
    shards: usize,
    window: PhaseResult,
    warm_acked: Vec<String>,
    first_scrape: Scrape,
    before: (Scrape, Value),
    after: (Scrape, Value),
    rss_mib: f64,
    post_window: Vec<(u32, String)>,
}

fn stats_field(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn scrape(server: &ServerProcess) -> Result<(Scrape, Value), String> {
    let metrics = load::get(server.addr, "/metrics")?;
    let stats = load::get(server.addr, "/stats")?;
    let stats = parse_json(&stats).map_err(|e| format!("/stats: {e}"))?;
    Ok((Scrape::parse(&metrics), stats))
}

fn expect_ok(status: u16) -> Result<(), String> {
    match status {
        200 => Ok(()),
        _ => Err(format!("status {status}")),
    }
}

/// Set-up, gold pre-check, warm-up, timed window, post-window requests.
fn serve_and_load(
    args: &Args,
    inputs: &Arc<Inputs>,
    data: &Path,
    pristine: Option<&Path>,
    expected: &[Vec<String>],
    tally: &mut Tally,
) -> Result<Served, String> {
    let reps = args.scale.setup_reps.max(1);
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 1..=reps {
        let (process, seconds) = setup::set_up(data, args.seed, &args.scale_name)?;
        eprintln!("set-up {rep} of {reps}: {seconds:.3} s");
        setup_s.push(seconds);
        if rep < reps {
            process.stop()?;
        } else {
            server = Some(process);
        }
    }
    let server = server.expect("at least one set-up");
    if let Some(pristine) = pristine {
        setup::copy_dir(data, pristine).map_err(|e| format!("copying the store: {e}"))?;
    }
    let first_scrape = scrape(&server)?.0;

    // Every workload starts by checking the gold cohorts on the base corpus.
    for (i, want) in expected.iter().enumerate() {
        let outcome = load::request(server.addr, &inputs.request_bytes(&Op::Cohort(i as u32)))
            .and_then(|(status, body)| {
                expect_ok(status)?;
                checks::cohort_body_matches(&body, want)
            });
        tally.record(&format!("gold cohort {}", inputs.cohorts[i].name), outcome);
    }
    if args.workload == Workload::ReadHot {
        for n in 0..inputs.hot_pool.len() {
            let outcome = load::request(
                server.addr,
                &inputs.request_bytes(&Op::Search(Pool::Hot, n as u32)),
            )
            .and_then(|(status, _)| expect_ok(status));
            tally.record("cache warm-up search", outcome);
        }
    }
    let streams: Vec<ClientStream> = (0..CLIENTS)
        .map(|c| ClientStream::new(args.workload, c, inputs))
        .collect();
    let (streams, warm) = load::run_phase(server.addr, inputs, streams, args.scale.warmup);
    let before = scrape(&server)?;
    let (_, window) = load::run_phase(
        server.addr,
        inputs,
        streams,
        Duration::from_secs(args.seconds),
    );
    let after = scrape(&server)?;
    let rss_mib = setup::rss_mib(server.pid()).ok_or("cannot read the server's resident set")?;

    // Writes move the generation during the window, so `write_mix`
    // asks a few queries again once the window is over and checks those.
    let mut post_window = Vec::new();
    if args.workload == Workload::WriteMix {
        for n in 0..inputs.cold_pool.len().min(16) as u32 {
            let (status, body) = load::request(
                server.addr,
                &inputs.request_bytes(&Op::Search(Pool::Cold, n)),
            )?;
            tally.record("post-window search", expect_ok(status));
            post_window.push((n, body));
        }
    }
    let shards = server.shards;
    server.stop()?;
    Ok(Served {
        setup_s,
        shards,
        window,
        warm_acked: warm.acked_ids,
        first_scrape,
        before,
        after,
        rss_mib,
        post_window,
    })
}

/// Reopens the served store and verifies searches and acknowledged
/// submissions against it.
fn check_against_reopened(
    args: &Args,
    inputs: &Inputs,
    data: &Path,
    served: &Served,
    expected: &[Vec<String>],
    tally: &mut Tally,
) -> Result<(), String> {
    for kept in &served.window.kept {
        if let Op::Cohort(spec) = kept.op {
            tally.record(
                "in-window cohort",
                checks::cohort_body_matches(&kept.body, &expected[spec as usize]),
            );
        }
    }
    let reference = setup::open_with_tagger(data, args.seed, &args.scale)?;
    let searches: Vec<(&str, &str)> = match args.workload {
        Workload::WriteMix => served
            .post_window
            .iter()
            .map(|(n, body)| (inputs.query(Pool::Cold, *n), body.as_str()))
            .collect(),
        _ => served
            .window
            .kept
            .iter()
            .filter_map(|k| match k.op {
                Op::Search(pool, n) => Some((inputs.query(pool, n), k.body.as_str())),
                _ => None,
            })
            .collect(),
    };
    for (query, body) in searches {
        tally.record(
            &format!("search {query:?}"),
            checks::search_body_matches(body, &reference.search(query, K)),
        );
    }
    for id in served.warm_acked.iter().chain(&served.window.acked_ids) {
        tally.record(
            &format!("acknowledged submit {id}"),
            reference
                .report(id)
                .map(|_| ())
                .ok_or_else(|| "missing after reopen".to_string()),
        );
    }
    if args.workload == Workload::WriteMix {
        let compactions = served
            .after
            .0
            .delta(&served.first_scrape, names::COMPACTION_RUNS_TOTAL);
        tally.record(
            "write_mix compacts",
            if compactions >= 1.0 {
                Ok(())
            } else {
                Err("no compaction ran".to_string())
            },
        );
    }
    Ok(())
}

fn latencies_ms(samples: &[Sample], class: Class) -> Dist {
    Dist::new(
        samples
            .iter()
            .filter(|s| s.ok && s.class == class)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// End-to-end metrics plus the per-class latency detail.
fn end_to_end(served: &Served, ledger: &mut Ledger) -> Value {
    let samples = &served.window.samples;
    let setup = median(&served.setup_s).unwrap_or(0.0);
    ledger.set(
        "setup_s",
        setup,
        served.setup_s.len() as u64,
        format!("median of {} set-ups", served.setup_s.len()),
    );
    let completed = samples.iter().filter(|s| s.ok).count();
    let window_s = served.window.elapsed_ns as f64 / 1e9;
    ledger.set(
        "throughput_rps",
        completed as f64 / window_s,
        completed as u64,
        "2xx responses per second",
    );
    let search = latencies_ms(samples, Class::Search);
    if let (Some(p50), Some(p99)) = (search.pct(50.0), search.pct(99.0)) {
        ledger.set("search_p50_ms", p50, search.len() as u64, "p50");
        let beyond = create_bench_e2e::stats::beyond(search.len(), 99.0);
        ledger.set(
            "search_p99_ms",
            p99,
            search.len() as u64,
            format!("p99, {beyond} samples beyond"),
        );
    }
    ledger.set("rss_mib", served.rss_mib, 1, "VmRSS after the window");
    let mut classes = std::collections::BTreeMap::new();
    for class in Class::ALL {
        let dist = latencies_ms(samples, class);
        if dist.is_empty() {
            continue;
        }
        let tail = |p: f64| {
            obj([
                ("ms", dist.pct(p).unwrap_or(0.0).into()),
                ("samples_beyond_ok", dist.tail_ok(p).into()),
            ])
        };
        classes.insert(
            class.name().to_string(),
            obj([
                ("samples", (dist.len() as i64).into()),
                (
                    "failed",
                    (samples.iter().filter(|s| !s.ok && s.class == class).count() as i64).into(),
                ),
                ("p50", tail(50.0)),
                ("p95", tail(95.0)),
                ("p99", tail(99.0)),
            ]),
        );
    }
    Value::Object(classes)
}

/// The traced replay and the per-layer ledger.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    run_dir: &Path,
    pristine: &Path,
    served: &Served,
    ledger: &mut Ledger,
) -> Result<(), String> {
    // Standalone-index memory, measured in a fresh process.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probe = Command::new(exe)
        .args([
            "index-probe",
            "--seed",
            &args.seed.to_string(),
            "--scale",
            &args.scale_name,
        ])
        .output()
        .map_err(|e| format!("index-probe: {e}"))?;
    let line = String::from_utf8_lossy(&probe.stdout).to_string();
    let fields: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    if !probe.status.success() || fields.len() != 3 {
        return Err(format!("index-probe failed: {line:?}"));
    }
    ledger.set(
        "index.resident_mib",
        fields[1] - fields[0],
        1,
        "RSS delta of building the index",
    );
    ledger.set(
        "index.postings_mib",
        fields[2] / (1024.0 * 1024.0),
        1,
        "postings_bytes()",
    );

    let opened = Instant::now();
    let system = create_core::Create::open(pristine, create_core::CreateConfig::default())
        .map_err(|e| e.to_string())?;
    let open_s = opened.elapsed().as_secs_f64();
    ledger.set(
        "storage.open_s",
        open_s,
        1,
        "Create::open of the flushed store",
    );
    let docs = inputs.reports.len() as f64;
    let facets = system.facet_stats();
    ledger.set(
        "index.facet_bytes_per_doc",
        facets.postings_bytes as f64 / docs,
        facets.docs as u64,
        "facet_stats()",
    );
    let segment_bytes = system.storage_stats().map_or(0, |s| s.segment_bytes);
    ledger.set(
        "storage.segment_bytes_per_doc",
        segment_bytes as f64 / docs,
        inputs.reports.len() as u64,
        "storage_stats()",
    );
    system.attach_tagger(setup::train_tagger(&system, args.seed, &args.scale));
    let ner_tagger = setup::train_tagger(&system, args.seed, &args.scale);
    let system = Arc::new(system);
    let router = build_api(Arc::clone(&system));
    let index = traced::standalone_index(&inputs.reports);

    let mut replay = Replay::new(inputs, &system, &router, &ner_tagger, &index);
    if args.workload == Workload::ReadHot {
        replay.warm_hot();
    }
    let mut window: Vec<&Sample> = served.window.samples.iter().collect();
    window.sort_by_key(|s| s.start_ns);
    let ops: Vec<Op> = window.iter().map(|s| s.op).collect();
    let budget = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let replayed = replay.run(&ops, budget);
    // Layers the window's mix never reached still get a value: every
    // gold spec once, then held-out submissions, a flush and raw WAL
    // appends — the same inputs `read_cold` and `write_mix` send.
    for spec in 0..inputs.cohorts.len() as u32 {
        replay.op(&Op::Cohort(spec));
    }
    for n in 0..args.scale.submit_probes as u64 {
        replay.op(&Op::Submit(1_000_000 + n));
    }
    replay.op(&Op::Flush);
    let record = inputs.submit_body(0).1.into_bytes();
    replay.wal_probes(&run_dir.join("wal-probe"), &record, args.scale.wal_probes)?;
    eprintln!(
        "traced replay: {replayed} of {} window requests, {} spans",
        ops.len(),
        replay.tracer.spans().len()
    );

    let medians = traced::span_medians(&replay.tracer);
    let us = |name: &str| medians.get(name).copied().unwrap_or((f64::NAN, 0));
    // Each timed call's metric is its span name plus the unit.
    for span in [
        "server.dispatch",
        "server.parse_request",
        "docstore.json_parse",
        "docstore.to_json",
        "core.parse_query",
        "core.plan_search",
        "core.plan_cohort",
        "core.search",
        "core.merge",
        "index.keyword_leg",
        "index.field_title",
        "index.field_body",
        "index.field_ngram",
        "graphdb.graph_leg",
        "core.cohort_filter",
        "core.cohort_temporal",
        "ner.extract",
        "core.ingest_text",
        "storage.wal_append_sync",
    ] {
        let (value, count) = us(span);
        ledger.set(&format!("{span}_us"), value, count as u64, "median span");
    }
    let (flush_us, flushes) = us("storage.flush");
    ledger.set(
        "storage.flush_ms",
        flush_us / 1e3,
        flushes as u64,
        "median span",
    );

    let c = replay.counters;
    ledger.set(
        "index.bitmap_intersections_per_cohort",
        c.bitmap_intersections as f64 / c.cohort_calls.max(1) as f64,
        c.cohort_calls,
        "create_bitmap_intersections_total per Create::cohort",
    );
    ledger.set(
        "storage.wal_bytes_per_submit",
        c.wal_bytes as f64 / c.ingests.max(1) as f64,
        c.ingests,
        "create_wal_appended_bytes_total per ingest_text",
    );
    ledger.set(
        "core.publish_us",
        c.publish_seconds * 1e6 / c.publish_count.max(1) as f64,
        c.publish_count,
        "create_snapshot_publish_seconds sum/count over ingest_text",
    );

    // Server-side figures over the timed window.
    let (before, after) = (&served.before.0, &served.after.0);
    let window = &served.window.samples;
    let searches = window.iter().filter(|s| s.class == Class::Search).count() as f64;
    let queries = window
        .iter()
        .filter(|s| {
            matches!(
                s.class,
                Class::Search | Class::CohortFilter | Class::CohortTemporal
            )
        })
        .count() as f64;
    let waited = after.delta(before, "create_http_queue_wait_seconds_count");
    ledger.set(
        "server.queue_wait_us",
        after.delta(before, "create_http_queue_wait_seconds_sum") * 1e6 / waited.max(1.0),
        waited as u64,
        "create_http_queue_wait_seconds sum/count",
    );
    let client_failures = window.iter().filter(|s| !s.ok).count() as f64;
    let server_failures: f64 = [
        names::HTTP_SHED_TOTAL,
        names::HTTP_TIMEOUTS_TOTAL,
        names::HTTP_PARSE_ERROR_TOTAL,
    ]
    .iter()
    .map(|n| after.delta(before, n))
    .sum();
    ledger.set(
        "server.failed_requests",
        client_failures + server_failures,
        window.len() as u64,
        "shed+timeouts+parse errors+non-2xx",
    );
    let per_query = |name: &str| after.delta(before, name) / queries.max(1.0);
    ledger.set(
        "core.plan_nodes_per_query",
        per_query(names::PLAN_NODES_TOTAL),
        queries as u64,
        "create_plan_nodes_total per query",
    );
    let advanced = after.delta(before, names::DAAT_POSTINGS_ADVANCED_TOTAL);
    ledger.set(
        "index.postings_advanced_per_query",
        advanced / searches.max(1.0),
        searches as u64,
        "create_daat_postings_advanced_total per search",
    );
    ledger.set(
        "index.pruned_ratio",
        after.delta(before, names::DAAT_CANDIDATES_PRUNED_TOTAL) / advanced.max(1.0),
        searches as u64,
        "create_daat_candidates_pruned_total per posting advanced",
    );
    ledger.set(
        "graphdb.nodes_visited_per_query",
        after.delta(before, names::GRAPH_EXEC_NODES_VISITED_TOTAL) / searches.max(1.0),
        searches as u64,
        "create_graph_exec_nodes_visited_total per search",
    );
    ledger.set(
        "graphdb.edges_traversed_per_query",
        after.delta(before, names::GRAPH_EXEC_EDGES_TRAVERSED_TOTAL) / searches.max(1.0),
        searches as u64,
        "create_graph_exec_edges_traversed_total per search",
    );
    ledger.set(
        "core.publishes",
        after.delta(before, names::SNAPSHOT_PUBLISH_TOTAL),
        1,
        "create_snapshot_publish_total delta",
    );
    ledger.set(
        "storage.compactions",
        after.delta(&served.first_scrape, names::COMPACTION_RUNS_TOTAL),
        1,
        "create_compaction_runs_total over warm-up and window",
    );
    let (sb, sa) = (&served.before.1, &served.after.1);
    let hits = stats_field(sa, "cache_hits") - stats_field(sb, "cache_hits");
    let misses = stats_field(sa, "cache_misses") - stats_field(sb, "cache_misses");
    ledger.set(
        "core.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as u64,
        "cache_stats() delta",
    );
    ledger.set(
        "core.cache_entries",
        stats_field(sa, "cache_entries"),
        1,
        "cache_stats() after the window",
    );

    let socket_p50_us = latencies_ms(window, Class::Search)
        .pct(50.0)
        .unwrap_or(f64::NAN)
        * 1e3;
    let overhead = socket_p50_us - us("server.dispatch").0;
    ledger.set(
        "server.roundtrip_overhead_us",
        overhead,
        searches as u64,
        "socket p50 - Router::dispatch p50",
    );
    let covered =
        overhead + us("core.parse_query").0 + us("core.search").0 + us("docstore.to_json").0;
    ledger.set(
        "trace.coverage_ratio",
        covered / socket_p50_us,
        searches as u64,
        "(overhead + parse_query + search + to_json) / socket search p50",
    );
    let spans_path = args.out.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    replay
        .tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(())
}

/// Git revision when available, else `unknown`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        if !rev.trim().is_empty() {
            return rev.trim().to_string();
        }
    }
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of the measured sources (`crates/`),
/// so a checkout without git history still names what it measured.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

fn provenance(args: &Args, served: &Served) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("git_rev", git_rev().into()),
        ("source_digest", source_digest().into()),
        ("nproc", (nproc as i64).into()),
        ("shards", (served.shards as i64).into()),
        ("obs_enabled", create_obs::enabled().into()),
        ("workload", args.workload.name().into()),
        ("seed", (args.seed as i64).into()),
        ("seconds", (args.seconds as i64).into()),
        ("traced", args.trace.into()),
        ("scale", args.scale_name.as_str().into()),
        ("corpus_reports", (args.scale.reports as i64).into()),
        ("cold_pool", (args.scale.cold_pool as i64).into()),
        ("hot_pool", (args.scale.hot_pool as i64).into()),
        ("zipf_s", ZIPF_S.into()),
        ("clients", (CLIENTS as i64).into()),
        ("loop", "closed, keep-alive".into()),
        (
            "flush_policy",
            format!(
                "WAL fsync on every write; POST /flush every {} acknowledged submits",
                args.scale.flush_every
            )
            .into(),
        ),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    let inputs = Arc::new(Inputs::generate(args.seed, args.scale.clone()));
    let expected = checks::expected_cohorts(&inputs);
    let run_dir = args.out.join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let result = run_in(args, &inputs, &expected, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(
    args: &Args,
    inputs: &Arc<Inputs>,
    expected: &[Vec<String>],
    run_dir: &Path,
) -> Result<(), String> {
    let data = run_dir.join("data");
    let pristine = run_dir.join("pristine");
    let mut tally = Tally::default();
    let served = serve_and_load(
        args,
        inputs,
        &data,
        args.trace.then_some(pristine.as_path()),
        expected,
        &mut tally,
    )?;
    check_against_reopened(args, inputs, &data, &served, expected, &mut tally)?;

    let mut ledger = Ledger::default();
    let classes = end_to_end(&served, &mut ledger);
    if args.trace {
        per_layer(args, inputs, run_dir, &pristine, &served, &mut ledger)?;
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = ledger.missing(defs);
    if !missing.is_empty() {
        return Err(format!("no value for {missing:?}"));
    }
    let window_failed = served.window.samples.iter().filter(|s| !s.ok).count() as u64;
    let attempted = served.window.samples.len() as u64 + tally.attempted;
    let failed = window_failed + tally.failed;
    let correct = tally.failed == 0;
    let report = obj([
        ("provenance", provenance(args, &served)),
        ("metrics", ledger.detail_json()),
        ("latency_by_class", classes),
        (
            "setup_s",
            Value::Array(served.setup_s.iter().map(|&s| s.into()).collect()),
        ),
        (
            "checks",
            obj([
                ("attempted", (tally.attempted as i64).into()),
                ("failed", (tally.failed as i64).into()),
            ]),
        ),
        (
            "failures",
            Value::Array(tally.messages.iter().map(|m| m.as_str().into()).collect()),
        ),
    ]);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, report.to_json_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{}", report.to_json_pretty());
    for message in &tally.messages {
        eprintln!("CHECK FAILED: {message}");
    }
    println!("{}", ledger.result_json(defs, correct, attempted, failed));
    if correct {
        Ok(())
    } else {
        Err(format!("{} correctness checks failed", tally.failed))
    }
}
