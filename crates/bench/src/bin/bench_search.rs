//! Query-path throughput harness (plain Rust, no external bench
//! framework — the workspace builds offline).
//!
//! Builds the production index over N synthetic case reports, then times
//! the production executor (`Index::search` — term-at-a-time scoring of
//! flat disjunctions, galloping intersection, bucketed fuzzy expansion)
//! against the exhaustive baseline
//! (`Index::search_exhaustive`) on term, phrase, boolean, and fuzzy
//! workloads, asserting bit-identical rankings throughout. A final
//! workload measures the facade's generation-stamped query cache (cold
//! pass vs. repeated pass). Writes `BENCH_search.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! ```bash
//! cargo run --release -p create-bench --bin bench_search            # 1000 docs
//! cargo run --release -p create-bench --bin bench_search -- 200 out.json
//! ```

use create_core::{Create, CreateConfig};
use create_corpus::QuerySet;
use create_docstore::json::obj;
use create_docstore::Value;
use create_index::{score::Scorer, Index, QueryNode};
use create_text::Analyzer;
use create_util::Rng;
use std::time::{Duration, Instant};

const K: usize = 10;
const REPS: usize = 3;
/// Minimum length of one timed rep: short query lists are cycled until a
/// rep covers this much wall time, so no rep is a sub-millisecond sample.
const MIN_REP: Duration = Duration::from_millis(50);

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("N must be an integer"))
        .unwrap_or(1000);
    let out_path = args.next().unwrap_or_else(|| "BENCH_search.json".to_string());

    eprintln!("generating {n} synthetic reports...");
    let reports = create_bench::corpus(n, 1234);
    let mut index = Index::clinical();
    for r in &reports {
        index
            .add_document(
                &r.id,
                &[
                    ("title", r.title.as_str()),
                    ("body", r.text.as_str()),
                    ("body_ngram", r.text.as_str()),
                ],
            )
            .expect("index build");
    }

    // Seeded workloads drawn from the indexed text so queries hit real
    // postings (the interesting case for both executors).
    let analyzer = Analyzer::clinical_standard();
    let analyzed: Vec<Vec<String>> = reports.iter().map(|r| analyzer.terms(&r.text)).collect();
    let mut rng = Rng::seed_from_u64(20_240_806);
    let term_queries: Vec<QueryNode> = (0..60)
        .map(|_| QueryNode::Term {
            field: "body".to_string(),
            term: pick_term(&mut rng, &analyzed),
        })
        .collect();
    let phrase_queries: Vec<QueryNode> = (0..30)
        .map(|_| {
            let len = 2 + rng.below(2);
            QueryNode::Phrase {
                field: "body".to_string(),
                terms: pick_window(&mut rng, &analyzed, len),
            }
        })
        .collect();
    let bool_queries: Vec<QueryNode> = (0..30)
        .map(|_| {
            // must-pair drawn from one document so the intersection is
            // non-trivially non-empty.
            let doc = loop {
                let d = &analyzed[rng.below(analyzed.len())];
                if d.len() >= 8 {
                    break d;
                }
            };
            QueryNode::Bool {
                must: vec![
                    QueryNode::Term {
                        field: "body".to_string(),
                        term: doc[rng.below(doc.len())].clone(),
                    },
                    QueryNode::Term {
                        field: "body".to_string(),
                        term: doc[rng.below(doc.len())].clone(),
                    },
                ],
                should: vec![QueryNode::Term {
                    field: "body".to_string(),
                    term: pick_term(&mut rng, &analyzed),
                }],
                must_not: Vec::new(),
            }
        })
        .collect();
    let fuzzy_queries: Vec<QueryNode> = (0..20)
        .map(|_| {
            let base = pick_term(&mut rng, &analyzed);
            QueryNode::Fuzzy {
                field: "body".to_string(),
                term: typo(&mut rng, &base),
                max_edits: 1 + rng.below(2),
            }
        })
        .collect();

    let workloads: [(&str, &[QueryNode]); 4] = [
        ("term", &term_queries),
        ("phrase", &phrase_queries),
        ("bool", &bool_queries),
        ("fuzzy", &fuzzy_queries),
    ];

    // Untimed warm-up doubling as the equivalence gate: every workload
    // query must rank bit-identically under both executors.
    for (name, queries) in &workloads {
        for q in *queries {
            let daat = index.search(q, K, Scorer::default());
            let exhaustive = index.search_exhaustive(q, K, Scorer::default());
            assert_eq!(daat.len(), exhaustive.len(), "{name} hit count");
            for (a, b) in daat.iter().zip(&exhaustive) {
                assert_eq!(a.doc, b.doc, "{name} ranking");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name} score bits");
            }
        }
    }
    eprintln!("equivalence verified: DAAT rankings are bit-identical to exhaustive");

    let mut rows: Vec<Value> = Vec::new();
    for (name, queries) in &workloads {
        let daat_qps = best_qps(queries, |q| {
            index.search(q, K, Scorer::default());
        });
        let exhaustive_qps = best_qps(queries, |q| {
            index.search_exhaustive(q, K, Scorer::default());
        });
        let speedup = daat_qps / exhaustive_qps;
        eprintln!(
            "{name:>6}: daat {daat_qps:10.1} q/s  exhaustive {exhaustive_qps:10.1} q/s  (speedup {speedup:.2}x)"
        );
        rows.push(obj([
            ("workload", (*name).into()),
            ("queries", (queries.len() as i64).into()),
            ("daat_qps", daat_qps.into()),
            ("exhaustive_qps", exhaustive_qps.into()),
            ("speedup", speedup.into()),
        ]));
    }

    // Query-cache workload: full-facade searches (IE parse + graph +
    // keyword + merge). The cold pass computes and fills the cache; warm
    // passes repeat the same queries and are served from it.
    eprintln!("building Create facade for the cache workload...");
    let system = Create::new(CreateConfig::default());
    system
        .ingest_gold_batch(&reports, 0)
        .expect("facade ingest");
    let query_texts: Vec<String> = QuerySet::generate(&reports, 4321, 25)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();
    let started = Instant::now();
    let cold: Vec<Vec<create_core::SearchHit>> =
        query_texts.iter().map(|q| system.search(q, K)).collect();
    let cold_secs = started.elapsed().as_secs_f64();
    let mut warm_best = f64::INFINITY;
    for _ in 0..REPS {
        let started = Instant::now();
        for (q, expected) in query_texts.iter().zip(&cold) {
            let hits = system.search(q, K);
            assert_eq!(hits.len(), expected.len(), "cached hits match");
        }
        warm_best = warm_best.min(started.elapsed().as_secs_f64());
    }
    let cache = system.cache_stats();
    assert!(cache.hits >= (REPS * query_texts.len()) as u64);
    let cold_qps = query_texts.len() as f64 / cold_secs;
    let warm_qps = query_texts.len() as f64 / warm_best;
    let cache_speedup = warm_qps / cold_qps;
    eprintln!(
        "cached: cold {cold_qps:10.1} q/s  warm {warm_qps:10.1} q/s  (speedup {cache_speedup:.2}x)"
    );
    rows.push(obj([
        ("workload", "cached".into()),
        ("queries", (query_texts.len() as i64).into()),
        ("cold_qps", cold_qps.into()),
        ("warm_qps", warm_qps.into()),
        ("speedup", cache_speedup.into()),
        ("cache_hits", (cache.hits as i64).into()),
        ("cache_misses", (cache.misses as i64).into()),
    ]));

    let report = obj([
        ("bench", "search".into()),
        ("meta", create_bench::meta_json(n)),
        ("n_docs", (n as i64).into()),
        ("corpus_seed", 1234_i64.into()),
        ("k", (K as i64).into()),
        ("bit_identical_to_exhaustive", true.into()),
        ("runs", Value::Array(rows)),
        // Query-stage latency distributions from the obs registry,
        // accumulated across the facade (cached) workload above.
        (
            "query_stages",
            create_bench::stage_histograms_json(
                create_obs::names::QUERY_STAGE_SECONDS,
                &create_obs::names::QUERY_STAGES,
            ),
        ),
    ]);
    std::fs::write(&out_path, report.to_json_pretty()).expect("write bench report");
    eprintln!("wrote {out_path}");
}

/// Best-of-R queries/sec for one executor over a workload. Each rep runs
/// the whole query list repeatedly until it has lasted at least
/// [`MIN_REP`]; its rate is queries run / elapsed.
fn best_qps(queries: &[QueryNode], mut run: impl FnMut(&QueryNode)) -> f64 {
    let mut best = 0.0_f64;
    for _ in 0..REPS {
        let started = Instant::now();
        let mut ran = 0;
        let elapsed = loop {
            for q in queries {
                run(q);
            }
            ran += queries.len();
            let elapsed = started.elapsed();
            if elapsed >= MIN_REP {
                break elapsed;
            }
        };
        best = best.max(ran as f64 / elapsed.as_secs_f64());
    }
    best
}

fn pick_term(rng: &mut Rng, analyzed: &[Vec<String>]) -> String {
    loop {
        let doc = &analyzed[rng.below(analyzed.len())];
        if doc.is_empty() {
            continue;
        }
        return doc[rng.below(doc.len())].clone();
    }
}

fn pick_window(rng: &mut Rng, analyzed: &[Vec<String>], len: usize) -> Vec<String> {
    loop {
        let doc = &analyzed[rng.below(analyzed.len())];
        if doc.len() < len {
            continue;
        }
        let start = rng.below(doc.len() - len + 1);
        return doc[start..start + len].to_vec();
    }
}

fn typo(rng: &mut Rng, term: &str) -> String {
    let mut chars: Vec<char> = term.chars().collect();
    if chars.is_empty() {
        return "x".to_string();
    }
    let pos = rng.below(chars.len());
    match rng.below(3) {
        0 => chars[pos] = (b'a' + rng.below(26) as u8) as char,
        1 => {
            chars.remove(pos);
        }
        _ => chars.insert(pos, (b'a' + rng.below(26) as u8) as char),
    }
    chars.into_iter().collect()
}
