//! The traced run: replays a workload's requests single-threaded and
//! times every call into a layer's public function from here, keeping
//! the spans in memory until the run writes them out.
//!
//! A replayed `/search` takes one of two paths, alternating: the
//! *dispatch* path (`http::parse_request` then `Router::dispatch`, the
//! whole handler) or the *layer* path (`parse_request`, then the facade
//! and engine calls the handler's work is made of, one by one). The two
//! paths run disjoint requests, so each sees the caches in the state
//! the workload leaves them in, and neither warms the other's calls.

use crate::workload::{Class, Inputs, Op, Pool, K};
use create_core::plan::{lower_cohort, lower_search, parse_cohort_criteria};
use create_core::search::merge;
use create_core::{Create, ExtractedAnnotations, MergePolicy};
use create_docstore::json::parse_json;
use create_docstore::Value;
use create_index::{Index, QueryNode, Scorer};
use create_ner::CrfTagger;
use create_obs::names;
use create_server::http::parse_request;
use create_server::Router;
use create_storage::wal::Wal;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The request it belongs to.
    pub request: u32,
    /// Its own id (index in the recorder).
    pub id: u32,
    /// The span that caused it (the request's root), if any.
    pub parent: Option<u32>,
    /// Layer call name (`core.search`) or request kind (`request.search`).
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// An open request (its root span).
pub struct Open {
    request: u32,
    root: u32,
}

/// The in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    requests: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a request.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let request = self.requests;
        self.requests += 1;
        let root = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            request,
            id: root,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open { request, root }
    }

    /// Times one call as a child span of `open`.
    pub fn call<T>(&mut self, open: &Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            request: open.request,
            id: self.spans.len() as u32,
            parent: Some(open.root),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Closes a request.
    pub fn end(&mut self, open: Open) {
        let end = self.now_ns();
        self.spans[open.root as usize].end_ns = end;
    }

    /// Spans recorded.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Work counters read from this process's obs registry around calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Facet bitmap intersections during `Create::cohort` calls.
    pub bitmap_intersections: u64,
    /// `Create::cohort` calls.
    pub cohort_calls: u64,
    /// WAL bytes appended during `Create::ingest_text` calls.
    pub wal_bytes: u64,
    /// `Create::ingest_text` calls.
    pub ingests: u64,
    /// Snapshot publish seconds (sum) during writes.
    pub publish_seconds: f64,
    /// Snapshot publishes during writes.
    pub publish_count: u64,
}

/// What the replay works on.
pub struct Replay<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// The reopened pristine store, tagger attached.
    pub system: &'a Create,
    /// `build_api` over `system`.
    pub router: &'a Router,
    /// A second copy of the tagger, for timing NER on its own.
    pub ner_tagger: &'a CrfTagger,
    /// A standalone `Index::clinical()` over the base corpus.
    pub index: &'a Index,
    /// The recorder.
    pub tracer: Tracer,
    /// Work counters.
    pub counters: Counters,
    searches: u64,
}

fn counter(name: &str) -> u64 {
    create_obs::counter(name).get()
}

impl<'a> Replay<'a> {
    /// A replay over an opened system.
    pub fn new(
        inputs: &'a Inputs,
        system: &'a Create,
        router: &'a Router,
        ner_tagger: &'a CrfTagger,
        index: &'a Index,
    ) -> Replay<'a> {
        Replay {
            inputs,
            system,
            router,
            ner_tagger,
            index,
            tracer: Tracer::default(),
            counters: Counters::default(),
            searches: 0,
        }
    }

    /// Sends each hot query through the handler once, as the socket run
    /// warms the server's caches (untimed).
    pub fn warm_hot(&self) {
        for n in 0..self.inputs.hot_pool.len() {
            let bytes = self.inputs.request_bytes(&Op::Search(Pool::Hot, n as u32));
            let request = parse_request(&mut &bytes[..]).expect("generated request parses");
            self.router.dispatch(&request);
        }
    }

    /// Replays `ops` in order until `budget` runs out; returns how many ran.
    pub fn run(&mut self, ops: &[Op], budget: Duration) -> usize {
        let started = Instant::now();
        let mut done = 0;
        for op in ops {
            if started.elapsed() >= budget {
                break;
            }
            self.op(op);
            done += 1;
        }
        done
    }

    /// Replays one request.
    pub fn op(&mut self, op: &Op) {
        let bytes = self.inputs.request_bytes(op);
        match self.inputs.class(op) {
            Class::Search => self.search(&bytes),
            Class::CohortFilter | Class::CohortTemporal => {
                self.cohort(&bytes, self.inputs.class(op) == Class::CohortTemporal)
            }
            Class::Submit => self.submit(&bytes),
            Class::Flush => {
                let open = self.tracer.begin("request.flush");
                let system = self.system;
                let _ = self.tracer.call(&open, "server.parse_request", || {
                    parse_request(&mut &bytes[..])
                });
                self.tracer
                    .call(&open, "storage.flush", || system.flush())
                    .expect("flush");
                self.tracer.end(open);
            }
        }
    }

    fn search(&mut self, bytes: &[u8]) {
        let (system, router, index) = (self.system, self.router, self.index);
        let tr = &mut self.tracer;
        let open = tr.begin("request.search");
        let request = tr
            .call(&open, "server.parse_request", || {
                parse_request(&mut &bytes[..])
            })
            .expect("generated request parses");
        self.searches += 1;
        if self.searches % 2 == 1 {
            let response = tr.call(&open, "server.dispatch", || router.dispatch(&request));
            let doc = parse_json(std::str::from_utf8(&response.body).unwrap_or_default())
                .unwrap_or(Value::Null);
            std::hint::black_box(tr.call(&open, "docstore.to_json", || doc.to_json()));
        } else {
            let q = request.param("q").unwrap_or_default();
            let parsed = tr.call(&open, "core.parse_query", || system.parse_query(q));
            std::hint::black_box(tr.call(&open, "core.plan_search", || {
                lower_search(q, &parsed, K, MergePolicy::Neo4jFirst).optimize()
            }));
            std::hint::black_box(tr.call(&open, "core.search", || {
                system.search_with_policy(q, K, MergePolicy::Neo4jFirst)
            }));
            let keyword = tr.call(&open, "index.keyword_leg", || {
                system.search_with_policy(q, K, MergePolicy::EsOnly)
            });
            let graph = tr.call(&open, "graphdb.graph_leg", || {
                system.search_with_policy(q, K, MergePolicy::GraphOnly)
            });
            std::hint::black_box(tr.call(&open, "core.merge", || {
                merge(graph, keyword, MergePolicy::Neo4jFirst, K)
            }));
            for (field, name) in [
                ("title", "index.field_title"),
                ("body", "index.field_body"),
                ("body_ngram", "index.field_ngram"),
            ] {
                let node = QueryNode::query_string(index, field, q);
                std::hint::black_box(
                    tr.call(&open, name, || index.search(&node, K, Scorer::default())),
                );
            }
        }
        tr.end(open);
    }

    fn cohort(&mut self, bytes: &[u8], temporal: bool) {
        let system = self.system;
        let ontology = system.ontology();
        let tr = &mut self.tracer;
        let open = tr.begin("request.cohort");
        let request = tr
            .call(&open, "server.parse_request", || {
                parse_request(&mut &bytes[..])
            })
            .expect("generated request parses");
        let body = request.body_str().unwrap_or_default();
        let json = tr
            .call(&open, "docstore.json_parse", || parse_json(body))
            .expect("criteria parse");
        let criteria = tr
            .call(&open, "core.plan_cohort", || {
                parse_cohort_criteria(&json, &ontology).inspect(|c| {
                    std::hint::black_box(lower_cohort(c).optimize());
                })
            })
            .expect("gold criteria are valid");
        let before = counter(names::BITMAP_INTERSECTIONS_TOTAL);
        let name = if temporal {
            "core.cohort_temporal"
        } else {
            "core.cohort_filter"
        };
        std::hint::black_box(tr.call(&open, name, || system.cohort(&criteria)));
        self.counters.bitmap_intersections += counter(names::BITMAP_INTERSECTIONS_TOTAL) - before;
        self.counters.cohort_calls += 1;
        tr.end(open);
    }

    fn submit(&mut self, bytes: &[u8]) {
        let (system, tagger) = (self.system, self.ner_tagger);
        let ontology = system.ontology();
        let tr = &mut self.tracer;
        let open = tr.begin("request.submit");
        let request = tr
            .call(&open, "server.parse_request", || {
                parse_request(&mut &bytes[..])
            })
            .expect("generated request parses");
        let body = request.body_str().unwrap_or_default();
        let json = tr
            .call(&open, "docstore.json_parse", || parse_json(body))
            .expect("submit body parses");
        let field = |k: &str| json.get(k).and_then(Value::as_str).unwrap_or_default();
        let (id, title, text) = (field("id"), field("title"), field("text"));
        let year = json.get("year").and_then(Value::as_i64).unwrap_or(2020) as u32;
        std::hint::black_box(tr.call(&open, "ner.extract", || {
            ExtractedAnnotations::from_text(text, tagger, &ontology)
        }));
        let publish = create_obs::histogram(names::SNAPSHOT_PUBLISH_SECONDS);
        let (wal_before, sum_before, count_before) = (
            counter(names::WAL_APPENDED_BYTES_TOTAL),
            publish.sum(),
            publish.count(),
        );
        tr.call(&open, "core.ingest_text", || {
            system.ingest_text(id, title, text, year)
        })
        .expect("held-out report ingests");
        self.counters.wal_bytes += counter(names::WAL_APPENDED_BYTES_TOTAL) - wal_before;
        self.counters.publish_seconds += publish.sum() - sum_before;
        self.counters.publish_count += publish.count() - count_before;
        self.counters.ingests += 1;
        tr.end(open);
    }

    /// Times `Wal::append` + `Wal::sync` of submit-sized records in a
    /// scratch log under `dir`.
    pub fn wal_probes(&mut self, dir: &Path, record: &[u8], probes: usize) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let (mut wal, _) = Wal::open(dir.join("probe.wal")).map_err(|e| e.to_string())?;
        for _ in 0..probes {
            let open = self.tracer.begin("request.wal_probe");
            self.tracer
                .call(&open, "storage.wal_append_sync", || {
                    wal.append(record)?;
                    wal.sync()
                })
                .map_err(|e| e.to_string())?;
            self.tracer.end(open);
        }
        Ok(())
    }
}

/// Per-name medians (µs) and counts of every recorded layer span.
pub fn span_medians(tracer: &Tracer) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans() {
        if s.parent.is_some() {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, (crate::stats::median(&v).unwrap_or(0.0), v.len())))
        .collect()
}

/// A standalone `Index::clinical()` over `reports`, fielded as the
/// system indexes them.
pub fn standalone_index(reports: &[create_corpus::CaseReport]) -> Index {
    let mut index = Index::clinical();
    for r in reports {
        index
            .add_document(
                &r.id,
                &[
                    ("title", r.title.as_str()),
                    ("body", r.text.as_str()),
                    ("body_ngram", r.text.as_str()),
                ],
            )
            .expect("corpus ids are unique");
    }
    index
}
