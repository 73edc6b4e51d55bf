//! The three workloads and the seeded inputs and request streams they
//! send. Everything here is a pure function of the seed and the scale:
//! the same seed gives the same corpus, query pools, held-out reports and
//! per-client request sequences.

use create_corpus::{gold_cohorts, CaseReport, CohortSpec, CorpusConfig, Generator, QuerySet};
use create_docstore::json::obj;
use create_util::Rng;
use std::collections::HashSet;
use std::time::Duration;

/// One traffic mix the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 90% `/search` over a pool larger than every cache, 10% `/cohort`.
    ReadCold,
    /// `/search` only, Zipf over a small pool, caches warmed first.
    ReadHot,
    /// One client submits (flushing every N acknowledged submits), the
    /// other walks the cold query pool.
    WriteMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::ReadCold, Workload::ReadHot, Workload::WriteMix];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCold => "read_cold",
            Workload::ReadHot => "read_hot",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Closed-loop keep-alive clients: callers wait for each reply, and two
/// is the core count of the host the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Zipf exponent of the hot stream.
pub const ZIPF_S: f64 = 1.1;

/// Share of `read_cold` requests that are `/cohort`.
pub const COHORT_SHARE: f64 = 0.10;

/// The sizes of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Gold reports bulk-loaded before serving.
    pub reports: usize,
    /// Distinct queries in the `read_cold` pool.
    pub cold_pool: usize,
    /// Distinct queries in the `read_hot` pool.
    pub hot_pool: usize,
    /// `POST /flush` after this many acknowledged submits.
    pub flush_every: usize,
    /// Reports the NER tagger trains on.
    pub tagger_reports: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed load before the window.
    pub warmup: Duration,
    /// Standalone WAL append+sync probes in a traced run.
    pub wal_probes: usize,
    /// Held-out submissions probed in a traced run's write-layer sweep.
    pub submit_probes: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn standard() -> Scale {
        Scale {
            reports: 2000,
            cold_pool: 4096,
            hot_pool: 64,
            flush_every: 50,
            tagger_reports: 80,
            setup_reps: 3,
            warmup: Duration::from_secs(1),
            wal_probes: 64,
            submit_probes: 12,
        }
    }

    /// A seconds-long configuration for the benchmark's own smoke tests.
    pub fn tiny() -> Scale {
        Scale {
            reports: 80,
            cold_pool: 96,
            hot_pool: 8,
            flush_every: 5,
            tagger_reports: 20,
            setup_reps: 1,
            warmup: Duration::from_millis(200),
            wal_probes: 8,
            submit_probes: 3,
        }
    }

    /// Parses a scale name (`standard` or `tiny`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "standard" => Some(Scale::standard()),
            "tiny" => Some(Scale::tiny()),
            _ => None,
        }
    }
}

/// Derives an independent sub-seed for one generated input.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The base corpus of a seed: what the bulk load ingests.
pub fn corpus(seed: u64, reports: usize) -> (Generator, Vec<CaseReport>) {
    let generator = Generator::new(CorpusConfig {
        num_reports: reports,
        seed: sub_seed(seed, 1),
        ..Default::default()
    });
    let corpus = generator.generate();
    (generator, corpus)
}

/// The kind of one request, as latency is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `GET /search`.
    Search,
    /// `POST /cohort` with filter-only criteria.
    CohortFilter,
    /// `POST /cohort` with temporal constraints.
    CohortTemporal,
    /// `POST /submit`.
    Submit,
    /// `POST /flush`.
    Flush,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Search,
        Class::CohortFilter,
        Class::CohortTemporal,
        Class::Submit,
        Class::Flush,
    ];

    /// The class's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Search => "search",
            Class::CohortFilter => "cohort",
            Class::CohortTemporal => "temporal",
            Class::Submit => "submit",
            Class::Flush => "flush",
        }
    }
}

/// Which query pool a search draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pool {
    /// The large `read_cold` pool.
    Cold,
    /// The small `read_hot` pool.
    Hot,
}

/// One request of a stream, by reference into [`Inputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `GET /search` for the pool's `n`-th query.
    Search(Pool, u32),
    /// `POST /cohort` for the `n`-th gold spec.
    Cohort(u32),
    /// `POST /submit` of the `n`-th held-out report.
    Submit(u64),
    /// `POST /flush`.
    Flush,
}

/// Everything a run sends, generated from the seed.
pub struct Inputs {
    /// The run's seed.
    pub seed: u64,
    /// The run's sizes.
    pub scale: Scale,
    /// The generator (and its ontology) behind the corpus.
    pub generator: Generator,
    /// The bulk-loaded gold reports.
    pub reports: Vec<CaseReport>,
    /// Distinct cold queries, in seeded order.
    pub cold_pool: Vec<String>,
    /// Distinct hot queries, hottest first.
    pub hot_pool: Vec<String>,
    /// The gold cohort specs.
    pub cohorts: Vec<CohortSpec>,
    cold_requests: Vec<Vec<u8>>,
    hot_requests: Vec<Vec<u8>>,
    cohort_requests: Vec<Vec<u8>>,
}

/// Result count every search asks for (the server default).
pub const K: usize = 10;

impl Inputs {
    /// Generates the inputs of `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Inputs {
        let (generator, reports) = corpus(seed, scale.reports);
        let cold_pool = distinct_queries(&reports, sub_seed(seed, 2), scale.cold_pool);
        let hot_pool = distinct_queries(&reports, sub_seed(seed, 3), scale.hot_pool);
        let cohorts = gold_cohorts();
        let cold_requests = cold_pool.iter().map(|q| search_request(q)).collect();
        let hot_requests = hot_pool.iter().map(|q| search_request(q)).collect();
        let cohort_requests = cohorts
            .iter()
            .map(|spec| post_request("/cohort", &spec.criteria_json()))
            .collect();
        Inputs {
            seed,
            scale,
            generator,
            reports,
            cold_pool,
            hot_pool,
            cohorts,
            cold_requests,
            hot_requests,
            cohort_requests,
        }
    }

    /// The reports the NER tagger trains on.
    pub fn tagger_training(&self) -> &[CaseReport] {
        &self.reports[..self.scale.tagger_reports.min(self.reports.len())]
    }

    /// The `n`-th held-out report: never bulk-loaded, with an id no base
    /// report has.
    pub fn held_out(&self, n: u64) -> CaseReport {
        let mut rng = Rng::seed_from_u64(sub_seed(self.seed, 1_000 + n));
        self.generator
            .generate_one(&mut rng, self.scale.reports + n as usize)
    }

    /// The `/submit` body of the `n`-th held-out report.
    pub fn submit_body(&self, n: u64) -> (String, String) {
        let report = self.held_out(n);
        let body = obj([
            ("id", report.id.as_str().into()),
            ("title", report.title.as_str().into()),
            ("text", report.text.as_str().into()),
            ("year", (report.metadata.year as i64).into()),
        ])
        .to_json();
        (report.id, body)
    }

    /// The query text of a search op.
    pub fn query(&self, pool: Pool, n: u32) -> &str {
        match pool {
            Pool::Cold => &self.cold_pool[n as usize],
            Pool::Hot => &self.hot_pool[n as usize],
        }
    }

    /// Whether a gold spec carries temporal constraints.
    pub fn is_temporal(&self, spec: u32) -> bool {
        !self.cohorts[spec as usize].temporal.is_empty()
    }

    /// The latency class of an op.
    pub fn class(&self, op: &Op) -> Class {
        match op {
            Op::Search(..) => Class::Search,
            Op::Cohort(spec) if self.is_temporal(*spec) => Class::CohortTemporal,
            Op::Cohort(_) => Class::CohortFilter,
            Op::Submit(_) => Class::Submit,
            Op::Flush => Class::Flush,
        }
    }

    /// The exact bytes a client writes for an op.
    pub fn request_bytes(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Search(Pool::Cold, n) => self.cold_requests[*n as usize].clone(),
            Op::Search(Pool::Hot, n) => self.hot_requests[*n as usize].clone(),
            Op::Cohort(n) => self.cohort_requests[*n as usize].clone(),
            Op::Submit(n) => post_request("/submit", &self.submit_body(*n).1),
            Op::Flush => post_request("/flush", ""),
        }
    }
}

/// `n` distinct `QuerySet` queries (all four families), generated in
/// growing rounds until enough distinct texts exist, then shuffled.
fn distinct_queries(reports: &[CaseReport], seed: u64, n: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    for round in 0..16u64 {
        let set = QuerySet::generate(reports, sub_seed(seed, round), n * 2);
        for q in set.queries {
            if pool.len() < n && seen.insert(q.text.clone()) {
                pool.push(q.text);
            }
        }
        if pool.len() == n {
            break;
        }
    }
    assert_eq!(pool.len(), n, "corpus too small for {n} distinct queries");
    Rng::seed_from_u64(seed).shuffle(&mut pool);
    pool
}

/// Percent-encodes a query-string value (`+` for spaces).
pub fn url_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn search_request(query: &str) -> Vec<u8> {
    format!(
        "GET /search?q={}&k={K} HTTP/1.1\r\nHost: localhost\r\n\r\n",
        url_encode(query)
    )
    .into_bytes()
}

fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One client's closed-loop request sequence.
#[derive(Debug, Clone)]
pub struct ClientStream {
    workload: Workload,
    client: usize,
    rng: Rng,
    searches: u64,
    cohorts: u64,
    submits: u64,
    acked_since_flush: usize,
    hot_pool: usize,
    cold_pool: usize,
    specs: usize,
    flush_every: usize,
}

impl ClientStream {
    /// The stream of client `client` of `workload`.
    pub fn new(workload: Workload, client: usize, inputs: &Inputs) -> ClientStream {
        let scale = &inputs.scale;
        ClientStream {
            workload,
            client,
            rng: Rng::seed_from_u64(sub_seed(inputs.seed, 100 + client as u64)),
            searches: 0,
            cohorts: 0,
            submits: 0,
            acked_since_flush: 0,
            hot_pool: inputs.hot_pool.len(),
            cold_pool: inputs.cold_pool.len(),
            specs: inputs.cohorts.len(),
            flush_every: scale.flush_every,
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::ReadCold => {
                if self.rng.chance(COHORT_SHARE) {
                    // Clients start at different specs and each cycles all.
                    let spec = (self.cohorts + self.client as u64 * 11) % self.specs as u64;
                    self.cohorts += 1;
                    Op::Cohort(spec as u32)
                } else {
                    // The clients interleave one walk over the shuffled
                    // pool, so a query recurs only after the whole pool.
                    let slot = self.client as u64 + CLIENTS as u64 * self.searches;
                    self.searches += 1;
                    Op::Search(Pool::Cold, (slot % self.cold_pool as u64) as u32)
                }
            }
            Workload::WriteMix if self.client == 0 => {
                if self.acked_since_flush >= self.flush_every {
                    self.acked_since_flush = 0;
                    Op::Flush
                } else {
                    self.submits += 1;
                    Op::Submit(self.submits - 1)
                }
            }
            Workload::WriteMix => {
                // The cold walk, not the hot stream: see the README.
                self.searches += 1;
                Op::Search(
                    Pool::Cold,
                    ((self.searches - 1) % self.cold_pool as u64) as u32,
                )
            }
            Workload::ReadHot => Op::Search(Pool::Hot, self.rng.zipf(self.hot_pool, ZIPF_S) as u32),
        }
    }

    /// Reports an op's outcome: acknowledged submits drive the flush
    /// cadence.
    pub fn acknowledge(&mut self, op: &Op, ok: bool) {
        if ok && matches!(op, Op::Submit(_)) {
            self.acked_since_flush += 1;
        }
    }
}
