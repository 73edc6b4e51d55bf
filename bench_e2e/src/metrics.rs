//! The metric catalog (mirrored by `BENCHMARK.json`), the result a run
//! prints, and the parser for the server's Prometheus exposition.

use create_docstore::json::obj;
use create_docstore::Value;
use std::collections::BTreeMap;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("search_p50_ms", "ms", "lower"),
    m("search_p99_ms", "ms", "lower"),
    m("rss_mib", "MiB", "lower"),
];

/// Per-layer metrics: printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("server.roundtrip_overhead_us", "us", "lower"),
    m("server.dispatch_us", "us", "lower"),
    m("server.parse_request_us", "us", "lower"),
    m("server.queue_wait_us", "us", "lower"),
    m("server.failed_requests", "count", "lower"),
    m("docstore.json_parse_us", "us", "lower"),
    m("docstore.to_json_us", "us", "lower"),
    m("core.cache_hit_ratio", "ratio", "higher"),
    m("core.cache_entries", "count", "lower"),
    m("core.parse_query_us", "us", "lower"),
    m("core.plan_search_us", "us", "lower"),
    m("core.plan_cohort_us", "us", "lower"),
    m("core.plan_nodes_per_query", "count", "lower"),
    m("core.search_us", "us", "lower"),
    m("core.merge_us", "us", "lower"),
    m("index.keyword_leg_us", "us", "lower"),
    m("index.field_title_us", "us", "lower"),
    m("index.field_body_us", "us", "lower"),
    m("index.field_ngram_us", "us", "lower"),
    m("index.postings_advanced_per_query", "count", "lower"),
    m("index.pruned_ratio", "ratio", "higher"),
    m("index.postings_mib", "MiB", "lower"),
    m("index.resident_mib", "MiB", "lower"),
    m("index.facet_bytes_per_doc", "B/doc", "lower"),
    m("index.bitmap_intersections_per_cohort", "count", "lower"),
    m("graphdb.graph_leg_us", "us", "lower"),
    m("graphdb.nodes_visited_per_query", "count", "lower"),
    m("graphdb.edges_traversed_per_query", "count", "lower"),
    m("core.cohort_filter_us", "us", "lower"),
    m("core.cohort_temporal_us", "us", "lower"),
    m("ner.extract_us", "us", "lower"),
    m("core.ingest_text_us", "us", "lower"),
    m("core.publish_us", "us", "lower"),
    m("core.publishes", "count", "lower"),
    m("storage.wal_append_sync_us", "us", "lower"),
    m("storage.wal_bytes_per_submit", "B", "lower"),
    m("storage.flush_ms", "ms", "lower"),
    m("storage.open_s", "s", "lower"),
    m("storage.segment_bytes_per_doc", "B/doc", "lower"),
    m("storage.compactions", "count", "higher"),
    m("trace.coverage_ratio", "ratio", "higher"),
];

/// Whether a metric name is well formed: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .unit
}

/// One measured value with its provenance.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Samples behind it (requests, calls, or scrapes).
    pub samples: u64,
    /// What the value is (`p50`, `p99`, `mean`, `median of 3`, `delta`…).
    pub stat: String,
}

/// The metrics a run collected, by name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, Measured>,
}

impl Ledger {
    /// Records a catalogued metric.
    pub fn set(&mut self, name: &str, value: f64, samples: u64, stat: impl Into<String>) {
        debug_assert!(valid_name(name));
        unit_of(name);
        self.values.insert(
            name.to_string(),
            Measured {
                value,
                samples,
                stat: stat.into(),
            },
        );
    }

    /// Names in `defs` that were not recorded.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.values.get(d.name).is_some_and(|m| m.value.is_finite()))
            .map(|d| d.name)
            .collect()
    }

    /// The full ledger with units, statistics and sample counts.
    pub fn detail_json(&self) -> Value {
        let mut map = BTreeMap::new();
        for (name, m) in &self.values {
            map.insert(
                name.clone(),
                obj([
                    ("value", m.value.into()),
                    ("unit", unit_of(name).into()),
                    ("stat", m.stat.as_str().into()),
                    ("samples", (m.samples as i64).into()),
                ]),
            );
        }
        Value::Object(map)
    }

    /// The result line: `defs` with value and unit only.
    pub fn result_json(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = BTreeMap::new();
        for d in defs {
            if let Some(m) = self.values.get(d.name) {
                metrics.insert(
                    d.name.to_string(),
                    obj([("value", m.value.into()), ("unit", d.unit.into())]),
                );
            }
        }
        obj([
            ("correct", correct.into()),
            ("attempted", (attempted as i64).into()),
            ("failed", (failed as i64).into()),
            ("metrics", Value::Object(metrics)),
        ])
        .to_json()
    }
}

/// A scrape of `GET /metrics`, summed per series name across labels.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    totals: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses Prometheus text exposition (exemplar suffixes ignored).
    pub fn parse(text: &str) -> Scrape {
        let mut totals = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let (name, rest) = match line.find('{') {
                Some(open) if open < line.find(' ').unwrap_or(usize::MAX) => {
                    let close = line[open..].find('}').map_or(line.len(), |c| open + c + 1);
                    (&line[..open], &line[close..])
                }
                _ => match line.split_once(' ') {
                    Some((name, rest)) => (name, rest),
                    None => continue,
                },
            };
            if let Some(value) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                *totals.entry(name.to_string()).or_insert(0.0) += value;
            }
        }
        Scrape { totals }
    }

    /// A series total (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("braces{}"));
    }

    #[test]
    fn scrape_sums_labelled_series_and_skips_exemplars() {
        let text = "# HELP x\n\
                    create_http_queue_wait_seconds_sum 0.5\n\
                    create_http_queue_wait_seconds_count 10\n\
                    create_http_shed_total{reason=\"conn\"} 2\n\
                    create_http_shed_total{reason=\"route\"} 3\n\
                    lat_bucket{le=\"0.005\"} 2 # {trace_id=\"00000000deadbeef\"} 0.003\n";
        let s = Scrape::parse(text);
        assert_eq!(s.get("create_http_queue_wait_seconds_sum"), 0.5);
        assert_eq!(s.get("create_http_queue_wait_seconds_count"), 10.0);
        assert_eq!(s.get("create_http_shed_total"), 5.0);
        assert_eq!(s.get("lat_bucket"), 2.0);
        assert_eq!(s.get("absent"), 0.0);
    }
}
