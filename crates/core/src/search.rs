//! The two search engines and the Fig-6 merge policies — the primitives
//! the plan executor ([`crate::plan`]) runs per shard.
//!
//! * **Keyword engine** — BM25 over the inverted index (ElasticSearch's
//!   role; with `MergePolicy::EsOnly` it *is* the Solr baseline the paper
//!   compares against). `keyword_query` builds the three-field query a
//!   `Keyword` plan node scores with.
//! * **Graph engine** — walks the property graph (Neo4j's role): a report
//!   matches when it mentions every query concept; when the query carries
//!   a temporal pattern, the report's event steps must realize it. Pattern
//!   realizations outrank concept-only matches. `graph_search` answers
//!   one shard's graph for a `GraphMatch` node.
//! * **Merge** — "By default, Neo4j is the primary search engine in
//!   CREATe-IR. The results returned by Neo4j will be placed on top,
//!   followed by results from ElasticSearch" (Section III-D).

use create_docstore::Value;
use create_graphdb::{NodeId, PropertyGraph};
use create_index::{Index, QueryNode};
use create_ontology::{ConceptId, RelationType};

/// Which engine produced a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchSource {
    /// The property-graph engine.
    Graph,
    /// The keyword (BM25) engine.
    Keyword,
}

/// One ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// External report id.
    pub report_id: String,
    /// Engine-specific score (comparable within one engine only).
    pub score: f64,
    /// Producing engine.
    pub source: SearchSource,
    /// True when the query's temporal pattern was realized in the report.
    pub pattern_matched: bool,
}

/// Result-merge policies (Fig. 6 and its ablation, experiment E6).
/// `Hash` lets a policy participate in query-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// The paper's default: graph results on top, keyword results after.
    Neo4jFirst,
    /// Keyword results on top, graph results after.
    EsFirst,
    /// Keyword engine only — the Solr baseline.
    EsOnly,
    /// Graph engine only.
    GraphOnly,
    /// Alternate between the two lists.
    Interleave,
}

impl MergePolicy {
    /// Stable lower-snake label — the REST API's policy names, reused as
    /// the metrics `policy` label and in slow-query records.
    pub fn label(self) -> &'static str {
        match self {
            MergePolicy::Neo4jFirst => "neo4j_first",
            MergePolicy::EsFirst => "es_first",
            MergePolicy::EsOnly => "es_only",
            MergePolicy::GraphOnly => "graph_only",
            MergePolicy::Interleave => "interleave",
        }
    }
}

/// Local traversal tally for one graph search, flushed to the obs
/// registry in a single call.
#[derive(Debug, Default)]
struct Traversal {
    nodes: u64,
    edges: u64,
}

/// Reports (by node) mentioning a concept, found through the graph's
/// `(Concept, cui)` property index. Concept nodes are deduplicated per
/// graph; should several carry the cui, the newest one answers.
fn reports_mentioning(
    graph: &PropertyGraph,
    concept: ConceptId,
    traversal: &mut Traversal,
) -> Vec<NodeId> {
    let cui = Value::String(concept.to_string());
    let Some(&cnode) = graph.nodes_with_prop("Concept", "cui", &cui).last() else {
        return Vec::new();
    };
    let incoming = graph.incoming(cnode);
    traversal.edges += incoming.len() as u64;
    incoming
        .into_iter()
        .filter(|e| e.rel_type == "MENTIONS")
        .map(|e| e.source)
        .collect()
}

/// Timeline steps at which `concept` occurs in the report.
fn concept_steps(
    graph: &PropertyGraph,
    report: NodeId,
    concept: ConceptId,
    traversal: &mut Traversal,
) -> Vec<f64> {
    let cui = concept.to_string();
    let outgoing = graph.outgoing(report);
    traversal.edges += outgoing.len() as u64;
    outgoing
        .into_iter()
        .filter(|e| e.rel_type == "CONTAINS")
        .filter_map(|e| {
            traversal.nodes += 1;
            graph.node(e.target)
        })
        .filter(|event| {
            event
                .props
                .get("cui")
                .and_then(|v| v.as_str())
                .is_some_and(|c| c == cui)
        })
        .filter_map(|event| event.props.get("step").and_then(|v| v.as_f64()))
        .collect()
}

/// True when the report realizes `rel` between the two concepts.
fn pattern_matches(
    graph: &PropertyGraph,
    report: NodeId,
    c1: ConceptId,
    c2: ConceptId,
    rel: RelationType,
    traversal: &mut Traversal,
) -> bool {
    let s1 = concept_steps(graph, report, c1, traversal);
    let s2 = concept_steps(graph, report, c2, traversal);
    for &a in &s1 {
        for &b in &s2 {
            let ok = match rel {
                RelationType::Before => a < b,
                RelationType::After => a > b,
                RelationType::Overlap => (a - b).abs() < f64::EPSILON,
                _ => false,
            };
            if ok {
                return true;
            }
        }
    }
    false
}

/// The graph node of a report, found through the graph's
/// `(Report, reportId)` property index; should several carry the id, the
/// newest one answers (as in [`reports_mentioning`]).
pub(crate) fn report_node(graph: &PropertyGraph, report_id: &str) -> Option<NodeId> {
    let rid = Value::String(report_id.to_string());
    graph
        .nodes_with_prop("Report", "reportId", &rid)
        .last()
        .copied()
}

/// The graph engine's order — score descending, report id ascending —
/// capped at `k`. Total over distinct report ids, so sorting the
/// concatenated per-shard lists reproduces the single-graph ranking.
pub(crate) fn rank_graph_hits(hits: &mut Vec<SearchHit>, k: usize) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| a.report_id.cmp(&b.report_id))
    });
    hits.truncate(k);
}

/// Runs the graph query over one graph: every concept required; a
/// realized temporal `pattern` scores on top.
pub(crate) fn graph_search(
    graph: &PropertyGraph,
    concepts: &[ConceptId],
    pattern: Option<(ConceptId, ConceptId, RelationType)>,
    k: usize,
) -> Vec<SearchHit> {
    if concepts.is_empty() {
        return Vec::new();
    }
    let mut traversal = Traversal::default();
    // Candidate reports: intersection over per-concept mention lists,
    // seeded from the rarest concept.
    let mut lists: Vec<Vec<NodeId>> = concepts
        .iter()
        .map(|&c| reports_mentioning(graph, c, &mut traversal))
        .collect();
    lists.sort_by_key(Vec::len);
    let Some((seed, rest)) = lists.split_first() else {
        return Vec::new();
    };
    let mut hits = Vec::new();
    for &report in seed {
        traversal.nodes += 1;
        if !rest.iter().all(|l| l.contains(&report)) {
            continue;
        }
        let pattern_matched = match pattern {
            Some((c1, c2, rel)) => pattern_matches(graph, report, c1, c2, rel, &mut traversal),
            None => false,
        };
        let node = graph.node(report).expect("report node exists");
        let report_id = node
            .props
            .get("reportId")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        let year = node
            .props
            .get("year")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        // Pattern dominates; recency is a mild tiebreak.
        let score = if pattern_matched { 10.0 } else { 1.0 } + year / 10_000.0;
        hits.push(SearchHit {
            report_id,
            score,
            source: SearchSource::Graph,
            pattern_matched,
        });
    }
    create_obs::record_graph_exec(traversal.nodes, traversal.edges);
    rank_graph_hits(&mut hits, k);
    hits
}

/// Builds the standard multi-field keyword query over title/body (+ the
/// n-gram field). Analysis depends only on the index's field
/// configuration, which is identical across shards, so a query built
/// against any shard's index works against all of them.
pub(crate) fn keyword_query(index: &Index, query_text: &str) -> QueryNode {
    QueryNode::Bool {
        must: vec![],
        should: vec![
            QueryNode::query_string(index, "title", query_text),
            QueryNode::query_string(index, "body", query_text),
            QueryNode::query_string(index, "body_ngram", query_text),
        ],
        must_not: vec![],
    }
}

/// Merges the two engines' ranked lists under a policy, deduplicating by
/// report id (first occurrence wins) and capping at `k`.
pub fn merge(
    graph_hits: Vec<SearchHit>,
    keyword_hits: Vec<SearchHit>,
    policy: MergePolicy,
    k: usize,
) -> Vec<SearchHit> {
    let ordered: Vec<SearchHit> = match policy {
        MergePolicy::Neo4jFirst => graph_hits.into_iter().chain(keyword_hits).collect(),
        MergePolicy::EsFirst => keyword_hits.into_iter().chain(graph_hits).collect(),
        MergePolicy::EsOnly => keyword_hits,
        MergePolicy::GraphOnly => graph_hits,
        MergePolicy::Interleave => {
            let mut out = Vec::with_capacity(graph_hits.len() + keyword_hits.len());
            let mut g = graph_hits.into_iter();
            let mut e = keyword_hits.into_iter();
            loop {
                match (g.next(), e.next()) {
                    (None, None) => break,
                    (a, b) => {
                        out.extend(a);
                        out.extend(b);
                    }
                }
            }
            out
        }
    };
    let mut seen = std::collections::HashSet::new();
    let mut merged = Vec::with_capacity(k);
    for hit in ordered {
        if seen.insert(hit.report_id.clone()) {
            merged.push(hit);
            if merged.len() >= k {
                break;
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: &str, source: SearchSource) -> SearchHit {
        SearchHit {
            report_id: id.to_string(),
            score: 1.0,
            source,
            pattern_matched: false,
        }
    }

    #[test]
    fn neo4j_first_puts_graph_on_top() {
        let merged = merge(
            vec![
                hit("g1", SearchSource::Graph),
                hit("g2", SearchSource::Graph),
            ],
            vec![hit("e1", SearchSource::Keyword)],
            MergePolicy::Neo4jFirst,
            10,
        );
        let ids: Vec<&str> = merged.iter().map(|h| h.report_id.as_str()).collect();
        assert_eq!(ids, vec!["g1", "g2", "e1"]);
    }

    #[test]
    fn merge_dedupes_by_first_occurrence() {
        let merged = merge(
            vec![hit("x", SearchSource::Graph)],
            vec![
                hit("x", SearchSource::Keyword),
                hit("y", SearchSource::Keyword),
            ],
            MergePolicy::Neo4jFirst,
            10,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].source, SearchSource::Graph);
    }

    #[test]
    fn es_only_drops_graph() {
        let merged = merge(
            vec![hit("g", SearchSource::Graph)],
            vec![hit("e", SearchSource::Keyword)],
            MergePolicy::EsOnly,
            10,
        );
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].report_id, "e");
    }

    #[test]
    fn interleave_alternates() {
        let merged = merge(
            vec![
                hit("g1", SearchSource::Graph),
                hit("g2", SearchSource::Graph),
            ],
            vec![
                hit("e1", SearchSource::Keyword),
                hit("e2", SearchSource::Keyword),
            ],
            MergePolicy::Interleave,
            10,
        );
        let ids: Vec<&str> = merged.iter().map(|h| h.report_id.as_str()).collect();
        assert_eq!(ids, vec!["g1", "e1", "g2", "e2"]);
    }

    #[test]
    fn merge_respects_k() {
        let merged = merge(
            (0..5)
                .map(|i| hit(&format!("g{i}"), SearchSource::Graph))
                .collect(),
            (0..5)
                .map(|i| hit(&format!("e{i}"), SearchSource::Keyword))
                .collect(),
            MergePolicy::Neo4jFirst,
            3,
        );
        assert_eq!(merged.len(), 3);
    }
}
