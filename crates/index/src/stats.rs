//! Cross-shard corpus statistics for scatter-gather search.
//!
//! BM25 mixes per-document evidence (tf, field length) with *corpus*
//! evidence (document frequency, average field length, total document
//! count). When the corpus is partitioned into shards, a shard-local
//! search would score with shard-local idf/avg_len and drift from the
//! monolithic ranking. [`CorpusStats`] fixes that: each shard collects
//! the corpus-level numbers *for the terms a query touches*, the
//! searcher sums them across shards (integer sums, so the merge is
//! order-independent), and every shard then scores with the merged
//! stats via [`Index::search_with_stats`].
//!
//! **Bit-exactness.** The merged statistics are integers (`usize`/`u64`)
//! summed before a single cast to `f64`, and [`CorpusStats::idf`] /
//! [`CorpusStats::avg_len`] evaluate the exact expressions
//! [`Index::idf`] and `FieldIndex::avg_len` use. A one-shard system
//! therefore produces bit-identical scores whether it scores through
//! its own statistics or through a collected-and-merged `CorpusStats`,
//! and an N-shard system reproduces the N=1 fold exactly: a document's
//! matching terms live only in its own shard, so the clause-order score
//! fold visits the same contributions in the same order.

use crate::index::Index;
use crate::query::QueryNode;
use create_util::fxhash::FxHashMap;

/// Per-field corpus statistics: the raw integers behind `avg_len` and
/// per-term document frequencies.
#[derive(Debug, Clone, Default)]
struct FieldStats {
    total_len: u64,
    docs_with_field: usize,
    /// Document frequency per analyzed term (only terms the query can
    /// touch: query terms, phrase members, and fuzzy expansions).
    df: FxHashMap<String, usize>,
}

/// Corpus-level statistics for one query, mergeable across shards.
///
/// Keyed with Fx rather than SipHash: collect and merge run per shard
/// per query, the keys are analyzed query terms (bounded by the query's
/// length), and the index dictionaries the df values come from already
/// hash the same terms with Fx.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    num_docs: usize,
    fields: FxHashMap<String, FieldStats>,
}

impl CorpusStats {
    /// Collects this index's contribution to the corpus statistics for
    /// `query`: total document count, per-field length sums, and the
    /// document frequency of every term the query tree can touch
    /// (including this index's fuzzy expansions — a term expanded by
    /// any shard is counted by every shard whose dictionary holds it,
    /// so the merged df is the exact global df).
    pub fn collect(index: &Index, query: &QueryNode) -> CorpusStats {
        let mut stats = CorpusStats {
            num_docs: index.num_docs(),
            fields: FxHashMap::default(),
        };
        stats.visit(index, query);
        stats
    }

    /// Folds another shard's contribution in. Integer sums only, so the
    /// result is independent of merge order. Takes `other` by value so
    /// its keys move instead of being cloned; the first merge into an
    /// empty (default) value adopts `other` whole.
    pub fn merge(&mut self, other: CorpusStats) {
        if self.num_docs == 0 && self.fields.is_empty() {
            *self = other;
            return;
        }
        self.num_docs += other.num_docs;
        for (field, fs) in other.fields {
            let entry = self.fields.entry(field).or_default();
            entry.total_len += fs.total_len;
            entry.docs_with_field += fs.docs_with_field;
            for (term, df) in fs.df {
                *entry.df.entry(term).or_insert(0) += df;
            }
        }
    }

    /// The BM25+ idf over the merged statistics — the same expression as
    /// [`Index::idf`], evaluated on globally-summed integers.
    pub(crate) fn idf(&self, field: &str, term: &str) -> f64 {
        let n = self.num_docs as f64;
        let df = self
            .fields
            .get(field)
            .and_then(|f| f.df.get(term))
            .copied()
            .unwrap_or(0) as f64;
        if df == 0.0 {
            return 0.0;
        }
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Average field length over the merged statistics — the same
    /// expression as the per-field `avg_len`.
    pub(crate) fn avg_len(&self, field: &str) -> f64 {
        let Some(fs) = self.fields.get(field) else {
            return 0.0;
        };
        if fs.docs_with_field == 0 {
            0.0
        } else {
            fs.total_len as f64 / fs.docs_with_field as f64
        }
    }

    fn record_field(&mut self, index: &Index, field: &str) {
        if self.fields.contains_key(field) {
            return;
        }
        let Some(fi) = index.fields.get(field) else {
            return;
        };
        self.fields.insert(
            field.to_string(),
            FieldStats {
                total_len: fi.total_len,
                docs_with_field: fi.docs_with_field,
                df: FxHashMap::default(),
            },
        );
    }

    /// Records `term`'s df once; a repeated term (n-gram queries repeat
    /// many) costs a lookup, not an allocation.
    fn record_term(&mut self, index: &Index, field: &str, term: &str) {
        self.record_field(index, field);
        if let Some(fs) = self.fields.get_mut(field) {
            if !fs.df.contains_key(term) {
                fs.df.insert(term.to_string(), index.doc_freq(field, term));
            }
        }
    }

    fn visit(&mut self, index: &Index, node: &QueryNode) {
        match node {
            QueryNode::Term { field, term } => self.record_term(index, field, term),
            QueryNode::Phrase { field, terms } => {
                for t in terms {
                    self.record_term(index, field, t);
                }
            }
            QueryNode::Fuzzy {
                field,
                term,
                max_edits,
            } => {
                self.record_field(index, field);
                for (expanded, _) in QueryNode::expand_fuzzy(index, field, term, *max_edits) {
                    self.record_term(index, field, expanded);
                }
            }
            QueryNode::Bool {
                must,
                should,
                must_not,
            } => {
                for sub in must.iter().chain(should).chain(must_not) {
                    self.visit(index, sub);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FieldConfig, Index};
    use crate::score::Scorer;
    use create_text::Analyzer;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn body_index() -> Index {
        Index::new(vec![FieldConfig {
            name: "body".to_string(),
            analyzer: Arc::new(Analyzer::clinical_standard()),
            boost: 1.0,
        }])
    }

    const DOCS: [(&str, &str); 4] = [
        ("d0", "fever cough fever chest pain"),
        ("d1", "fever only briefly mentioned"),
        ("d2", "entirely unrelated cardiac procedure"),
        ("d3", "pain chest discomfort persistent"),
    ];

    fn queries() -> Vec<QueryNode> {
        vec![
            QueryNode::term("body", "fever"),
            QueryNode::phrase("body", &["chest", "pain"]),
            QueryNode::fuzzy("body", "fevr", 1),
            QueryNode::Bool {
                must: vec![QueryNode::term("body", "chest")],
                should: vec![QueryNode::term("body", "fever")],
                must_not: vec![QueryNode::term("body", "cardiac")],
            },
        ]
    }

    #[test]
    fn own_stats_reproduce_plain_search_bit_for_bit() {
        let mut idx = body_index();
        for (id, text) in DOCS {
            idx.add_document(id, &[("body", text)]).unwrap();
        }
        for q in queries() {
            let plain = idx.search(&q, 10, Scorer::default());
            let stats = CorpusStats::collect(&idx, &q);
            let with = idx.search_with_stats(&q, 10, Scorer::default(), Some(&stats));
            assert_eq!(plain.len(), with.len());
            for (a, b) in plain.iter().zip(&with) {
                assert_eq!(a.external_id, b.external_id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn merged_shard_stats_reproduce_monolithic_scores() {
        let mut whole = body_index();
        let mut even = body_index();
        let mut odd = body_index();
        for (i, (id, text)) in DOCS.iter().enumerate() {
            whole.add_document(id, &[("body", text)]).unwrap();
            let shard = if i % 2 == 0 { &mut even } else { &mut odd };
            shard.add_document(id, &[("body", text)]).unwrap();
        }
        for q in queries() {
            let mut merged = CorpusStats::collect(&even, &q);
            merged.merge(CorpusStats::collect(&odd, &q));
            let reference: HashMap<String, u64> = whole
                .search(&q, 10, Scorer::default())
                .into_iter()
                .map(|h| (h.external_id, h.score.to_bits()))
                .collect();
            let mut seen = 0;
            for shard in [&even, &odd] {
                for hit in shard.search_with_stats(&q, 10, Scorer::default(), Some(&merged)) {
                    let expected = reference
                        .get(&hit.external_id)
                        .expect("shard hit exists in monolithic ranking");
                    assert_eq!(hit.score.to_bits(), *expected, "{}", hit.external_id);
                    seen += 1;
                }
            }
            assert_eq!(seen, reference.len(), "shards cover the monolithic hits");
        }
    }
}
