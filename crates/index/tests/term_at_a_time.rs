//! The term-at-a-time executor behind `Index::search` for flat
//! disjunctions, checked against `Index::search_exhaustive` bit for bit:
//! doc order plus `score.to_bits()`.

use create_index::{CorpusStats, Index, QueryNode, ScoredDoc, Scorer};

const WORDS: [&str; 16] = [
    "fever",
    "cough",
    "chest",
    "pain",
    "dyspnea",
    "hypertension",
    "tachycardia",
    "pneumonia",
    "nausea",
    "rash",
    "headache",
    "fatigue",
    "edema",
    "syncope",
    "anemia",
    "sepsis",
];

/// Deterministic report text; every fifth report repeats the one
/// before it, so identical scores straddle every k.
fn text(i: usize) -> String {
    let i = if i % 5 == 4 { i - 1 } else { i };
    let mut x = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let len = 4 + (x % 9) as usize;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            WORDS[(x % WORDS.len() as u64) as usize]
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn add(index: &mut Index, i: usize) {
    let body = text(i);
    index
        .add_document(
            &format!("r{i}"),
            &[
                ("title", &body[..body.len().min(12)]),
                ("body", &body),
                ("body_ngram", &body),
            ],
        )
        .unwrap();
}

fn corpus(n: usize) -> Index {
    let mut index = Index::clinical();
    for i in 0..n {
        add(&mut index, i);
    }
    index
}

/// The three-field keyword query `/search` sends.
fn keyword(index: &Index, text: &str) -> QueryNode {
    QueryNode::Bool {
        must: vec![],
        should: ["title", "body", "body_ngram"]
            .iter()
            .map(|f| QueryNode::query_string(index, f, text))
            .collect(),
        must_not: vec![],
    }
}

fn queries(index: &Index) -> Vec<QueryNode> {
    vec![
        keyword(index, "fever cough"),
        keyword(index, "chest pain tachycardia"),
        // Repeated words repeat every n-gram clause.
        keyword(index, "sepsis sepsis anemia"),
        QueryNode::Bool {
            must: vec![],
            should: vec![
                QueryNode::term("body", "rash"),
                QueryNode::term("body", "rash"),
                QueryNode::term("body_ngram", "ras"),
            ],
            must_not: vec![],
        },
        // Fuzzy expansions carry a damping factor per clause.
        QueryNode::Bool {
            must: vec![],
            should: vec![
                QueryNode::fuzzy("body", "fevr", 1),
                QueryNode::term("body", "cough"),
                QueryNode::fuzzy("body", "pnemonia", 2),
            ],
            must_not: vec![],
        },
    ]
}

fn assert_bits(got: &[ScoredDoc], want: &[ScoredDoc], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: hit count");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.external_id, b.external_id, "{what}: doc order");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{what}: {}",
            a.external_id
        );
    }
}

#[test]
fn every_k_matches_exhaustive_including_ties_at_the_boundary() {
    let index = corpus(40);
    for scorer in [Scorer::default(), Scorer::TfIdf] {
        for q in queries(&index) {
            let all = index.search_exhaustive(&q, usize::MAX, scorer);
            assert!(!all.is_empty());
            let tied = all
                .windows(2)
                .any(|w| w[0].score.to_bits() == w[1].score.to_bits());
            assert!(tied, "the repeated reports tie: {q:?}");
            // k = 0 through k past the match count.
            for k in 0..=all.len() + 2 {
                let got = index.search(&q, k, scorer);
                assert_bits(
                    &got,
                    &index.search_exhaustive(&q, k, scorer),
                    &format!("k={k}"),
                );
            }
        }
    }
}

#[test]
fn duplicate_clauses_add_once_per_clause() {
    let index = corpus(40);
    let once = QueryNode::term("body", "rash");
    let twice = QueryNode::Bool {
        must: vec![],
        should: vec![once.clone(), once.clone()],
        must_not: vec![],
    };
    let single = index.search(&once, 10, Scorer::default());
    let double = index.search(&twice, 10, Scorer::default());
    assert_bits(
        &double,
        &index.search_exhaustive(&twice, 10, Scorer::default()),
        "twice",
    );
    for (a, b) in single.iter().zip(&double) {
        assert_eq!(a.external_id, b.external_id);
        assert_eq!((a.score + a.score).to_bits(), b.score.to_bits());
    }
}

#[test]
fn allowed_runs_match_exhaustive_then_filter() {
    let index = corpus(40);
    let n = index.num_docs() as u32;
    let runs: [Vec<u32>; 4] = [
        Vec::new(),
        (0..n).filter(|d| d % 7 == 3).collect(),
        (0..n).collect(),
        // Ids past the last doc match nothing.
        (0..n + 5).collect(),
    ];
    for q in queries(&index) {
        for allowed in &runs {
            for k in [0, 1, 3, 10, 100] {
                let got = index.search_filtered(&q, k, Scorer::default(), None, allowed);
                let want: Vec<ScoredDoc> = index
                    .search_exhaustive(&q, usize::MAX, Scorer::default())
                    .into_iter()
                    .filter(|h| allowed.binary_search(&h.doc).is_ok())
                    .take(k)
                    .collect();
                assert_bits(&got, &want, &format!("allowed={} k={k}", allowed.len()));
            }
        }
    }
}

#[test]
fn merged_stats_over_a_two_way_split_match_the_monolithic_exhaustive_ranking() {
    let whole = corpus(40);
    let mut shards = [Index::clinical(), Index::clinical()];
    for i in 0..40 {
        add(&mut shards[i % 2], i);
    }
    for q in queries(&whole) {
        let mut merged = CorpusStats::collect(&shards[0], &q);
        merged.merge(CorpusStats::collect(&shards[1], &q));
        let all = whole.search_exhaustive(&q, usize::MAX, Scorer::default());
        for shard in &shards {
            for k in [1, 4, 100] {
                let got = shard.search_with_stats(&q, k, Scorer::default(), Some(&merged));
                let want: Vec<ScoredDoc> = all
                    .iter()
                    .filter(|h| shard.internal_id(&h.external_id).is_some())
                    .take(k)
                    .cloned()
                    .collect();
                assert_bits(&got, &want, &format!("k={k}"));
            }
        }
    }
}
