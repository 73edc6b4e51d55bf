//! `/search` and `/cohort` run through one plan executor, so the two
//! surfaces must agree wherever their plans coincide.
//!
//! A cohort whose only criterion is `keywords: q` lowers to
//! `Keyword{q} → Merge{EsOnly, k}` — the same scoring nodes as
//! `search_with_policy(q, k, EsOnly)`. For a panel of seeded queries at
//! shard counts {1, 2, 4} the two answers must be identical at the bit
//! level (report id + raw score bits), and the cohort's `total_matched`
//! must count every report: with no filter or temporal node, every
//! document is eligible.

use create::core::{CohortCriteria, Create, CreateConfig, MergePolicy, SearchHit};
use create::corpus::{CaseReport, CorpusConfig, Generator, QuerySet};

const N_DOCS: usize = 80;
const K: usize = 10;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn corpus(n: usize, seed: u64) -> Vec<CaseReport> {
    Generator::new(CorpusConfig {
        num_reports: n,
        seed,
        ..Default::default()
    })
    .generate()
}

fn sharded(reports: &[CaseReport], shards: usize) -> Create {
    let system = Create::new(CreateConfig {
        shards,
        ..Default::default()
    });
    assert_eq!(system.shard_count(), shards);
    system.ingest_gold_batch(reports, 0).expect("ingest");
    system
}

fn bits(hits: &[SearchHit]) -> Vec<(String, u64, bool)> {
    hits.iter()
        .map(|h| (h.report_id.clone(), h.score.to_bits(), h.pattern_matched))
        .collect()
}

#[test]
fn keyword_cohort_equals_es_only_search_at_every_shard_count() {
    let reports = corpus(N_DOCS, 20261017);
    let queries: Vec<String> = QuerySet::generate(&reports, 31, 30)
        .queries
        .into_iter()
        .map(|q| q.text)
        .collect();
    assert!(queries.len() >= 25, "a real query panel");

    for shards in SHARD_COUNTS {
        let system = sharded(&reports, shards);
        let mut nonempty = 0;
        for q in &queries {
            let cohort = system.cohort(&CohortCriteria {
                filters: Vec::new(),
                keywords: Some(q.clone()),
                temporal: Vec::new(),
                facet_counts: Vec::new(),
                k: K,
            });
            let search = system.search_with_policy(q, K, MergePolicy::EsOnly);
            assert_eq!(
                bits(&cohort.hits),
                bits(&search),
                "cohort and search diverged at {shards} shards for {q:?}"
            );
            assert_eq!(
                cohort.total_matched, N_DOCS as u64,
                "every report is eligible without filters ({shards} shards, {q:?})"
            );
            nonempty += usize::from(!search.is_empty());
        }
        assert!(
            nonempty * 2 >= queries.len(),
            "most panel queries hit something at {shards} shards"
        );
    }
}
