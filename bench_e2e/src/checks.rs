//! Correctness checks on what the server answered.

use crate::workload::Inputs;
use create_core::{SearchHit, SearchSource};
use create_docstore::json::{obj, parse_json};
use create_docstore::Value;

/// The gold cohort of every spec, as sorted report ids.
pub fn expected_cohorts(inputs: &Inputs) -> Vec<Vec<String>> {
    inputs
        .cohorts
        .iter()
        .map(|spec| {
            let mut ids = spec.expected_ids(&inputs.reports, inputs.generator.ontology());
            ids.sort();
            ids
        })
        .collect()
}

/// A `/cohort` body must hold exactly the gold cohort (precision and
/// recall 1.0): the specs ask for more results than any cohort has.
pub fn cohort_body_matches(body: &str, expected: &[String]) -> Result<(), String> {
    let doc = parse_json(body).map_err(|e| format!("cohort body is not JSON: {e}"))?;
    let mut ids: Vec<String> = doc
        .get("hits")
        .and_then(Value::as_array)
        .ok_or("cohort body has no hits")?
        .iter()
        .filter_map(|h| {
            h.get("reportId")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .collect();
    ids.sort();
    let total = doc.get("totalMatched").and_then(Value::as_f64);
    if ids != expected || total != Some(expected.len() as f64) {
        return Err(format!(
            "cohort returned {} ids (total {total:?}), gold has {}",
            ids.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Renders hits the way `GET /search` does.
pub fn hits_json(hits: &[SearchHit]) -> String {
    let rendered: Vec<Value> = hits
        .iter()
        .map(|h| {
            obj([
                ("reportId", h.report_id.as_str().into()),
                ("score", h.score.into()),
                (
                    "source",
                    match h.source {
                        SearchSource::Graph => "graph".into(),
                        SearchSource::Keyword => "keyword".into(),
                    },
                ),
                ("patternMatched", h.pattern_matched.into()),
            ])
        })
        .collect();
    Value::Array(rendered).to_json()
}

/// A `/search` body must carry exactly the in-process hits.
pub fn search_body_matches(body: &str, reference: &[SearchHit]) -> Result<(), String> {
    let doc = parse_json(body).map_err(|e| format!("search body is not JSON: {e}"))?;
    let served = doc.get("hits").ok_or("search body has no hits")?.to_json();
    let expected = hits_json(reference);
    if served != expected {
        return Err(format!("served hits {served} != in-process {expected}"));
    }
    Ok(())
}

/// Tallies checks: each check is one attempted operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checks run.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{what}: {message}"));
            }
        }
    }
}
