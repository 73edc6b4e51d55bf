//! Query execution: term-at-a-time scoring for flat disjunctions,
//! document-at-a-time merging for everything else.
//!
//! [`Index::search`](crate::Index::search) runs here. The flat
//! disjunctions the query console actually sends (`query_string` over one
//! or more fields, fuzzy expansions included) flatten into a list of term
//! clauses; an n-gram field alone yields a hundred or more. Those are
//! scored *term at a time*: each clause's postings are walked once, in
//! clause order, adding into a dense per-document accumulator, and the
//! top k are selected from the documents it reached. `Bool::must` and
//! phrase terms are intersected by merge over per-term cursors
//! (galloping seeks) instead of per-clause `HashMap`s.
//!
//! **Equivalence invariant.** Every path returns rankings bit-identical to
//! [`Index::search_exhaustive`](crate::Index::search_exhaustive):
//!
//! * per-term scores come from [`doc_score`], the expression the
//!   exhaustive walker evaluates, with the same fuzzy damping applied
//!   after it;
//! * per-document scores are accumulated in *clause order* from `0.0`
//!   (the order the exhaustive walker visits clauses), so each document's
//!   sum is the same sequence of rounded additions and has the same bits;
//! * top-k selection orders by [`Entry`](crate::score::Entry), a total
//!   order on `(score, doc id)`, so the selected set and its tie-break
//!   depend only on those bits.

use crate::index::{Index, Posting};
use crate::query::QueryNode;
use crate::score::{doc_score, top_k, ScoredDoc, Scorer};
use crate::stats::CorpusStats;
use create_obs::DaatStats;
use std::cell::Cell;

/// Reusable per-query scratch buffers, allocated once per `search` call
/// and shared across all phrase nodes in the query tree.
#[derive(Default)]
struct Scratch {
    starts: Vec<u32>,
    tmp: Vec<u32>,
}

/// Search entry point: term-at-a-time scoring for flat disjunctions,
/// merge-based evaluation for everything else. `global`, when present,
/// supplies cross-shard corpus statistics (idf / avg_len) in place of
/// this index's own — see [`crate::stats`].
pub(crate) fn search_daat(
    index: &Index,
    query: &QueryNode,
    k: usize,
    scorer: Scorer,
    global: Option<&CorpusStats>,
    allowed: Option<&[u32]>,
) -> Vec<ScoredDoc> {
    // Executor statistics, accumulated locally and flushed to the obs
    // registry in one call at the end (a no-op without the `obs` feature).
    let mut stats = DaatStats::default();
    let mut specs = Vec::new();
    if flatten(index, query, &mut specs, &mut stats) {
        let hits = term_at_a_time_top_k(index, &specs, k, scorer, &mut stats, global, allowed);
        create_obs::record_daat(stats);
        return hits;
    }
    let mut scratch = Scratch::default();
    let (mut scored, mut exclusions) =
        eval_node(index, query, scorer, &mut scratch, &mut stats, global);
    exclusions.sort_unstable();
    exclusions.dedup();
    if let Some(allowed) = allowed {
        scored.retain(|(d, _)| allowed.binary_search(d).is_ok());
    }
    let hits = top_k(
        index,
        scored
            .into_iter()
            .filter(|(d, _)| exclusions.binary_search(d).is_err()),
        k,
    );
    create_obs::record_daat(stats);
    hits
}

/// One scoring cursor over a term's postings.
struct TermCursor<'a> {
    postings: &'a [Posting],
    pos: usize,
    doc_len: &'a [u32],
    idf: f64,
    avg_len: f64,
    boost: f64,
    /// Fuzzy-expansion damping (`1 / (1 + distance)`), applied after the
    /// base score exactly as the exhaustive walker does.
    damp: Option<f64>,
    /// Postings this cursor moved past (advances + seek deltas), for the
    /// `daat_postings_advanced` counter.
    moves: u64,
}

impl<'a> TermCursor<'a> {
    /// `None` when the field or term is absent (the clause matches
    /// nothing, mirroring an empty `term_scores`). With `global` set,
    /// idf and avg_len come from the merged cross-shard statistics.
    fn open(
        index: &'a Index,
        field: &str,
        term: &str,
        damp: Option<f64>,
        global: Option<&CorpusStats>,
    ) -> Option<Self> {
        let fi = index.fields.get(field)?;
        let postings: &[Posting] = fi.dict.get(term)?;
        let (idf, avg_len) = match global {
            Some(g) => (g.idf(field, term), g.avg_len(field)),
            None => (index.idf(field, term), fi.avg_len()),
        };
        Some(TermCursor {
            postings,
            pos: 0,
            doc_len: &fi.doc_len,
            idf,
            avg_len: avg_len.max(1.0),
            boost: fi.boost,
            damp,
            moves: 0,
        })
    }

    #[inline]
    fn current(&self) -> Option<u32> {
        self.postings.get(self.pos).map(|p| p.doc)
    }

    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
        self.moves += 1;
    }

    /// Positions the cursor at the first posting with `doc >= target`
    /// by galloping out of the current position, then binary-searching
    /// the bracketed window.
    fn seek(&mut self, target: u32) {
        let ps = self.postings;
        if self.pos >= ps.len() || ps[self.pos].doc >= target {
            return;
        }
        let start = self.pos;
        let mut step = 1;
        let mut lo = self.pos; // invariant: ps[lo].doc < target
        let mut hi = lo + step;
        while hi < ps.len() && ps[hi].doc < target {
            lo = hi;
            step *= 2;
            hi = lo + step;
        }
        let hi = hi.min(ps.len());
        self.pos = lo + ps[lo..hi].partition_point(|p| p.doc < target);
        self.moves += (self.pos - start) as u64;
    }

    /// Term positions in the current document.
    #[inline]
    fn positions(&self) -> &'a [u32] {
        &self.postings[self.pos].positions
    }

    /// This term's score contribution for the current document.
    #[inline]
    fn score_at(&self, scorer: Scorer) -> f64 {
        self.score(&self.postings[self.pos], scorer)
    }

    /// This term's score contribution for posting `p` — the same
    /// expression `term_scores` evaluates, so the bits match.
    #[inline]
    fn score(&self, p: &Posting, scorer: Scorer) -> f64 {
        let s = doc_score(
            scorer,
            self.idf,
            p.tf() as f64,
            self.doc_len[p.doc as usize] as f64,
            self.avg_len,
            self.boost,
        );
        match self.damp {
            Some(d) => s * d,
            None => s,
        }
    }
}

/// A flattened scoring clause: one term cursor to open.
struct CursorSpec<'a> {
    field: &'a str,
    term: &'a str,
    damp: Option<f64>,
}

/// Flattens a pure disjunction (terms, fuzzy expansions, and nested
/// should-only bools) into cursor specs in clause order. Returns false —
/// leaving `out` unusable — when the tree has `must`/`must_not`/phrase
/// structure, which takes the general path instead.
fn flatten<'a>(
    index: &'a Index,
    node: &'a QueryNode,
    out: &mut Vec<CursorSpec<'a>>,
    stats: &mut DaatStats,
) -> bool {
    match node {
        QueryNode::Term { field, term } => {
            out.push(CursorSpec {
                field,
                term,
                damp: None,
            });
            true
        }
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            let expansions = QueryNode::expand_fuzzy(index, field, term, *max_edits);
            stats.fuzzy_expansions += expansions.len() as u64;
            for (expanded, dist) in expansions {
                out.push(CursorSpec {
                    field,
                    term: expanded,
                    damp: Some(1.0 / (1.0 + dist as f64)),
                });
            }
            true
        }
        QueryNode::Bool {
            must,
            should,
            must_not,
        } if must.is_empty() && must_not.is_empty() => {
            should.iter().all(|sub| flatten(index, sub, out, stats))
        }
        _ => false,
    }
}

/// Per-thread accumulator buffers for [`term_at_a_time_top_k`], kept
/// between queries so a search neither allocates nor zeroes a
/// shard-sized buffer.
#[derive(Default)]
struct Accumulator {
    /// Clause-order score sum per shard-local doc id; all `0.0` between
    /// queries.
    scores: Vec<f64>,
    /// Docs whose slot read `0.0` when a clause reached them. A doc can
    /// appear twice (its sum can be zero between clauses); the collect
    /// step takes its slot the first time and reads `0.0` after.
    touched: Vec<u32>,
    /// The `allowed` run as a mask; all `false` between queries.
    allowed: Vec<bool>,
}

thread_local! {
    /// Taken out for the length of a query and put back after it, so a
    /// query that panics leaves no stale sums: the next one starts empty.
    static ACCUMULATOR: Cell<Accumulator> = Cell::default();
}

/// Term-at-a-time union over flat term clauses: every clause's postings
/// are walked in clause order, adding into a dense accumulator, then the
/// top k are selected from the docs it reached. With `allowed` set, only
/// docs in the (sorted) run are scored — postings outside it are skipped
/// *before* any score work, which is the filter pushdown the cohort
/// planner relies on. Per-doc scores are independent sums, so surviving
/// docs rank bit-identically to post-filtering an unfiltered search.
fn term_at_a_time_top_k(
    index: &Index,
    specs: &[CursorSpec],
    k: usize,
    scorer: Scorer,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
    allowed: Option<&[u32]>,
) -> Vec<ScoredDoc> {
    if k == 0 {
        return Vec::new();
    }
    let mut acc = ACCUMULATOR.take();
    let Accumulator {
        scores,
        touched,
        allowed: mask,
    } = &mut acc;
    let n = index.num_docs();
    // Ids past the last doc match no posting.
    let allowed = allowed.map(|run| &run[..run.partition_point(|&d| (d as usize) < n)]);
    if scores.len() < n {
        scores.resize(n, 0.0);
        mask.resize(n, false);
    }
    if let Some(allowed) = allowed {
        for &d in allowed {
            mask[d as usize] = true;
        }
    }
    for spec in specs {
        let Some(clause) = TermCursor::open(index, spec.field, spec.term, spec.damp, global) else {
            continue;
        };
        stats.postings_advanced += clause.postings.len() as u64;
        for p in clause.postings {
            let d = p.doc as usize;
            if allowed.is_some() && !mask[d] {
                continue;
            }
            let s = clause.score(p, scorer);
            if scores[d] == 0.0 {
                touched.push(p.doc);
            }
            scores[d] += s;
        }
    }
    if let Some(allowed) = allowed {
        for &d in allowed {
            mask[d as usize] = false;
        }
    }
    let hits = top_k(
        index,
        touched
            .drain(..)
            .map(|d| (d, std::mem::take(&mut scores[d as usize]))),
        k,
    );
    ACCUMULATOR.set(acc);
    hits
}

/// Evaluates a node into `(sorted scored docs, exclusion docs)`. The
/// exclusion list propagates upward (the exhaustive walker shares one
/// exclusion set across the whole tree) except across `must` boundaries,
/// where it is applied locally — same semantics, merge-based execution.
fn eval_node(
    index: &Index,
    node: &QueryNode,
    scorer: Scorer,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
) -> (Vec<(u32, f64)>, Vec<u32>) {
    match node {
        QueryNode::Term { field, term } => (
            index.term_scores_with(field, term, scorer, global),
            Vec::new(),
        ),
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => (
            eval_fuzzy(index, field, term, *max_edits, scorer, stats, global),
            Vec::new(),
        ),
        QueryNode::Phrase { field, terms } => (
            eval_phrase(index, field, terms, scorer, scratch, stats, global),
            Vec::new(),
        ),
        QueryNode::Bool {
            must,
            should,
            must_not,
        } => {
            let mut exclusions = Vec::new();
            let mut parts: Vec<Vec<(u32, f64)>> = Vec::new();
            if !must.is_empty() {
                let mut clause_lists = Vec::with_capacity(must.len());
                for sub in must {
                    let (mut list, mut sub_excl) =
                        eval_node(index, sub, scorer, scratch, stats, global);
                    if !sub_excl.is_empty() {
                        sub_excl.sort_unstable();
                        sub_excl.dedup();
                        list.retain(|(d, _)| sub_excl.binary_search(d).is_err());
                    }
                    clause_lists.push(list);
                }
                parts.push(intersect_sum(clause_lists));
            }
            for sub in should {
                let (list, sub_excl) = eval_node(index, sub, scorer, scratch, stats, global);
                parts.push(list);
                exclusions.extend(sub_excl);
            }
            for sub in must_not {
                neg_docs(index, sub, scratch, stats, &mut exclusions);
            }
            (union_sum(parts), exclusions)
        }
    }
}

/// Documents matching a node under `must_not` (scores irrelevant).
fn neg_docs(
    index: &Index,
    node: &QueryNode,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    out: &mut Vec<u32>,
) {
    match node {
        QueryNode::Term { field, term } => {
            if let Some(postings) = index.postings(field, term) {
                out.extend(postings.iter().map(|p| p.doc));
            }
        }
        QueryNode::Fuzzy {
            field,
            term,
            max_edits,
        } => {
            let expansions = QueryNode::expand_fuzzy(index, field, term, *max_edits);
            stats.fuzzy_expansions += expansions.len() as u64;
            for (expanded, _) in expansions {
                if let Some(postings) = index.postings(field, expanded) {
                    out.extend(postings.iter().map(|p| p.doc));
                }
            }
        }
        QueryNode::Phrase { field, terms } => {
            // Scores are discarded under must_not, so shard-local
            // statistics are fine here.
            out.extend(
                eval_phrase(index, field, terms, scorer_for_neg(), scratch, stats, None)
                    .into_iter()
                    .map(|(d, _)| d),
            );
        }
        QueryNode::Bool { must, should, .. } => {
            for sub in must.iter().chain(should) {
                neg_docs(index, sub, scratch, stats, out);
            }
        }
    }
}

/// Scorer used when only match/no-match matters (phrase exclusion).
fn scorer_for_neg() -> Scorer {
    Scorer::default()
}

/// Fuzzy node: damped union over the (sorted) expansion terms, summed per
/// doc in expansion order — the same fold the exhaustive walker performs.
fn eval_fuzzy(
    index: &Index,
    field: &str,
    term: &str,
    max_edits: usize,
    scorer: Scorer,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
) -> Vec<(u32, f64)> {
    let expansions = QueryNode::expand_fuzzy(index, field, term, max_edits);
    stats.fuzzy_expansions += expansions.len() as u64;
    let lists: Vec<Vec<(u32, f64)>> = expansions
        .into_iter()
        .map(|(expanded, dist)| {
            let damp = 1.0 / (1.0 + dist as f64);
            index
                .term_scores_with(field, expanded, scorer, global)
                .into_iter()
                .map(|(doc, s)| (doc, s * damp))
                .collect()
        })
        .collect();
    union_sum(lists)
}

/// Phrase node: leapfrog intersection over the member-term cursors, with
/// adjacency checked by merge over the (sorted) position lists and the
/// member scores read straight off the cursors — one pass, no per-doc
/// `term_scores` rescan.
fn eval_phrase(
    index: &Index,
    field: &str,
    terms: &[String],
    scorer: Scorer,
    scratch: &mut Scratch,
    stats: &mut DaatStats,
    global: Option<&CorpusStats>,
) -> Vec<(u32, f64)> {
    if terms.is_empty() {
        return Vec::new();
    }
    if terms.len() == 1 {
        return index.term_scores_with(field, &terms[0], scorer, global);
    }
    let mut cursors = Vec::with_capacity(terms.len());
    for t in terms {
        match TermCursor::open(index, field, t, None, global) {
            Some(c) => cursors.push(c),
            None => return Vec::new(),
        }
    }
    let mut out = Vec::new();
    'outer: loop {
        let Some(mut target) = cursors[0].current() else {
            break;
        };
        let mut aligned = false;
        while !aligned {
            aligned = true;
            for c in cursors.iter_mut() {
                c.seek(target);
                match c.current() {
                    None => break 'outer,
                    Some(d) if d > target => {
                        target = d;
                        aligned = false;
                    }
                    _ => {}
                }
            }
        }
        let matches = adjacency_matches(&cursors, scratch);
        if matches > 0 {
            let mut score = 0.0;
            for c in &cursors {
                score += c.score_at(scorer);
            }
            out.push((target, score * (1.0 + 0.5 * matches as f64)));
        }
        for c in cursors.iter_mut() {
            c.advance();
        }
    }
    stats.postings_advanced += cursors.iter().map(|c| c.moves).sum::<u64>();
    out
}

/// Counts phrase occurrences in the aligned doc: start positions of the
/// first term that every later term follows at the right offset.
fn adjacency_matches(cursors: &[TermCursor], scratch: &mut Scratch) -> usize {
    let Scratch { starts, tmp } = scratch;
    starts.clear();
    starts.extend_from_slice(cursors[0].positions());
    for (offset, c) in cursors[1..].iter().enumerate() {
        let shift = offset as u32 + 1;
        let positions = c.positions();
        tmp.clear();
        let (mut i, mut j) = (0, 0);
        while i < starts.len() && j < positions.len() {
            let want = starts[i] + shift;
            match positions[j].cmp(&want) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    tmp.push(starts[i]);
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => i += 1,
            }
        }
        std::mem::swap(starts, tmp);
        if starts.is_empty() {
            return 0;
        }
    }
    starts.len()
}

/// Intersection of sorted scored lists; each surviving doc's score is the
/// clause-order sum (first clause's score as the base, then each later
/// clause's contribution in order).
fn intersect_sum(mut lists: Vec<Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    if lists.is_empty() {
        return Vec::new();
    }
    if lists.len() == 1 {
        return lists.pop().expect("len checked");
    }
    let (first, rest) = lists.split_first().expect("len checked");
    let mut pos = vec![0usize; rest.len()];
    let mut out = Vec::new();
    'outer: for &(doc, base) in first {
        let mut total = base;
        for (i, list) in rest.iter().enumerate() {
            pos[i] += list[pos[i]..].partition_point(|&(d, _)| d < doc);
            match list.get(pos[i]) {
                Some(&(d, s)) if d == doc => total += s,
                Some(_) => continue 'outer,
                None => break 'outer,
            }
        }
        out.push((doc, total));
    }
    out
}

/// Union of sorted scored lists; each doc's score is the sum of its
/// per-list contributions, folded in list order from zero — identical to
/// the exhaustive walker's map accumulation.
fn union_sum(mut lists: Vec<Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    if lists.is_empty() {
        return Vec::new();
    }
    if lists.len() == 1 {
        return lists.pop().expect("len checked");
    }
    let mut pos = vec![0usize; lists.len()];
    let mut out = Vec::new();
    loop {
        let mut min_doc: Option<u32> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(d, _)) = list.get(pos[i]) {
                min_doc = Some(match min_doc {
                    Some(m) if m <= d => m,
                    _ => d,
                });
            }
        }
        let Some(doc) = min_doc else { break };
        let mut total = 0.0;
        for (i, list) in lists.iter().enumerate() {
            if let Some(&(d, s)) = list.get(pos[i]) {
                if d == doc {
                    total += s;
                    pos[i] += 1;
                }
            }
        }
        out.push((doc, total));
    }
    out
}
