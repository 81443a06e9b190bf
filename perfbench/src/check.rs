//! The answer check, run outside the timed window: the `lengths` of every
//! sampled query answer must equal those of a fresh single-threaded
//! `QueryEngine` on the unreduced in-memory graph, at an epoch the query
//! could have been served on.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use kpj_core::QueryEngine;
use kpj_graph::Graph;
use kpj_service::json::Json;

use crate::drive::{Rec, What};
use crate::traffic::{Op, Traffic};

/// Checked answers per phase, at most (the first sampled ones by index).
pub const MAX_CHECKS: usize = 150;

/// One sampled answer awaiting its verdict.
///
/// A query may have been served on any epoch from the last one
/// acknowledged before it was sent (`lo`) to the last one an update sent
/// before its reply could have published (`hi`). It passes if its lengths
/// equal the reference at any epoch of that window.
#[derive(Debug)]
pub struct Pending {
    /// Stream index of the query.
    pub index: u64,
    answer: Vec<u64>,
    lo: u64,
    hi: u64,
    accepted: bool,
}

impl Pending {
    /// An answer with its epoch window `lo..=hi`.
    pub fn new(index: u64, answer: Vec<u64>, lo: u64, hi: u64) -> Pending {
        Pending {
            index,
            answer,
            lo,
            hi: hi.max(lo),
            accepted: false,
        }
    }

    /// Whether `epoch` lies in the window.
    pub fn wants(&self, epoch: u64) -> bool {
        !self.accepted && (self.lo..=self.hi).contains(&epoch)
    }

    /// Offer the reference lengths computed at `epoch`.
    pub fn offer(&mut self, epoch: u64, reference: &[u64]) {
        if self.wants(epoch) && reference == self.answer {
            self.accepted = true;
        }
    }

    /// The verdict once every epoch of the window has been offered.
    pub fn accepted(&self) -> bool {
        self.accepted
    }
}

/// Outcome of checking one phase.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared.
    pub checked: usize,
    /// Stream indices whose answer matched no epoch of its window.
    pub mismatches: Vec<u64>,
}

/// Check the sampled answers among `parts` (one service's whole history
/// of operations; its epoch 0 is `original`).
pub fn check(
    traffic: &Traffic,
    original: &Arc<Graph>,
    parts: &[&[Rec]],
) -> Result<Verdict, String> {
    let recs = || parts.iter().flat_map(|p| p.iter());
    // Update batches in the order the service published them; a no-op
    // batch (no new epoch) sorts after the batch that made its epoch.
    let mut updates: Vec<(u64, bool, u64, u64)> = Vec::new(); // (epoch, no-op, seq, index)
    let mut hi_of_seq: Vec<(u64, u64)> = Vec::new(); // (seq, epoch)
    for r in recs() {
        if let What::Update {
            seq,
            epoch,
            changed,
        } = r.what
        {
            if r.ok {
                updates.push((epoch, changed == 0, seq, r.index));
                hi_of_seq.push((seq, epoch));
            }
        }
    }
    updates.sort_unstable();
    hi_of_seq.sort_unstable();
    // prefix_max[j] = highest epoch among batches with seq < j+1.
    let mut prefix_max = Vec::with_capacity(hi_of_seq.len());
    let mut best = 0;
    for &(_, e) in &hi_of_seq {
        best = best.max(e);
        prefix_max.push(best);
    }

    let mut pending = Vec::new();
    for r in recs() {
        let What::Query {
            epoch_lo,
            sent_at_end,
            response: Some(response),
            ..
        } = &r.what
        else {
            continue;
        };
        if !r.ok || pending.len() == MAX_CHECKS {
            continue;
        }
        let answer =
            lengths(response).ok_or_else(|| format!("op {}: no lengths in reply", r.index))?;
        let sent = hi_of_seq.partition_point(|&(seq, _)| seq < *sent_at_end);
        let hi = if sent == 0 { 0 } else { prefix_max[sent - 1] };
        pending.push(Pending::new(r.index, answer, *epoch_lo, hi));
    }

    let last = pending.iter().map(|p| p.hi).max().unwrap_or(0);
    let mut graph = Arc::clone(original);
    let mut applied = 0;
    let mut memo: HashMap<u64, Vec<u64>> = HashMap::new();
    for epoch in 0..=last {
        while applied < updates.len() && updates[applied].0 <= epoch {
            let Op::Update(batch) = traffic.op(updates[applied].3) else {
                unreachable!("update records come from update ops");
            };
            let (next, _) = graph
                .with_updated_weights(&batch)
                .map_err(|e| format!("reference update failed: {e}"))?;
            graph = Arc::new(next);
            applied += 1;
            memo.clear();
        }
        if !pending.iter().any(|p| p.wants(epoch)) {
            continue;
        }
        let mut engine = QueryEngine::new(&graph);
        for p in pending.iter_mut().filter(|p| p.wants(epoch)) {
            let Op::Query {
                key,
                source,
                targets,
                ..
            } = traffic.op(p.index)
            else {
                unreachable!("query records come from query ops");
            };
            let reference = match memo.entry(key) {
                Entry::Occupied(hit) => hit.into_mut(),
                Entry::Vacant(slot) => {
                    let result = engine
                        .query(traffic.algorithm, source, targets, traffic.k)
                        .map_err(|e| format!("reference query failed: {e}"))?;
                    slot.insert(result.paths.lengths())
                }
            };
            p.offer(epoch, reference);
        }
    }
    Ok(Verdict {
        checked: pending.len(),
        mismatches: pending
            .iter()
            .filter(|p| !p.accepted())
            .map(|p| p.index)
            .collect(),
    })
}

/// The `lengths` array of an ok query reply.
fn lengths(response: &str) -> Option<Vec<u64>> {
    Json::parse(response)
        .ok()?
        .get("lengths")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference lengths that differ at every epoch.
    fn at(epoch: u64) -> Vec<u64> {
        vec![10 + epoch, 20 + epoch]
    }

    fn verdict(answer_epoch: u64, lo: u64, hi: u64) -> bool {
        let mut p = Pending::new(0, at(answer_epoch), lo, hi);
        for e in 0..=hi + 1 {
            p.offer(e, &at(e));
        }
        p.accepted()
    }

    #[test]
    fn either_bordering_epoch_is_accepted() {
        assert!(verdict(3, 3, 4));
        assert!(verdict(4, 3, 4));
        assert!(verdict(5, 5, 5));
    }

    #[test]
    fn stale_or_future_answers_are_rejected() {
        assert!(!verdict(1, 3, 4), "two epochs stale");
        assert!(!verdict(2, 3, 4), "one epoch stale");
        assert!(!verdict(5, 3, 4), "from an epoch not yet sent");
    }

    #[test]
    fn window_never_inverts() {
        // An update acknowledged before sending bounds the window below
        // even when no later batch was sent.
        let mut p = Pending::new(0, at(2), 2, 0);
        p.offer(2, &at(2));
        assert!(p.accepted());
    }

    #[test]
    fn lengths_come_from_the_reply() {
        let reply = r#"{"id":7,"ok":true,"server_us":3,"count":2,"lengths":[4,6],"paths":[[0,1],[0,2,1]],"stats":{}}"#;
        assert_eq!(lengths(reply), Some(vec![4, 6]));
        assert_eq!(lengths(r#"{"id":7,"ok":false}"#), None);
    }
}
