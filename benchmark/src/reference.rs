//! The reference match set and the pair-by-pair delivery check.
//!
//! The reference is the sequential GI² replay of the records in send order:
//! an object matches a query iff the query's insert precedes the object, its
//! delete (if any) follows it, and the predicate holds. The index's
//! ops-sequence property test pins this replay to brute force.

use ps2stream::prelude::*;
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use ps2stream_text::TermStats;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A delivered or expected (query, object) pair.
pub type Pair = (u64, u64);

/// The reference pairs, sorted and unique, plus the time the single
/// sequential index spent on the records after `timed_from`.
pub struct Reference {
    /// Sorted, unique reference pairs.
    pub pairs: Vec<Pair>,
    /// Time the sequential index spent on the timed records.
    pub timed: Duration,
    /// Number of timed records.
    pub timed_records: usize,
}

/// Replays `records` through one sequential [`Gi2Index`] over `bounds`.
/// Records at positions `>= timed_from` are timed (the warm-up is not).
pub fn replay<'a>(
    bounds: Rect,
    grid_exp: u32,
    stats: &TermStats,
    records: impl Iterator<Item = &'a StreamRecord>,
    timed_from: usize,
) -> Reference {
    let mut index = Gi2Index::new(Gi2Config::new(bounds).with_granularity_exp(grid_exp));
    index.set_term_stats(stats.clone());
    let mut scratch = MatchScratch::new();
    let mut pairs: Vec<Pair> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut timed_records = 0usize;
    let mut started: Option<Instant> = None;
    for (i, record) in records.enumerate() {
        if i == timed_from {
            started = Some(Instant::now());
        }
        if started.is_some() {
            timed_records += 1;
        }
        match record {
            StreamRecord::Object(o) => {
                for m in index.match_object_into(o, &mut scratch) {
                    pairs.push((m.query_id.value(), m.object_id.value()));
                }
            }
            StreamRecord::Update(QueryUpdate::Insert(q)) => index.insert(q.clone()),
            StreamRecord::Update(QueryUpdate::Delete(q)) => {
                index.delete(q);
            }
        }
    }
    if let Some(start) = started {
        timed = start.elapsed();
    }
    pairs.sort_unstable();
    pairs.dedup();
    Reference {
        pairs,
        timed,
        timed_records,
    }
}

/// The outcome of comparing delivered pairs with the reference, pair by
/// pair (counts alone would let a missed and a spurious pair cancel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCheck {
    /// Reference pairs.
    pub reference: u64,
    /// Pairs delivered (with repeats).
    pub delivered: u64,
    /// Reference pairs never delivered.
    pub missed: u64,
    /// Delivered pairs outside the reference, plus repeat deliveries.
    pub spurious: u64,
    /// Repeat deliveries of one pair (counted inside `spurious` too).
    pub duplicates: u64,
}

impl PairCheck {
    /// Missed plus spurious pairs.
    pub fn errors(&self) -> u64 {
        self.missed + self.spurious
    }

    /// `match_error_share`: missed plus spurious pairs over reference
    /// pairs.
    pub fn error_share(&self) -> f64 {
        self.errors() as f64 / self.reference.max(1) as f64
    }

    /// Sums two checks.
    pub fn add(&mut self, other: &PairCheck) {
        self.reference += other.reference;
        self.delivered += other.delivered;
        self.missed += other.missed;
        self.spurious += other.spurious;
        self.duplicates += other.duplicates;
    }
}

/// The pairs [`compare`] found wrong.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WrongPairs {
    /// Reference pairs never delivered.
    pub missed: Vec<Pair>,
    /// Delivered pairs outside the reference (repeats not included).
    pub spurious: Vec<Pair>,
}

impl WrongPairs {
    /// The [`Timeline::reorder_distance`] of every wrong pair that some
    /// reordering explains, and the number of pairs none explains.
    pub fn reorder_gaps(&self, timeline: &Timeline) -> (Vec<usize>, u64) {
        let missed = self.missed.iter().map(|&p| (p, true));
        let spurious = self.spurious.iter().map(|&p| (p, false));
        let mut gaps = Vec::new();
        let mut unexplained = 0;
        for (pair, was_missed) in missed.chain(spurious) {
            match timeline.reorder_distance(pair, was_missed) {
                Some(gap) => gaps.push(gap),
                None => unexplained += 1,
            }
        }
        (gaps, unexplained)
    }
}

/// Compares delivered pairs (any order, repeats allowed) with the sorted,
/// unique reference. Returns the check and the wrong pairs.
pub fn compare(reference: &[Pair], delivered: &mut [Pair]) -> (PairCheck, WrongPairs) {
    delivered.sort_unstable();
    let mut check = PairCheck {
        reference: reference.len() as u64,
        delivered: delivered.len() as u64,
        ..PairCheck::default()
    };
    let mut wrong = WrongPairs::default();
    let (mut r, mut d) = (0usize, 0usize);
    while r < reference.len() || d < delivered.len() {
        if d > 0 && d < delivered.len() && delivered[d] == delivered[d - 1] {
            check.duplicates += 1;
            check.spurious += 1;
            d += 1;
            continue;
        }
        match (reference.get(r), delivered.get(d)) {
            (Some(a), Some(b)) if a == b => {
                r += 1;
                d += 1;
            }
            (Some(a), Some(b)) if a < b => {
                check.missed += 1;
                wrong.missed.push(*a);
                r += 1;
            }
            (Some(a), None) => {
                check.missed += 1;
                wrong.missed.push(*a);
                r += 1;
            }
            (_, Some(b)) => {
                check.spurious += 1;
                wrong.spurious.push(*b);
                d += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (check, wrong)
}

/// Where every object and every query's insert and delete sit in send
/// order, so a wrong pair can be measured by how far the stream would have
/// to be reordered to make it right.
pub struct Timeline<'a> {
    objects: HashMap<u64, (usize, &'a SpatioTextualObject)>,
    /// Insert position, delete position (if any) and the query.
    queries: HashMap<u64, (usize, Option<usize>, &'a StsQuery)>,
}

impl<'a> Timeline<'a> {
    /// Indexes `records`, which are in send order.
    pub fn new(records: impl Iterator<Item = &'a StreamRecord>) -> Self {
        let mut objects = HashMap::new();
        let mut queries: HashMap<u64, (usize, Option<usize>, &StsQuery)> = HashMap::new();
        for (pos, record) in records.enumerate() {
            match record {
                StreamRecord::Object(o) => {
                    objects.insert(o.id.value(), (pos, o));
                }
                StreamRecord::Update(QueryUpdate::Insert(q)) => {
                    queries.insert(q.id.value(), (pos, None, q));
                }
                StreamRecord::Update(QueryUpdate::Delete(q)) => {
                    if let Some(entry) = queries.get_mut(&q.id.value()) {
                        entry.1 = Some(pos);
                    }
                }
            }
        }
        Timeline { objects, queries }
    }

    /// The fewest send positions the object would have to move across the
    /// query's insert or delete for the pair's outcome to be right: for a
    /// missed pair, out of the query's lifetime; for a spurious pair, into
    /// it. `None` when no reordering explains the pair: an id is unknown,
    /// or the pair is spurious and the query's predicate does not hold for
    /// the object.
    pub fn reorder_distance(&self, (query, object): Pair, missed: bool) -> Option<usize> {
        let &(at, o) = self.objects.get(&object)?;
        let &(insert, delete, q) = self.queries.get(&query)?;
        if missed {
            let to_insert = at.saturating_sub(insert);
            let to_delete = delete.map_or(usize::MAX, |d| d.saturating_sub(at));
            return Some(to_insert.min(to_delete));
        }
        if !q.matches(o) {
            return None;
        }
        Some(if at < insert {
            insert - at
        } else {
            delete.map_or(0, |d| at.saturating_sub(d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_delivery_has_no_errors() {
        let reference = vec![(1, 1), (1, 2), (2, 2)];
        let mut delivered = vec![(2, 2), (1, 1), (1, 2)];
        let (check, wrong) = compare(&reference, &mut delivered);
        assert_eq!(check.errors(), 0);
        assert_eq!(check.error_share(), 0.0);
        assert!(wrong.spurious.is_empty() && wrong.missed.is_empty());
    }

    #[test]
    fn a_swapped_pair_counts_twice_though_counts_agree() {
        let reference = vec![(1, 1), (1, 2), (2, 2)];
        let mut delivered = vec![(1, 1), (2, 2), (3, 3)];
        let (check, wrong) = compare(&reference, &mut delivered);
        assert_eq!(check.delivered, check.reference);
        assert_eq!((check.missed, check.spurious), (1, 1));
        assert!((check.error_share() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(wrong.spurious, vec![(3, 3)]);
        assert_eq!(wrong.missed, vec![(1, 2)]);
    }

    #[test]
    fn repeats_are_spurious() {
        let reference = vec![(1, 1)];
        let mut delivered = vec![(1, 1), (1, 1), (1, 1)];
        let (check, _) = compare(&reference, &mut delivered);
        assert_eq!(check.duplicates, 2);
        assert_eq!(check.spurious, 2);
        assert_eq!(check.missed, 0);
    }

    #[test]
    fn trailing_reference_pairs_are_missed() {
        let reference = vec![(1, 1), (5, 5), (6, 6)];
        let mut delivered = vec![(0, 0), (1, 1)];
        let (check, _) = compare(&reference, &mut delivered);
        assert_eq!((check.missed, check.spurious), (2, 1));
    }
}
