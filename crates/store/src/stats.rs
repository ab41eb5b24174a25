//! Cardinality statistics used for BGP join ordering.
//!
//! The SPARQL planner orders basic-graph-pattern triples greedily by
//! estimated selectivity; these counters provide the estimates without
//! scanning, and the exact per-predicate count of a lone-predicate
//! pattern.

use std::collections::HashMap;

use crate::dict::TermId;

/// Per-predicate and global statement counters.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    total: usize,
    by_predicate: HashMap<TermId, usize>,
    distinct_subjects: usize,
    distinct_objects: usize,
}

impl Stats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one inserted statement; the two booleans say whether the
    /// subject/object were new to the store.
    pub fn record(&mut self, predicate: TermId, new_subject: bool, new_object: bool) {
        self.total += 1;
        *self.by_predicate.entry(predicate).or_insert(0) += 1;
        if new_subject {
            self.distinct_subjects += 1;
        }
        if new_object {
            self.distinct_objects += 1;
        }
    }

    /// Un-records one removed statement — the exact inverse of
    /// [`Stats::record`]. The booleans say whether the removal left the
    /// subject/object with no remaining statements in that position.
    pub fn unrecord(&mut self, predicate: TermId, subject_gone: bool, object_gone: bool) {
        self.total = self.total.saturating_sub(1);
        if let Some(count) = self.by_predicate.get_mut(&predicate) {
            *count -= 1;
            if *count == 0 {
                self.by_predicate.remove(&predicate);
            }
        }
        if subject_gone {
            self.distinct_subjects = self.distinct_subjects.saturating_sub(1);
        }
        if object_gone {
            self.distinct_objects = self.distinct_objects.saturating_sub(1);
        }
    }

    /// Total statements recorded.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Statements carrying `predicate`.
    pub fn predicate_count(&self, predicate: TermId) -> usize {
        self.by_predicate.get(&predicate).copied().unwrap_or(0)
    }

    /// Estimated rows produced by a triple pattern, given which
    /// positions are bound to constants.
    ///
    /// The model is the classic heuristic: a fully bound pattern is ~1
    /// row; binding the subject divides by distinct subjects; binding
    /// the object divides by distinct objects; a bound predicate caps
    /// the estimate at that predicate's count.
    pub fn estimate(&self, s_bound: bool, p: Option<TermId>, o_bound: bool) -> f64 {
        let base = match p {
            Some(pred) => self.predicate_count(pred) as f64,
            None => self.total as f64,
        };
        let mut est = base;
        if s_bound {
            est /= (self.distinct_subjects.max(1)) as f64;
            est = est.max(1.0).min(base);
        }
        if o_bound {
            est /= (self.distinct_objects.max(1)) as f64;
            est = est.max(if s_bound { 0.1 } else { 1.0 });
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut st = Stats::new();
        st.record(TermId(1), true, true);
        st.record(TermId(1), false, true);
        st.record(TermId(2), true, false);
        assert_eq!(st.total(), 3);
        assert_eq!(st.predicate_count(TermId(1)), 2);
        assert_eq!(st.predicate_count(TermId(9)), 0);
    }

    #[test]
    fn bound_positions_shrink_estimates() {
        let mut st = Stats::new();
        for i in 0..100 {
            st.record(TermId(0), true, i % 2 == 0);
        }
        let unbound = st.estimate(false, Some(TermId(0)), false);
        let s_bound = st.estimate(true, Some(TermId(0)), false);
        let both = st.estimate(true, Some(TermId(0)), true);
        assert!(unbound >= s_bound && s_bound >= both);
        assert_eq!(unbound, 100.0);
    }

    #[test]
    fn unknown_predicate_estimates_zero() {
        let mut st = Stats::new();
        st.record(TermId(0), true, true);
        assert_eq!(st.estimate(false, Some(TermId(5)), false), 0.0);
    }
}
