//! A set of packet numbers kept as disjoint ranges, the way quinn's
//! `RangeSet` keeps them: received packet numbers are almost always
//! contiguous, so a connection's whole history is usually one entry.

use std::collections::BTreeMap;

/// Disjoint, non-adjacent half-open ranges `start -> end`.
#[derive(Debug, Default)]
pub(crate) struct RangeSet(BTreeMap<u64, u64>);

impl RangeSet {
    /// Add `x`; `false` if it was already present.
    pub fn insert(&mut self, x: u64) -> bool {
        let end = x + 1;
        // The range starting at or below `x`.
        if let Some((&start, &prev_end)) = self.0.range(..=x).next_back() {
            if prev_end > x {
                return false;
            }
            if prev_end == x {
                // Extends the range below; maybe joins the one above.
                let new_end = self.0.remove(&end).unwrap_or(end);
                self.0.insert(start, new_end);
                return true;
            }
        }
        let new_end = self.0.remove(&end).unwrap_or(end);
        self.0.insert(x, new_end);
        true
    }

    /// Inclusive `(hi, lo)` ranges, highest first (ACK frame order).
    pub fn iter_desc(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.iter().rev().map(|(&start, &end)| (end - 1, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Descending ranges of a plain set: the representation this
    /// replaces.
    fn ranges_of(set: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &pn in set.iter().rev() {
            match ranges.last_mut() {
                Some((_hi, lo)) if *lo == pn + 1 => *lo = pn,
                _ => ranges.push((pn, pn)),
            }
        }
        ranges
    }

    #[test]
    fn matches_a_plain_set() {
        let mut rs = RangeSet::default();
        let mut set = BTreeSet::new();
        let mut x = 7u64;
        for _ in 0..2000 {
            // A small LCG over 0..64: duplicates, gaps and merges.
            x = (x * 1_103_515_245 + 12_345) % 2_147_483_648;
            let pn = x % 64;
            assert_eq!(rs.insert(pn), set.insert(pn), "insert {pn}");
            assert_eq!(rs.iter_desc().collect::<Vec<_>>(), ranges_of(&set));
        }
        assert_eq!(rs.iter_desc().collect::<Vec<_>>(), vec![(63, 0)]);
    }
}
