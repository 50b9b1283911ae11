//! Heavy-hitter detection for skew analysis.
//!
//! [`SpaceSaving`] is the deterministic *space-saving* top-k sketch
//! (Metwally et al., ICDT 2005) over **canonical group keys**: every
//! offered key is folded to the columnar kernel's `(tag, word)`
//! canonical form (see [`crate::columnar`]), so `Int(2)` and
//! `Double(2.0)` — which the kernel treats as the same group key — also
//! count as the same heavy hitter, and strings intern to stable
//! per-sketch codes instead of hashing.
//!
//! Its one caller is `skalla_core::site::hot_report`, which the
//! benchmark's skew layer times (the `skew.hot_report_ms` row); no query
//! path runs it since the skew balancer was deleted.

use skalla_relation::columns::{canon_value, StrCodes};
use skalla_relation::Value;
use std::collections::HashMap;

/// One tracked entry: the canonical key's representative [`Value`] form
/// (the first offered representative) and its estimated count.
#[derive(Debug, Clone)]
struct Entry {
    repr: Vec<Value>,
    count: u64,
}

/// Deterministic space-saving sketch over canonical group keys.
///
/// Tracks at most `capacity` distinct keys. Offering a tracked key
/// increments its counter; offering an untracked key when full evicts
/// the minimum-count entry and inherits its count (+1) — the classic
/// space-saving guarantee: every key with true frequency above `N /
/// capacity` is tracked, and counts overestimate by at most the evicted
/// minimum. All tie-breaks are on canonical key order, so two sites
/// scanning the same rows produce the same report.
#[derive(Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// canonical key → index into `entries`.
    index: HashMap<Vec<(u8, u64)>, usize>,
    /// Reverse of `index`, parallel to `entries`.
    keys: Vec<Vec<(u8, u64)>>,
    entries: Vec<Entry>,
    codes: StrCodes,
    total: u64,
    /// Reusable canonicalization buffer so the hot `offer` path (one call
    /// per detail row) never allocates for already-tracked keys.
    scratch: Vec<(u8, u64)>,
}

impl SpaceSaving {
    /// A sketch tracking at most `capacity` keys (`capacity >= 1`).
    pub fn new(capacity: usize) -> SpaceSaving {
        assert!(capacity >= 1, "sketch capacity must be positive");
        SpaceSaving {
            capacity,
            index: HashMap::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            codes: StrCodes::default(),
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// Total number of offered keys (the stream length `N`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Offer one group key (the values of the key columns of one detail
    /// row, in key-column order).
    pub fn offer(&mut self, key: &[&Value]) {
        self.total += 1;
        self.scratch.clear();
        for v in key {
            let c = canon_value(v, &mut self.codes);
            self.scratch.push(c);
        }
        // Tracked keys (the common case on a skewed stream) are a pure
        // slice lookup — no allocation.
        if let Some(&i) = self.index.get(self.scratch.as_slice()) {
            self.entries[i].count += 1;
            return;
        }
        let canon = self.scratch.clone();
        let repr = || key.iter().map(|v| (*v).clone()).collect::<Vec<Value>>();
        if self.entries.len() < self.capacity {
            let i = self.entries.len();
            self.index.insert(canon.clone(), i);
            self.keys.push(canon);
            self.entries.push(Entry {
                repr: repr(),
                count: 1,
            });
            return;
        }
        // Evict the minimum-count entry (ties broken on canonical key
        // order for determinism) and inherit its count.
        #[expect(
            clippy::expect_used,
            reason = "`new` asserts capacity >= 1 and the sketch is at capacity here"
        )]
        let min = (0..self.entries.len())
            .min_by(|&a, &b| {
                self.entries[a]
                    .count
                    .cmp(&self.entries[b].count)
                    .then_with(|| self.keys[a].cmp(&self.keys[b]))
            })
            .expect("sketch is non-empty at capacity");
        let old = self.keys[min].clone();
        self.index.remove(&old);
        self.index.insert(canon.clone(), min);
        self.keys[min] = canon;
        self.entries[min] = Entry {
            repr: repr(),
            count: self.entries[min].count + 1,
        };
    }

    /// The top `k` hitters as `(representative key, estimated count)`,
    /// sorted by descending count (ties on canonical key order).
    pub fn top(&self, k: usize) -> Vec<(Vec<Value>, u64)> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            self.entries[b]
                .count
                .cmp(&self.entries[a].count)
                .then_with(|| self.keys[a].cmp(&self.keys[b]))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| (self.entries[i].repr.clone(), self.entries[i].count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer_int(s: &mut SpaceSaving, k: i64) {
        let v = Value::Int(k);
        s.offer(&[&v]);
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for k in [1i64, 1, 1, 2, 2, 3] {
            offer_int(&mut s, k);
        }
        assert_eq!(s.total(), 6);
        let top = s.top(2);
        assert_eq!(top[0], (vec![Value::Int(1)], 3));
        assert_eq!(top[1], (vec![Value::Int(2)], 2));
    }

    #[test]
    fn heavy_hitter_survives_eviction_pressure() {
        // One key at ~50% frequency among many singletons: with capacity
        // well under the distinct count, the hot key must still be on top.
        let mut s = SpaceSaving::new(16);
        for i in 0..2000i64 {
            offer_int(&mut s, if i % 2 == 0 { 0 } else { 1000 + i });
        }
        let top = s.top(1);
        assert_eq!(top[0].0, vec![Value::Int(0)]);
        assert!(top[0].1 >= 1000, "hot count underestimated: {}", top[0].1);
    }

    #[test]
    fn cross_type_keys_count_as_one_group() {
        // Int(2) and Double(2.0) are one group key to the kernel, so the
        // sketch must fold them together too.
        let mut s = SpaceSaving::new(8);
        let a = Value::Int(2);
        let b = Value::Double(2.0);
        s.offer(&[&a]);
        s.offer(&[&b]);
        s.offer(&[&b]);
        let top = s.top(8);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].1, 3);
    }

    #[test]
    fn string_keys_intern_stably() {
        let mut s = SpaceSaving::new(4);
        let x = Value::Str("x".into());
        let y = Value::Str("y".into());
        s.offer(&[&x]);
        s.offer(&[&x]);
        s.offer(&[&y]);
        let top = s.top(4);
        assert_eq!(top[0], (vec![Value::Str("x".into())], 2));
        assert_eq!(top[1], (vec![Value::Str("y".into())], 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let stream: Vec<i64> = (0..500).map(|i| (i * i) % 37).collect();
        let run = || {
            let mut s = SpaceSaving::new(8);
            for &k in &stream {
                offer_int(&mut s, k);
            }
            s.top(8)
        };
        assert_eq!(run(), run());
    }
}
