//! Incremental maintenance of cached join-project results.
//!
//! A relation update used to be a cache-killer: the epoch bump made every
//! cached result over that relation unreachable, so an update-heavy
//! workload degenerated to recompute-from-scratch. This module instead
//! *upgrades* affected cache entries in place using the delta-join
//! identity
//!
//! ```text
//! Δ(R ⋈ S) = ΔR ⋈ S  ∪  R ⋈ ΔS  ∪  ΔR ⋈ ΔS      (signed)
//! ```
//!
//! where `ΔR`/`ΔS` are the normalized signed deltas of an update batch.
//! Because `|Δ|` is small, the delta joins live in the light/combinatorial
//! regime of the paper's cost model and cost `Σ_{(x,y)∈Δ} deg(y)` — far
//! below the `full_join` mass a recompute would pay.
//!
//! Deletion is the hard part: removing the last witness `y` of an output
//! pair `(x, z)` must remove the pair. [`DeltaResult`] therefore keeps a
//! *per-tuple support count* (the number of witnesses) for every output
//! row; signed delta contributions are added to the supports and rows
//! whose support reaches zero disappear.
//!
//! Per affected entry the service picks one of three actions from the
//! paper's output estimate (see [`decide`]):
//!
//! * **maintain** — patch the support counts with the delta joins; chosen
//!   when the entry already carries supports and the delta work is below
//!   the recompute estimate;
//! * **recompute** — eagerly re-execute (as a counting join) to build the
//!   support structure, keeping the cache warm; chosen on first touch or
//!   when the delta is too large, as long as the estimate fits the
//!   recompute budget;
//! * **invalidate** — drop the entry and let the next query pay; the
//!   fallback for non-maintainable shapes (star/similarity/containment,
//!   limits, pinned engines) and over-budget recomputes.

use mmjoin_api::{DeltaSink, Rows, Sink};
use mmjoin_storage::{NormalizedDelta, Relation, Value};
use std::collections::BTreeMap;

/// Tuning knobs for the maintenance path.
#[derive(Debug, Clone)]
pub struct MaintenancePolicy {
    /// Master switch. Disabled, every update falls back to invalidation —
    /// the pre-maintenance behaviour (and the baseline the `updates`
    /// experiment compares against).
    pub enabled: bool,
    /// Upper bound on the estimated `full_join` mass of an eager
    /// recompute. Entries whose refresh would exceed it are invalidated
    /// instead, so a huge join can never stall the update path.
    pub recompute_budget: u64,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            recompute_budget: 50_000_000,
        }
    }
}

impl MaintenancePolicy {
    /// The invalidate-everything baseline (maintenance off).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// What happened to the cached entries affected by one update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The relation's epoch after the update (unchanged for no-op
    /// batches).
    pub epoch: u64,
    /// Effective tuples inserted (after normalization).
    pub inserted: usize,
    /// Effective tuples deleted (after normalization).
    pub deleted: usize,
    /// Cache entries patched in place via delta joins.
    pub maintained: usize,
    /// Cache entries eagerly re-executed (support structure built).
    pub recomputed: usize,
    /// Cache entries dropped.
    pub invalidated: usize,
}

impl MaintenanceReport {
    /// True when the batch changed nothing (no epoch bump happened).
    pub fn is_noop(&self) -> bool {
        self.inserted == 0 && self.deleted == 0
    }
}

/// A support-counted two-path result: every output pair `(x, z)` mapped to
/// its number of join witnesses `|{y : R(x,y) ∧ S(z,y)}|`.
///
/// The support counts are what make deletion maintainable — a pair
/// survives exactly while its support is positive — and the sorted map
/// gives maintained results a canonical row order independent of which
/// engine originally produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaResult {
    support: BTreeMap<(Value, Value), u32>,
}

impl DeltaResult {
    /// Builds from the signed accumulation of a full counting execution
    /// (all deltas must be positive — they are absolute witness counts).
    pub fn from_signed(deltas: BTreeMap<Vec<Value>, i64>) -> Self {
        let support = deltas
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(row, c)| {
                debug_assert_eq!(row.len(), 2, "DeltaResult is binary");
                ((row[0], row[1]), c as u32)
            })
            .collect();
        Self { support }
    }

    /// Applies signed support adjustments. Returns `false` if any support
    /// would go negative — a corrupt entry the caller must discard (it
    /// cannot happen for deltas normalized against the true base, but the
    /// cache must degrade to a recompute rather than serve wrong rows).
    #[must_use]
    pub fn apply(&mut self, deltas: BTreeMap<Vec<Value>, i64>) -> bool {
        for (row, d) in deltas {
            debug_assert_eq!(row.len(), 2, "DeltaResult is binary");
            let key = (row[0], row[1]);
            let current = self.support.get(&key).copied().unwrap_or(0) as i64;
            let next = current + d;
            if next < 0 {
                return false;
            }
            if next == 0 {
                self.support.remove(&key);
            } else {
                self.support.insert(key, next as u32);
            }
        }
        true
    }

    /// Materialises the rows with support `≥ min_count`, in sorted order,
    /// in the flat layout the cache serves. `with_counts` controls whether
    /// the per-row counts column carries the supports or the
    /// uncounted-family placeholder zeros.
    pub fn rows(&self, min_count: u32, with_counts: bool) -> (Rows, Vec<u32>) {
        let min = min_count.max(1);
        let mut rows = Rows::new(2);
        let mut counts = Vec::new();
        for (&(x, z), &c) in &self.support {
            if c >= min {
                rows.push(&[x, z]);
                counts.push(if with_counts { c } else { 0 });
            }
        }
        (rows, counts)
    }

    /// Support count of one pair (0 when absent) — test/introspection
    /// helper.
    pub fn support_of(&self, x: Value, z: Value) -> u32 {
        self.support.get(&(x, z)).copied().unwrap_or(0)
    }

    /// Distinct pairs with positive support.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True when no pair has positive support.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }
}

/// The three-way maintenance choice for one affected cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Patch the entry's support counts with the delta joins.
    Maintain,
    /// Eagerly re-execute the (counting) query and refresh the entry.
    Recompute,
    /// Drop the entry; the next query recomputes lazily.
    Invalidate,
}

/// The decision rule, driven by the paper's output estimate: maintain when
/// the delta work undercuts the recompute estimate (and supports exist to
/// patch), recompute when refreshing is affordable, invalidate otherwise.
pub fn decide(
    has_support: bool,
    delta_cost: u64,
    recompute_cost: u64,
    policy: &MaintenancePolicy,
) -> Decision {
    if !policy.enabled {
        return Decision::Invalidate;
    }
    if has_support && delta_cost <= recompute_cost {
        Decision::Maintain
    } else if recompute_cost <= policy.recompute_budget {
        Decision::Recompute
    } else {
        Decision::Invalidate
    }
}

/// Exact work of the delta joins for a two-path entry: every delta tuple
/// scans its join value's inverted list on the *old* other side, plus the
/// (tiny) `ΔR ⋈ ΔS` cross term when the update hits both sides of a self
/// join.
pub fn delta_cost(
    delta: &NormalizedDelta,
    r_old: &Relation,
    s_old: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) -> u64 {
    let side = |other: &Relation| -> u64 {
        delta
            .signed()
            .map(|(_, y, _)| {
                if (y as usize) < other.y_domain() {
                    other.y_degree(y) as u64
                } else {
                    0
                }
            })
            .sum()
    };
    let mut cost = 0u64;
    if delta_on_r {
        cost += side(s_old);
    }
    if delta_on_s {
        cost += side(r_old);
    }
    if delta_on_r && delta_on_s {
        // Cross term: Σ_y |Δ_y|² ≤ |Δ|², but computed exactly.
        let mut per_y: BTreeMap<Value, u64> = BTreeMap::new();
        for (_, y, _) in delta.signed() {
            *per_y.entry(y).or_insert(0) += 1;
        }
        cost += per_y.values().map(|&c| c * c).sum::<u64>();
    }
    cost.max(delta.len() as u64)
}

/// Streams the signed delta-join terms of `Δ(π_{x,z}(R ⋈ S))` into
/// `sink`. `delta` is the update of the relation that changed;
/// `delta_on_r`/`delta_on_s` say which side(s) of the entry's query that
/// relation occupies (both, for a self join). `r_old`/`s_old` are the
/// relations *before* the update — the identity is expressed over the old
/// state plus the cross term.
pub fn accumulate_two_path_delta(
    sink: &mut DeltaSink,
    delta: &NormalizedDelta,
    r_old: &Relation,
    s_old: &Relation,
    delta_on_r: bool,
    delta_on_s: bool,
) {
    if delta_on_r {
        // π(ΔR ⋈ S): each delta tuple (x, y) pairs with S's inverted list
        // of y.
        for (x, y, sign) in delta.signed() {
            if (y as usize) >= s_old.y_domain() {
                continue;
            }
            sink.set_sign(sign);
            for &z in s_old.xs_of(y) {
                sink.row(&[x, z]);
            }
        }
    }
    if delta_on_s {
        // π(R ⋈ ΔS), symmetric.
        for (z, y, sign) in delta.signed() {
            if (y as usize) >= r_old.y_domain() {
                continue;
            }
            sink.set_sign(sign);
            for &x in r_old.xs_of(y) {
                sink.row(&[x, z]);
            }
        }
    }
    if delta_on_r && delta_on_s {
        // π(ΔR ⋈ ΔS): only reachable for self joins, where the one delta
        // plays both roles; group one side by join value.
        let mut by_y: BTreeMap<Value, Vec<(Value, i64)>> = BTreeMap::new();
        for (z, y, sign) in delta.signed() {
            by_y.entry(y).or_default().push((z, sign));
        }
        for (x, y, sign_r) in delta.signed() {
            if let Some(partners) = by_y.get(&y) {
                for &(z, sign_s) in partners {
                    sink.set_sign(sign_r * sign_s);
                    sink.row(&[x, z]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_storage::{Edge, RelationDelta};

    fn rel(edges: &[Edge]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    /// Reference: counting self-two-path via nested loops.
    fn brute_force(r: &Relation, s: &Relation) -> BTreeMap<(Value, Value), u32> {
        let mut out = BTreeMap::new();
        for &(x, y1) in r.edges() {
            for &(z, y2) in s.edges() {
                if y1 == y2 {
                    *out.entry((x, z)).or_insert(0) += 1;
                }
            }
        }
        out
    }

    fn maintained_equals_recompute(base: &[Edge], delta: &RelationDelta) {
        let old = rel(base);
        let norm = delta.normalize(&old);
        let new = old.apply_normalized(&norm);

        let mut result = DeltaResult {
            support: brute_force(&old, &old),
        };
        let mut sink = DeltaSink::new();
        accumulate_two_path_delta(&mut sink, &norm, &old, &old, true, true);
        assert!(result.apply(sink.into_deltas()), "support went negative");

        let expected = brute_force(&new, &new);
        assert_eq!(result.support, expected, "delta {delta:?} over {base:?}");
    }

    #[test]
    fn insert_grows_self_join() {
        maintained_equals_recompute(&[(0, 0)], RelationDelta::new().insert(1, 0));
    }

    #[test]
    fn delete_below_support_removes_pair() {
        // (0,1) and (1,0) are supported only by witness y=0; deleting
        // (1,0) must erase them and decrement (1,1) to zero via the cross
        // term.
        maintained_equals_recompute(&[(0, 0), (1, 0)], RelationDelta::new().delete(1, 0));
    }

    #[test]
    fn surviving_support_keeps_pair() {
        // (0,1) has two witnesses (y=0, y=1); deleting one keeps the pair
        // at support 1.
        let base = &[(0, 0), (0, 1), (1, 0), (1, 1)];
        maintained_equals_recompute(base, RelationDelta::new().delete(1, 1));
        let old = rel(base);
        let norm = RelationDelta::new().delete(1, 1).normalize(&old);
        let mut result = DeltaResult {
            support: brute_force(&old, &old),
        };
        let mut sink = DeltaSink::new();
        accumulate_two_path_delta(&mut sink, &norm, &old, &old, true, true);
        assert!(result.apply(sink.into_deltas()));
        assert_eq!(result.support_of(0, 1), 1);
    }

    #[test]
    fn mixed_batch_matches() {
        maintained_equals_recompute(
            &[(0, 0), (1, 0), (2, 1), (2, 0), (3, 2)],
            RelationDelta::new()
                .insert(4, 1)
                .insert(0, 2)
                .delete(2, 0)
                .delete(3, 2),
        );
    }

    #[test]
    fn one_sided_delta_matches() {
        // R ⋈ S with only R updated: delta_on_s = false.
        let r_old = rel(&[(0, 0), (1, 1)]);
        let s = rel(&[(5, 0), (6, 0), (7, 1)]);
        let mut delta = RelationDelta::new();
        delta.insert(2, 0).delete(1, 1);
        let norm = delta.normalize(&r_old);
        let r_new = r_old.apply_normalized(&norm);

        let mut result = DeltaResult {
            support: brute_force(&r_old, &s),
        };
        let mut sink = DeltaSink::new();
        accumulate_two_path_delta(&mut sink, &norm, &r_old, &s, true, false);
        assert!(result.apply(sink.into_deltas()));
        assert_eq!(result.support, brute_force(&r_new, &s));
    }

    #[test]
    fn rows_filter_by_min_count_and_zero_counts() {
        let mut support = BTreeMap::new();
        support.insert((0, 1), 3);
        support.insert((2, 2), 1);
        let result = DeltaResult { support };
        let (rows, counts) = result.rows(2, true);
        assert_eq!(rows.values(), &[0, 1]);
        assert_eq!(counts, vec![3]);
        let (rows, counts) = result.rows(1, false);
        assert_eq!(rows.len(), 2);
        assert_eq!(counts, vec![0, 0], "uncounted families serve zeros");
    }

    #[test]
    fn apply_rejects_negative_support() {
        let mut result = DeltaResult::default();
        let mut deltas = BTreeMap::new();
        deltas.insert(vec![0, 0], -1);
        assert!(!result.apply(deltas), "negative support must be rejected");
    }

    #[test]
    fn decision_rule() {
        let policy = MaintenancePolicy {
            enabled: true,
            recompute_budget: 1000,
        };
        assert_eq!(decide(true, 10, 100, &policy), Decision::Maintain);
        assert_eq!(decide(false, 10, 100, &policy), Decision::Recompute);
        assert_eq!(decide(true, 500, 100, &policy), Decision::Recompute);
        assert_eq!(decide(true, 5000, 2000, &policy), Decision::Invalidate);
        assert_eq!(
            decide(true, 10, 100, &MaintenancePolicy::disabled()),
            Decision::Invalidate
        );
    }

    #[test]
    fn delta_cost_counts_partner_degrees() {
        let r = rel(&[(0, 0), (1, 0), (2, 1)]); // deg(y=0)=2, deg(y=1)=1
        let delta = RelationDelta::new().insert(9, 0).normalize(&r);
        // One delta tuple on y=0 against both sides of a self join:
        // 2 (ΔR⋈S) + 2 (R⋈ΔS) + 1 (cross) = 5.
        assert_eq!(delta_cost(&delta, &r, &r, true, true), 5);
        assert_eq!(delta_cost(&delta, &r, &r, true, false), 2);
    }
}
