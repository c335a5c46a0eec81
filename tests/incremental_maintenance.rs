//! Property tests for the incremental-maintenance path: across random
//! insert/delete interleavings, delta-maintained cached results must be
//! identical to recomputing from scratch over the final relation — same
//! rows, same witness counts — including the delete-below-support edge
//! case where removing the last witness of an output pair must remove
//! the pair itself.
//!
//! Maintained entries serve rows in canonical sorted order while a fresh
//! engine execution uses its own emission order, so rows are compared as
//! sorted sequences (the multiset-of-rows contract both sides promise).

use mmjoin::{
    MaintenancePolicy, Relation, RelationDelta, Request, Response, Service, ServiceConfig, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Edge = (Value, Value);

fn maintaining_service() -> Service {
    Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

fn sorted_rows(response: &Response) -> Vec<Vec<Value>> {
    let mut rows = response.rows.to_vecs();
    rows.sort();
    rows
}

fn sorted_counted_rows(response: &Response) -> Vec<(Vec<Value>, u32)> {
    let mut rows: Vec<(Vec<Value>, u32)> = response
        .rows
        .iter()
        .map(<[Value]>::to_vec)
        .zip(response.counts.iter().copied())
        .collect();
    rows.sort();
    rows
}

/// One staged op: `(x, y, kind)` with kind 0 = insert, 1 = delete.
type Op = (Value, Value, u32);

fn delta_of(batch: &[Op]) -> RelationDelta {
    let mut delta = RelationDelta::new();
    for &(x, y, kind) in batch {
        if kind == 0 {
            delta.insert(x, y);
        } else {
            delta.delete(x, y);
        }
    }
    delta
}

/// Independent model of one batch: `(base ∪ inserts) \ deletes` (deletes
/// win within a batch, matching `RelationDelta`'s documented semantics).
fn apply_to_model(model: &mut BTreeSet<Edge>, batch: &[Op]) {
    for &(x, y, kind) in batch {
        if kind == 0 {
            model.insert((x, y));
        }
    }
    for &(x, y, kind) in batch {
        if kind != 0 {
            model.remove(&(x, y));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The storage layer alone: applying random delta batches yields
    /// exactly the model set, independent of merge-vs-rebuild path.
    #[test]
    fn apply_delta_matches_set_model(
        base in prop::collection::vec((0u32..8, 0u32..6), 0..24),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..10, 0u32..7, 0u32..2), 0..8),
            1..5,
        ),
    ) {
        let mut relation = Relation::from_edges(base.iter().copied());
        let mut model: BTreeSet<Edge> = base.into_iter().collect();
        for batch in &batches {
            relation = relation.apply_delta(&delta_of(batch));
            apply_to_model(&mut model, batch);
            let expected: Vec<Edge> = model.iter().copied().collect();
            prop_assert_eq!(relation.edges(), &expected[..]);
        }
    }

    /// The full service path: after every random batch, the maintained
    /// cached results (plain and counting two-path self joins) are
    /// identical to a from-scratch service over the final relation.
    #[test]
    fn maintained_results_equal_recompute(
        base in prop::collection::vec((0u32..8, 0u32..6), 1..24),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..10, 0u32..7, 0u32..2), 1..8),
            1..4,
        ),
    ) {
        let service = maintaining_service();
        service.register("R", Relation::from_edges(base.iter().copied()));
        let plain = Request::two_path("R", "R");
        let counting = Request::two_path_counts("R", "R", 1);
        // Populate the cache so there is something to maintain.
        service.query(plain.clone()).unwrap();
        service.query(counting.clone()).unwrap();

        let mut model: BTreeSet<Edge> = base.into_iter().collect();
        for batch in &batches {
            service.apply_delta("R", &delta_of(batch)).unwrap();
            apply_to_model(&mut model, batch);

            // The catalog relation matches the model exactly.
            let expected: Vec<Edge> = model.iter().copied().collect();
            prop_assert_eq!(service.relation_edges("R").unwrap(), expected);

            // Cached (maintained or eagerly recomputed) answers equal a
            // cold service over the final state.
            let reference = maintaining_service();
            reference.register("R", Relation::from_edges(model.iter().copied()));
            let got_plain = service.query(plain.clone()).unwrap();
            let want_plain = reference.query(plain.clone()).unwrap();
            prop_assert!(got_plain.cached, "update must keep the entry warm");
            prop_assert_eq!(sorted_rows(&got_plain), sorted_rows(&want_plain));

            let got_counts = service.query(counting.clone()).unwrap();
            let want_counts = reference.query(counting.clone()).unwrap();
            prop_assert_eq!(
                sorted_counted_rows(&got_counts),
                sorted_counted_rows(&want_counts),
                "witness counts must survive maintenance"
            );
        }
    }

    /// The maintained service agrees with the invalidate-everything
    /// baseline (which always recomputes) query for query.
    #[test]
    fn maintain_and_invalidate_policies_agree(
        base in prop::collection::vec((0u32..6, 0u32..5), 1..16),
        batch in prop::collection::vec((0u32..8, 0u32..6, 0u32..2), 1..8),
    ) {
        let maintained = maintaining_service();
        let baseline = Service::with_config(ServiceConfig {
            workers: 1,
            maintenance: MaintenancePolicy::disabled(),
            ..ServiceConfig::default()
        });
        for service in [&maintained, &baseline] {
            service.register("R", Relation::from_edges(base.iter().copied()));
            service.query(Request::two_path("R", "R")).unwrap();
            service.apply_delta("R", &delta_of(&batch)).unwrap();
        }
        let a = maintained.query(Request::two_path("R", "R")).unwrap();
        let b = baseline.query(Request::two_path("R", "R")).unwrap();
        prop_assert_eq!(sorted_rows(&a), sorted_rows(&b));
    }
}

/// The delete-below-support edge case, pinned deterministically: an
/// output pair must survive exactly as long as it has a witness.
#[test]
fn delete_below_support_edge_case() {
    let service = maintaining_service();
    // Sets 0 and 1 share elements {0, 1}: pair (0,1) has support 2.
    service.register("R", Relation::from_edges([(0, 0), (0, 1), (1, 0), (1, 1)]));
    let request = Request::two_path_counts("R", "R", 1);
    service.query(request.clone()).unwrap();

    // Build the support structure (first touch recomputes), then delete
    // one witness: (0,1)/(1,0) drop to support 1 but survive.
    service.insert("R", [(2, 0)]).unwrap();
    let report = service.delete("R", [(1, 1)]).unwrap();
    assert_eq!(report.maintained, 1, "the counting entry is patched");
    let after_one = service.query(request.clone()).unwrap();
    assert!(after_one.maintained);
    let rows = sorted_counted_rows(&after_one);
    assert!(
        rows.contains(&(vec![0, 1], 1)),
        "support 2 → 1 keeps the pair: {rows:?}"
    );

    // Delete the last shared element: the pair's support hits zero and it
    // disappears, while each set keeps its self-pair.
    let report = service.delete("R", [(1, 0)]).unwrap();
    assert_eq!(report.maintained, 1);
    let after_two = service.query(request.clone()).unwrap();
    assert!(after_two.maintained);
    let rows = sorted_counted_rows(&after_two);
    assert!(
        !rows
            .iter()
            .any(|(row, _)| row == &vec![0, 1] || row == &vec![1, 0]),
        "support 0 must remove the pair: {rows:?}"
    );
    assert!(rows.contains(&(vec![0, 0], 2)), "{rows:?}");

    // Ground truth: set 1 is now empty; only sets 0 and 2 remain.
    let reference = maintaining_service();
    reference.register("R", Relation::from_edges([(0, 0), (0, 1), (2, 0)]));
    let expected = reference.query(request).unwrap();
    assert_eq!(
        sorted_counted_rows(&after_two),
        sorted_counted_rows(&expected)
    );
}
