//! Parallel-vs-serial consistency: every multi-threaded code path must be
//! bit-identical to its serial counterpart (coordination-free parallelism
//! means no output may depend on scheduling).

use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{star_join_project_mm, two_path_join_project, two_path_with_counts, JoinConfig};
use mmjoin_datagen::DatasetKind;
use mmjoin_executor::Executor;
use mmjoin_matrix::{matmul, matmul_parallel_on, DenseMatrix};
use mmjoin_scj::{set_containment_join, ScjAlgorithm};
use mmjoin_ssj::{unordered_ssj, SizeAwarePPOpts, SsjAlgorithm};

const SEED: u64 = 1234;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn cfg(threads: usize) -> JoinConfig {
    JoinConfig {
        threads,
        ..JoinConfig::default()
    }
}

#[test]
fn gemm_parallel_consistency_on_many_shapes() {
    for &(m, k, n) in &[
        (64usize, 64usize, 64usize),
        (33, 129, 65),
        (200, 17, 311),
        (1, 500, 1),
    ] {
        let a = DenseMatrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 4 == 0) as u8 as f32);
        let b = DenseMatrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 3 == 0) as u8 as f32);
        let serial = matmul(&a, &b);
        for &t in &THREADS {
            assert_eq!(
                matmul_parallel_on(Executor::global(), &a, &b, t),
                serial,
                "({m},{k},{n}) x{t}"
            );
        }
    }
}

#[test]
fn mmjoin_two_path_parallel_consistency() {
    for kind in [DatasetKind::Jokes, DatasetKind::Words, DatasetKind::Dblp] {
        let r = mmjoin_datagen::generate(kind, 0.03, SEED);
        let serial = two_path_join_project(&r, &r, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                two_path_join_project(&r, &r, &cfg(t)),
                serial,
                "{kind:?} x{t}"
            );
        }
    }
}

#[test]
fn counting_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Protein, 0.02, SEED);
    let serial = two_path_with_counts(&r, &r, 2, &JoinConfig::default());
    for &t in &THREADS {
        let cfg = JoinConfig {
            threads: t,
            ..JoinConfig::default()
        };
        assert_eq!(two_path_with_counts(&r, &r, 2, &cfg), serial, "threads={t}");
    }
}

#[test]
fn star_parallel_consistency() {
    let rels = mmjoin_datagen::generate_star(DatasetKind::Image, 0.01, SEED, 3);
    let serial = star_join_project_mm(&rels, &cfg(1));
    for &t in &THREADS {
        assert_eq!(star_join_project_mm(&rels, &cfg(t)), serial, "threads={t}");
    }
}

#[test]
fn nonmm_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Words, 0.03, SEED);
    let serial = ExpandDedupEngine::serial().join_project(&r, &r);
    for &t in &THREADS {
        assert_eq!(
            ExpandDedupEngine::parallel(t).join_project(&r, &r),
            serial,
            "threads={t}"
        );
    }
}

#[test]
fn ssj_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED);
    for algo in [
        SsjAlgorithm::SizeAware,
        SsjAlgorithm::SizeAwarePP(SizeAwarePPOpts::all()),
        SsjAlgorithm::MmJoin,
    ] {
        let serial = unordered_ssj(&r, 2, &algo, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                unordered_ssj(&r, 2, &algo, &cfg(t)),
                serial,
                "{algo:?} x{t}"
            );
        }
    }
}

#[test]
fn scj_parallel_consistency() {
    let r = mmjoin_datagen::generate(DatasetKind::Image, 0.02, SEED);
    for algo in [
        ScjAlgorithm::Pretti,
        ScjAlgorithm::LimitPlus { limit: 2 },
        ScjAlgorithm::PieJoin,
        ScjAlgorithm::MmJoin,
    ] {
        let serial = set_containment_join(&r, &algo, &cfg(1));
        for &t in &THREADS {
            assert_eq!(
                set_containment_join(&r, &algo, &cfg(t)),
                serial,
                "{algo:?} x{t}"
            );
        }
    }
}

/// The registry's parallel roster must match its serial roster on every
/// family — the engine-level counterpart of the per-algorithm checks
/// above.
#[test]
fn registry_parallel_consistency() {
    use mmjoin::{default_registry, Query, VecSink};
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.02, SEED);
    let serial = default_registry(1);
    let q = Query::two_path(&r, &r).build().unwrap();
    for &t in &THREADS {
        let parallel = default_registry(t);
        for engine in serial.engines_for(&q) {
            let mut s1 = VecSink::new();
            engine.execute(&q, &mut s1).unwrap();
            let mut s2 = VecSink::new();
            parallel
                .get(engine.name())
                .expect("same roster")
                .execute(&q, &mut s2)
                .unwrap();
            assert_eq!(s1.rows, s2.rows, "{} x{t}", engine.name());
        }
    }
}
