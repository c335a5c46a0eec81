//! The workload seed is the only source of input variation: the same
//! seed reproduces inputs and requests byte for byte, another seed
//! changes them, and the plan kinds a workload exercises stay the same.

use mmjoin_core::{choose_thresholds, plan_general, JoinConfig, PlanChoice};
use mmjoin_perfbench::workload::{Kind, Read, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const SEED: u64 = 7;
const HELD_OUT: u64 = 1_000_003;

/// Every byte a workload hands to the daemon: file contents and request
/// lines.
fn fingerprint(w: &Workload, dir: &Path) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let files = w
        .write_files(dir)
        .expect("write inputs")
        .into_iter()
        .map(|(name, path)| (name, std::fs::read(path).expect("read back")))
        .collect();
    let lines = w.reads.iter().map(|r| r.read.line()).collect();
    (files, lines)
}

/// Read kind → the plan kinds its requests get (Algorithm 3's choice for
/// 2-path-family reads, composed join-step counts for chains).
fn plan_kinds(w: &Workload) -> BTreeMap<&'static str, BTreeSet<String>> {
    let config = JoinConfig::default();
    let mut out: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    for read in w.reads.iter().map(|r| &r.read) {
        let choice = |r: &str, s: &str| match choose_thresholds(
            w.relation(r),
            w.relation(s),
            &config,
        )
        .choice
        {
            PlanChoice::Wcoj => "wcoj".to_string(),
            PlanChoice::Mm { .. } => "matrix".to_string(),
        };
        let (kind, plan) = match read {
            Read::TwoPath { r, s } => ("twopath", choice(r, s)),
            Read::Counts { r, s, .. } => ("counts", choice(r, s)),
            Read::Sim { r, .. } => ("sim", choice(r, r)),
            Read::Star(legs) => ("star", choice(&legs[0], &legs[1])),
            Read::Chain(names) => {
                let rels: Vec<_> = names.iter().map(|n| w.relation(n)).collect();
                let graph = mmjoin_api::ir::QueryGraph::chain(&rels).expect("chain graph");
                let plan = plan_general(&graph).expect("plannable chain");
                (
                    "chain",
                    format!("{} atoms, {} steps", names.len(), plan.steps.len()),
                )
            }
        };
        out.entry(kind).or_default().insert(plan);
    }
    out
}

#[test]
fn seeds_reproduce_inputs_and_keep_plan_kinds() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-seeds");
    for kind in Kind::ALL {
        let a = Workload::generate(kind, SEED);
        let b = Workload::generate(kind, SEED);
        let c = Workload::generate(kind, HELD_OUT);
        let (fa, la) = fingerprint(&a, &tmp.join(format!("{}-a", kind.name())));
        let (fb, lb) = fingerprint(&b, &tmp.join(format!("{}-b", kind.name())));
        let (fc, _) = fingerprint(&c, &tmp.join(format!("{}-c", kind.name())));
        assert_eq!(fa, fb, "{}: same seed, different input files", kind.name());
        assert_eq!(la, lb, "{}: same seed, different requests", kind.name());
        assert_ne!(fa, fc, "{}: held-out seed gave the same files", kind.name());
        assert_eq!(
            plan_kinds(&a),
            plan_kinds(&c),
            "{}: held-out seed changed the plan kinds",
            kind.name()
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
