//! The traced pass: replays a fixed prefix of the workload in-process and
//! times calls into each layer's public functions, recording one span per
//! call. Nothing here runs inside the daemon.

use crate::util::{median, qerror, quantile};
use crate::workload::{Kind, Read, Workload};
use mmjoin_api::ir::QueryGraph;
use mmjoin_api::{CountSink, PlanKind, PlanStats};
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_core::{
    choose_thresholds, execute_general, plan_general, star_join_project_mm_with_stats,
    two_path_join_project_with_stats, two_path_with_counts_stats, JoinConfig, PlanStep,
};
use mmjoin_executor::Executor;
use mmjoin_matrix::{matmul_parallel_on, DenseMatrix};
use mmjoin_service::command::Command;
use mmjoin_service::{Service, ServiceConfig};
use mmjoin_storage::io::read_edge_list;
use mmjoin_storage::{Relation, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    secs: f64,
}

/// Records spans and exact work counts for the per-layer metrics.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
    /// Per 2-path-family call: `(exec_s, gemm_s)`.
    calls: Vec<(f64, f64)>,
    gemm_flops: f64,
    heavy_madds: u64,
    light_tuples: u64,
    mm_plans: u64,
    out_qerror: Vec<f64>,
    time_qerror: Vec<f64>,
    step_qerror: Vec<f64>,
    /// `(expand_s, exec_s)` on the same plain 2-path inputs.
    expand_pairs: Vec<(f64, f64)>,
    /// Rebuilt heavy cores whose shape disagreed with `heavy_dims`.
    pub shape_mismatches: Vec<String>,
    /// Answers that disagreed with the expected rows.
    pub wrong: Vec<String>,
    /// [`PlanPrint`] of the direct 2-path-family calls.
    pub direct: PlanPrint,
}

impl Recorder {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.spans.push(Span {
            layer,
            secs: t.elapsed().as_secs_f64(),
        });
        out
    }

    fn secs(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.secs)
            .collect()
    }

    /// Median duration of `layer`'s spans in `scale` units per second.
    fn median_of(&self, layer: &str, scale: f64) -> f64 {
        median(&self.secs(layer)) * scale
    }
}

/// The plan-determinism fingerprint of a replay: `(mm_plans,
/// heavy_madds)`. Both must repeat exactly for one seed.
pub type PlanPrint = (u64, u64);

/// The in-process configuration matching `mmjoin-netd --threads n`.
pub fn netd_config(threads: usize) -> JoinConfig {
    JoinConfig {
        threads: 0,
        executor: Some(Arc::new(Executor::new(threads))),
        ..JoinConfig::default()
    }
}

/// Reads replayed in-process per workload: a fixed prefix, so work
/// counts repeat exactly between runs of one seed.
fn replay_reads(w: &Workload) -> Vec<&Read> {
    match w.kind {
        Kind::TwopathDense => w.reads.iter().take(8).map(|r| &r.read).collect(),
        Kind::ChainSparse => w.reads.iter().take(16).map(|r| &r.read).collect(),
    }
}

/// Runs the traced pass. `files` are the workload's input files.
pub fn run(w: &Workload, files: &[(String, PathBuf)], threads: usize) -> Recorder {
    let mut rec = Recorder::default();
    let config = netd_config(threads);

    // storage: parse every input file, three passes.
    for _ in 0..3 {
        rec.time("storage.read_all", || {
            for (_, path) in files {
                let f = std::fs::File::open(path).expect("input file");
                std::hint::black_box(read_edge_list(f).expect("input parses"));
            }
        });
    }

    let reads = replay_reads(w);
    let mut lines: Vec<String> = reads.iter().map(|r| r.line()).collect();
    if let Some(first) = w.reads.first() {
        let rel = first.read.relations()[0];
        lines.extend([w.toggle(rel, false).line(), w.toggle(rel, true).line()]);
    }
    // service: parse and fingerprint every request line.
    for line in &lines {
        const REPS: u32 = 50;
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(Command::parse(std::hint::black_box(line)).expect("line parses"));
        }
        rec.spans.push(Span {
            layer: "service.command.parse",
            secs: t.elapsed().as_secs_f64() / REPS as f64,
        });
        if let Ok(Command::Query { request, .. }) = Command::parse(line) {
            const FP_REPS: u32 = 1000;
            let t = Instant::now();
            for _ in 0..FP_REPS {
                std::hint::black_box(std::hint::black_box(&request).fingerprint());
            }
            rec.spans.push(Span {
                layer: "service.request.fingerprint",
                secs: t.elapsed().as_secs_f64() / FP_REPS as f64,
            });
        }
    }

    // core + matrix + baseline: every replayed read.
    for read in &reads {
        replay_read(&mut rec, w, read, &config);
    }

    maintain_pass(&mut rec, w, threads);
    rec
}

/// Expected rows of a replayed read, from the request list.
fn expected(w: &Workload, read: &Read) -> Option<u64> {
    w.reads
        .iter()
        .find(|r| &r.read == read)
        .map(|r| r.expected_rows)
}

fn replay_read(rec: &mut Recorder, w: &Workload, read: &Read, config: &JoinConfig) {
    let rel = |n: &str| w.relation(n);
    let want = expected(w, read);
    let check = |rec: &mut Recorder, got: u64| {
        if want != Some(got) {
            rec.wrong.push(format!(
                "in-process `{}` gave {got} rows, expected {want:?}",
                read.line()
            ));
        }
    };
    match read {
        Read::TwoPath { r, s } => {
            let (r, s) = (rel(r), rel(s));
            let rows = two_path_call(rec, r, s, None, config);
            check(rec, rows);
            let exec_s = rec.calls.last().map_or(0.0, |c| c.0);
            let out = rec.time("baseline.nonmm.expand", || {
                ExpandDedupEngine::serial().join_project(r, s)
            });
            let expand_s = rec.spans.last().unwrap().secs;
            rec.expand_pairs.push((expand_s, exec_s));
            check(rec, out.len() as u64);
            if w.kind != Kind::ChainSparse {
                // No chains or stars in this mix: time the composed
                // executor and the star evaluator on the same 2-path, in
                // general form and as a 2-leg star.
                let graph = QueryGraph::two_path(r, s);
                general_call(rec, &graph, config);
                let (tuples, _) = rec.time("core.star.exec", || {
                    star_join_project_mm_with_stats(&[r, s], config)
                });
                check(rec, tuples.len() as u64);
            }
        }
        Read::Counts { r, s, c } => {
            let rows = two_path_call(rec, rel(r), rel(s), Some((*c, false)), config);
            check(rec, rows);
        }
        Read::Sim { r, c } => {
            let r = rel(r);
            let rows = two_path_call(rec, r, r, Some((*c, true)), config);
            check(rec, rows);
        }
        Read::Chain(names) => {
            let rels: Vec<&Relation> = names.iter().map(|n| rel(n)).collect();
            let graph = QueryGraph::chain(&rels).expect("chain graph");
            let rows = general_call(rec, &graph, config);
            check(rec, rows);
            chain_steps(rec, &graph, config);
        }
        Read::Star(names) => {
            let rels: Vec<&Relation> = names.iter().map(|n| rel(n)).collect();
            let (tuples, _) = rec.time("core.star.exec", || {
                star_join_project_mm_with_stats(&rels, config)
            });
            check(rec, tuples.len() as u64);
        }
    }
}

/// One 2-path-family call: plan (timed alone), execute, then rebuild the
/// heavy core from public accessors at the chosen thresholds and time
/// its GEMM. `min` is the witness threshold of a counted call and
/// whether only pairs `x < z` count (a self similarity join). Returns
/// the rows the call produced.
fn two_path_call(
    rec: &mut Recorder,
    r: &Relation,
    s: &Relation,
    min: Option<(u32, bool)>,
    config: &JoinConfig,
) -> u64 {
    let plan = rec.time("core.optimizer.choose", || choose_thresholds(r, s, config));
    std::hint::black_box(&plan);
    let t = Instant::now();
    let (rows, stats) = match min {
        None => {
            let (pairs, stats) = two_path_join_project_with_stats(r, s, config);
            (pairs.len() as u64, stats)
        }
        Some((c, lt_only)) => {
            let (triples, stats) = two_path_with_counts_stats(r, s, c, config);
            let rows = triples.iter().filter(|t| !lt_only || t.0 < t.1).count();
            (rows as u64, stats)
        }
    };
    let exec_s = t.elapsed().as_secs_f64();
    rec.spans.push(Span {
        layer: "core.two_path.exec",
        secs: exec_s,
    });
    let gemm_s = stats
        .as_ref()
        .map_or(0.0, |st| heavy_core(rec, r, s, st, config));
    if let Some(st) = &stats {
        if let (PlanKind::MatrixPartitioned, Some((u, v, w))) = (st.kind, st.heavy_dims) {
            rec.direct.0 += 1;
            rec.direct.1 += (u * v * w) as u64;
        }
        if min.is_none() {
            if let Some(est) = st.estimated_out {
                rec.out_qerror.push(qerror(est as f64, rows as f64));
            }
        }
        if let (Some(l), Some(h)) = (st.predicted_light_secs, st.predicted_heavy_secs) {
            rec.time_qerror.push(qerror(l + h, exec_s));
        }
        if let Some((a, b)) = st.light_tuples {
            rec.light_tuples += a + b;
        }
    }
    rec.calls.push((exec_s, gemm_s));
    rows
}

/// Rebuilds the heavy core of a matrix-partitioned run and times its
/// product; returns the GEMM seconds (0 for expansion-only plans).
fn heavy_core(
    rec: &mut Recorder,
    r: &Relation,
    s: &Relation,
    st: &PlanStats,
    config: &JoinConfig,
) -> f64 {
    let (PlanKind::MatrixPartitioned, Some(d1), Some(d2), Some(dims)) =
        (st.kind, st.delta1, st.delta2, st.heavy_dims)
    else {
        return 0.0;
    };
    rec.mm_plans += 1;
    let (m1, m2) = heavy_matrices(r, s, d1, d2);
    let got = (m1.rows(), m1.cols(), m2.cols());
    if got != dims {
        rec.shape_mismatches.push(format!(
            "heavy core rebuilt as {got:?}, plan reports {dims:?}"
        ));
        return 0.0;
    }
    if st.heavy_core_matrix != Some(true) {
        return 0.0;
    }
    let (u, v, w) = got;
    rec.heavy_madds += (u * v * w) as u64;
    let prod = rec.time("matrix.gemm", || {
        matmul_parallel_on(config.exec(), &m1, &m2, config.effective_threads())
    });
    std::hint::black_box(prod);
    rec.gemm_flops += 2.0 * (u * v * w) as f64;
    rec.spans.last().unwrap().secs
}

/// Algorithm 1's heavy factor matrices for `(Δ1, Δ2)`: `y` heavier than
/// `Δ1` in both relations, then `x`/`z` heavier than `Δ2` adjacent to
/// at least one such `y`.
pub fn heavy_matrices(r: &Relation, s: &Relation, d1: u32, d2: u32) -> (DenseMatrix, DenseMatrix) {
    let ydom = r.y_domain().min(s.y_domain());
    let mut col = vec![usize::MAX; r.y_domain().max(s.y_domain())];
    let mut v = 0;
    for y in 0..ydom as Value {
        if r.y_degree(y) > d1 as usize && s.y_degree(y) > d1 as usize {
            col[y as usize] = v;
            v += 1;
        }
    }
    let heavy = |rel: &Relation| -> Vec<Value> {
        rel.by_x()
            .iter_nonempty()
            .filter(|(_, ys)| {
                ys.len() > d2 as usize && ys.iter().any(|&y| col[y as usize] != usize::MAX)
            })
            .map(|(x, _)| x)
            .collect()
    };
    let (hx, hz) = (heavy(r), heavy(s));
    let mut m1 = DenseMatrix::zeros(hx.len(), v);
    for (i, &x) in hx.iter().enumerate() {
        for &y in r.ys_of(x) {
            if col[y as usize] != usize::MAX {
                m1.set(i, col[y as usize], 1.0);
            }
        }
    }
    let mut m2 = DenseMatrix::zeros(v, hz.len());
    for (j, &z) in hz.iter().enumerate() {
        for &y in s.ys_of(z) {
            if col[y as usize] != usize::MAX {
                m2.set(col[y as usize], j, 1.0);
            }
        }
    }
    (m1, m2)
}

/// Plans (timed alone) and executes a general query through the
/// composed executor; returns the rows.
fn general_call(rec: &mut Recorder, graph: &QueryGraph<'_>, config: &JoinConfig) -> u64 {
    let plan = rec.time("core.plan.plan", || plan_general(graph).expect("plannable"));
    std::hint::black_box(plan);
    let mut sink = CountSink::new();
    let (rows, stats) = rec.time("core.compose.exec", || {
        execute_general(graph, config, &mut sink).expect("composed run")
    });
    for step in &stats.steps {
        if let (Some(e), Some(a)) = (step.estimated_rows, step.actual_rows) {
            rec.step_qerror.push(qerror(e as f64, a as f64));
        }
    }
    rows
}

/// Replays a chain plan's join steps through the 2-path primitive, the
/// way the composed executor runs them, so each step's plan, GEMM and
/// the rest are timed like any other 2-path call.
fn chain_steps(rec: &mut Recorder, graph: &QueryGraph<'_>, config: &JoinConfig) {
    let plan = plan_general(graph).expect("plannable");
    let mut mats: Vec<Option<Cow<'_, Relation>>> = vec![None; plan.nodes.len()];
    for (i, atom) in graph.atoms().iter().enumerate() {
        mats[i] = Some(Cow::Borrowed(atom.relation));
    }
    let oriented = |rel: &Relation, on_is_b: bool| -> Relation {
        if on_is_b {
            rel.clone()
        } else {
            rel.transposed()
        }
    };
    for step in &plan.steps {
        let PlanStep::Join {
            left,
            right,
            on,
            result,
            ..
        } = *step
        else {
            return;
        };
        let (Some(l), Some(r)) = (mats[left].take(), mats[right].take()) else {
            return;
        };
        let l = oriented(&l, plan.nodes[left].b == on);
        let r = oriented(&r, plan.nodes[right].b == on);
        let (pairs, stats) = two_path_join_project_with_stats(&l, &r, config);
        // Time a second identical run so the first warms like the
        // executor's materialisation did.
        let t = Instant::now();
        std::hint::black_box(two_path_join_project_with_stats(&l, &r, config));
        let exec_s = t.elapsed().as_secs_f64();
        rec.spans.push(Span {
            layer: "core.two_path.exec",
            secs: exec_s,
        });
        let gemm_s = stats
            .as_ref()
            .map_or(0.0, |st| heavy_core(rec, &l, &r, st, config));
        if let Some(st) = &stats {
            if let (Some(lt), Some(ht)) = (st.predicted_light_secs, st.predicted_heavy_secs) {
                rec.time_qerror.push(qerror(lt + ht, exec_s));
            }
            if let Some((a, b)) = st.light_tuples {
                rec.light_tuples += a + b;
            }
        }
        rec.calls.push((exec_s, gemm_s));
        mats[result] = Some(Cow::Owned(Relation::from_edges(pairs)));
    }
}

/// `Service::insert`/`delete` in-process on the daemon's configuration:
/// the toggles the closed loop sends after its first six flushing reads.
fn maintain_pass(rec: &mut Recorder, w: &Workload, threads: usize) {
    let mut cfg = ServiceConfig {
        workers: threads,
        thread_budget: threads,
        ..ServiceConfig::default()
    };
    cfg.join_config.threads = 0;
    let service = Service::with_config(cfg);
    for (name, rel) in &w.relations {
        service.register(name.as_str(), rel.clone());
    }
    for cold in w.reads.iter().filter(|r| r.flush).take(6) {
        let rel = cold.read.relations()[0];
        for up in [w.toggle(rel, false), w.toggle(rel, true)] {
            rec.time("service.maintain.apply", || {
                if up.insert {
                    service.insert(&up.relation, up.edges.clone())
                } else {
                    service.delete(&up.relation, up.edges.clone())
                }
                .expect("toggle applies")
            });
        }
    }
}

/// Re-plans every replayed 2-path-family call and rebuilds its heavy
/// core, returning the determinism fingerprint. Chain steps are not
/// re-planned (their inputs are intermediate results).
pub fn plan_print(w: &Workload, threads: usize) -> PlanPrint {
    let config = netd_config(threads);
    let (mut plans, mut madds) = (0u64, 0u64);
    for read in replay_reads(w) {
        let (r, s) = match read {
            Read::TwoPath { r, s } | Read::Counts { r, s, .. } => (w.relation(r), w.relation(s)),
            Read::Sim { r, .. } => (w.relation(r), w.relation(r)),
            _ => continue,
        };
        if let mmjoin_core::PlanChoice::Mm { delta1, delta2 } =
            choose_thresholds(r, s, &config).choice
        {
            plans += 1;
            let (m1, m2) = heavy_matrices(r, s, delta1, delta2);
            madds += (m1.rows() * m1.cols() * m2.cols()) as u64;
        }
    }
    (plans, madds)
}

impl Recorder {
    /// The per-layer metrics of the pass: name → (value, unit).
    pub fn metrics(&self, fma_peak_gflops: f64) -> BTreeMap<&'static str, (f64, &'static str)> {
        let mut m = BTreeMap::new();
        let exec: f64 = self.calls.iter().map(|c| c.0).sum();
        let gemm: f64 = self.calls.iter().map(|c| c.1).sum();
        let nongemm: Vec<f64> = self.calls.iter().map(|c| (c.0 - c.1) * 1e3).collect();
        let gflops = if gemm > 0.0 {
            self.gemm_flops / gemm / 1e9
        } else {
            0.0
        };
        let (expand, paired): (f64, f64) = self
            .expand_pairs
            .iter()
            .fold((0.0, 0.0), |acc, p| (acc.0 + p.0, acc.1 + p.1));
        m.insert(
            "storage.read_edge_list_ms",
            (self.median_of("storage.read_all", 1e3), "ms"),
        );
        m.insert(
            "service.command.parse_us",
            (self.median_of("service.command.parse", 1e6), "us"),
        );
        m.insert(
            "service.request.fingerprint_ns",
            (self.median_of("service.request.fingerprint", 1e9), "ns"),
        );
        m.insert(
            "service.maintain.apply_ms",
            (self.median_of("service.maintain.apply", 1e3), "ms"),
        );
        m.insert(
            "core.optimizer.choose_us",
            (self.median_of("core.optimizer.choose", 1e6), "us"),
        );
        m.insert("core.optimizer.mm_plans", (self.mm_plans as f64, "count"));
        m.insert(
            "core.estimate.qerror_p90",
            (quantile(&self.out_qerror, 0.9), "ratio"),
        );
        m.insert(
            "core.plan.plan_us",
            (self.median_of("core.plan.plan", 1e6), "us"),
        );
        m.insert(
            "core.plan.step_qerror_p90",
            (quantile(&self.step_qerror, 0.9), "ratio"),
        );
        m.insert(
            "core.compose.exec_ms",
            (self.median_of("core.compose.exec", 1e3), "ms"),
        );
        m.insert(
            "core.star.exec_ms",
            (self.median_of("core.star.exec", 1e3), "ms"),
        );
        m.insert(
            "core.two_path.exec_ms",
            (self.median_of("core.two_path.exec", 1e3), "ms"),
        );
        m.insert("core.two_path.nongemm_ms", (median(&nongemm), "ms"));
        m.insert(
            "core.two_path.heavy_madds",
            (self.heavy_madds as f64, "count"),
        );
        m.insert(
            "core.two_path.light_tuples",
            (self.light_tuples as f64, "count"),
        );
        m.insert(
            "core.two_path.time_qerror_p90",
            (quantile(&self.time_qerror, 0.9), "ratio"),
        );
        m.insert("matrix.gemm_ms", (self.median_of("matrix.gemm", 1e3), "ms"));
        m.insert(
            "matrix.gemm_share",
            (if exec > 0.0 { gemm / exec } else { 0.0 }, "ratio"),
        );
        m.insert("matrix.gemm_gflops", (gflops, "GFLOP/s"));
        m.insert(
            "matrix.peak_frac",
            (
                if fma_peak_gflops > 0.0 {
                    gflops / fma_peak_gflops
                } else {
                    0.0
                },
                "ratio",
            ),
        );
        m.insert(
            "baseline.nonmm.expand_ms",
            (self.median_of("baseline.nonmm.expand", 1e3), "ms"),
        );
        m.insert(
            "core.two_path.speedup_vs_expand",
            (if paired > 0.0 { expand / paired } else { 0.0 }, "ratio"),
        );
        m
    }
}
