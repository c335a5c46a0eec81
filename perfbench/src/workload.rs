//! The two workloads: seeded input relations, request lists, and the
//! expected row count of every request, computed before timing by
//! reference engines that share no code with Algorithm 1.
//!
//! Everything here is a pure function of `(workload, seed)`: the same
//! seed gives byte-identical input files and request lines.

use crate::util::Rng;
use mmjoin_baseline::nonmm::ExpandDedupEngine;
use mmjoin_datagen::{generate, generate_chain, DatasetKind};
use mmjoin_storage::io::write_edge_list;
use mmjoin_storage::{Edge, Relation, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, dense Image/Protein 2-paths: the paper's MM regime.
    TwopathDense,
    /// Closed loop, Zipf chains plus sparse DBLP 2-paths and 3-stars.
    ChainSparse,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::TwopathDense, Kind::ChainSparse];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TwopathDense => "twopath-dense",
            Kind::ChainSparse => "chain-sparse",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One read request, in the daemon's command grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Read {
    TwoPath { r: String, s: String },
    Counts { r: String, s: String, c: u32 },
    Sim { r: String, c: u32 },
    Chain(Vec<String>),
    Star(Vec<String>),
}

impl Read {
    /// The command line sent to the daemon.
    pub fn line(&self) -> String {
        match self {
            Read::TwoPath { r, s } => format!("query twopath {r} {s}"),
            Read::Counts { r, s, c } => format!("query twopath {r} {s} counts min {c}"),
            Read::Sim { r, c } => format!("query sim {r} {c}"),
            Read::Chain(rels) => format!("query chain {}", rels.join(" ")),
            Read::Star(rels) => format!("query star {}", rels.join(" ")),
        }
    }

    /// Relations the request reads, first one first.
    pub fn relations(&self) -> Vec<&str> {
        match self {
            Read::TwoPath { r, s } | Read::Counts { r, s, .. } => vec![r, s],
            Read::Sim { r, .. } => vec![r],
            Read::Chain(rels) | Read::Star(rels) => rels.iter().map(String::as_str).collect(),
        }
    }
}

/// One `insert`/`delete` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    pub relation: String,
    pub insert: bool,
    pub edges: Vec<Edge>,
}

impl Update {
    pub fn line(&self) -> String {
        let edges: Vec<String> = self.edges.iter().map(|(x, y)| format!("{x},{y}")).collect();
        format!(
            "{} {} {}",
            if self.insert { "insert" } else { "delete" },
            self.relation,
            edges.join(" ")
        )
    }
}

/// A closed-loop read with its expected answer.
#[derive(Debug, Clone)]
pub struct ColdRead {
    pub read: Read,
    pub expected_rows: u64,
    /// Whether to toggle a disconnected tuple in the read's first
    /// relation afterwards (see [`Workload::toggle`]).
    pub flush: bool,
}

impl ColdRead {
    /// Expected rows given which relations currently hold their toggle
    /// tuple `(t, t)`: it meets only itself, adding the row `(t, t)` to
    /// a self 2-path (counted ones at threshold 1) and `(t, …, t)` to a
    /// star whose legs are all that relation.
    pub fn expected(&self, present: impl Fn(&str) -> bool) -> u64 {
        let extra = match &self.read {
            Read::TwoPath { r, s } => r == s && present(r),
            Read::Counts { r, s, c } => r == s && *c <= 1 && present(r),
            Read::Star(legs) => legs.iter().all(|l| *l == legs[0]) && present(&legs[0]),
            Read::Sim { .. } | Read::Chain(_) => false,
        };
        self.expected_rows + extra as u64
    }
}

/// A workload instance for one seed.
pub struct Workload {
    pub kind: Kind,
    /// Named input relations, in load order.
    pub relations: Vec<(String, Relation)>,
    /// Closed-loop request list, replayed from the start in every round.
    pub reads: Vec<ColdRead>,
    /// Witness-count distributions already computed, by relation pair.
    counts: HashMap<(String, String), PairCounts>,
}

impl Workload {
    /// Builds the inputs and request lists of `kind` for `seed`. The
    /// expected answers are filled by [`Workload::compute_expected`].
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed ^ kind as u64);
        let sub = |i: u64| seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
        let (relations, reads) = match kind {
            Kind::TwopathDense => {
                let relations = vec![
                    ("I0".into(), generate(DatasetKind::Image, 0.5, sub(1))),
                    ("I1".into(), generate(DatasetKind::Image, 0.5, sub(2))),
                    ("I2".into(), generate(DatasetKind::Image, 0.5, sub(5))),
                    ("P0".into(), generate(DatasetKind::Protein, 0.5, sub(3))),
                    ("P1".into(), generate(DatasetKind::Protein, 0.5, sub(4))),
                ];
                (relations, Vec::new())
            }
            Kind::ChainSparse => {
                let mut relations = Vec::new();
                let (mut a, mut b) = (0, 0);
                for inst in 0..2 {
                    for (hop, rel) in generate_chain(0.1, sub(10 + inst), 5)
                        .into_iter()
                        .enumerate()
                    {
                        // Even hops map sets to elements, odd hops (already
                        // transposed by the generator) elements to sets.
                        let name = if hop % 2 == 0 {
                            a += 1;
                            format!("A{}", a - 1)
                        } else {
                            b += 1;
                            format!("B{}", b - 1)
                        };
                        relations.push((name, rel));
                    }
                }
                for i in 0..2 {
                    relations.push((
                        format!("D{i}"),
                        generate(DatasetKind::Dblp, 0.5, sub(20 + i)),
                    ));
                }
                for i in 0..4 {
                    relations.push((
                        format!("S{i}"),
                        generate(DatasetKind::Dblp, 0.1, sub(30 + i)),
                    ));
                }
                let reads = chain_sparse_reads(&mut rng);
                (relations, reads)
            }
        };
        let mut w = Workload {
            kind,
            relations,
            reads,
            counts: HashMap::new(),
        };
        if kind == Kind::TwopathDense {
            (w.reads, w.counts) = twopath_dense_reads(&w.relations, &mut rng);
        }
        w
    }

    /// Looks a relation up by name.
    pub fn relation(&self, name: &str) -> &Relation {
        &self
            .relations
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("workload has no relation {name}"))
            .1
    }

    /// Writes every relation as a tab-separated edge list under `dir`,
    /// returning `(name, path)` pairs in load order.
    pub fn write_files(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
        std::fs::create_dir_all(dir)?;
        let mut out = Vec::new();
        for (name, rel) in &self.relations {
            let path = dir.join(format!("{name}.tsv"));
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            write_edge_list(rel, &mut w)?;
            std::io::Write::flush(&mut w)?;
            out.push((name.clone(), path));
        }
        Ok(out)
    }

    /// The update a closed-loop flush sends to `relation`: it inserts the
    /// relation's toggle tuple when `present` is false and deletes it
    /// otherwise. The tuple uses ids no relation has, unique to the
    /// relation, so it joins only with itself (see
    /// [`ColdRead::expected`]). Any change drops every cached result over
    /// the relation — the daemon has no cache-size flag, and one dense
    /// 2-path result holds ~60 MB.
    pub fn toggle(&self, relation: &str, present: bool) -> Update {
        let base = self
            .relations
            .iter()
            .map(|(_, r)| r.x_domain().max(r.y_domain()))
            .max()
            .unwrap_or(0)
            + 16;
        let i = self
            .relations
            .iter()
            .position(|(n, _)| n == relation)
            .unwrap_or_else(|| panic!("workload has no relation {relation}"));
        let id = (base + i) as Value;
        Update {
            relation: relation.to_string(),
            insert: !present,
            edges: vec![(id, id)],
        }
    }

    /// Computes the expected rows of every request with the reference
    /// engines, on up to two threads.
    pub fn compute_expected(&mut self) {
        let rows = {
            let this: &Workload = self;
            let reference = Reference::new(this);
            let reads: Vec<&Read> = this.reads.iter().map(|r| &r.read).collect();
            parallel_map(&reads, |read| reference.rows(read))
        };
        for (r, rows) in self.reads.iter_mut().zip(rows) {
            r.expected_rows = rows;
        }
    }
}

/// Distinct twopath-dense reads: every same-profile plain 2-path (nine
/// Image pairs, four Protein pairs), then counted 2-paths and similarity
/// joins (16 and 8 over Image, 7 and 4 over Protein) with thresholds
/// drawn from each pair's exact count distribution so every counted
/// answer keeps 3–15% of the pairs (bounded result size); 48 requests,
/// shuffled. The shares put the read p90 inside the slowest group (Image
/// plain 2-paths, 19%) and the p50 inside the next (Image counted and
/// similarity, 50%), away from the gaps between groups where a quantile
/// jumps.
fn twopath_dense_reads(
    relations: &[(String, Relation)],
    rng: &mut Rng,
) -> (Vec<ColdRead>, HashMap<(String, String), PairCounts>) {
    let groups: [&[&str]; 2] = [&["I0", "I1", "I2"], &["P0", "P1"]];
    let mut pairs: Vec<(String, String)> = Vec::new();
    for g in groups {
        for r in g {
            for s in g {
                pairs.push((r.to_string(), s.to_string()));
            }
        }
    }
    let rel = |n: &str| &relations.iter().find(|(m, _)| m == n).unwrap().1;
    let hists: HashMap<(String, String), PairCounts> = pairs
        .iter()
        .cloned()
        .zip(parallel_map(&pairs, |(r, s)| pair_counts(rel(r), rel(s))))
        .collect();
    let mut seen = BTreeSet::new();
    let mut reads: Vec<Read> = pairs
        .iter()
        .map(|(r, s)| Read::TwoPath {
            r: r.clone(),
            s: s.clone(),
        })
        .collect();
    for (group, counted, similar) in [(groups[0], 16, 8), (groups[1], 7, 4)] {
        for k in 0..counted + similar {
            loop {
                let keep = 0.03 + 0.12 * rng.unit();
                let r = group[rng.below(group.len())].to_string();
                let read = if k < counted {
                    let s = group[rng.below(group.len())].to_string();
                    let c = hists[&(r.clone(), s.clone())].threshold_keeping(keep, false);
                    Read::Counts { r, s, c }
                } else {
                    let c = hists[&(r.clone(), r.clone())].threshold_keeping(keep, true);
                    Read::Sim { r, c }
                };
                if seen.insert(read.line()) {
                    reads.push(read);
                    break;
                }
            }
        }
    }
    shuffle(&mut reads, rng);
    let reads = reads
        .into_iter()
        .map(|read| ColdRead {
            read,
            expected_rows: 0,
            flush: true,
        })
        .collect();
    (reads, hists)
}

/// Distinct chain-sparse reads in a fixed 8-slot pattern (64 reads): three 3-chains,
/// two 5-chains, a 3-star and two DBLP 2-paths (plain, then counted).
fn chain_sparse_reads(rng: &mut Rng) -> Vec<ColdRead> {
    let a = |rng: &mut Rng| format!("A{}", rng.below(6));
    let b = |rng: &mut Rng| format!("B{}", rng.below(4));
    let mut seen = BTreeSet::new();
    let mut reads = Vec::new();
    let mut plain_d = vec![("D0", "D1"), ("D1", "D0"), ("D0", "D0"), ("D1", "D1")];
    shuffle(&mut plain_d, rng);
    let mut next_c = 2u32;
    for slot in 0..64 {
        let read = loop {
            let read = match slot % 8 {
                0 | 3 | 5 => Read::Chain(vec![a(rng), b(rng), a(rng)]),
                1 | 6 => Read::Chain(vec![a(rng), b(rng), a(rng), b(rng), a(rng)]),
                4 => {
                    let mut legs: Vec<String> =
                        (0..3).map(|_| format!("S{}", rng.below(4))).collect();
                    legs.sort();
                    Read::Star(legs)
                }
                _ => match plain_d.pop() {
                    Some((r, s)) => Read::TwoPath {
                        r: r.into(),
                        s: s.into(),
                    },
                    None => {
                        next_c += 1;
                        let (r, s) = [("D0", "D1"), ("D1", "D0")][rng.below(2)];
                        Read::Counts {
                            r: r.into(),
                            s: s.into(),
                            c: next_c / 2,
                        }
                    }
                },
            };
            if seen.insert(read.line()) {
                break read;
            }
        };
        // Chain and star results are never maintained, so a toggle just
        // drops them; DBLP 2-path results are small and stay cached.
        let flush = matches!(read, Read::Chain(_) | Read::Star(_));
        reads.push(ColdRead {
            read,
            expected_rows: 0,
            flush,
        });
    }
    reads
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Exact witness-count distribution of `π_{x,z}(R(x,y) ⋈ S(z,y))`:
/// `all[k]` pairs share exactly `k` witnesses, `lt[k]` of them with
/// `x < z` (what a self similarity join reports).
#[derive(Debug, Clone, Default)]
pub struct PairCounts {
    all: BTreeMap<u32, u64>,
    lt: BTreeMap<u32, u64>,
}

impl PairCounts {
    /// Pairs with at least `c` witnesses (`lt`: only `x < z`).
    pub fn at_least(&self, c: u32, lt: bool) -> u64 {
        let h = if lt { &self.lt } else { &self.all };
        h.range(c.max(1)..).map(|(_, &n)| n).sum()
    }

    /// The smallest threshold keeping at most `keep` of the pairs.
    fn threshold_keeping(&self, keep: f64, lt: bool) -> u32 {
        let total = self.at_least(1, lt) as f64;
        let h = if lt { &self.lt } else { &self.all };
        let mut above = 0u64;
        for (&k, &n) in h.iter().rev() {
            if (above + n) as f64 > keep * total {
                return k + 1;
            }
            above += n;
        }
        1
    }

    /// Expected rows of a 2-path-family read over the pair this
    /// distribution describes.
    pub fn rows(&self, read: &Read) -> u64 {
        match read {
            Read::TwoPath { .. } => self.at_least(1, false),
            Read::Counts { c, .. } => self.at_least(*c, false),
            Read::Sim { c, .. } => self.at_least(*c, true),
            _ => unreachable!("not a 2-path-family read"),
        }
    }
}

/// Counting expansion: for every set `x` of `R`, walk its elements and
/// count each `z` of `S` reached — the combinatorial (Non-MMJoin)
/// evaluation with exact per-pair witness counts.
pub fn pair_counts(r: &Relation, s: &Relation) -> PairCounts {
    let mut count = vec![0u32; s.x_domain()];
    let mut touched = Vec::new();
    let mut out = PairCounts::default();
    for (x, ys) in r.by_x().iter_nonempty() {
        for &y in ys {
            if (y as usize) < s.y_domain() {
                for &z in s.xs_of(y) {
                    if count[z as usize] == 0 {
                        touched.push(z);
                    }
                    count[z as usize] += 1;
                }
            }
        }
        for &z in &touched {
            let k = count[z as usize];
            *out.all.entry(k).or_default() += 1;
            if x < z {
                *out.lt.entry(k).or_default() += 1;
            }
            count[z as usize] = 0;
        }
        touched.clear();
    }
    out
}

/// The reference answers of the closed-loop workloads.
struct Reference<'a> {
    w: &'a Workload,
    counts: HashMap<(String, String), PairCounts>,
}

impl<'a> Reference<'a> {
    fn new(w: &'a Workload) -> Self {
        let mut pairs = BTreeSet::new();
        for r in &w.reads {
            match &r.read {
                Read::TwoPath { r, s } | Read::Counts { r, s, .. } => {
                    pairs.insert((r.clone(), s.clone()));
                }
                Read::Sim { r, .. } => {
                    pairs.insert((r.clone(), r.clone()));
                }
                _ => {}
            }
        }
        let missing: Vec<(String, String)> = pairs
            .into_iter()
            .filter(|p| !w.counts.contains_key(p))
            .collect();
        let hists = parallel_map(&missing, |(r, s)| pair_counts(w.relation(r), w.relation(s)));
        let mut counts = w.counts.clone();
        counts.extend(missing.into_iter().zip(hists));
        Reference { w, counts }
    }

    fn rows(&self, read: &Read) -> u64 {
        match read {
            Read::TwoPath { r, s } | Read::Counts { r, s, .. } => {
                self.counts[&(r.clone(), s.clone())].rows(read)
            }
            Read::Sim { r, .. } => self.counts[&(r.clone(), r.clone())].rows(read),
            Read::Chain(rels) => {
                chain_reference(rels.iter().map(|n| self.w.relation(n))).len() as u64
            }
            Read::Star(rels) => {
                let legs: Vec<&Relation> = rels.iter().map(|n| self.w.relation(n)).collect();
                ExpandDedupEngine::serial().star_join_project(&legs).len() as u64
            }
        }
    }
}

/// `π_{x0,xk}(R1(x0,x1) ⋈ … ⋈ Rk(xk-1,xk))` folded left with the
/// Non-MMJoin expansion engine: projecting each prefix onto its end
/// points is exact for a chain, since interior variables join nothing
/// else.
pub fn chain_reference<'r>(mut rels: impl Iterator<Item = &'r Relation>) -> Relation {
    let engine = ExpandDedupEngine::serial();
    let mut acc = rels.next().expect("chain has a first relation").clone();
    for next in rels {
        acc = Relation::from_edges(engine.join_project(&acc, &next.transposed()));
    }
    acc
}

/// Maps `f` over `items` on up to two scoped threads, keeping order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len().div_ceil(2);
    let (lo, hi) = items.split_at(mid);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| hi.iter().map(&f).collect::<Vec<R>>());
        let mut out: Vec<R> = lo.iter().map(&f).collect();
        out.extend(other.join().expect("reference worker panicked"));
        out
    })
}
