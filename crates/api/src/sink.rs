//! Streaming output visitors.

use mmjoin_storage::Value;

/// Receives query output rows as the engine produces them.
///
/// Engines call [`Sink::begin`] once with the output arity, then
/// [`Sink::row`] (or [`Sink::counted_row`] for counting queries) once per
/// distinct output row. Sinks that ignore counts get the plain row; sinks
/// that ignore rows entirely (e.g. [`CountSink`]) never allocate.
pub trait Sink {
    /// Called once before the first row with the output arity.
    fn begin(&mut self, arity: usize) {
        let _ = arity;
    }

    /// Hint that about `rows` more rows follow, so a materialising sink
    /// can size its buffers once. Defaults to ignoring it.
    fn reserve(&mut self, rows: usize) {
        let _ = rows;
    }

    /// One distinct output row.
    fn row(&mut self, row: &[Value]);

    /// One distinct output row with its witness multiplicity (counting
    /// 2-path queries and similarity joins). Defaults to dropping the
    /// count.
    fn counted_row(&mut self, row: &[Value], count: u32) {
        let _ = count;
        self.row(row);
    }

    /// Whether the sink wants further rows. Engines consult this between
    /// emissions and may stop enumerating as soon as it turns `false`
    /// (early termination for `LIMIT`-style requests — see [`LimitSink`]).
    /// Engines are free to keep emitting; a bounding sink must therefore
    /// also *drop* excess rows itself, which [`LimitSink`] does.
    fn wants_more(&self) -> bool {
        true
    }
}

/// Output rows of one arity, stored back to back in a single buffer.
///
/// This is the one row layout from engine to wire: [`VecSink`] collects
/// into it and the service caches and serves it as is, so materialising
/// or dropping a result costs one allocation, not one per row. Row `i`
/// is `values[i·arity .. (i+1)·arity]`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Rows {
    arity: usize,
    len: usize,
    values: Vec<Value>,
}

impl Rows {
    /// No rows of width `arity`.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            values: Vec::new(),
        }
    }

    /// Appends one row; it must be `arity` values wide.
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row width must equal the arity");
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Room for `rows` more rows without reallocating.
    pub fn reserve(&mut self, rows: usize) {
        self.values.reserve(self.arity * rows);
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order, each as an `arity`-wide slice.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + DoubleEndedIterator {
        let arity = self.arity;
        (0..self.len).map(move |i| &self.values[i * arity..(i + 1) * arity])
    }

    /// Every value, row after row.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// One `Vec` per row — for tests and callers that need owned rows;
    /// the serving path never calls it.
    pub fn to_vecs(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} out of {}", self.len);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }
}

/// Materialises every row (and count) into one flat [`Rows`] buffer —
/// the adapter that recovers the old `Vec`-returning API.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The rows, in emission order; the arity is the one the engine
    /// announced through [`Sink::begin`].
    pub rows: Rows,
    /// Per-row witness counts; 0 for rows emitted without a count.
    pub counts: Vec<u32>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows as `(a, b)` pairs (output arity must be 2).
    pub fn pairs(&self) -> Vec<(Value, Value)> {
        debug_assert_eq!(
            self.rows.arity(),
            2,
            "pairs() on arity-{} output",
            self.rows.arity()
        );
        self.rows.iter().map(|r| (r[0], r[1])).collect()
    }

    /// The rows as `(a, b, count)` triples (arity must be 2).
    pub fn counted_pairs(&self) -> Vec<(Value, Value, u32)> {
        self.rows
            .iter()
            .zip(&self.counts)
            .map(|(r, &c)| (r[0], r[1], c))
            .collect()
    }

    /// Number of rows collected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Sink for VecSink {
    fn begin(&mut self, arity: usize) {
        assert!(
            self.rows.is_empty() || self.rows.arity() == arity,
            "VecSink holds arity-{} rows, engine announced {arity}",
            self.rows.arity()
        );
        self.rows.arity = arity;
    }

    fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows);
        self.counts.reserve(rows);
    }

    fn row(&mut self, row: &[Value]) {
        self.rows.push(row);
        self.counts.push(0);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        self.rows.push(row);
        self.counts.push(count);
    }
}

/// Materialises arity-2 output as flat pairs — cheaper than [`VecSink`]
/// for the (dominant) binary workloads.
#[derive(Debug, Default, Clone)]
pub struct PairSink {
    /// The output pairs, in emission order.
    pub pairs: Vec<(Value, Value)>,
}

impl PairSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the pairs.
    pub fn into_pairs(self) -> Vec<(Value, Value)> {
        self.pairs
    }
}

impl Sink for PairSink {
    fn begin(&mut self, arity: usize) {
        assert_eq!(arity, 2, "PairSink requires arity-2 output, got {arity}");
    }

    fn row(&mut self, row: &[Value]) {
        self.pairs.push((row[0], row[1]));
    }
}

/// Counts rows without storing them — the "how big is the output" sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    /// Rows seen so far.
    pub rows: u64,
    /// Sum of witness counts over counted rows.
    pub witness_total: u64,
}

impl CountSink {
    /// Zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for CountSink {
    fn row(&mut self, _row: &[Value]) {
        self.rows += 1;
    }

    fn counted_row(&mut self, _row: &[Value], count: u32) {
        self.rows += 1;
        self.witness_total += count as u64;
    }
}

/// Bounds an inner sink to at most `limit` rows — the `LIMIT` adapter.
///
/// Rows beyond the limit are dropped, and [`Sink::wants_more`] turns
/// `false` once the quota is reached so cooperative engines stop
/// *emitting* early. Note the bound applies to the output stream: the
/// current engines materialise their full result before streaming it,
/// so a limit saves emission and everything downstream of the sink (row
/// copies, caching, transport) but not the join computation itself.
#[derive(Debug, Clone)]
pub struct LimitSink<S: Sink> {
    inner: S,
    limit: u64,
    emitted: u64,
}

impl<S: Sink> LimitSink<S> {
    /// Caps `inner` at `limit` rows.
    pub fn new(inner: S, limit: u64) -> Self {
        Self {
            inner,
            limit,
            emitted: 0,
        }
    }

    /// Rows forwarded to the inner sink so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether the limit was reached. The stream *may* have been cut
    /// short — an output of exactly `limit` rows also reports `true`,
    /// because a cooperative engine stops before revealing whether more
    /// rows existed.
    pub fn limit_reached(&self) -> bool {
        self.emitted >= self.limit
    }

    /// Consumes the adapter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Sink> Sink for LimitSink<S> {
    fn begin(&mut self, arity: usize) {
        self.inner.begin(arity);
    }

    fn reserve(&mut self, rows: usize) {
        let room = self.limit.saturating_sub(self.emitted);
        self.inner.reserve(rows.min(room as usize));
    }

    fn row(&mut self, row: &[Value]) {
        if self.emitted < self.limit {
            self.emitted += 1;
            self.inner.row(row);
        }
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        if self.emitted < self.limit {
            self.emitted += 1;
            self.inner.counted_row(row, count);
        }
    }

    fn wants_more(&self) -> bool {
        self.emitted < self.limit && self.inner.wants_more()
    }
}

/// Streams materialised pairs into `sink` (calling [`Sink::begin`] with
/// arity 2 first), stopping as soon as the sink stops wanting rows.
/// Returns the number of rows emitted — the shared emission loop every
/// pair-producing engine uses.
pub fn emit_pairs(sink: &mut dyn Sink, pairs: &[(Value, Value)]) -> u64 {
    sink.begin(2);
    sink.reserve(pairs.len());
    let mut rows = 0u64;
    for &(a, b) in pairs {
        if !sink.wants_more() {
            break;
        }
        sink.row(&[a, b]);
        rows += 1;
    }
    rows
}

/// Streams `(a, b, count)` triples into `sink` (arity 2). With
/// `counted`, rows go through [`Sink::counted_row`]; otherwise the count
/// is dropped and plain [`Sink::row`] is used (the unordered-similarity
/// contract). Stops early when the sink stops wanting rows; returns the
/// emitted row count.
pub fn emit_counted_pairs(
    sink: &mut dyn Sink,
    triples: &[(Value, Value, u32)],
    counted: bool,
) -> u64 {
    sink.begin(2);
    sink.reserve(triples.len());
    let mut rows = 0u64;
    for &(a, b, count) in triples {
        if !sink.wants_more() {
            break;
        }
        if counted {
            sink.counted_row(&[a, b], count);
        } else {
            sink.row(&[a, b]);
        }
        rows += 1;
    }
    rows
}

/// Streams arity-`arity` tuples into `sink`, stopping early when the
/// sink stops wanting rows; returns the emitted row count.
pub fn emit_tuples(sink: &mut dyn Sink, arity: usize, tuples: &[Vec<Value>]) -> u64 {
    sink.begin(arity);
    sink.reserve(tuples.len());
    let mut rows = 0u64;
    for t in tuples {
        if !sink.wants_more() {
            break;
        }
        sink.row(t);
        rows += 1;
    }
    rows
}

/// Accumulates signed row deltas — the sink behind incremental view
/// maintenance.
///
/// Each emitted row contributes `sign × max(count, 1)` to that row's
/// entry; entries that cancel to zero are dropped on read. Running the
/// delta joins of the maintenance identity
/// `Δ(R ⋈ S) = ΔR⋈S + R⋈ΔS + ΔR⋈ΔS` into one `DeltaSink` (flipping
/// [`set_sign`](DeltaSink::set_sign) between the `+`/`−` delta parts)
/// yields exactly the per-row support-count adjustments to apply to a
/// cached result. A `BTreeMap` keeps iteration deterministic, so
/// maintained results have a canonical (sorted) row order.
#[derive(Debug, Clone)]
pub struct DeltaSink {
    sign: i64,
    deltas: std::collections::BTreeMap<Vec<Value>, i64>,
}

impl Default for DeltaSink {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaSink {
    /// An empty accumulator with sign `+1`.
    pub fn new() -> Self {
        Self {
            sign: 1,
            deltas: std::collections::BTreeMap::new(),
        }
    }

    /// Sets the sign applied to subsequently emitted rows (`+1` for an
    /// inserted-side join term, `−1` for a deleted-side one).
    pub fn set_sign(&mut self, sign: i64) {
        self.sign = sign;
    }

    /// Adds `delta` to `row` directly, without going through the engine
    /// emission path (used for hand-computed join terms).
    pub fn add(&mut self, row: &[Value], delta: i64) {
        if delta != 0 {
            *self.deltas.entry(row.to_vec()).or_insert(0) += delta;
        }
    }

    /// Consumes the sink, returning the accumulated non-zero deltas in
    /// row-sorted order.
    pub fn into_deltas(self) -> std::collections::BTreeMap<Vec<Value>, i64> {
        let mut deltas = self.deltas;
        deltas.retain(|_, d| *d != 0);
        deltas
    }

    /// Number of rows currently tracked (including cancelled ones not yet
    /// compacted).
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when no deltas have accumulated.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

impl Sink for DeltaSink {
    fn row(&mut self, row: &[Value]) {
        self.add(row, self.sign);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        self.add(row, self.sign * count.max(1) as i64);
    }
}

/// Adapts a closure `FnMut(&[Value], u32)` into a [`Sink`]; the count is 0
/// for uncounted rows.
pub struct ForEachSink<F: FnMut(&[Value], u32)>(pub F);

impl<F: FnMut(&[Value], u32)> Sink for ForEachSink<F> {
    fn row(&mut self, row: &[Value]) {
        (self.0)(row, 0);
    }

    fn counted_row(&mut self, row: &[Value], count: u32) {
        (self.0)(row, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_rows_and_counts() {
        let mut s = VecSink::new();
        s.begin(2);
        s.row(&[1, 2]);
        s.counted_row(&[3, 4], 7);
        assert_eq!(s.rows.arity(), 2);
        assert_eq!(s.rows.values(), &[1, 2, 3, 4], "one flat buffer");
        assert_eq!(&s.rows[1], &[3, 4]);
        assert_eq!(s.pairs(), vec![(1, 2), (3, 4)]);
        assert_eq!(s.counted_pairs(), vec![(1, 2, 0), (3, 4, 7)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn rows_index_iterate_and_compare_flat() {
        let mut rows = Rows::new(3);
        rows.push(&[1, 2, 3]);
        rows.push(&[4, 5, 6]);
        assert_eq!((rows.len(), rows.arity()), (2, 3));
        assert_eq!(&rows[1], &[4, 5, 6]);
        let seen: Vec<&[Value]> = rows.iter().rev().collect();
        assert_eq!(seen, vec![&[4, 5, 6][..], &[1, 2, 3][..]]);
        assert_eq!(rows.to_vecs(), vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let mut other = Rows::new(3);
        other.push(&[1, 2, 3]);
        assert_ne!(rows, other);
        other.push(&[4, 5, 6]);
        assert_eq!(rows, other);
    }

    #[test]
    fn zero_arity_rows_still_count() {
        let mut rows = Rows::new(0);
        rows.push(&[]);
        rows.push(&[]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().count(), 2);
        assert!(rows.values().is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rows_reject_a_row_of_the_wrong_width() {
        Rows::new(2).push(&[1, 2, 3]);
    }

    #[test]
    fn limit_sink_reserves_no_more_than_its_quota() {
        let mut s = LimitSink::new(VecSink::new(), 3);
        emit_pairs(&mut s, &[(0, 0); 1000]);
        let inner = s.into_inner();
        assert_eq!(inner.len(), 3);
        assert!(
            inner.counts.capacity() < 1000,
            "reserve is capped by the limit"
        );
    }

    #[test]
    fn count_sink_counts_without_storing() {
        let mut s = CountSink::new();
        s.row(&[0, 0]);
        s.counted_row(&[0, 1], 5);
        s.counted_row(&[0, 2], 2);
        assert_eq!(s.rows, 3);
        assert_eq!(s.witness_total, 7);
    }

    #[test]
    fn for_each_sink_streams() {
        let mut seen = Vec::new();
        {
            let mut s = ForEachSink(|row: &[Value], c| seen.push((row.to_vec(), c)));
            s.row(&[9, 9]);
            s.counted_row(&[1, 1], 3);
        }
        assert_eq!(seen, vec![(vec![9, 9], 0), (vec![1, 1], 3)]);
    }

    #[test]
    #[should_panic(expected = "arity-2")]
    fn pair_sink_rejects_wrong_arity() {
        let mut s = PairSink::new();
        s.begin(3);
    }

    #[test]
    fn limit_sink_caps_and_signals() {
        let mut s = LimitSink::new(VecSink::new(), 2);
        s.begin(2);
        assert!(s.wants_more());
        s.row(&[0, 0]);
        s.counted_row(&[0, 1], 3);
        assert!(!s.wants_more());
        // Non-cooperative engine keeps emitting: rows are dropped.
        s.row(&[0, 2]);
        assert_eq!(s.emitted(), 2);
        assert!(s.limit_reached());
        let inner = s.into_inner();
        assert_eq!(inner.pairs(), vec![(0, 0), (0, 1)]);
        assert_eq!(inner.counts, vec![0, 3]);
    }

    #[test]
    fn limit_sink_zero_limit_wants_nothing() {
        let s = LimitSink::new(CountSink::new(), 0);
        assert!(!s.wants_more());
    }

    #[test]
    fn delta_sink_accumulates_signed_counts() {
        let mut s = DeltaSink::new();
        s.counted_row(&[0, 1], 2); // +2
        s.row(&[0, 2]); // +1
        s.set_sign(-1);
        s.counted_row(&[0, 1], 1); // net +1
        s.row(&[0, 3]); // -1
        let deltas = s.into_deltas();
        assert_eq!(deltas.get(&vec![0, 1]), Some(&1));
        assert_eq!(deltas.get(&vec![0, 2]), Some(&1));
        assert_eq!(deltas.get(&vec![0, 3]), Some(&-1));
    }

    #[test]
    fn delta_sink_drops_cancelled_rows() {
        let mut s = DeltaSink::new();
        s.counted_row(&[7, 7], 3);
        s.set_sign(-1);
        s.counted_row(&[7, 7], 3);
        assert!(s.into_deltas().is_empty());
    }

    #[test]
    fn delta_sink_uncounted_rows_weigh_one() {
        // row() and counted_row(_, 1) must agree, so maintenance terms can
        // come from either emission path.
        let mut a = DeltaSink::new();
        a.row(&[1, 2]);
        let mut b = DeltaSink::new();
        b.counted_row(&[1, 2], 1);
        assert_eq!(a.into_deltas(), b.into_deltas());
    }
}
