//! The materialized peeling backend: container incidence flattened into
//! one CSR, built once per space, in parallel.
//!
//! Every lazy space answers [`PeelBackend::for_each_container`] by
//! re-running a sorted-list intersection — work that peeling repeats for
//! a cell each time one of its containers dies. [`ContainerIndex`]
//! performs that enumeration exactly once, storing each container as a
//! fixed-width record of co-cell ids in a [`FlatRecords`] buffer: per
//! cell for most spaces, from one oriented sweep over the whole graph
//! for the (2,3) space (triangles) and the (3,4) space (K4s), see
//! [`PeelSpace::container_index`]. [`IndexedSpace`] then serves the whole
//! [`PeelSpace`] interface from the flat index, so `peel`, `dft`,
//! `fnd`, `naive`, `hypo_sweep` and `check_semantics` monomorphize over
//! it unchanged.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use nucleus_cliques::{balanced_ranges, fill_ranges_scoped};
use nucleus_graph::flat::{offsets_from_counts, FlatRecords};
use nucleus_graph::persist_io::{self, GraphFingerprint, IndexImage};
use nucleus_graph::GraphError;

use super::{PeelBackend, PeelSpace};

/// Per-cell peeling state for the frontier engine: a *processed flag*
/// (the round the cell was peeled in, [`PeelCells::ALIVE`] while it has
/// not been) packed into one atomic word with the cell's live ω, shared
/// across worker threads with relaxed atomics.
///
/// The processed flags are how the engine decides container liveness in
/// O(1) per co-cell: a container is **dead** as soon as any member
/// carries a stamp from an earlier round (it was accounted for when
/// that member was peeled), and among members peeled in the *same*
/// round the one with the smallest cell id owns the container's
/// decrements — so every dead container decrements each surviving
/// co-cell exactly once, the accounting the serial loop performs one
/// cell at a time via `is_popped` rescans.
///
/// Packing the flag and ω into a single `u64` is deliberate: the
/// engine's hot loop asks two questions per co-cell — "is this
/// container dead?" (stamp) and "may this co-cell be decremented?"
/// (ω vs. the level floor) — and one packed word answers both with a
/// single cache-line touch, instead of two random accesses into
/// separate arrays. It also makes the concurrent saturating decrement a
/// plain compare-exchange: any cell whose ω is still above the floor is
/// necessarily un-stamped (peeled cells froze their ω at a value ≤ the
/// floor), so the replacement word always carries the `ALIVE` stamp.
///
/// Rounds are globally increasing across λ levels, so the stamps double
/// as a peeled/alive bitmap ([`PeelCells::is_processed`]).
#[derive(Debug)]
pub struct PeelCells {
    /// `stamp << 32 | omega` per cell.
    words: Vec<AtomicU64>,
}

/// One packed word.
#[inline]
const fn pack(stamp: u32, omega: u32) -> u64 {
    ((stamp as u64) << 32) | omega as u64
}

impl PeelCells {
    /// Stamp of a cell that has not been peeled yet. Real round numbers
    /// are bounded by ~2× the cell count (hybrid drains assign each
    /// drained cell a fresh stamp, frontier rounds share one per
    /// round), and cell counts stay below `u32::MAX / 2`, so the
    /// sentinel cannot collide.
    pub const ALIVE: u32 = u32::MAX;

    /// All-alive state from the initial ω degrees.
    pub fn new(degrees: &[u32]) -> Self {
        PeelCells {
            words: degrees
                .iter()
                .map(|&d| AtomicU64::new(pack(Self::ALIVE, d)))
                .collect(),
        }
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when no cells are covered.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// `(stamp, ω)` of one cell in a single load.
    #[inline]
    pub fn load(&self, cell: u32) -> (u32, u32) {
        let w = self.words[cell as usize].load(Ordering::Relaxed);
        ((w >> 32) as u32, w as u32)
    }

    /// The round `cell` was peeled in, or [`PeelCells::ALIVE`].
    #[inline]
    pub fn stamp(&self, cell: u32) -> u32 {
        self.load(cell).0
    }

    /// The live ω of `cell` (frozen at its final value once peeled).
    #[inline]
    pub fn omega(&self, cell: u32) -> u32 {
        self.load(cell).1
    }

    /// Whether `cell` has been peeled in any round.
    #[inline]
    pub fn is_processed(&self, cell: u32) -> bool {
        self.stamp(cell) != Self::ALIVE
    }

    /// Records that `cell` was peeled in `round`, preserving its ω.
    /// Called between rounds (never concurrently with readers of the
    /// same round), so a relaxed load + store pair suffices; the
    /// `std::thread::scope` joins publish the stores to the next
    /// round's workers.
    #[inline]
    pub fn mark(&self, cell: u32, round: u32) {
        let w = self.words[cell as usize].load(Ordering::Relaxed);
        self.mark_with_omega(cell, round, w as u32);
    }

    /// [`PeelCells::mark`] when the caller already holds the cell's
    /// current ω (the level-opening scan does) — a single store.
    #[inline]
    pub fn mark_with_omega(&self, cell: u32, round: u32, omega: u32) {
        debug_assert_ne!(round, Self::ALIVE, "round collides with sentinel");
        debug_assert_eq!(self.omega(cell), omega, "stale ω");
        self.words[cell as usize].store(pack(round, omega), Ordering::Relaxed);
    }

    /// Saturating decrement with the `ω > floor` guard, **single-writer
    /// variant**: plain relaxed load + store (compiles to two moves; no
    /// compare-exchange). Only sound when no other thread decrements
    /// concurrently — the engine's inline rounds. Returns `true` when
    /// the decrement performed the `floor + 1 → floor` transition, i.e.
    /// the cell just joined the level's next frontier.
    #[inline]
    pub fn dec_above(&self, cell: u32, floor: u32) -> bool {
        let w = self.words[cell as usize].load(Ordering::Relaxed);
        let om = w as u32;
        if om > floor {
            debug_assert_eq!((w >> 32) as u32, Self::ALIVE, "ω above floor ⟹ unpeeled");
            self.words[cell as usize].store(pack(Self::ALIVE, om - 1), Ordering::Relaxed);
            om == floor + 1
        } else {
            false
        }
    }

    /// [`PeelCells::dec_above`] for concurrent rounds: a
    /// compare-exchange loop, so racing decrements each take effect
    /// exactly once and exactly one caller observes the
    /// `floor + 1 → floor` transition.
    #[inline]
    pub fn dec_above_atomic(&self, cell: u32, floor: u32) -> bool {
        let slot = &self.words[cell as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let om = cur as u32;
            if om <= floor {
                return false;
            }
            debug_assert_eq!((cur >> 32) as u32, Self::ALIVE, "ω above floor ⟹ unpeeled");
            match slot.compare_exchange_weak(
                cur,
                pack(Self::ALIVE, om - 1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return om == floor + 1,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// `C(s, r) - 1`: co-cells per container record for an (r, s) space.
///
/// ```
/// use nucleus_core::space::materialized::record_arity;
/// assert_eq!(record_arity(1, 2), 1); // k-core: the neighbor
/// assert_eq!(record_arity(2, 3), 2); // truss: two companion edges
/// assert_eq!(record_arity(3, 4), 3); // (3,4): three companion triangles
/// assert_eq!(record_arity(2, 4), 5); // (2,4): five companion edges
/// ```
pub fn record_arity(r: u32, s: u32) -> usize {
    assert!(r < s, "need r < s, got ({r},{s})");
    // C(s, r) with small operands; overflow-free for the s <= 4 spaces
    // here and anything remotely peelable.
    let mut binom = 1u64;
    for i in 0..r as u64 {
        binom = binom * (s as u64 - i) / (i + 1);
    }
    binom as usize - 1
}

/// Where a [`ContainerIndex`]'s records live: built in memory this
/// process ([`FlatRecords`]), or loaded from a persisted index file and
/// served zero-copy off the validated byte image.
#[derive(Clone, Debug)]
enum FlatStore {
    /// Records built by [`ContainerIndex::build`] in this process.
    Owned(FlatRecords),
    /// Records decoded on the fly from a validated on-disk image.
    Loaded(IndexImage),
}

/// Flat CSR of container records: for each cell, one record per
/// container, each record holding the co-cell ids in the lazy backend's
/// enumeration order.
#[derive(Clone, Debug)]
pub struct ContainerIndex {
    store: FlatStore,
}

impl ContainerIndex {
    /// Builds the index of a lazy space on up to `threads` worker
    /// threads, through the space's own fill
    /// ([`PeelSpace::container_index`]): one oriented triangle sweep for
    /// the (2,3) [`crate::space::EdgeSpace`], one oriented K4 sweep for
    /// the (3,4) [`crate::space::TriangleSpace`], and
    /// [`ContainerIndex::build_per_cell`] for the other spaces.
    pub fn build<S: PeelSpace + Sync>(space: &S, threads: usize) -> Self {
        space
            .container_index(threads, |_| true)
            .expect("an index is built whenever `decide` says so")
    }

    /// The per-cell fill: one [`PeelBackend::for_each_container`] call
    /// per cell. `counts` must be `space.degrees()`. ω degrees give exact
    /// record counts, so the buffer is allocated once and each worker
    /// fills a disjoint slice (ranges balanced by per-cell container
    /// count; no locks, no atomics).
    pub fn build_per_cell<S: PeelSpace + Sync>(
        space: &S,
        counts: Vec<u32>,
        threads: usize,
    ) -> Self {
        let n = space.cell_count();
        debug_assert_eq!(counts.len(), n, "counts must cover every cell");
        let arity = record_arity(space.r(), space.s());
        let offsets = offsets_from_counts(&counts);
        let mut data = vec![0u32; offsets[n] * arity];
        let weights: Vec<usize> = counts.iter().map(|&c| c as usize + 1).collect();
        let ranges = balanced_ranges(&weights, threads.max(1));
        fill_ranges_scoped(
            &mut data,
            ranges,
            |range| (offsets[range.end] - offsets[range.start]) * arity,
            |range, chunk| {
                let mut pos = 0usize;
                for cell in range {
                    space.for_each_container(cell as u32, |others| {
                        debug_assert_eq!(others.len(), arity, "record arity");
                        chunk[pos..pos + arity].copy_from_slice(others);
                        pos += arity;
                    });
                }
                // Hard assert: a space whose degrees() overstates its
                // enumeration would otherwise leave zero-filled records
                // (co-cell id 0) and corrupt results silently in
                // release builds. O(1) per worker range.
                assert_eq!(pos, chunk.len(), "degrees must match enumeration");
            },
        );
        Self::from_records(FlatRecords::from_parts(offsets, data, arity))
    }

    /// The records of a whole-graph sweep: `lists` holds the swept
    /// items (triangles for (2,3), K4s for (3,4)) in one list per sweep
    /// worker, and `records(item)` gives the `K` records each item puts
    /// into its `K` cells as `(cell, key, co-cells)`, where the key (a
    /// vertex, unique within a cell) orders a cell's records the way the
    /// space's per-cell enumeration does. `counts` must be the ω counts,
    /// i.e. the records per cell.
    ///
    /// Workers each own a disjoint range of cells (a disjoint slice of
    /// the records) and read every list, keeping the records of their
    /// own cells; each cell's records are then sorted by key, so the
    /// result does not depend on how the sweep was split or on
    /// `threads`. No locks, no atomics.
    ///
    /// # Panics
    /// When `counts` disagree with the sweep (a hard check in release
    /// builds too: a wrong count would leave zero-filled records or
    /// spill into a neighbour's slots).
    pub(crate) fn from_sweep<T, R, const K: usize, const A: usize>(
        lists: &[Vec<T>],
        counts: &[u32],
        threads: usize,
        records: R,
    ) -> Self
    where
        T: Sync,
        R: Fn(&T) -> [(u32, u32, [u32; A]); K] + Sync,
    {
        let offsets = offsets_from_counts(counts);
        let mut data = vec![0u32; A * offsets[counts.len()]];
        let weights: Vec<usize> = counts.iter().map(|&c| c as usize + 1).collect();
        fill_ranges_scoped(
            &mut data,
            balanced_ranges(&weights, threads.max(1)),
            |range| A * (offsets[range.end] - offsets[range.start]),
            |range, chunk| {
                let base = offsets[range.start];
                // placed[c - range.start] = records of cell c written so far.
                let mut placed = vec![0u32; range.len()];
                let mut keys = vec![0u32; chunk.len() / A];
                for item in lists.iter().flatten() {
                    for (cell, key, rec) in records(item) {
                        let local = (cell as usize).wrapping_sub(range.start);
                        if local < range.len() {
                            let slot = offsets[cell as usize] - base + placed[local] as usize;
                            keys[slot] = key;
                            chunk[A * slot..A * slot + A].copy_from_slice(&rec);
                            placed[local] += 1;
                        }
                    }
                }
                let mut scratch: Vec<(u32, [u32; A])> = Vec::new();
                for (cell, &n) in range.zip(&placed) {
                    let (lo, hi) = (offsets[cell] - base, offsets[cell + 1] - base);
                    assert_eq!(lo + n as usize, hi, "ω counts must match the sweep");
                    sort_by_keys(&keys[lo..hi], &mut chunk[A * lo..A * hi], &mut scratch);
                }
            },
        );
        Self::from_records(FlatRecords::from_parts(offsets, data, A))
    }

    /// Wraps records built in this process.
    pub(crate) fn from_records(records: FlatRecords) -> Self {
        ContainerIndex {
            store: FlatStore::Owned(records),
        }
    }

    /// Wraps a validated on-disk image as an index, served zero-copy
    /// off the image's byte buffer. The caller
    /// ([`crate::persist::PreparedIndex`]) is responsible for checking
    /// the image belongs to the graph at hand; structural validity was
    /// already proven when the image was constructed.
    pub fn from_image(image: IndexImage) -> Self {
        ContainerIndex {
            store: FlatStore::Loaded(image),
        }
    }

    /// Number of cells indexed.
    pub fn cell_count(&self) -> usize {
        match &self.store {
            FlatStore::Owned(f) => f.cells(),
            FlatStore::Loaded(img) => img.flat().cells(),
        }
    }

    /// Co-cells per record (`C(s,r) - 1`).
    pub fn arity(&self) -> usize {
        match &self.store {
            FlatStore::Owned(f) => f.arity(),
            FlatStore::Loaded(img) => img.header().arity as usize,
        }
    }

    /// Total container records (Σ ω over all cells).
    pub fn container_count(&self) -> usize {
        match &self.store {
            FlatStore::Owned(f) => f.record_count(),
            FlatStore::Loaded(img) => img.flat().record_count(),
        }
    }

    /// ω of one cell, read off the offsets.
    #[inline]
    pub fn degree(&self, cell: u32) -> u32 {
        match &self.store {
            FlatStore::Owned(f) => f.count(cell),
            FlatStore::Loaded(img) => img.flat().count(cell),
        }
    }

    /// ω of every cell (reconstructed from the offsets).
    pub fn counts(&self) -> Vec<u32> {
        match &self.store {
            FlatStore::Owned(f) => f.counts(),
            FlatStore::Loaded(img) => img.flat().counts(),
        }
    }

    /// Memory footprint of the index in bytes (heap buffers for owned
    /// stores, the whole image for loaded ones).
    pub fn bytes(&self) -> usize {
        match &self.store {
            FlatStore::Owned(f) => f.bytes(),
            FlatStore::Loaded(img) => img.len(),
        }
    }

    /// `true` when this index is served from a loaded on-disk image
    /// rather than records built in this process.
    pub fn is_loaded(&self) -> bool {
        matches!(self.store, FlatStore::Loaded(_))
    }

    /// Serializes the index in the persisted format for the `(r, s)`
    /// family of a graph with fingerprint `fp`. Loaded stores re-emit
    /// their validated image bytes verbatim (the header already carries
    /// the identity); owned stores encode fresh.
    pub fn write_to<W: Write>(
        &self,
        w: &mut W,
        r: u32,
        s: u32,
        fp: GraphFingerprint,
    ) -> Result<(), GraphError> {
        match &self.store {
            FlatStore::Owned(f) => persist_io::write_index(w, r, s, fp, f),
            FlatStore::Loaded(img) => {
                w.write_all(img.raw())?;
                Ok(())
            }
        }
    }

    /// Estimated index footprint for a space **without building it**:
    /// record storage plus the offset array. Drives the `Auto` backend
    /// heuristic in [`crate::decompose::Backend`].
    pub fn estimate_bytes<S: PeelSpace>(space: &S) -> usize {
        Self::estimate_bytes_from(space.r(), space.s(), &space.degrees())
    }

    /// [`ContainerIndex::estimate_bytes`] from already-computed ω
    /// degrees, sparing the `degrees()` clone.
    pub fn estimate_bytes_from(r: u32, s: u32, counts: &[u32]) -> usize {
        let arity = record_arity(r, s);
        let records: usize = counts.iter().map(|&d| d as usize).sum();
        records * arity * std::mem::size_of::<u32>()
            + (counts.len() + 1) * std::mem::size_of::<usize>()
    }

    /// Serves one cell's containers from the flat buffer.
    #[inline]
    pub fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        match &self.store {
            FlatStore::Owned(flat) => {
                for rec in flat.records_of(cell) {
                    f(rec);
                }
            }
            FlatStore::Loaded(img) => img.flat().for_each_record(cell, f),
        }
    }
}

/// Sorts one cell's records (`A` words each, back to back in `recs`) by
/// their `keys`, which are unique within a cell, through `scratch`;
/// cells the sweep left in order are skipped.
fn sort_by_keys<const A: usize>(
    keys: &[u32],
    recs: &mut [u32],
    scratch: &mut Vec<(u32, [u32; A])>,
) {
    if keys.is_sorted() {
        return;
    }
    scratch.clear();
    scratch.extend(
        keys.iter()
            .zip(recs.chunks_exact(A))
            .map(|(&k, r)| (k, r.try_into().expect("record arity"))),
    );
    scratch.sort_unstable_by_key(|r| r.0);
    for (r, (_, rec)) in recs.chunks_exact_mut(A).zip(scratch.iter()) {
        r.copy_from_slice(rec);
    }
}

/// A [`PeelSpace`] whose container enumeration is served from a
/// borrowed [`ContainerIndex`] instead of recomputed — the
/// *materialized* backend. Identity queries (`r`, `s`,
/// `cell_vertices`) delegate to the borrowed lazy space. This is the
/// view [`crate::session::Prepared`] peels through: the session owns
/// the space and the index once, and every `run` constructs this
/// two-pointer view for free — no index move, no clone.
pub struct IndexedSpace<'a, S> {
    inner: &'a S,
    index: &'a ContainerIndex,
}

impl<'a, S: PeelSpace> IndexedSpace<'a, S> {
    /// Wraps a space and an index that was built from it.
    pub fn new(inner: &'a S, index: &'a ContainerIndex) -> Self {
        debug_assert_eq!(
            index.cell_count(),
            inner.cell_count(),
            "index built from a different space"
        );
        IndexedSpace { inner, index }
    }
}

impl<S: PeelSpace> PeelBackend for IndexedSpace<'_, S> {
    fn cell_count(&self) -> usize {
        self.index.cell_count()
    }

    fn degrees(&self) -> Vec<u32> {
        self.index.counts()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, f: F) {
        self.index.for_each_container(cell, f);
    }
}

impl<S: PeelSpace> PeelSpace for IndexedSpace<'_, S> {
    fn r(&self) -> u32 {
        self.inner.r()
    }

    fn s(&self) -> u32 {
        self.inner.s()
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        self.inner.cell_vertices(cell, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{EdgeK4Space, EdgeSpace, TriangleSpace, VertexSpace, VertexTriangleSpace};
    use nucleus_graph::CsrGraph;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = vec![];
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    /// Records served by the index must match the lazy enumeration
    /// exactly — same containers, same order.
    fn check_mirrors_lazy<S: PeelSpace + Sync>(space: &S) {
        for threads in [1, 4] {
            let index = ContainerIndex::build(space, threads);
            let view = IndexedSpace::new(space, &index);
            assert_eq!(view.cell_count(), space.cell_count());
            assert_eq!(view.degrees(), space.degrees());
            assert_eq!(view.r(), space.r());
            assert_eq!(view.s(), space.s());
            assert_eq!(view.name(), space.name());
            for cell in 0..space.cell_count() as u32 {
                let mut lazy: Vec<Vec<u32>> = vec![];
                space.for_each_container(cell, |o| lazy.push(o.to_vec()));
                let mut viewed: Vec<Vec<u32>> = vec![];
                view.for_each_container(cell, |o| viewed.push(o.to_vec()));
                assert_eq!(lazy, viewed, "cell {cell}");
                let mut a = vec![];
                let mut b = vec![];
                space.cell_vertices(cell, &mut a);
                view.cell_vertices(cell, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn mirrors_all_five_spaces() {
        let g = nucleus_gen::karate::karate_club();
        check_mirrors_lazy(&VertexSpace::new(&g));
        check_mirrors_lazy(&EdgeSpace::new(&g));
        check_mirrors_lazy(&TriangleSpace::new(&g));
        check_mirrors_lazy(&VertexTriangleSpace::new(&g));
        check_mirrors_lazy(&EdgeK4Space::new(&g));
    }

    #[test]
    fn index_shape_on_k5() {
        let g = complete(5);
        let es = EdgeSpace::new(&g);
        let idx = ContainerIndex::build(&es, 2);
        assert_eq!(idx.cell_count(), 10);
        assert_eq!(idx.arity(), 2);
        // each of the 10 edges lies in 3 triangles
        assert_eq!(idx.container_count(), 30);
        assert!(idx.bytes() > 0);
        assert_eq!(ContainerIndex::estimate_bytes(&es), idx.bytes());
    }

    #[test]
    fn record_arity_table() {
        assert_eq!(record_arity(1, 2), 1);
        assert_eq!(record_arity(1, 3), 2);
        assert_eq!(record_arity(2, 3), 2);
        assert_eq!(record_arity(3, 4), 3);
        assert_eq!(record_arity(2, 4), 5);
    }

    #[test]
    fn empty_graph_and_containerless_cells() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // the 4-cycle is triangle-free: every edge has zero containers
        let es = EdgeSpace::new(&g);
        let index = ContainerIndex::build(&es, 2);
        let m = IndexedSpace::new(&es, &index);
        assert_eq!(m.degrees(), vec![0; 4]);
        let mut called = false;
        m.for_each_container(0, |_| called = true);
        assert!(!called);

        let g = CsrGraph::from_edges(0, &[]);
        let vs = VertexSpace::new(&g);
        let index = ContainerIndex::build(&vs, 2);
        assert_eq!(IndexedSpace::new(&vs, &index).cell_count(), 0);
    }

    #[test]
    fn peel_cells_stamps_and_sentinel() {
        let s = PeelCells::new(&[4, 0, 7]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!((0..3).all(|c| !s.is_processed(c)));
        assert_eq!(s.load(0), (PeelCells::ALIVE, 4));
        s.mark(1, 0);
        s.mark(2, 5);
        assert!(s.is_processed(1));
        assert_eq!(s.stamp(1), 0);
        assert_eq!(s.load(2), (5, 7)); // mark preserves ω
        assert!(!s.is_processed(0));
        assert!(PeelCells::new(&[]).is_empty());
    }

    #[test]
    fn peel_cells_guarded_decrements() {
        for atomic in [false, true] {
            let s = PeelCells::new(&[3, 1, 0]);
            let dec = |c, f| {
                if atomic {
                    s.dec_above_atomic(c, f)
                } else {
                    s.dec_above(c, f)
                }
            };
            assert!(!dec(0, 1), "3 → 2 is not the crossing transition");
            assert_eq!(s.omega(0), 2);
            assert!(dec(0, 1), "2 → 1 crosses to the floor");
            assert!(!dec(0, 1), "saturates at the floor");
            assert_eq!(s.omega(0), 1);
            assert!(!dec(2, 0), "ω = 0 never decremented");
            assert!(dec(1, 0));
            assert_eq!(s.omega(1), 0);
        }
    }

    #[test]
    fn peeling_through_materialized_backend() {
        let g = complete(6);
        let ts = TriangleSpace::new(&g);
        let index = ContainerIndex::build(&ts, 2);
        let p = crate::peel::peel(&IndexedSpace::new(&ts, &index));
        assert!(p.lambda.iter().all(|&l| l == 3));
        assert_eq!(p.lambda, crate::peel::peel(&ts).lambda);
    }
}
