//! Oriented triangle enumeration and per-edge support counting.

use nucleus_graph::order::degeneracy_order;
use nucleus_graph::CsrGraph;

/// Adjacency oriented by degeneracy rank: for every vertex, the
/// `(neighbor, edge_id)` pairs of neighbors with *higher* rank, sorted by
/// neighbor id. Orienting by a degeneracy order bounds out-degrees by the
/// degeneracy, which caps triangle enumeration at `O(m · degeneracy)`.
///
/// This is the kernel every triangle sweep in the workspace runs: build
/// it once, then call [`OrientedAdjacency::for_each_triangle_in`] over
/// all vertices, or over [`crate::balanced_ranges`] of
/// [`OrientedAdjacency::sweep_weights`] on worker threads.
pub struct OrientedAdjacency {
    pub(crate) offsets: Vec<usize>,
    /// (neighbor, undirected edge id), sorted by neighbor within a vertex.
    pub(crate) arcs: Vec<(u32, u32)>,
    /// Degeneracy rank of each vertex: arcs run from lower to higher rank.
    rank: Vec<u32>,
}

impl OrientedAdjacency {
    /// Orients `g` by its degeneracy order.
    pub fn build(g: &CsrGraph) -> Self {
        let (order, _) = degeneracy_order(g);
        let rank = order.rank;
        let n = g.n();
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n as u32 {
            let rv = rank[v as usize];
            let out = g
                .neighbors(v)
                .iter()
                .filter(|&&w| rank[w as usize] > rv)
                .count();
            offsets[v as usize + 1] = out;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut arcs = vec![(0u32, 0u32); offsets[n]];
        let mut cursor = offsets.clone();
        for v in 0..n as u32 {
            let rv = rank[v as usize];
            for (w, eid) in g.arcs(v) {
                if rank[w as usize] > rv {
                    arcs[cursor[v as usize]] = (w, eid);
                    cursor[v as usize] += 1;
                }
            }
        }
        // `g.arcs` yields neighbors in sorted order, so each out-list is
        // already sorted by neighbor id.
        OrientedAdjacency {
            offsets,
            arcs,
            rank,
        }
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, edge_id)` arcs from `v` to its higher-rank
    /// neighbors, sorted by neighbor id.
    #[inline]
    fn out(&self, v: u32) -> &[(u32, u32)] {
        &self.arcs[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Per-vertex cost proxy of [`OrientedAdjacency::for_each_triangle_in`]:
    /// the work at `u` is ~ |out(u)| + Σ_{v ∈ out(u)} |out(v)|, and
    /// `|out(u)|² + |out(u)|` is a serviceable stand-in. Parallel sweeps
    /// split vertices with [`crate::balanced_ranges`] over these weights.
    pub fn sweep_weights(&self) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| {
                let d = w[1] - w[0];
                d * d + d
            })
            .collect()
    }

    /// Runs `work` over [`crate::balanced_ranges`] of
    /// [`OrientedAdjacency::sweep_weights`] on up to `threads` scoped
    /// worker threads and returns the results in range order: the
    /// ranges are disjoint and cover every vertex, so concatenating the
    /// results of an enumeration gives the serial sweep's order. One
    /// thread runs `work(0..n)` inline.
    pub fn sweep_ranges<T, W>(&self, threads: usize, work: W) -> Vec<T>
    where
        T: Send,
        W: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        run_ranges(self.sweep_split(threads), work)
    }

    /// The vertex ranges of [`OrientedAdjacency::sweep_ranges`]: all
    /// vertices for one thread, else [`crate::balanced_ranges`] of
    /// [`OrientedAdjacency::sweep_weights`].
    fn sweep_split(&self, threads: usize) -> Vec<std::ops::Range<usize>> {
        if threads <= 1 {
            return std::iter::once(0..self.n()).collect();
        }
        crate::parallel::balanced_ranges(&self.sweep_weights(), threads)
    }

    /// Per-item counts over [`OrientedAdjacency::sweep_ranges`]: each
    /// worker runs `count(range, partial)` into a private zeroed array of
    /// `len` counters, and the partials are summed at the end (no
    /// atomics on the hot path), so every thread count gives the same
    /// counts.
    pub(crate) fn sum_counts<C>(&self, threads: usize, len: usize, count: C) -> Vec<u32>
    where
        C: Fn(std::ops::Range<usize>, &mut [u32]) + Sync,
    {
        let mut partials = self
            .sweep_ranges(threads, |range| {
                let mut partial = vec![0u32; len];
                count(range, &mut partial);
                partial
            })
            .into_iter();
        let mut total = partials.next().unwrap_or_else(|| vec![0u32; len]);
        for partial in partials {
            for (t, p) in total.iter_mut().zip(partial) {
                *t += p;
            }
        }
        total
    }

    /// Calls `f(u, v, w, e_uv, e_uw, e_vw)` for every triangle whose
    /// lowest-rank (orientation-wise first) vertex `u` lies in
    /// `vertices`, vertex by vertex — the full sweep over `0..n`, or one
    /// worker's share of it: parallel builders enumerate disjoint vertex
    /// ranges in the exact order of the serial sweep.
    ///
    /// For each `u`, the edge ids of `out(u)` are marked in a scratch
    /// array indexed by vertex, and each `v ∈ out(u)` scans `out(v)`
    /// against the marks. That yields the common `w` of `out(u)` and
    /// `out(v)` in ascending id order, exactly as a sorted-list merge
    /// would, with one predictable branch per step instead of the
    /// merge's three-way compare.
    pub fn for_each_triangle_in<F: FnMut(u32, u32, u32, u32, u32, u32)>(
        &self,
        vertices: std::ops::Range<usize>,
        f: &mut F,
    ) {
        // mark[w] = id of the arc u → w while `u` is swept, else NONE.
        // Edge ids are below `m ≤ u32::MAX`, so NONE never collides.
        const NONE: u32 = u32::MAX;
        let mut mark = vec![NONE; self.n()];
        for u in vertices {
            let u = u as u32;
            let out_u = self.out(u);
            for &(w, e_uw) in out_u {
                mark[w as usize] = e_uw;
            }
            for &(v, e_uv) in out_u {
                for &(w, e_vw) in self.out(v) {
                    let e_uw = mark[w as usize];
                    if e_uw != NONE {
                        f(u, v, w, e_uv, e_uw, e_vw);
                    }
                }
            }
            for &(w, _) in out_u {
                mark[w as usize] = NONE;
            }
        }
    }

    /// Number of triangles, swept on up to `threads` worker threads.
    pub fn triangle_count(&self, threads: usize) -> u64 {
        self.sweep_ranges(threads, |range| {
            let mut count = 0u64;
            self.for_each_triangle_in(range, &mut |_, _, _, _, _, _| count += 1);
            count
        })
        .into_iter()
        .sum()
    }

    /// Per-edge triangle counts (the *support* peeled by the (2,3)
    /// decomposition), indexed by edge id, on up to `threads` worker
    /// threads ([`OrientedAdjacency::sweep_ranges`] partials, summed).
    pub fn edge_supports(&self, threads: usize) -> Vec<u32> {
        // Every undirected edge is exactly one oriented arc.
        self.sum_counts(threads, self.arcs.len(), |range, support| {
            self.for_each_triangle_in(range, &mut |_, _, _, e1, e2, e3| {
                support[e1 as usize] += 1;
                support[e2 as usize] += 1;
                support[e3 as usize] += 1;
            });
        })
    }

    /// Per-vertex triangle counts (the degrees peeled by the (1,3)
    /// decomposition), indexed by vertex id, on up to `threads` worker
    /// threads ([`OrientedAdjacency::sweep_ranges`] partials, summed).
    pub fn vertex_triangle_counts(&self, threads: usize) -> Vec<u32> {
        self.sum_counts(threads, self.n(), |range, deg| {
            self.for_each_triangle_in(range, &mut |a, b, c, _, _, _| {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
                deg[c as usize] += 1;
            });
        })
    }

    /// Triangle ids by arc: entry `a` is the id of the first triangle the
    /// full sweep emits for arc `a = (u → v)` (index into the oriented
    /// arc array), the last entry the triangle total. The sweep emits
    /// the triangles of one arc together and arc by arc, so the ids of
    /// arc `a`'s triangles run from entry `a` to entry `a + 1`, in
    /// ascending third-vertex order.
    ///
    /// `tris` must be the [`TriangleList`] swept from this orientation
    /// ([`TriangleList::from_oriented`]); its ids are the ones the
    /// offsets point at. Each listed triangle is counted on the arc
    /// between its two lowest-rank vertices, so the cost follows the
    /// triangles, not the wedges a sweep would scan.
    ///
    /// # Panics
    /// When a listed triangle is not a triangle of this orientation.
    pub fn triangle_offsets(&self, tris: &TriangleList) -> Vec<u32> {
        let mut offsets = vec![0u32; self.arcs.len() + 1];
        for &[a, b, c] in &tris.vertices {
            let mut vs = [a, b, c];
            vs.sort_unstable_by_key(|&x| self.rank[x as usize]);
            let [u, v, _] = vs;
            let at = self
                .out(u)
                .binary_search_by_key(&v, |&(x, _)| x)
                .expect("`tris` must be swept from this orientation");
            offsets[self.offsets[u as usize] + at + 1] += 1;
        }
        for a in 1..offsets.len() {
            offsets[a] += offsets[a - 1];
        }
        offsets
    }
}

/// Runs `work` once per range, each on its own scoped worker thread (a
/// single range inline), and returns the results in range order.
fn run_ranges<T, W>(ranges: Vec<std::ops::Range<usize>>, work: W) -> Vec<T>
where
    T: Send,
    W: Fn(std::ops::Range<usize>) -> T + Sync,
{
    if let [range] = &ranges[..] {
        return vec![work(range.clone())];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| work(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Calls `f(u, v, w, e_uv, e_uw, e_vw)` once per triangle of `g`.
///
/// The vertex triple is *not* sorted by id (it follows the orientation);
/// the three edge ids always correspond to the pairs named in the
/// signature.
pub fn for_each_triangle<F: FnMut(u32, u32, u32, u32, u32, u32)>(g: &CsrGraph, mut f: F) {
    OrientedAdjacency::build(g).for_each_triangle_in(0..g.n(), &mut f);
}

/// Number of triangles in `g` ([`OrientedAdjacency::triangle_count`]
/// on one thread).
pub fn triangle_count(g: &CsrGraph) -> u64 {
    OrientedAdjacency::build(g).triangle_count(1)
}

/// Per-edge triangle counts (the *support* peeled by the (2,3)
/// decomposition), indexed by edge id: a one-line wrapper over
/// [`OrientedAdjacency::edge_supports`] on one thread, kept with its
/// signature for callers that hold only a graph.
pub fn edge_supports(g: &CsrGraph) -> Vec<u32> {
    OrientedAdjacency::build(g).edge_supports(1)
}

/// Per-vertex triangle counts (the degrees peeled by the (1,3)
/// decomposition), indexed by vertex id
/// ([`OrientedAdjacency::vertex_triangle_counts`] on one thread).
pub fn vertex_triangle_counts(g: &CsrGraph) -> Vec<u32> {
    OrientedAdjacency::build(g).vertex_triangle_counts(1)
}

/// Canonical record of one triangle `{a, b, c}` with edge ids `e_ab`,
/// `e_ac`, `e_bc`: returns `([u, v, w], [e_uv, e_uw, e_vw])` with the
/// vertices sorted ascending and the edge ids permuted to match.
///
/// Each vertex is paired with its *opposite* edge (the one joining the
/// other two); that pairing survives any permutation, so one 3-element
/// sort by vertex id yields both canonical arrays at once — shared by
/// the serial and parallel [`TriangleList`] builders so both emit
/// identical records from one place.
#[inline]
pub(crate) fn canonical_triangle(
    a: u32,
    b: u32,
    c: u32,
    e_ab: u32,
    e_ac: u32,
    e_bc: u32,
) -> ([u32; 3], [u32; 3]) {
    let mut p = [(a, e_bc), (b, e_ac), (c, e_ab)];
    if p[0].0 > p[1].0 {
        p.swap(0, 1);
    }
    if p[1].0 > p[2].0 {
        p.swap(1, 2);
    }
    if p[0].0 > p[1].0 {
        p.swap(0, 1);
    }
    // edges [e(u,v), e(u,w), e(v,w)] = [opposite(w), opposite(v), opposite(u)]
    ([p[0].0, p[1].0, p[2].0], [p[2].1, p[1].1, p[0].1])
}

/// Materialized triangle list: each triangle's vertices (sorted by id)
/// and edge ids, identified by a dense triangle id in enumeration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriangleList {
    /// Vertex triples, each sorted ascending.
    pub vertices: Vec<[u32; 3]>,
    /// Edge ids `[e_uv, e_uw, e_vw]` matching the sorted vertex triple
    /// `[u, v, w]` (i.e. `[id(u,v), id(u,w), id(v,w)]`).
    pub edges: Vec<[u32; 3]>,
}

impl TriangleList {
    /// Enumerates and stores all triangles of `g`.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_threads(g, 1)
    }

    /// Enumerates and stores all triangles of `g` using `threads` worker
    /// threads, producing **exactly** the output of
    /// [`TriangleList::build`] — same triangles, same enumeration order,
    /// same dense ids ([`TriangleList::from_oriented`] on a fresh
    /// orientation).
    pub fn build_with_threads(g: &CsrGraph, threads: usize) -> Self {
        Self::from_oriented(&OrientedAdjacency::build(g), threads)
    }

    /// The triangles of an oriented graph, in its sweep order, on up to
    /// `threads` worker threads; every thread count gives the same list.
    /// Callers that sweep the same orientation again (the K4 sweep)
    /// build it once and share it.
    ///
    /// Two passes over the oriented adjacency: per-range triangle counts
    /// over [`crate::balanced_ranges`] of
    /// [`OrientedAdjacency::sweep_weights`], an exclusive
    /// prefix sum, then a scoped fill of each range's disjoint chunk in
    /// the serial sweep's vertex-major order.
    pub fn from_oriented(oriented: &OrientedAdjacency, threads: usize) -> Self {
        if threads <= 1 {
            let (mut vertices, mut edges) = (Vec::new(), Vec::new());
            oriented.for_each_triangle_in(0..oriented.n(), &mut |a, b, c, e_ab, e_ac, e_bc| {
                let (vs, es) = canonical_triangle(a, b, c, e_ab, e_ac, e_bc);
                vertices.push(vs);
                edges.push(es);
            });
            return TriangleList { vertices, edges };
        }
        // Pass 1: triangles per range.
        let ranges = oriented.sweep_split(threads);
        let counts: Vec<usize> = run_ranges(ranges.clone(), |range| {
            let mut c = 0usize;
            oriented.for_each_triangle_in(range, &mut |_, _, _, _, _, _| c += 1);
            c
        });
        // Pass 2: prefix-sum the counts into chunk sizes and fill each
        // range's slice of both arrays in enumeration order.
        let total: usize = counts.iter().sum();
        let mut vertices = vec![[0u32; 3]; total];
        let mut edges = vec![[0u32; 3]; total];
        crate::parallel::fill_ranges_pair_scoped(
            &mut vertices,
            &mut edges,
            ranges,
            &counts,
            |range, vs_chunk, es_chunk| {
                let mut pos = 0usize;
                oriented.for_each_triangle_in(range, &mut |a, b, c, e_ab, e_ac, e_bc| {
                    let (vs, es) = canonical_triangle(a, b, c, e_ab, e_ac, e_bc);
                    vs_chunk[pos] = vs;
                    es_chunk[pos] = es;
                    pos += 1;
                });
                assert_eq!(pos, vs_chunk.len(), "count pass must match fill pass");
            },
        );
        TriangleList { vertices, edges }
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the graph is triangle-free.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclique::count_cliques;

    fn k5() -> CsrGraph {
        let mut edges = vec![];
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(5, &edges)
    }

    #[test]
    fn k5_has_ten_triangles() {
        assert_eq!(triangle_count(&k5()), 10);
        assert_eq!(count_cliques(&k5(), 3), 10);
    }

    #[test]
    fn supports_of_diamond() {
        // 0-1-2 triangle + 1-2-3 triangle; shared edge (1,2) has support 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let s = edge_supports(&g);
        let shared = g.edge_id(1, 2).unwrap();
        assert_eq!(s[shared as usize], 2);
        let outer = g.edge_id(0, 1).unwrap();
        assert_eq!(s[outer as usize], 1);
        assert_eq!(s.iter().sum::<u32>(), 6); // 2 triangles × 3 edges
    }

    #[test]
    fn triangle_free_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert_eq!(triangle_count(&g), 0);
        assert!(TriangleList::build(&g).is_empty());
        assert!(edge_supports(&g).iter().all(|&s| s == 0));
    }

    #[test]
    fn triangle_list_edges_match_vertices() {
        let g = k5();
        let tl = TriangleList::build(&g);
        assert_eq!(tl.len(), 10);
        for (vs, es) in tl.vertices.iter().zip(&tl.edges) {
            let [u, v, w] = *vs;
            assert!(u < v && v < w);
            assert_eq!(es[0], g.edge_id(u, v).unwrap());
            assert_eq!(es[1], g.edge_id(u, w).unwrap());
            assert_eq!(es[2], g.edge_id(v, w).unwrap());
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let edges: Vec<(u32, u32)> = (0..2500)
            .map(|_| (rng.gen_range(0..250u32), rng.gen_range(0..250u32)))
            .collect();
        for g in [k5(), CsrGraph::from_edges(250, &edges)] {
            let serial = TriangleList::build(&g);
            for threads in [1, 2, 4, 7] {
                assert_eq!(TriangleList::build_with_threads(&g, threads), serial);
            }
        }
        // triangle-free and empty inputs
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(TriangleList::build_with_threads(&g, 4).is_empty());
        let g = CsrGraph::from_edges(0, &[]);
        assert!(TriangleList::build_with_threads(&g, 4).is_empty());
    }

    /// The marked scan emits the triangles of a sorted-list merge of
    /// `out(u)` and `out(v)`, in the merge's order.
    #[test]
    fn marked_sweep_matches_merge_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let edges: Vec<(u32, u32)> = (0..3000)
            .map(|_| (rng.gen_range(0..200u32), rng.gen_range(0..200u32)))
            .collect();
        for g in [k5(), CsrGraph::from_edges(200, &edges)] {
            let o = OrientedAdjacency::build(&g);
            let mut merged = vec![];
            for u in 0..g.n() as u32 {
                for &(v, e_uv) in o.out(u) {
                    let (out_u, out_v) = (o.out(u), o.out(v));
                    let (mut i, mut j) = (0, 0);
                    while i < out_u.len() && j < out_v.len() {
                        match out_u[i].0.cmp(&out_v[j].0) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                merged.push([u, v, out_u[i].0, e_uv, out_u[i].1, out_v[j].1]);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                }
            }
            let mut swept = vec![];
            o.for_each_triangle_in(0..g.n(), &mut |a, b, c, d, e, f| {
                swept.push([a, b, c, d, e, f])
            });
            assert_eq!(swept, merged);
            assert_eq!(swept.len() as u64, triangle_count(&g));
        }
    }

    #[test]
    fn each_triangle_reported_once() {
        let g = k5();
        let tl = TriangleList::build(&g);
        let mut seen = tl.vertices.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10);
    }
}
