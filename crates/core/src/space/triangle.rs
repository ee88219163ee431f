//! (3,4) space: cells are triangles, containers are four-cliques →
//! k-(3,4) nucleus, the paper's densest/most-detailed decomposition.

use std::sync::OnceLock;

use nucleus_cliques::triangles::OrientedAdjacency;
use nucleus_cliques::{TriangleIndex, TriangleList, K4};
use nucleus_graph::CsrGraph;

use super::{ContainerIndex, PeelBackend, PeelSpace};

/// The four-clique peeling space: `ω₄(t)` = number of K4s containing
/// triangle `t`.
///
/// A lazy run finds the containers of `t = {u, v, w}` — apex vertices
/// `x` adjacent to all three — by merging the third-vertex lists of
/// edges `(u, v)` and `(u, w)` in the per-edge [`TriangleIndex`], which
/// also names the companion triangles. Neither ω nor the materialized
/// [`ContainerIndex`] runs that merge: both come from the oriented K4
/// sweep ([`OrientedAdjacency::for_each_k4_in`]), which finds each K4
/// once, with its four triangle ids. ω counts each triangle's K4s
/// without storing them; the index build sweeps again into K4 lists,
/// scatters each K4's four records into its triangles and orders every
/// triangle's records by apex — the order the merge emits.
///
/// Only the triangle list itself — the cell identities — is built
/// eagerly. The per-edge index (consulted by lazy container
/// enumeration) and the K4 counts (`ω`) are deferred to first use: a
/// session loading a persisted (3,4) index needs neither and pays for
/// neither.
pub struct TriangleSpace {
    g: CsrGraph,
    /// The degeneracy orientation the triangle list was swept from; the
    /// K4 sweep reuses it, so its triangle ids are the list's.
    oriented: OrientedAdjacency,
    tris: TriangleList,
    index: OnceLock<TriangleIndex>,
    k4deg: OnceLock<Vec<u32>>,
    threads: usize,
}

impl TriangleSpace {
    /// Builds the space: enumerates triangles eagerly; the per-edge
    /// index and K4 degrees (the "enumerate K_r's + set ω" part of
    /// Alg. 1) follow lazily on first use.
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Builds the space like [`TriangleSpace::new`], but runs **every**
    /// construction pass — the eager triangle enumeration, the lazy
    /// per-edge index, and the lazy K4 sweep — with `threads` worker
    /// threads (the `threads` argument of the
    /// [`OrientedAdjacency`] counters). Each pass gives the same output
    /// at every thread count, so the space's observable state never
    /// depends on `threads`.
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        let oriented = OrientedAdjacency::build(g);
        TriangleSpace {
            g: g.clone(),
            tris: TriangleList::from_oriented(&oriented, threads),
            oriented,
            index: OnceLock::new(),
            k4deg: OnceLock::new(),
            threads,
        }
    }

    fn index(&self) -> &TriangleIndex {
        self.index
            .get_or_init(|| TriangleIndex::build_with_threads(&self.g, &self.tris, self.threads))
    }

    /// K4 degrees from a counting-only K4 sweep.
    fn k4deg(&self) -> &[u32] {
        self.k4deg
            .get_or_init(|| self.oriented.k4_degrees(&self.tris, self.threads))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }

    /// The materialized triangle list (cells of this space).
    pub fn triangles(&self) -> &TriangleList {
        &self.tris
    }

    /// Total K4 count of the graph.
    pub fn k4_count(&self) -> u64 {
        self.k4deg().iter().map(|&d| d as u64).sum::<u64>() / 4
    }
}

/// A swept K4 as `(vertex, id of the opposite face)` pairs in ascending
/// vertex id.
type Faces = [(u32, u32); 4];

fn faces(k4: &K4) -> Faces {
    let mut f: Faces = std::array::from_fn(|i| (k4.vertices[i], k4.triangles[i]));
    // A sorting network: by vertex id, ascending.
    for (i, j) in [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] {
        if f[i].0 > f[j].0 {
            f.swap(i, j);
        }
    }
    f
}

/// The four container records of one K4 `{s0 < s1 < s2 < s3}` with
/// faces `t_i` opposite `s_i`: cell `t_i` gets apex `s_i` and the other
/// three faces. For cell `{a < b < c}` with apex `y`, the record is
/// `[tid(a,b,y), tid(a,c,y), tid(b,c,y)]` — the faces opposite `c`, `b`
/// and `a` — the layout of [`TriangleSpace::for_each_container`].
fn k4_records(f: &Faces) -> [(u32, u32, [u32; 3]); 4] {
    let [(s0, t0), (s1, t1), (s2, t2), (s3, t3)] = *f;
    [
        (t0, s0, [t3, t2, t1]),
        (t1, s1, [t3, t2, t0]),
        (t2, s2, [t3, t1, t0]),
        (t3, s3, [t2, t1, t0]),
    ]
}

/// Every K4 of `oriented`, whose triangles are `tris`, swept on up to
/// `threads` worker threads into one list per worker.
fn sweep_k4s(oriented: &OrientedAdjacency, tris: &TriangleList, threads: usize) -> Vec<Vec<Faces>> {
    let tri_offsets = oriented.triangle_offsets(tris);
    oriented.sweep_ranges(threads, |range| {
        let mut k4s = Vec::new();
        oriented.for_each_k4_in(range, &tri_offsets, &mut |k4| k4s.push(faces(k4)));
        k4s
    })
}

impl PeelBackend for TriangleSpace {
    fn cell_count(&self) -> usize {
        self.tris.len()
    }

    fn degrees(&self) -> Vec<u32> {
        self.k4deg().to_vec()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        let [_u, v, w] = self.tris.vertices[cell as usize];
        let [e_uv, e_uw, e_vw] = self.tris.edges[cell as usize];
        // Apexes x of K4s over {u,v,w} are exactly the common thirds of
        // edges (u,v) and (u,w); the third companion triangle {v,w,x}
        // is looked up in the (v,w) list.
        let index = self.index();
        let a = index.thirds(e_uv); // (x, tid of {u,v,x})
        let b = index.thirds(e_uw); // (x, tid of {u,w,x})
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let x = a[i].0;
                    debug_assert!(x != v && x != w);
                    if let Some(t_vwx) = index.tid(e_vw, x) {
                        f(&[a[i].1, b[j].1, t_vwx]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl PeelSpace for TriangleSpace {
    fn r(&self) -> u32 {
        3
    }

    fn s(&self) -> u32 {
        4
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.tris.vertices[cell as usize]);
    }

    /// The index from one oriented K4 sweep: ω comes first, from the
    /// counting-only sweep, so `decide` can refuse an index before any
    /// record exists; then workers sweep disjoint vertex ranges into K4
    /// lists and each K4 scatters one record into each of its four
    /// triangles, ordered by apex, so the index equals the per-cell
    /// merge fill record for record at any thread count. The lists take
    /// 32 bytes per K4 while they live, two thirds of the index's own 48.
    fn container_index<F>(&self, threads: usize, decide: F) -> Option<ContainerIndex>
    where
        F: FnOnce(&[u32]) -> bool,
    {
        let counts = self.k4deg();
        if !decide(counts) {
            return None;
        }
        let lists = sweep_k4s(&self.oriented, &self.tris, threads);
        Some(ContainerIndex::from_sweep(
            &lists, counts, threads, k4_records,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = vec![];
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn k5_space_shape() {
        let g = complete(5);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 10);
        assert_eq!(s.k4_count(), 5);
        assert!(s.degrees().iter().all(|&d| d == 2));
        assert_eq!(s.name(), "(3,4)");
    }

    #[test]
    fn containers_are_k4_companions() {
        let g = complete(4);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 4);
        // The single K4 means every triangle has exactly one container
        // holding the other three triangles.
        for t in 0..4u32 {
            let mut containers = vec![];
            s.for_each_container(t, |o| containers.push(o.to_vec()));
            assert_eq!(containers.len(), 1);
            let mut ids = containers[0].clone();
            ids.push(t);
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn k4_free_triangles_have_no_containers() {
        // diamond: 2 triangles, no K4
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 2);
        for t in 0..2u32 {
            let mut c = 0;
            s.for_each_container(t, |_| c += 1);
            assert_eq!(c, 0);
        }
    }

    #[test]
    fn cell_vertices_sorted_triples() {
        let g = complete(4);
        let s = TriangleSpace::new(&g);
        let mut out = vec![];
        s.cell_vertices(0, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn swept_index_matches_per_cell_fill() {
        for g in [complete(7), nucleus_gen::karate::karate_club()] {
            let s = TriangleSpace::with_threads(&g, 2);
            let per_cell = ContainerIndex::build_per_cell(&s, s.degrees(), 1);
            for threads in [1, 2, 3] {
                let swept = ContainerIndex::build(&TriangleSpace::new(&g), threads);
                assert_eq!(swept.counts(), per_cell.counts(), "ω at t={threads}");
                for t in 0..s.cell_count() as u32 {
                    let (mut a, mut b) = (vec![], vec![]);
                    per_cell.for_each_container(t, |o| a.push(o.to_vec()));
                    swept.for_each_container(t, |o| b.push(o.to_vec()));
                    assert_eq!(a, b, "triangle {t} at t={threads}");
                }
            }
        }
    }

    // One record moves between two cells, so the total still matches
    // and only the per-cell fill check can see it (one thread fills
    // inline, so its message surfaces as is).
    #[test]
    #[should_panic(expected = "ω counts must match the sweep")]
    fn swept_index_rejects_wrong_counts() {
        let s = TriangleSpace::new(&complete(5));
        let lists = sweep_k4s(&s.oriented, &s.tris, 1);
        let mut counts = s.degrees();
        counts[0] += 1;
        counts[1] -= 1;
        ContainerIndex::from_sweep(&lists, &counts, 1, k4_records);
    }

    #[test]
    fn container_count_matches_degree() {
        let g = complete(6);
        let s = TriangleSpace::new(&g);
        for t in 0..s.cell_count() as u32 {
            let mut c = 0u32;
            s.for_each_container(t, |_| c += 1);
            assert_eq!(c, s.degrees()[t as usize], "triangle {t}");
        }
    }
}
