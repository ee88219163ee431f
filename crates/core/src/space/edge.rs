//! (2,3) space: cells are edges, containers are triangles → k-truss
//! community / k-(2,3) nucleus.

use std::sync::OnceLock;

use nucleus_cliques::triangles::OrientedAdjacency;
use nucleus_cliques::{balanced_ranges, fill_ranges_scoped};
use nucleus_graph::flat::{offsets_from_counts, FlatRecords};
use nucleus_graph::CsrGraph;

use super::{ContainerIndex, PeelBackend, PeelSpace};

/// The triangle peeling space over a graph: `ω₃(e)` = number of
/// triangles through edge `e`.
///
/// A lazy run finds the containers of `e = {u, v}` by intersecting the
/// sorted adjacency lists of `u` and `v`, yielding the two companion
/// edge ids per triangle without hashing. The materialized
/// [`ContainerIndex`] does not run that merge per edge: it comes from
/// one degeneracy-oriented triangle sweep, the same enumeration that
/// counts the supports, which scatters each triangle into its three
/// edges and orders every edge's records by third vertex — the order
/// the merge emits.
pub struct EdgeSpace {
    g: CsrGraph,
    supports: OnceLock<Vec<u32>>,
    threads: usize,
}

impl EdgeSpace {
    /// Wraps `g`. The triangle enumeration computing edge supports (the
    /// "enumerate all K_r's / find their ω" step of Alg. 1) is deferred
    /// to the first [`PeelBackend::degrees`] call, so sessions whose ω
    /// counts come from a persisted index never pay for it.
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Like [`EdgeSpace::new`], but the deferred support enumeration
    /// runs on `threads` worker threads (per-worker partial counts
    /// summed in order — identical output to the serial pass).
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        EdgeSpace {
            g: g.clone(),
            supports: OnceLock::new(),
            threads,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }
}

impl PeelBackend for EdgeSpace {
    fn cell_count(&self) -> usize {
        self.g.m()
    }

    fn degrees(&self) -> Vec<u32> {
        self.supports
            .get_or_init(|| OrientedAdjacency::build(&self.g).edge_supports(self.threads))
            .clone()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        let (u, v) = self.g.endpoints(cell);
        let (nu, eu) = (self.g.neighbors(u), self.g.neighbor_edge_ids(u));
        let (nv, ev) = (self.g.neighbors(v), self.g.neighbor_edge_ids(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // nu[i] == nv[j] == w forms triangle {u, v, w}; the
                    // other cells are edges {u, w} and {v, w}.
                    f(&[eu[i], ev[j]]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// The (2,3) container records from one oriented triangle sweep on up
/// to `threads` worker threads, identical record for record to the
/// per-cell merge of [`EdgeSpace::for_each_container`].
///
/// Two passes, neither with locks or atomics:
/// 1. Workers enumerate the triangles of disjoint vertex ranges into one
///    list each.
/// 2. Workers each own a disjoint range of cells (a disjoint slice of
///    the records) and read every list, keeping the records of their own
///    cells: cell `{a, b}` (`a < b`) with third vertex `x` gets
///    `[id(a, x), id(b, x)]`, the merge's layout. Each cell's records are
///    then sorted by `x`, the order the merge emits, so the result does
///    not depend on the thread count.
fn sweep_records(oriented: &OrientedAdjacency, counts: &[u32], threads: usize) -> FlatRecords {
    let enumerate = |range: std::ops::Range<usize>| {
        let mut tris: Vec<[u32; 6]> = Vec::new();
        oriented.for_each_triangle_in(range, &mut |u, v, w, e_uv, e_uw, e_vw| {
            tris.push([u, v, w, e_uv, e_uw, e_vw]);
        });
        tris
    };
    let lists: Vec<Vec<[u32; 6]>> = std::thread::scope(|scope| {
        let handles: Vec<_> = balanced_ranges(&oriented.sweep_weights(), threads.max(1))
            .into_iter()
            .map(|range| scope.spawn(|| enumerate(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let offsets = offsets_from_counts(counts);
    let mut data = vec![0u32; 2 * offsets[counts.len()]];
    let weights: Vec<usize> = counts.iter().map(|&c| c as usize + 1).collect();
    fill_ranges_scoped(
        &mut data,
        balanced_ranges(&weights, threads.max(1)),
        |range| 2 * (offsets[range.end] - offsets[range.start]),
        |range, chunk| {
            let base = offsets[range.start];
            // placed[c - range.start] = records of cell c written so far.
            let mut placed = vec![0u32; range.len()];
            let mut third = vec![0u32; chunk.len() / 2];
            let mut place = |cell: u32, x: u32, rec: [u32; 2]| {
                let local = (cell as usize).wrapping_sub(range.start);
                if local < range.len() {
                    let slot = offsets[cell as usize] - base + placed[local] as usize;
                    third[slot] = x;
                    chunk[2 * slot..2 * slot + 2].copy_from_slice(&rec);
                    placed[local] += 1;
                }
            };
            for &[u, v, w, e_uv, e_uw, e_vw] in lists.iter().flatten() {
                place(e_uv, w, if u < v { [e_uw, e_vw] } else { [e_vw, e_uw] });
                place(e_uw, v, if u < w { [e_uv, e_vw] } else { [e_vw, e_uv] });
                place(e_vw, u, if v < w { [e_uv, e_uw] } else { [e_uw, e_uv] });
            }
            let mut scratch: Vec<(u32, u32, u32)> = Vec::new();
            for (cell, &n) in range.zip(&placed) {
                let (lo, hi) = (offsets[cell] - base, offsets[cell + 1] - base);
                // Hard assert: ω counts that disagree with the sweep would
                // leave zero-filled records or spill into a neighbour's slots.
                assert_eq!(
                    lo + n as usize,
                    hi,
                    "ω counts must match the triangle sweep"
                );
                if third[lo..hi].is_sorted() {
                    continue;
                }
                let recs = &mut chunk[2 * lo..2 * hi];
                scratch.clear();
                scratch.extend(
                    third[lo..hi]
                        .iter()
                        .zip(recs.chunks_exact(2))
                        .map(|(&x, r)| (x, r[0], r[1])),
                );
                scratch.sort_unstable_by_key(|r| r.0);
                for (r, &(_, a, b)) in recs.chunks_exact_mut(2).zip(&scratch) {
                    r[0] = a;
                    r[1] = b;
                }
            }
        },
    );
    FlatRecords::from_parts(offsets, data, 2)
}

impl PeelSpace for EdgeSpace {
    fn r(&self) -> u32 {
        2
    }

    fn s(&self) -> u32 {
        3
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        let (u, v) = self.g.endpoints(cell);
        out.push(u);
        out.push(v);
    }

    /// The index from one oriented triangle sweep that reuses the
    /// orientation of the support count (or builds its own when the
    /// supports were counted earlier): each triangle scatters one record
    /// into each of its three edges, and every edge's records are then
    /// ordered by third vertex, so the index equals the per-cell merge
    /// fill record for record at any thread count.
    fn container_index<F>(&self, threads: usize, decide: F) -> Option<ContainerIndex>
    where
        F: FnOnce(&[u32]) -> bool,
    {
        let mut fresh = None;
        let counts = self.supports.get_or_init(|| {
            fresh
                .insert(OrientedAdjacency::build(&self.g))
                .edge_supports(self.threads)
        });
        if !decide(counts) {
            return None;
        }
        let oriented = fresh.unwrap_or_else(|| OrientedAdjacency::build(&self.g));
        Some(ContainerIndex::from_records(sweep_records(
            &oriented, counts, threads,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees_are_supports() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        assert_eq!(s.cell_count(), 5);
        let shared = g.edge_id(1, 2).unwrap();
        assert_eq!(s.degrees()[shared as usize], 2);
    }

    #[test]
    fn containers_yield_companion_edges() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        let shared = g.edge_id(1, 2).unwrap();
        let mut tris: Vec<[u32; 2]> = vec![];
        s.for_each_container(shared, |o| tris.push([o[0], o[1]]));
        assert_eq!(tris.len(), 2);
        let e01 = g.edge_id(0, 1).unwrap();
        let e02 = g.edge_id(0, 2).unwrap();
        let e13 = g.edge_id(1, 3).unwrap();
        let e23 = g.edge_id(2, 3).unwrap();
        let mut norm: Vec<[u32; 2]> = tris
            .iter()
            .map(|t| {
                let mut t = *t;
                t.sort_unstable();
                t
            })
            .collect();
        norm.sort_unstable();
        let mut expect = vec![
            {
                let mut t = [e01, e02];
                t.sort_unstable();
                t
            },
            {
                let mut t = [e13, e23];
                t.sort_unstable();
                t
            },
        ];
        expect.sort_unstable();
        assert_eq!(norm, expect);
    }

    #[test]
    fn triangle_free_edges_have_no_containers() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = EdgeSpace::new(&g);
        for e in 0..g.m() as u32 {
            let mut count = 0;
            s.for_each_container(e, |_| count += 1);
            assert_eq!(count, 0);
        }
    }

    #[test]
    fn swept_index_matches_per_cell_fill() {
        let g = nucleus_gen::karate::karate_club();
        let s = EdgeSpace::with_threads(&g, 2);
        let per_cell = ContainerIndex::build_per_cell(&s, s.degrees(), 1);
        for threads in [1, 2, 3] {
            let swept = ContainerIndex::build(&s, threads);
            for e in 0..g.m() as u32 {
                let (mut a, mut b) = (vec![], vec![]);
                per_cell.for_each_container(e, |o| a.push(o.to_vec()));
                swept.for_each_container(e, |o| b.push(o.to_vec()));
                assert_eq!(a, b, "edge {e} at t={threads}");
            }
        }
    }

    // The worker's "ω counts must match the triangle sweep" assert
    // resurfaces from the thread scope under the scope's own message.
    #[test]
    #[should_panic]
    fn swept_index_rejects_wrong_counts() {
        let g = diamond();
        let oriented = OrientedAdjacency::build(&g);
        let mut counts = oriented.edge_supports(1);
        counts[0] += 1;
        sweep_records(&oriented, &counts, 1);
    }

    #[test]
    fn cell_vertices_are_endpoints() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        let mut out = vec![];
        s.cell_vertices(g.edge_id(1, 3).unwrap(), &mut out);
        assert_eq!(out, vec![1, 3]);
    }
}
