//! (2,4) space: cells are edges, containers are four-cliques.
//!
//! This is the decomposition behind the paper's Figure 1 (the 2-(2,4)
//! nucleus) and a witness that the algorithms are generic in (r, s)
//! beyond the three headline instances: nothing in Naive/DFT/FND/Hypo
//! knows that containers here hold **five** other cells.

use std::sync::OnceLock;

use nucleus_cliques::triangles::OrientedAdjacency;
use nucleus_cliques::{TriangleIndex, TriangleList};
use nucleus_graph::CsrGraph;

use super::{PeelBackend, PeelSpace};

/// The (2,4) peeling space: `ω₄(e)` = number of K4s containing edge `e`.
///
/// Containers of `e = {u, v}` are K4s `{u, v, w, x}`: `w, x` are common
/// neighbors of `u, v` (read off the per-edge triangle index) that are
/// themselves adjacent; the other cells are the remaining five edges.
/// ω does not walk those pairs: one oriented K4 sweep
/// ([`OrientedAdjacency::k4_edge_degrees`]) finds each K4 once and
/// credits its six edges.
pub struct EdgeK4Space {
    g: CsrGraph,
    index: OnceLock<TriangleIndex>,
    degrees: OnceLock<Vec<u32>>,
    threads: usize,
}

impl EdgeK4Space {
    /// Wraps `g`. Both the triangle index (consulted per container
    /// enumeration) and the per-edge K4 counts (the K4 sweep) are built
    /// on first use, so sessions driven by a persisted index skip them
    /// entirely.
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Like [`EdgeK4Space::new`], but the deferred triangle-list +
    /// index builds and the per-edge K4 count run on `threads` worker
    /// threads (each identical at every thread count).
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        EdgeK4Space {
            g: g.clone(),
            index: OnceLock::new(),
            degrees: OnceLock::new(),
            threads,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn index(&self) -> &TriangleIndex {
        self.index.get_or_init(|| {
            let tris = TriangleList::build_with_threads(&self.g, self.threads);
            TriangleIndex::build_with_threads(&self.g, &tris, self.threads)
        })
    }
}

/// Enumerates the K4s containing `e`, passing the five other edge ids.
#[inline]
fn for_each_k4_of_edge<F: FnMut([u32; 5])>(g: &CsrGraph, index: &TriangleIndex, e: u32, mut f: F) {
    let (u, v) = g.endpoints(e);
    let thirds = index.thirds(e); // (w, tid) for triangles {u, v, w}
    for (i, &(w, _)) in thirds.iter().enumerate() {
        // edges to w exist by construction
        let e_uw = g.edge_id(u.min(w), u.max(w)).expect("triangle edge");
        let e_vw = g.edge_id(v.min(w), v.max(w)).expect("triangle edge");
        for &(x, _) in &thirds[i + 1..] {
            // K4 requires the wx edge; w < x in the sorted thirds list
            if let Some(e_wx) = g.edge_id(w, x) {
                let e_ux = g.edge_id(u.min(x), u.max(x)).expect("triangle edge");
                let e_vx = g.edge_id(v.min(x), v.max(x)).expect("triangle edge");
                f([e_uw, e_vw, e_ux, e_vx, e_wx]);
            }
        }
    }
}

impl PeelBackend for EdgeK4Space {
    fn cell_count(&self) -> usize {
        self.g.m()
    }

    fn degrees(&self) -> Vec<u32> {
        // The K4 sweep credits each K4's six edges. Every run that needs
        // ω also enumerates containers, so the per-edge index is built
        // from the same triangle list before the list is dropped; the
        // space keeps neither the list nor its orientation.
        self.degrees
            .get_or_init(|| {
                let oriented = OrientedAdjacency::build(&self.g);
                let tris = TriangleList::from_oriented(&oriented, self.threads);
                let degrees = oriented.k4_edge_degrees(&tris, self.threads);
                drop(oriented);
                self.index.get_or_init(|| {
                    TriangleIndex::build_with_threads(&self.g, &tris, self.threads)
                });
                degrees
            })
            .clone()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        for_each_k4_of_edge(&self.g, self.index(), cell, |others| f(&others));
    }
}

impl PeelSpace for EdgeK4Space {
    fn r(&self) -> u32 {
        2
    }

    fn s(&self) -> u32 {
        4
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        let (u, v) = self.g.endpoints(cell);
        out.push(u);
        out.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dft::dft;
    use crate::algo::fnd::fnd;
    use crate::algo::naive::naive;
    use crate::peel::{peel, peel_reference};
    use crate::validate::check_semantics;

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
    fn k5_edges_have_three_k4s() {
        // each edge of K5 is in C(3,2) = 3 K4s
        let g = complete(5);
        let s = EdgeK4Space::new(&g);
        assert_eq!(s.cell_count(), 10);
        assert!(s.degrees().iter().all(|&d| d == 3));
        assert_eq!(s.name(), "(2,4)");
        let p = peel(&s);
        assert!(p.lambda.iter().all(|&l| l == 3));
    }

    #[test]
    fn container_holds_five_other_edges() {
        let g = complete(4);
        let s = EdgeK4Space::new(&g);
        for e in 0..6u32 {
            let mut containers = vec![];
            s.for_each_container(e, |o| containers.push(o.to_vec()));
            assert_eq!(containers.len(), 1);
            let mut all = containers[0].clone();
            all.push(e);
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn degrees_count_containers_at_any_thread_count() {
        for g in [complete(6), nucleus_gen::paper::fig1_nucleus_contrast()] {
            let serial = EdgeK4Space::new(&g).degrees();
            // ω₄(e) must equal the number of containers enumerated for e
            let s = EdgeK4Space::new(&g);
            for e in 0..g.m() as u32 {
                let mut c = 0u32;
                s.for_each_container(e, |_| c += 1);
                assert_eq!(c, serial[e as usize], "edge {e}");
            }
            for threads in [2, 4, 7] {
                assert_eq!(EdgeK4Space::with_threads(&g, threads).degrees(), serial);
            }
        }
    }

    #[test]
    fn matches_reference_peeling() {
        let g = nucleus_gen::paper::fig1_nucleus_contrast();
        let s = EdgeK4Space::new(&g);
        assert_eq!(peel(&s).lambda, peel_reference(&s));
    }

    #[test]
    fn figure1_contrast_2_2_4_vs_2_2_3() {
        // On the octahedron ∪ K5 graph: the 2-(2,3) nucleus covers both
        // halves' dense parts, but the 2-(2,4) nucleus is the K5 alone.
        let g = nucleus_gen::paper::fig1_nucleus_contrast();
        let s24 = EdgeK4Space::new(&g);
        let p24 = peel(&s24);
        let (h24, _) = dft(&s24, &p24);
        h24.validate().expect("valid (2,4)");
        let deep = h24.nuclei_at(2);
        assert_eq!(deep.len(), 1, "one 2-(2,4) nucleus");
        let mut verts = crate::report::nucleus_vertices(&s24, &h24, deep[0]);
        verts.sort_unstable();
        assert_eq!(verts, vec![0, 1, 6, 7, 8], "the K5");

        let s23 = crate::space::EdgeSpace::new(&g);
        let p23 = peel(&s23);
        let (h23, _) = dft(&s23, &p23);
        let two23 = h23.nuclei_at(2);
        let cells: usize = two23
            .iter()
            .map(|&id| h23.node(id).subtree_cells as usize)
            .sum();
        assert!(
            cells > 10,
            "2-(2,3) nuclei must cover more than the K5's edges"
        );
    }

    #[test]
    fn all_algorithms_agree_on_2_4() {
        for g in [
            complete(6),
            nucleus_gen::paper::fig1_nucleus_contrast(),
            nucleus_gen::karate::karate_club(),
        ] {
            let s = EdgeK4Space::new(&g);
            let p = peel(&s);
            let h_naive = naive(&s, &p);
            let (h_dft, _) = dft(&s, &p);
            let out = fnd(&s);
            assert_eq!(h_naive, h_dft);
            assert_eq!(h_dft, out.hierarchy);
            check_semantics(&s, &h_dft).expect("(2,4) semantics");
        }
    }
}
