//! (1,3) space: cells are vertices, containers are triangles.
//!
//! A k-(1,3) nucleus is a maximal triangle-connected set of vertices
//! each lying in at least k triangles — the "triangle core" of vertices
//! rather than edges. Like [`super::EdgeK4Space`], this instance exists
//! to exercise the algorithms' genericity (here containers hold **two**
//! other cells), and it is a useful decomposition in its own right for
//! social-network seeding.

use std::sync::OnceLock;

use nucleus_cliques::triangles::OrientedAdjacency;
use nucleus_graph::CsrGraph;

use super::{PeelBackend, PeelSpace};

/// The (1,3) peeling space: `ω₃(v)` = number of triangles containing `v`.
pub struct VertexTriangleSpace {
    g: CsrGraph,
    degrees: OnceLock<Vec<u32>>,
    threads: usize,
}

impl VertexTriangleSpace {
    /// Wraps `g`; the triangle enumeration for the ω values runs on the
    /// first [`PeelBackend::degrees`] call (never, for sessions fed
    /// counts by a persisted index).
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Like [`VertexTriangleSpace::new`], but the deferred triangle
    /// enumeration runs on `threads` worker threads (per-worker partial
    /// counts summed in order — identical output to the serial pass).
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        VertexTriangleSpace {
            g: g.clone(),
            degrees: OnceLock::new(),
            threads,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }
}

impl PeelBackend for VertexTriangleSpace {
    fn cell_count(&self) -> usize {
        self.g.n()
    }

    fn degrees(&self) -> Vec<u32> {
        self.degrees
            .get_or_init(|| OrientedAdjacency::build(&self.g).vertex_triangle_counts(self.threads))
            .clone()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        // Triangles through `cell`: pairs (u, w) of its neighbors that
        // are adjacent. Enumerate neighbor pairs u < w and probe (u, w).
        let nbrs = self.g.neighbors(cell);
        for (i, &u) in nbrs.iter().enumerate() {
            // intersect nbrs[i+1..] with neighbors(u)
            let a = &nbrs[i + 1..];
            let b = self.g.neighbors(u);
            let (mut p, mut q) = (0usize, 0usize);
            while p < a.len() && q < b.len() {
                match a[p].cmp(&b[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        f(&[u, a[p]]);
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
}

impl PeelSpace for VertexTriangleSpace {
    fn r(&self) -> u32 {
        1
    }

    fn s(&self) -> u32 {
        3
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        out.push(cell);
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

    #[test]
    fn k5_vertices_have_six_triangles() {
        let g = nucleus_gen::classic::complete(5);
        let s = VertexTriangleSpace::new(&g);
        assert_eq!(s.degrees(), vec![6; 5]); // C(4,2)
        assert_eq!(s.name(), "(1,3)");
        let p = peel(&s);
        assert!(p.lambda.iter().all(|&l| l == 6));
    }

    #[test]
    fn container_count_matches_degree() {
        let g = nucleus_gen::karate::karate_club();
        let s = VertexTriangleSpace::new(&g);
        for v in 0..g.n() as u32 {
            let mut c = 0u32;
            s.for_each_container(v, |_| c += 1);
            assert_eq!(c, s.degrees()[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn bowtie_center_counts_both_triangles() {
        let g = nucleus_gen::paper::fig3_bowtie();
        let s = VertexTriangleSpace::new(&g);
        assert_eq!(s.degrees()[2], 2); // shared vertex
                                       // ... but the two wings are one (1,3) nucleus at k=1? The center
                                       // belongs to both triangles, making them triangle-connected
                                       // through the *vertex* (cells here are vertices, and vertex 2 is
                                       // in both containers) — contrast with the (2,3) split.
        let p = peel(&s);
        let (h, _) = dft(&s, &p);
        assert_eq!(h.nuclei_at(1).len(), 1);
    }

    #[test]
    fn matches_reference_and_algorithms_agree() {
        for g in [
            nucleus_gen::paper::fig1_nucleus_contrast(),
            nucleus_gen::karate::karate_club(),
            nucleus_gen::classic::barbell(5, 2),
        ] {
            let s = VertexTriangleSpace::new(&g);
            let p = peel(&s);
            assert_eq!(p.lambda, peel_reference(&s));
            let h_naive = naive(&s, &p);
            let (h_dft, _) = dft(&s, &p);
            let out = fnd(&s);
            assert_eq!(h_naive, h_dft);
            assert_eq!(h_dft, out.hierarchy);
            check_semantics(&s, &h_dft).expect("(1,3) semantics");
        }
    }
}
