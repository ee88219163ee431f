//! (1,2) space: cells are vertices, containers are edges → k-core.

use nucleus_graph::CsrGraph;

use super::{PeelBackend, PeelSpace};

/// The k-core peeling space over a graph: `ω₂(v) = deg(v)`.
pub struct VertexSpace {
    g: CsrGraph,
}

impl VertexSpace {
    /// Wraps `g`. O(1).
    pub fn new(g: &CsrGraph) -> Self {
        VertexSpace { g: g.clone() }
    }

    /// Accepts (and ignores) a thread count, for constructor symmetry
    /// with the other spaces: ω here is a vertex's degree, a single
    /// O(n) read of the CSR offsets with no enumeration to parallelize
    /// — spawning workers could only ever slow it down.
    pub fn with_threads(g: &CsrGraph, _threads: usize) -> Self {
        Self::new(g)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }
}

impl PeelBackend for VertexSpace {
    fn cell_count(&self) -> usize {
        self.g.n()
    }

    fn degrees(&self) -> Vec<u32> {
        (0..self.g.n() as u32)
            .map(|v| self.g.degree(v) as u32)
            .collect()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        for &w in self.g.neighbors(cell) {
            f(std::slice::from_ref(&w));
        }
    }
}

impl PeelSpace for VertexSpace {
    fn r(&self) -> u32 {
        1
    }

    fn s(&self) -> u32 {
        2
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        out.push(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containers_are_neighbors() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let s = VertexSpace::new(&g);
        assert_eq!(s.cell_count(), 4);
        assert_eq!(s.degrees(), vec![2, 1, 2, 1]);
        let mut seen = vec![];
        s.for_each_container(0, |others| seen.push(others[0]));
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(s.name(), "(1,2)");
    }

    #[test]
    fn cell_vertices_identity() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let s = VertexSpace::new(&g);
        let mut out = vec![];
        s.cell_vertices(1, &mut out);
        assert_eq!(out, vec![1]);
    }
}
