//! Four-clique (K4) enumeration: one oriented sweep finds every K4
//! exactly once, with its four triangle ids and six edge ids, and
//! credits them — per triangle, the ω₄ degrees peeled by the
//! (3,4)-nucleus decomposition; per edge, those of the (2,4) family.

use nucleus_graph::CsrGraph;

use crate::triangles::{OrientedAdjacency, TriangleList};

/// One four-clique, as [`OrientedAdjacency::for_each_k4_in`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct K4 {
    /// `[u, v, w, x]` in ascending orientation rank (not vertex id).
    pub vertices: [u32; 4],
    /// `[e_uv, e_uw, e_ux, e_vw, e_vx, e_wx]`.
    pub edges: [u32; 6],
    /// Triangle ids of the faces opposite each vertex:
    /// `triangles[i]` is the face without `vertices[i]`, i.e.
    /// `[t_vwx, t_uwx, t_uvx, t_uvw]`. Ids are positions in the full
    /// triangle sweep of the same orientation — the [`TriangleList`] ids.
    pub triangles: [u32; 4],
}

impl OrientedAdjacency {
    /// Calls `f` once for every K4 whose lowest-rank vertex `u` lies in
    /// `vertices`, vertex by vertex: the whole graph over `0..n`, or one
    /// worker's share of it. `tri_offsets` must be
    /// [`OrientedAdjacency::triangle_offsets`] of `self`; the triangle
    /// ids come from it, and arcs with fewer than two triangles, which
    /// no K4 crosses, are skipped unscanned.
    ///
    /// It is the marked scan of
    /// [`OrientedAdjacency::for_each_triangle_in`] one level deeper. For
    /// `u`, mark `out(u)`. For `v ∈ out(u)`, mark `out(v)` too: the
    /// vertices carrying both marks are `C = out(u) ∩ out(v)`. For
    /// `w ∈ C`, every `x ∈ out(w) ∩ C` closes the K4 `{u, v, w, x}`,
    /// and ranks grow along `u, v, w, x`, so each K4 is found once.
    ///
    /// Triangle ids need no lookup: the sweep emits the triangles of arc
    /// `a → b` as the marked run of `out(b)`, from `tri_offsets[a → b]`
    /// up. So `t_uvw` and `t_uvx` are positions in `C`, and the scan of
    /// `out(w)` counts the entries marked by `u` and by `v` ahead of `x`
    /// to place `t_uwx` and `t_vwx`.
    pub fn for_each_k4_in<F: FnMut(&K4)>(
        &self,
        vertices: std::ops::Range<usize>,
        tri_offsets: &[u32],
        f: &mut F,
    ) {
        debug_assert_eq!(tri_offsets.len(), self.arcs.len() + 1, "one offset per arc");
        // arc_u[x] / arc_v[x] = index of the arc u → x / v → x while `u`
        // / `v` is swept, else NONE; t_uv[x] = id of triangle {u, v, x}
        // for x ∈ C. Arc indices are below m ≤ u32::MAX.
        const NONE: u32 = u32::MAX;
        let n = self.n();
        let (mut arc_u, mut arc_v, mut t_uv) = (vec![NONE; n], vec![NONE; n], vec![NONE; n]);
        // C as (w, arc u → w, arc v → w), in ascending w.
        let mut common: Vec<(u32, u32, u32)> = Vec::new();
        let arcs = &self.arcs;
        for u in vertices {
            let out_u = self.offsets[u]..self.offsets[u + 1];
            // A K4 needs three vertices above `u`, and two triangles
            // over the arc `u → v`.
            if out_u.len() < 3 {
                continue;
            }
            for a in out_u.clone() {
                arc_u[arcs[a].0 as usize] = a as u32;
            }
            for a_uv in out_u.clone() {
                let (v, e_uv) = arcs[a_uv];
                if tri_offsets[a_uv + 1] - tri_offsets[a_uv] < 2 {
                    continue;
                }
                let out_v = self.offsets[v as usize]..self.offsets[v as usize + 1];
                common.clear();
                for a in out_v.clone() {
                    let x = arcs[a].0 as usize;
                    if arc_u[x] != NONE {
                        common.push((x as u32, arc_u[x], a as u32));
                    }
                }
                for (i, &(x, _, _)) in common.iter().enumerate() {
                    t_uv[x as usize] = tri_offsets[a_uv] + i as u32;
                }
                for a in out_v.clone() {
                    arc_v[arcs[a].0 as usize] = a as u32;
                }
                for &(w, a_uw, a_vw) in &common {
                    // Next ids of the triangles {u, w, ·} and {v, w, ·}.
                    let (mut t_uw, mut t_vw) =
                        (tri_offsets[a_uw as usize], tri_offsets[a_vw as usize]);
                    let out_w = self.offsets[w as usize]..self.offsets[w as usize + 1];
                    for a_wx in out_w {
                        let (x, e_wx) = arcs[a_wx];
                        let (a_ux, a_vx) = (arc_u[x as usize], arc_v[x as usize]);
                        if a_ux != NONE && a_vx != NONE {
                            f(&K4 {
                                vertices: [u as u32, v, w, x],
                                edges: [
                                    e_uv,
                                    arcs[a_uw as usize].1,
                                    arcs[a_ux as usize].1,
                                    arcs[a_vw as usize].1,
                                    arcs[a_vx as usize].1,
                                    e_wx,
                                ],
                                triangles: [t_vw, t_uw, t_uv[x as usize], t_uv[w as usize]],
                            });
                        }
                        t_uw += (a_ux != NONE) as u32;
                        t_vw += (a_vx != NONE) as u32;
                    }
                }
                for a in out_v {
                    arc_v[arcs[a].0 as usize] = NONE;
                }
            }
            for a in out_u {
                arc_u[arcs[a].0 as usize] = NONE;
            }
        }
    }

    /// Number of K4s containing each triangle of `tris`, the
    /// [`TriangleList`] swept from this orientation, on up to `threads`
    /// worker threads: one [`OrientedAdjacency::for_each_k4_in`] sweep
    /// credits each K4's four triangles, per-worker partials summed.
    pub fn k4_degrees(&self, tris: &TriangleList, threads: usize) -> Vec<u32> {
        let tri_offsets = self.triangle_offsets(tris);
        self.sum_counts(threads, tris.len(), |range, deg| {
            self.for_each_k4_in(range, &tri_offsets, &mut |k4| {
                for &t in &k4.triangles {
                    deg[t as usize] += 1;
                }
            });
        })
    }

    /// Number of K4s containing each edge (the ω₄ degrees peeled by the
    /// (2,4)-nucleus decomposition), indexed by edge id, on up to
    /// `threads` worker threads: the same sweep, over the triangles
    /// `tris` of this orientation, credits each K4's six edges.
    pub fn k4_edge_degrees(&self, tris: &TriangleList, threads: usize) -> Vec<u32> {
        let tri_offsets = self.triangle_offsets(tris);
        self.sum_counts(threads, self.arcs.len(), |range, deg| {
            self.for_each_k4_in(range, &tri_offsets, &mut |k4| {
                for &e in &k4.edges {
                    deg[e as usize] += 1;
                }
            });
        })
    }
}

/// Number of K4s containing each triangle of `tris`
/// (`ω₄(t) = |N(u) ∩ N(v) ∩ N(w)|` for `t = {u, v, w}`). `tris` must be
/// the [`TriangleList`] of `g` (ids in its sweep order).
///
/// A one-line wrapper over [`OrientedAdjacency::k4_degrees`] on one
/// thread, kept with its signature for callers outside this workspace's
/// spaces (the end-to-end benchmark times it).
pub fn k4_degrees(g: &CsrGraph, tris: &TriangleList) -> Vec<u32> {
    crate::parallel::k4_degrees_parallel(g, tris, 1)
}

/// Total number of K4s in `g` (each K4 contains 4 triangles).
pub fn k4_count(g: &CsrGraph, tris: &TriangleList) -> u64 {
    let total: u64 = k4_degrees(g, tris).iter().map(|&d| d as u64).sum();
    debug_assert_eq!(total % 4, 0);
    total / 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclique::{count_cliques, for_each_clique};

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
    fn k4_count_of_k5() {
        let g = complete(5);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_count(&g, &tl), 5); // C(5,4)
        assert_eq!(count_cliques(&g, 4), 5);
        // every triangle of K5 is in exactly 2 K4s
        assert!(k4_degrees(&g, &tl).iter().all(|&d| d == 2));
    }

    #[test]
    fn k4_free_graph() {
        // diamond has triangles but no K4
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_count(&g, &tl), 0);
        assert!(k4_degrees(&g, &tl).iter().all(|&d| d == 0));
    }

    #[test]
    fn k4_edge_degrees_of_k5_and_diamond() {
        let g = complete(5);
        let oriented = OrientedAdjacency::build(&g);
        let tl = TriangleList::from_oriented(&oriented, 1);
        // every edge of K5 is in exactly C(3,2) = 3 K4s
        assert!(oriented.k4_edge_degrees(&tl, 1).iter().all(|&d| d == 3));
        // consistency: Σ_e ω₄(e) = 6 × #K4 (each K4 has 6 edges)
        let sum: u64 = oriented
            .k4_edge_degrees(&tl, 2)
            .iter()
            .map(|&d| d as u64)
            .sum();
        assert_eq!(sum, 6 * count_cliques(&g, 4));

        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let oriented = OrientedAdjacency::build(&g);
        let tl = TriangleList::from_oriented(&oriented, 1);
        assert!(oriented.k4_edge_degrees(&tl, 1).iter().all(|&d| d == 0));
    }

    /// Every K4 of the sweep is a K4 of the brute-force enumerator, once,
    /// and its edge and triangle ids name its own edges and faces.
    #[test]
    fn k4_sweep_reports_each_clique_once_with_its_ids() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let edges: Vec<(u32, u32)> = (0..1200)
            .map(|_| (rng.gen_range(0..60u32), rng.gen_range(0..60u32)))
            .collect();
        for g in [complete(7), CsrGraph::from_edges(60, &edges)] {
            let oriented = OrientedAdjacency::build(&g);
            let tl = TriangleList::build(&g);
            let tri_offsets = oriented.triangle_offsets(&tl);
            assert_eq!(tri_offsets.last().copied(), Some(tl.len() as u32));
            let mut swept = vec![];
            oriented.for_each_k4_in(0..g.n(), &tri_offsets, &mut |k4| {
                let [u, v, w, x] = k4.vertices;
                let pairs = [(u, v), (u, w), (u, x), (v, w), (v, x), (w, x)];
                for (&(a, b), &e) in pairs.iter().zip(&k4.edges) {
                    assert_eq!(g.edge_id(a, b), Some(e));
                }
                for (i, &t) in k4.triangles.iter().enumerate() {
                    let mut face: Vec<u32> =
                        (0..4).filter(|&j| j != i).map(|j| k4.vertices[j]).collect();
                    face.sort_unstable();
                    assert_eq!(tl.vertices[t as usize].to_vec(), face);
                }
                let mut vs = k4.vertices;
                vs.sort_unstable();
                swept.push(vs);
            });
            let mut brute = vec![];
            for_each_clique(&g, 4, |c| brute.push([c[0], c[1], c[2], c[3]]));
            swept.sort_unstable();
            brute.sort_unstable();
            assert_eq!(swept, brute);
        }
    }
}
