//! Parallel triangle counting with `std::thread::scope` — a first step
//! toward the paper's closing future-work item ("adapting the existing
//! parallel peeling algorithms for the hierarchy computation"). The
//! clique-enumeration half of the peeling phase parallelizes trivially;
//! this module provides it without any extra dependency.

use nucleus_graph::CsrGraph;

use crate::four_cliques::{intersect3_sorted, k4_degree_of_edge};
use crate::triangle_index::TriangleIndex;
use crate::triangles::{OrientedAdjacency, TriangleList};

/// Splits `0..weights.len()` into at most `parts` contiguous ranges of
/// approximately equal total weight (`weights[i]` per item). The ranges
/// are disjoint, in order, and cover every index; at most one range is
/// returned for an empty input. Used to hand each worker thread a
/// comparable share of enumeration work.
pub fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let total: usize = weights.iter().sum();
    let per_part = total.div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, w) in weights.iter().enumerate() {
        // Once parts - 1 ranges are cut, everything left is the last one
        // (zero-weight tails used to overflow the cap here).
        if out.len() + 1 == parts {
            break;
        }
        acc += w;
        if acc >= per_part {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < weights.len() || out.is_empty() {
        out.push(start..weights.len());
    }
    debug_assert!(out.len() <= parts);
    out
}

/// Splits `out` into one disjoint chunk per range and runs
/// `work(range, chunk)` on a scoped worker thread per chunk.
///
/// `ranges` must be the contiguous, in-order cover of `0..n` that
/// [`balanced_ranges`] produces, and `chunk_len(&range)` must give each
/// range's share of `out` (the shares must tile `out` front to back).
/// This keeps the `split_at_mut` cursor arithmetic every parallel fill
/// needs in one audited place.
pub fn fill_ranges_scoped<T, L, W>(
    out: &mut [T],
    ranges: Vec<std::ops::Range<usize>>,
    chunk_len: L,
    work: W,
) where
    T: Send,
    L: Fn(&std::ops::Range<usize>) -> usize,
    W: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    std::thread::scope(|scope| {
        let mut rest: &mut [T] = out;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(chunk_len(&range));
            rest = tail;
            let work = &work;
            scope.spawn(move || work(range, chunk));
        }
    });
}

/// [`fill_ranges_scoped`] over **two** output buffers filled in
/// lockstep: splits `out_a` and `out_b` into one disjoint chunk pair per
/// range (`chunk_lens[i]` elements each, so the chunks must tile both
/// buffers front to back) and runs `work(range, chunk_a, chunk_b)` on a
/// scoped worker thread per pair. Used by builders that emit two
/// parallel arrays per item, like [`TriangleList::build_with_threads`].
pub fn fill_ranges_pair_scoped<A, B, W>(
    out_a: &mut [A],
    out_b: &mut [B],
    ranges: Vec<std::ops::Range<usize>>,
    chunk_lens: &[usize],
    work: W,
) where
    A: Send,
    B: Send,
    W: Fn(std::ops::Range<usize>, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(ranges.len(), chunk_lens.len(), "one chunk size per range");
    std::thread::scope(|scope| {
        let mut rest_a: &mut [A] = out_a;
        let mut rest_b: &mut [B] = out_b;
        for (range, &len) in ranges.into_iter().zip(chunk_lens) {
            let (chunk_a, tail_a) = rest_a.split_at_mut(len);
            let (chunk_b, tail_b) = rest_b.split_at_mut(len);
            rest_a = tail_a;
            rest_b = tail_b;
            let work = &work;
            scope.spawn(move || work(range, chunk_a, chunk_b));
        }
    });
}

/// Counts triangles using `threads` worker threads.
pub fn triangle_count_parallel(g: &CsrGraph, threads: usize) -> u64 {
    let oriented = OrientedAdjacency::build(g);
    let ranges = balanced_ranges(&oriented.sweep_weights(), threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for range in ranges {
            let oriented = &oriented;
            handles.push(scope.spawn(move || {
                let mut count = 0u64;
                oriented.for_each_triangle_in(range, &mut |_, _, _, _, _, _| count += 1);
                count
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

/// Computes per-edge triangle supports using `threads` worker threads
/// ([`OrientedAdjacency::edge_supports`] over a fresh orientation).
pub fn edge_supports_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    OrientedAdjacency::build(g).edge_supports(threads)
}

/// Computes per-triangle K4 degrees using `threads` worker threads —
/// the parallel twin of [`crate::four_cliques::k4_degrees`], behind the
/// same thread-count knob as [`triangle_count_parallel`]. Triangles are
/// independent, so each worker fills a disjoint slice of the output;
/// ranges are balanced by the triangles' total endpoint degree (the
/// three-way intersection cost).
pub fn k4_degrees_parallel(g: &CsrGraph, tris: &TriangleList, threads: usize) -> Vec<u32> {
    let n = tris.len();
    let mut deg = vec![0u32; n];
    let weights: Vec<usize> = tris
        .vertices
        .iter()
        .map(|&[u, v, w]| g.degree(u) + g.degree(v) + g.degree(w) + 1)
        .collect();
    let ranges = balanced_ranges(&weights, threads);
    fill_ranges_scoped(
        &mut deg,
        ranges,
        |range| range.len(),
        |range, chunk| {
            for (slot, &[u, v, w]) in chunk.iter_mut().zip(&tris.vertices[range]) {
                let mut c = 0u32;
                intersect3_sorted(g.neighbors(u), g.neighbors(v), g.neighbors(w), |_| c += 1);
                *slot = c;
            }
        },
    );
    deg
}

/// Computes per-vertex triangle counts using `threads` worker threads —
/// the parallel twin of [`crate::triangles::vertex_triangle_counts`].
/// Same private-partials-then-sum scheme as [`edge_supports_parallel`].
pub fn vertex_triangle_counts_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    let oriented = OrientedAdjacency::build(g);
    let ranges = balanced_ranges(&oriented.sweep_weights(), threads);
    let n = g.n();
    let partials: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let oriented = &oriented;
                scope.spawn(move || {
                    let mut deg = vec![0u32; n];
                    oriented.for_each_triangle_in(range, &mut |a, b, c, _, _, _| {
                        deg[a as usize] += 1;
                        deg[b as usize] += 1;
                        deg[c as usize] += 1;
                    });
                    deg
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut total = vec![0u32; n];
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// Computes per-edge K4 degrees using `threads` worker threads — the
/// parallel twin of [`crate::four_cliques::k4_edge_degrees`]. Edges are
/// independent given the [`TriangleIndex`], so each worker fills a
/// disjoint slice; ranges are balanced by the quadratic pair-scan cost
/// over each edge's third-vertex list.
pub fn k4_edge_degrees_parallel(g: &CsrGraph, index: &TriangleIndex, threads: usize) -> Vec<u32> {
    let m = g.m();
    let mut deg = vec![0u32; m];
    let weights: Vec<usize> = (0..m as u32)
        .map(|e| {
            let t = index.thirds(e).len();
            t * t + 1
        })
        .collect();
    let ranges = balanced_ranges(&weights, threads);
    fill_ranges_scoped(
        &mut deg,
        ranges,
        |range| range.len(),
        |range, chunk| {
            for (slot, e) in chunk.iter_mut().zip(range) {
                *slot = k4_degree_of_edge(g, index.thirds(e as u32));
            }
        },
    );
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::four_cliques::{k4_degrees, k4_edge_degrees};
    use crate::triangles::{edge_supports, triangle_count, vertex_triangle_counts};

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
    fn matches_serial_on_clique() {
        let g = complete(20);
        for threads in [1, 2, 4, 7] {
            assert_eq!(triangle_count_parallel(&g, threads), triangle_count(&g));
            assert_eq!(edge_supports_parallel(&g, threads), edge_supports(&g));
        }
    }

    #[test]
    fn matches_serial_on_random_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let edges: Vec<(u32, u32)> = (0..2000)
            .map(|_| (rng.gen_range(0..300u32), rng.gen_range(0..300u32)))
            .collect();
        let g = CsrGraph::from_edges(300, &edges);
        assert_eq!(triangle_count_parallel(&g, 4), triangle_count(&g));
        assert_eq!(edge_supports_parallel(&g, 4), edge_supports(&g));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(triangle_count_parallel(&g, 4), 0);
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(triangle_count_parallel(&g, 4), 0);
        assert_eq!(edge_supports_parallel(&g, 4), vec![0]);
    }

    /// Asserts the ranges are disjoint, ordered, cover `len` items, and
    /// respect the `parts` cap.
    fn check_cover(ranges: &[std::ops::Range<usize>], len: usize, parts: usize) {
        assert!(ranges.len() <= parts.max(1), "{ranges:?} exceeds {parts}");
        let mut covered = vec![false; len];
        for r in ranges {
            for i in r.clone() {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gap in {ranges:?}");
    }

    #[test]
    fn balanced_ranges_cover_everything() {
        let w = vec![5, 1, 1, 1, 10, 1, 1];
        for parts in 1..=8 {
            check_cover(&balanced_ranges(&w, parts), w.len(), parts);
        }
        // degenerate cases
        assert_eq!(balanced_ranges(&[], 3).len(), 1);
        assert_eq!(balanced_ranges(&[1], 1), vec![0..1]);
    }

    #[test]
    fn balanced_ranges_never_exceed_parts() {
        // A zero-weight tail used to produce parts + 1 ranges: the loop
        // consumed all the weight early and the leftover indices became
        // an extra range.
        let ranges = balanced_ranges(&[1, 0], 1);
        assert_eq!(ranges, vec![0..2]);
        let ranges = balanced_ranges(&[3, 3, 0, 0, 0], 2);
        check_cover(&ranges, 5, 2);
        // heavy head + zero tail at several part counts
        let w = vec![9, 9, 9, 0, 0, 0, 0];
        for parts in 1..=10 {
            check_cover(&balanced_ranges(&w, parts), w.len(), parts);
        }
    }

    #[test]
    fn balanced_ranges_all_zero_weights() {
        let w = vec![0usize; 6];
        for parts in [1, 2, 3, 7] {
            let ranges = balanced_ranges(&w, parts);
            check_cover(&ranges, w.len(), parts);
        }
    }

    #[test]
    fn balanced_ranges_more_parts_than_items() {
        let w = vec![2, 1];
        for parts in [3, 5, 100] {
            let ranges = balanced_ranges(&w, parts);
            check_cover(&ranges, w.len(), parts);
            // no empty ranges are handed to workers
            assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
        }
        // parts = 0 is clamped to 1
        assert_eq!(balanced_ranges(&w, 0), vec![0..2]);
    }

    #[test]
    fn vertex_triangle_counts_parallel_matches_serial() {
        let g = complete(15);
        let serial = vertex_triangle_counts(&g);
        for threads in [1, 2, 4, 7] {
            assert_eq!(vertex_triangle_counts_parallel(&g, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let edges: Vec<(u32, u32)> = (0..2000)
            .map(|_| (rng.gen_range(0..300u32), rng.gen_range(0..300u32)))
            .collect();
        let g = CsrGraph::from_edges(300, &edges);
        let serial = vertex_triangle_counts(&g);
        for threads in [2, 3, 8] {
            assert_eq!(vertex_triangle_counts_parallel(&g, threads), serial);
        }

        let g = CsrGraph::from_edges(0, &[]);
        assert!(vertex_triangle_counts_parallel(&g, 4).is_empty());
    }

    #[test]
    fn k4_edge_degrees_parallel_matches_serial() {
        let g = complete(12);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let serial = k4_edge_degrees(&g, &idx);
        for threads in [1, 2, 4, 7] {
            assert_eq!(k4_edge_degrees_parallel(&g, &idx, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        let g = CsrGraph::from_edges(160, &edges);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let serial = k4_edge_degrees(&g, &idx);
        for threads in [2, 3, 8] {
            assert_eq!(k4_edge_degrees_parallel(&g, &idx, threads), serial);
        }
    }

    #[test]
    fn k4_degrees_parallel_matches_serial() {
        let g = complete(12);
        let tl = TriangleList::build(&g);
        let serial = k4_degrees(&g, &tl);
        for threads in [1, 2, 4, 7] {
            assert_eq!(k4_degrees_parallel(&g, &tl, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        let g = CsrGraph::from_edges(160, &edges);
        let tl = TriangleList::build(&g);
        let serial = k4_degrees(&g, &tl);
        for threads in [1, 3, 8] {
            assert_eq!(k4_degrees_parallel(&g, &tl, threads), serial);
        }

        // no triangles at all
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_degrees_parallel(&g, &tl, 4), Vec::<u32>::new());
    }
}
