//! Work splitting for the scoped-thread (`std::thread::scope`) builders
//! — a first step toward the paper's closing future-work item
//! ("adapting the existing parallel peeling algorithms for the
//! hierarchy computation"). The clique-enumeration half of the peeling
//! phase parallelizes trivially: every counter is an
//! [`OrientedAdjacency`] method with a `threads` argument, and this
//! module holds the [`balanced_ranges`] partitioner and the
//! disjoint-chunk fill helpers they (and the materialized peeling
//! backend in `nucleus-core`) share, plus two graph-level wrappers kept
//! for their callers.

use nucleus_graph::CsrGraph;

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
/// needs in one audited place. A single range is filled inline on the
/// calling thread, whose caches already hold the inputs.
pub fn fill_ranges_scoped<T, L, W>(
    out: &mut [T],
    mut ranges: Vec<std::ops::Range<usize>>,
    chunk_len: L,
    work: W,
) where
    T: Send,
    L: Fn(&std::ops::Range<usize>) -> usize,
    W: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    if ranges.len() == 1 {
        let range = ranges.pop().expect("one range");
        let len = chunk_len(&range);
        return work(range, &mut out[..len]);
    }
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

/// Computes per-edge triangle supports using `threads` worker threads:
/// a one-line wrapper over [`OrientedAdjacency::edge_supports`] on a
/// fresh orientation, kept with its signature for callers that hold
/// only a graph (the end-to-end benchmark times it).
pub fn edge_supports_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    OrientedAdjacency::build(g).edge_supports(threads)
}

/// Computes per-triangle K4 degrees using `threads` worker threads: a
/// one-line wrapper over [`OrientedAdjacency::k4_degrees`] on a fresh
/// orientation, kept with its signature for callers that hold a graph
/// and its [`TriangleList`] (the end-to-end benchmark times it). `tris`
/// must be the triangle list of `g` ([`TriangleList::build`]): the
/// sweep reads its triangle ids off that list.
pub fn k4_degrees_parallel(g: &CsrGraph, tris: &TriangleList, threads: usize) -> Vec<u32> {
    OrientedAdjacency::build(g).k4_degrees(tris, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::four_cliques::k4_degrees;
    use crate::kclique::for_each_clique;
    use crate::triangles::{edge_supports, triangle_count, vertex_triangle_counts};

    fn triangle_count_parallel(g: &CsrGraph, threads: usize) -> u64 {
        OrientedAdjacency::build(g).triangle_count(threads)
    }

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
        let counts =
            |g: &CsrGraph, threads| OrientedAdjacency::build(g).vertex_triangle_counts(threads);
        let g = complete(15);
        let serial = vertex_triangle_counts(&g);
        for threads in [1, 2, 4, 7] {
            assert_eq!(counts(&g, threads), serial);
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
            assert_eq!(counts(&g, threads), serial);
        }

        let g = CsrGraph::from_edges(0, &[]);
        assert!(counts(&g, 4).is_empty());
    }

    /// Per-edge K4 degrees from the K4 sweep equal the count of
    /// brute-force K4s through each edge, at every thread count.
    #[test]
    fn k4_edge_degrees_parallel_matches_serial() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        for g in [complete(12), CsrGraph::from_edges(160, &edges)] {
            let mut oracle = vec![0u32; g.m()];
            for_each_clique(&g, 4, |c| {
                for i in 0..4 {
                    for j in i + 1..4 {
                        oracle[g.edge_id(c[i], c[j]).expect("K4 edge") as usize] += 1;
                    }
                }
            });
            let oriented = OrientedAdjacency::build(&g);
            let tl = TriangleList::from_oriented(&oriented, 1);
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    oriented.k4_edge_degrees(&tl, threads),
                    oracle,
                    "t={threads}"
                );
            }
        }
    }

    /// Per-triangle K4 degrees from the K4 sweep equal the count of
    /// brute-force K4s over each listed triangle, at every thread count.
    #[test]
    fn k4_degrees_parallel_matches_serial() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        for g in [complete(12), CsrGraph::from_edges(160, &edges)] {
            let tl = TriangleList::build(&g);
            let tid: std::collections::HashMap<[u32; 3], usize> = tl
                .vertices
                .iter()
                .enumerate()
                .map(|(t, &vs)| (vs, t))
                .collect();
            let mut oracle = vec![0u32; tl.len()];
            for_each_clique(&g, 4, |c| {
                for skip in 0..4 {
                    let face: Vec<u32> = (0..4).filter(|&i| i != skip).map(|i| c[i]).collect();
                    oracle[tid[&[face[0], face[1], face[2]]]] += 1;
                }
            });
            assert_eq!(k4_degrees(&g, &tl), oracle);
            for threads in [1, 3, 8] {
                assert_eq!(k4_degrees_parallel(&g, &tl, threads), oracle, "t={threads}");
            }
        }

        // no triangles at all
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_degrees_parallel(&g, &tl, 4), Vec::<u32>::new());
    }
}
