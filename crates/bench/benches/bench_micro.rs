//! Micro-benchmarks + design ablations:
//! * peeling throughput per space (the `Set-λ` kernel);
//! * triangle enumeration;
//! * bucket queue vs `BinaryHeap` for peeling — the justification for
//!   the Batagelj–Zaversnik layout;
//! * LCPS's max-bucket vs a `BinaryHeap` priority queue — §5.1's
//!   "difficulty of maintaining an appropriate priority queue".

use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_bench::load;
use nucleus_cliques::triangles::{triangle_count, OrientedAdjacency};
use nucleus_core::prelude::*;
use nucleus_gen::Scale;
use nucleus_graph::bucket::PeelBuckets;
use nucleus_graph::CsrGraph;

/// Reference peeling with a lazy-deletion BinaryHeap instead of buckets.
fn heap_core_peel(g: &CsrGraph) -> u32 {
    let n = g.n();
    let mut deg: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = (0..n as u32)
        .map(|v| std::cmp::Reverse((deg[v as usize], v)))
        .collect();
    let mut done = vec![false; n];
    let mut maxk = 0u32;
    let mut k = 0u32;
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if done[v as usize] || d != deg[v as usize] {
            continue; // stale entry
        }
        done[v as usize] = true;
        k = k.max(d);
        maxk = maxk.max(k);
        for &w in g.neighbors(v) {
            if !done[w as usize] && deg[w as usize] > k {
                deg[w as usize] -= 1;
                heap.push(std::cmp::Reverse((deg[w as usize], w)));
            }
        }
    }
    maxk
}

/// Bucket-based core peeling (the production kernel, inlined here so the
/// two variants are measured on identical terms).
fn bucket_core_peel(g: &CsrGraph) -> u32 {
    let degs: Vec<u32> = (0..g.n() as u32).map(|v| g.degree(v) as u32).collect();
    let mut q = PeelBuckets::new(degs);
    let mut maxk = 0;
    while let Some((v, k)) = q.pop_min() {
        maxk = maxk.max(k);
        for &w in g.neighbors(v) {
            if !q.is_popped(w) && q.key(w) > k {
                q.decrement(w);
            }
        }
    }
    maxk
}

fn bench_micro(c: &mut Criterion) {
    let g = load("stanford3-s", Scale::Medium);

    let mut group = c.benchmark_group("micro");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("peel/(1,2)", |b| {
        b.iter(|| peel(&VertexSpace::new(&g)).max_lambda);
    });
    group.bench_function("peel/(2,3)", |b| {
        b.iter(|| peel(&EdgeSpace::new(&g)).max_lambda);
    });
    group.bench_function("triangles/enumerate", |b| {
        b.iter(|| triangle_count(&g));
    });

    // ablation: bucket queue vs binary heap for identical peeling work
    group.bench_with_input(BenchmarkId::new("ablation", "bucket-peel"), &g, |b, g| {
        b.iter(|| bucket_core_peel(g));
    });
    group.bench_with_input(BenchmarkId::new("ablation", "heap-peel"), &g, |b, g| {
        b.iter(|| heap_core_peel(g));
    });
    // both must agree before we trust the comparison
    assert_eq!(bucket_core_peel(&g), heap_core_peel(&g));

    // ablation: FND ADJ raw push vs dedup-last (paper pushes raw)
    group.bench_with_input(BenchmarkId::new("ablation", "fnd-adj-raw"), &g, |b, g| {
        b.iter(|| {
            let es = EdgeSpace::new(g);
            fnd_with_options(
                &es,
                FndOptions {
                    dedup_adjacent: false,
                },
            )
            .stats
            .adj_connections
        });
    });
    group.bench_with_input(BenchmarkId::new("ablation", "fnd-adj-dedup"), &g, |b, g| {
        b.iter(|| {
            let es = EdgeSpace::new(g);
            fnd_with_options(
                &es,
                FndOptions {
                    dedup_adjacent: true,
                },
            )
            .stats
            .adj_connections
        });
    });

    // parallel triangle counting (future-work §6 substrate), the
    // orientation included
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("triangles/parallel", threads),
            &g,
            |b, g| {
                b.iter(|| OrientedAdjacency::build(g).triangle_count(threads));
            },
        );
    }
    assert_eq!(
        OrientedAdjacency::build(&g).triangle_count(4),
        triangle_count(&g)
    );

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
