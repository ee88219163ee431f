//! Phase split across the whole pipeline: the prepare phase (clique
//! enumeration, index build, ω degrees), the peel, and the two
//! post-peel passes (DFT traversal, FND hierarchy assembly) — so both
//! the paper's "FND total ≈ DFT peeling" claim (Figure 6) and this
//! repo's parallel-prepare work are directly measurable.
//!
//! Per input and space, the rows are:
//!
//! * `enumerate-serial/-tN` — the enumeration kernel feeding ω degrees:
//!   `edge_supports` for (2,3), `TriangleList::build` for (3,4)
//!   (`-tN` is the bit-identical two-pass parallel twin);
//! * `index-build-serial/-tN` — the session's [`ContainerIndex`] over
//!   ω already in hand. For (2,3), the oriented triangle sweep, its
//!   orientation included (a session shares that orientation with the
//!   support count, so `prepare-total` pays for it once). For (3,4),
//!   the oriented K4 sweep into lists and their scatter (the space
//!   keeps its orientation); a session runs the counting-only sweep of
//!   the `degrees-*` rows first, so it can refuse the index before any
//!   list exists;
//! * `triangle-index-serial/-tN` ((3,4) only) — the edge→thirds
//!   [`TriangleIndex`] over a pre-built triangle list, which only lazy
//!   (3,4) runs consult;
//! * `degrees-serial/-tN` ((3,4) only) — per-triangle K4 degrees alone
//!   (the counting-only K4 sweep, its orientation included);
//! * `peel-only`, `dft-post-only`, `fnd-total` — the historical
//!   Figure 6 rows, unchanged in meaning;
//! * `hierarchy-assembly-serial/-tN` — `BuildHierarchy` (Alg. 9) alone,
//!   over a pre-classified FND run (`fnd_classify`). Each iteration
//!   clones the skeleton inside the timer (the shim has no
//!   `iter_batched`); the clone cost is identical in both rows, so the
//!   serial/parallel *difference* is the assembly pass itself. The `-tN`
//!   row forces the worker path (`min_parallel_work = 0`);
//! * `prepare-total-t1/-tN` — the whole session prepare
//!   (`Nucleus::builder(..).threads(t).prepare()`), the end-to-end
//!   number users see.
//!
//! On a single-core host `-tN` still spawns 2 workers, so the committed
//! JSONs from the build container honestly record spawn overhead as
//! pure loss — same convention as `bench_peel_engine`. JSON results
//! land in `results/BENCH_phases_*.json`.
//!
//! `NUCLEUS_BENCH_SMOKE=1` shrinks the inputs and sampling so CI can
//! assert the bench target runs end to end and emits its JSON.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nucleus_cliques::parallel::edge_supports_parallel;
use nucleus_cliques::triangles::edge_supports;
use nucleus_cliques::{k4_degrees_parallel, TriangleIndex, TriangleList};
use nucleus_core::algo::dft::dft;
use nucleus_core::algo::fnd::{build_hierarchy, fnd, fnd_classify};
use nucleus_core::prelude::*;
use nucleus_core::space::{ContainerIndex, IndexedSpace};
use nucleus_graph::CsrGraph;

fn smoke() -> bool {
    std::env::var("NUCLEUS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Same generated models as `bench_peel_engine`, so prepare rows stay
/// comparable with the peel rows measured there.
fn inputs() -> Vec<(&'static str, CsrGraph)> {
    if smoke() {
        return vec![("ba-n2000", nucleus_gen::ba::barabasi_albert(2_000, 4, 7))];
    }
    vec![
        (
            "rmat-s11",
            nucleus_gen::rmat::rmat(11, 8, nucleus_gen::rmat::RmatParams::skewed(), 7),
        ),
        ("ba-n20000", nucleus_gen::ba::barabasi_albert(20_000, 6, 7)),
        (
            "ba-n200000-m3",
            nucleus_gen::ba::barabasi_albert(200_000, 3, 7),
        ),
    ]
}

fn all_threads() -> usize {
    // On a single-core host still bench 2 workers so the committed
    // JSONs record the spawn path's overhead honestly.
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2)
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    if smoke() {
        group.measurement_time(std::time::Duration::from_millis(200));
        group.warm_up_time(std::time::Duration::from_millis(20));
    } else {
        group.measurement_time(std::time::Duration::from_secs(2));
        group.warm_up_time(std::time::Duration::from_millis(200));
    }
}

/// The assembly-only rows, shared between the two spaces: classify once
/// outside the timer, then re-run `BuildHierarchy` per iteration on a
/// fresh clone of the skeleton.
fn bench_assembly<S: nucleus_core::space::PeelSpace + Sync>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    space: &S,
) {
    let tn = all_threads();
    let index = ContainerIndex::build(space, tn);
    let mat = IndexedSpace::new(space, &index);
    let classified = fnd_classify(&mat, FndOptions::default(), FrontierOptions::default());
    let max_lambda = classified.peeling.max_lambda;
    group.bench_with_input(
        BenchmarkId::new("hierarchy-assembly-serial", name),
        &classified,
        |b, cl| {
            b.iter(|| {
                let mut sk = cl.skeleton.clone();
                build_hierarchy(&mut sk, &cl.adj, max_lambda, 1, usize::MAX);
                sk.len()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("hierarchy-assembly-t{tn}"), name),
        &classified,
        |b, cl| {
            b.iter(|| {
                let mut sk = cl.skeleton.clone();
                build_hierarchy(&mut sk, &cl.adj, max_lambda, tn, 0);
                sk.len()
            });
        },
    );
}

/// The session-prepare rows: everything between the input graph and a
/// runnable `Prepared` (space build, enumeration, ω degrees, backend
/// resolution, index materialization).
fn bench_prepare_total(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    g: &CsrGraph,
    kind: Kind,
) {
    let tn = all_threads();
    for threads in [1usize, tn] {
        let label = format!("prepare-total-t{threads}");
        group.bench_with_input(BenchmarkId::new(label, name), g, |b, g| {
            b.iter(|| {
                Nucleus::builder(g)
                    .kind(kind)
                    .threads(threads)
                    .prepare()
                    .expect("prepare")
                    .cells()
            });
        });
    }
}

fn bench_phases_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases_truss");
    configure(&mut group);
    let tn = all_threads();
    for (name, g) in &inputs() {
        // Prepare phase: the (2,3) enumeration kernel is the support
        // count (ω degrees) itself.
        group.bench_with_input(BenchmarkId::new("enumerate-serial", name), g, |b, g| {
            b.iter(|| edge_supports(g).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("enumerate-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| edge_supports_parallel(g, tn).len());
            },
        );
        let es = EdgeSpace::new(g);
        es.degrees();
        group.bench_with_input(BenchmarkId::new("index-build-serial", name), g, |b, _| {
            b.iter(|| ContainerIndex::build(&es, 1).container_count());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("index-build-t{tn}"), name),
            g,
            |b, _| {
                b.iter(|| ContainerIndex::build(&es, tn).container_count());
            },
        );
        // Figure 6 rows: peel alone, DFT post alone, FND end-to-end.
        group.bench_with_input(BenchmarkId::new("peel-only", name), g, |b, g| {
            b.iter(|| {
                let es = EdgeSpace::new(g);
                peel(&es).max_lambda
            });
        });
        let p = peel(&es);
        group.bench_with_input(BenchmarkId::new("dft-post-only", name), g, |b, _| {
            b.iter(|| dft(&es, &p).0.nucleus_count());
        });
        group.bench_with_input(BenchmarkId::new("fnd-total", name), g, |b, g| {
            b.iter(|| {
                let es = EdgeSpace::new(g);
                fnd(&es).hierarchy.nucleus_count()
            });
        });
        bench_assembly(&mut group, name, &es);
        bench_prepare_total(&mut group, name, g, Kind::Truss);
    }
    group.finish();
}

fn bench_phases_nucleus34(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases_nucleus34");
    configure(&mut group);
    let tn = all_threads();
    for (name, g) in &inputs() {
        // Prepare phase: triangle enumeration (the cells), then the K4
        // sweep behind both ω and the session's index; the edge→thirds
        // index serves lazy runs only.
        group.bench_with_input(BenchmarkId::new("enumerate-serial", name), g, |b, g| {
            b.iter(|| TriangleList::build(g).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("enumerate-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| TriangleList::build_with_threads(g, tn).len());
            },
        );
        let ts = TriangleSpace::new(g);
        ts.degrees();
        group.bench_with_input(BenchmarkId::new("index-build-serial", name), g, |b, _| {
            b.iter(|| ContainerIndex::build(&ts, 1).container_count());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("index-build-t{tn}"), name),
            g,
            |b, _| {
                b.iter(|| ContainerIndex::build(&ts, tn).container_count());
            },
        );
        let tris = TriangleList::build(g);
        group.bench_with_input(
            BenchmarkId::new("triangle-index-serial", name),
            g,
            |b, g| {
                b.iter(|| TriangleIndex::build(g, &tris).incidence_count());
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("triangle-index-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| TriangleIndex::build_with_threads(g, &tris, tn).incidence_count());
            },
        );
        group.bench_with_input(BenchmarkId::new("degrees-serial", name), g, |b, g| {
            b.iter(|| nucleus_cliques::four_cliques::k4_degrees(g, &tris).len());
        });
        group.bench_with_input(
            BenchmarkId::new(format!("degrees-t{tn}"), name),
            g,
            |b, g| {
                b.iter(|| k4_degrees_parallel(g, &tris, tn).len());
            },
        );
        // Figure 6 rows.
        group.bench_with_input(BenchmarkId::new("peel-only", name), g, |b, g| {
            b.iter(|| {
                let ts = TriangleSpace::new(g);
                peel(&ts).max_lambda
            });
        });
        let p = peel(&ts);
        group.bench_with_input(BenchmarkId::new("dft-post-only", name), g, |b, _| {
            b.iter(|| dft(&ts, &p).0.nucleus_count());
        });
        group.bench_with_input(BenchmarkId::new("fnd-total", name), g, |b, g| {
            b.iter(|| {
                let ts = TriangleSpace::new(g);
                fnd(&ts).hierarchy.nucleus_count()
            });
        });
        bench_assembly(&mut group, name, &ts);
        bench_prepare_total(&mut group, name, g, Kind::Nucleus34);
    }
    group.finish();
}

criterion_group!(benches, bench_phases_truss, bench_phases_nucleus34);
criterion_main!(benches);
