//! Property tests: all hierarchy algorithms agree with each other, with
//! the brute-force definitions, and with the paper's invariants — on
//! arbitrary random graphs.

use proptest::prelude::*;

use nucleus_core::algo::dft::dft;
use nucleus_core::algo::fnd::{fnd, fnd_parallel_with, FndOptions};
use nucleus_core::algo::lcps::lcps;
use nucleus_core::algo::naive::naive;
use nucleus_core::algo::tcp::{tcp_query, TcpIndex};
use nucleus_core::decompose::{hypo_baseline, Algorithm, Backend, Kind};
use nucleus_core::peel::{peel, peel_reference, peel_with_sink, FrontierOptions, PlainSink};
use nucleus_core::persist::PreparedIndex;
use nucleus_core::session::Nucleus;
use nucleus_core::space::{
    ContainerIndex, EdgeK4Space, EdgeSpace, IndexedSpace, PeelBackend, PeelSpace, TriangleSpace,
    VertexSpace, VertexTriangleSpace,
};
use nucleus_core::validate::check_semantics;
use nucleus_graph::CsrGraph;

/// Pins every parallel prepare-phase builder to its serial twin,
/// bit-for-bit, at 1, 2 and 8 worker threads:
///
/// * triangle enumeration ([`TriangleList::build_with_threads`]) and the
///   edge→thirds index ([`TriangleIndex::build_with_threads`]) — the
///   shared substrate of the (1,3), (2,3), (2,4) and (3,4) spaces;
/// * the per-family ω-degree kernels (edge supports, per-vertex triangle
///   counts, per-edge K4 degrees from the K4 sweep) that feed the
///   peeling engines — the per-edge K4 degrees also against the
///   brute-force `kclique` enumerator;
/// * the whole prepared pipeline: `prepare` → FND at every thread count
///   must produce identical λ and an identical hierarchy for all five
///   kinds, and an identical order at 2 and 8 threads, where the session
///   runs the thread-count-invariant frontier engine (one thread peels
///   serially; `check_engine_equivalence` pins the frontier engine at
///   one thread and forces the parallel `build_hierarchy` path via
///   `min_parallel_work: 0`).
fn check_prepare_equivalence(g: &CsrGraph) {
    use nucleus_cliques::kclique::for_each_clique;
    use nucleus_cliques::triangles::{edge_supports, OrientedAdjacency};
    use nucleus_cliques::{vertex_triangle_counts, TriangleIndex, TriangleList};
    let tris = TriangleList::build(g);
    let index = TriangleIndex::build(g, &tris);
    let vtc = vertex_triangle_counts(g);
    let supports = edge_supports(g);
    let mut k4d = vec![0u32; g.m()];
    for_each_clique(g, 4, |c| {
        for i in 0..4 {
            for j in i + 1..4 {
                k4d[g.edge_id(c[i], c[j]).expect("K4 edge") as usize] += 1;
            }
        }
    });
    let oriented = OrientedAdjacency::build(g);
    let oriented_tris = TriangleList::from_oriented(&oriented, 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            tris,
            TriangleList::build_with_threads(g, threads),
            "TriangleList at t={threads}"
        );
        assert_eq!(
            index,
            TriangleIndex::build_with_threads(g, &tris, threads),
            "TriangleIndex at t={threads}"
        );
        assert_eq!(
            k4d,
            oriented.k4_edge_degrees(&oriented_tris, threads),
            "K4 edge degrees at t={threads}"
        );
        if threads > 1 {
            assert_eq!(
                vtc,
                oriented.vertex_triangle_counts(threads),
                "vertex triangle counts at t={threads}"
            );
            assert_eq!(
                supports,
                nucleus_cliques::parallel::edge_supports_parallel(g, threads),
                "edge supports at t={threads}"
            );
        }
    }
    for kind in Kind::all() {
        let run = |threads| {
            Nucleus::builder(g)
                .kind(kind)
                .threads(threads)
                .prepare()
                .unwrap_or_else(|e| panic!("prepare {kind} t={threads}: {e}"))
                .run(Algorithm::Fnd)
                .expect("FND")
        };
        let serial = run(1);
        let frontier = run(2);
        for (threads, out) in [(2usize, &frontier), (8, &run(8))] {
            let label = format!("{kind} t={threads}");
            assert_eq!(serial.peeling.lambda, out.peeling.lambda, "λ at {label}");
            assert_eq!(serial.hierarchy, out.hierarchy, "hierarchy at {label}");
            assert_eq!(
                frontier.peeling.order, out.peeling.order,
                "order at {label}"
            );
        }
    }
}

/// Pins the index a space builds from one whole-graph sweep
/// ([`ContainerIndex::build`]) to the per-cell fill of its lazy
/// enumeration ([`ContainerIndex::build_per_cell`]): same ω, same
/// records in the same order for every cell, and the same persisted
/// bytes, at 1, 2 and 8 worker threads — both on a fresh space, whose
/// first build also counts ω, and on one whose ω is already counted.
/// Returns ω.
fn check_index_sweep<S: PeelSpace + Sync>(g: &CsrGraph, space: impl Fn(usize) -> S) -> Vec<u32> {
    use nucleus_graph::persist_io::graph_fingerprint;
    let records = |index: &ContainerIndex| -> Vec<Vec<Vec<u32>>> {
        (0..index.cell_count() as u32)
            .map(|cell| {
                let mut recs = vec![];
                index.for_each_container(cell, |r| recs.push(r.to_vec()));
                recs
            })
            .collect()
    };
    let lazy = space(1);
    let bytes = |index: &ContainerIndex| {
        let mut out = vec![];
        index
            .write_to(&mut out, lazy.r(), lazy.s(), graph_fingerprint(g))
            .expect("encode");
        out
    };
    let per_cell = ContainerIndex::build_per_cell(&lazy, lazy.degrees(), 1);
    let (expect_records, expect_bytes) = (records(&per_cell), bytes(&per_cell));
    for threads in [1usize, 2, 8] {
        let space = space(threads);
        let first = ContainerIndex::build(&space, threads);
        let again = ContainerIndex::build(&space, threads);
        for (how, swept) in [("first build", &first), ("ω counted before", &again)] {
            let label = format!("{} t={threads}, {how}", lazy.name());
            assert_eq!(swept.counts(), per_cell.counts(), "ω at {label}");
            assert_eq!(records(swept), expect_records, "records at {label}");
            assert_eq!(bytes(swept), expect_bytes, "bytes at {label}");
        }
    }
    per_cell.counts()
}

/// The (2,3) index from one oriented triangle sweep: the first build
/// reuses the orientation of the support count, the second orients
/// anew.
fn check_truss_index_sweep(g: &CsrGraph) {
    check_index_sweep(g, |threads| EdgeSpace::with_threads(g, threads));
}

/// The (3,4) index from one oriented K4 sweep: the first build counts
/// ω on the way, the second finds it counted. ω must also equal
/// the K4 degrees by their definition, `|N(u) ∩ N(v) ∩ N(w)|` for
/// triangle `{u, v, w}`.
fn check_nucleus34_index_sweep(g: &CsrGraph) {
    let omega = check_index_sweep(g, |threads| TriangleSpace::with_threads(g, threads));
    let adjacent = |a: u32, b: u32| g.edge_id(a, b).is_some();
    let by_definition: Vec<u32> = nucleus_cliques::TriangleList::build(g)
        .vertices
        .iter()
        .map(|&[u, v, w]| {
            let common = g
                .neighbors(u)
                .iter()
                .filter(|&&x| adjacent(v, x) && adjacent(w, x));
            common.count() as u32
        })
        .collect();
    assert_eq!(omega, by_definition, "ω against the definition");
}

/// The swept truss index on the degenerate shapes: no vertices, no
/// edges, a triangle-free star, and cliques where every edge carries
/// `n − 2` records.
#[test]
fn prepare_equivalence_truss_index_sweep_shapes() {
    let star: Vec<(u32, u32)> = (1..12).map(|v| (0, v)).collect();
    let clique = |n: u32| {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        CsrGraph::from_edges(n as usize, &edges)
    };
    for g in [
        CsrGraph::from_edges(0, &[]),
        CsrGraph::from_edges(5, &[]),
        CsrGraph::from_edges(12, &star),
        clique(3),
        clique(7),
        clique(16),
    ] {
        check_truss_index_sweep(&g);
    }
}

/// The swept (3,4) index on the degenerate shapes: no vertices, no
/// edges, a star, a diamond (triangles but no K4), cliques where every
/// triangle carries `n − 3` records, and two K5s sharing a triangle.
#[test]
fn prepare_equivalence_nucleus34_index_sweep_shapes() {
    let star: Vec<(u32, u32)> = (1..12).map(|v| (0, v)).collect();
    let clique_on = |vs: &[u32]| -> Vec<(u32, u32)> {
        vs.iter()
            .enumerate()
            .flat_map(|(i, &u)| vs[i + 1..].iter().map(move |&v| (u, v)))
            .collect()
    };
    let clique = |n: u32| {
        let vs: Vec<u32> = (0..n).collect();
        CsrGraph::from_edges(n as usize, &clique_on(&vs))
    };
    let mut twin_k5 = clique_on(&[0, 1, 2, 3, 4]);
    twin_k5.extend(clique_on(&[0, 1, 2, 5, 6]));
    for g in [
        CsrGraph::from_edges(0, &[]),
        CsrGraph::from_edges(5, &[]),
        CsrGraph::from_edges(12, &star),
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        clique(4),
        clique(5),
        clique(7),
        CsrGraph::from_edges(7, &twin_k5),
    ] {
        check_nucleus34_index_sweep(&g);
    }
}

/// Random graph strategy: up to `n_max` vertices, arbitrary edge subset.
fn graph_strategy(n_max: u32, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=m_max)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
    })
}

fn check_space_agreement<S: PeelSpace>(space: &S) {
    let p = peel(space);
    // 1. peeling matches the literal definition
    assert_eq!(p.lambda, peel_reference(space), "λ vs brute force");
    // 2. all algorithms produce the identical canonical hierarchy
    let h_naive = naive(space, &p);
    let (h_dft, _) = dft(space, &p);
    let out = fnd(space);
    assert_eq!(out.peeling.lambda, p.lambda, "FND λ");
    assert_eq!(h_naive, h_dft, "naive vs dft");
    assert_eq!(h_dft, out.hierarchy, "dft vs fnd");
    // 3. structural + semantic invariants
    h_dft.validate().expect("structural");
    check_semantics(space, &h_dft).expect("semantic");
}

/// Pins the materialized backend to the lazy one: identical ω degrees,
/// identical peeling (λ **and** processing order — the flat index must
/// replay the lazy enumeration order exactly), and identical FND
/// hierarchies, for any space.
fn check_backend_equivalence<S: PeelSpace + Sync>(space: &S) {
    for threads in [1, 3] {
        let index = ContainerIndex::build(space, threads);
        let mat = IndexedSpace::new(space, &index);
        assert_eq!(space.degrees(), mat.degrees(), "ω degrees");
        let lazy_peel = peel(space);
        let mat_peel = peel(&mat);
        assert_eq!(lazy_peel.lambda, mat_peel.lambda, "λ");
        assert_eq!(lazy_peel.order, mat_peel.order, "peeling order");
        let lazy_fnd = fnd(space);
        let mat_fnd = fnd(&mat);
        assert_eq!(lazy_fnd.hierarchy, mat_fnd.hierarchy, "FND hierarchy");
        check_semantics(&mat, &mat_fnd.hierarchy).expect("materialized semantics");
    }
}

/// Pins the frontier-parallel engine to the serial one on any space, at
/// 1, 2 and 8 threads with the spawn path forced (`min_parallel_work:
/// 0`) and with level drains both never taken (`1`) and aggressive
/// (`3` — most rounds on these small graphs fall below it), checking
/// everything downstream consumers rely on: identical λ, a λ-monotone
/// permutation order that is identical across thread counts, and
/// identical DFT *and* parallel-FND hierarchies built on top.
fn check_engine_equivalence<S: PeelSpace + Sync>(space: &S) {
    let serial = peel(space);
    let index = ContainerIndex::build(space, 2);
    let mat = IndexedSpace::new(space, &index);
    // thread-count-invariant references, computed once
    let (h_serial, _) = dft(&mat, &serial);
    let h_fnd = fnd(space).hierarchy;
    for serial_round_threshold in [1usize, 3] {
        let mut orders: Vec<Vec<u32>> = vec![];
        for threads in [1usize, 2, 8] {
            let options = FrontierOptions {
                threads,
                min_parallel_work: 0,
                serial_round_threshold,
            };
            let label = format!("{threads} threads, drain below {serial_round_threshold}");
            let par = peel_with_sink(&mat, options, &mut PlainSink);
            assert_eq!(par.lambda, serial.lambda, "λ at {label}");
            assert_eq!(par.max_lambda, serial.max_lambda, "max λ");
            // the order is a λ-monotone permutation of all cells
            let mut last = 0u32;
            for &c in &par.order {
                assert!(par.lambda_of(c) >= last, "λ-monotone order");
                last = par.lambda_of(c);
            }
            let mut sorted = par.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..space.cell_count() as u32).collect::<Vec<_>>());
            // the DFT hierarchy over the parallel order matches the
            // serial one
            let (h_par, _) = dft(&mat, &par);
            assert_eq!(h_serial, h_par, "DFT hierarchy at {label}");
            // parallel FND under the same engine options: same λ, same
            // emitted order as the plain frontier peel, and a hierarchy
            // bit-identical to serial FND
            let par_fnd = fnd_parallel_with(&mat, FndOptions::default(), options);
            assert_eq!(par_fnd.peeling.lambda, serial.lambda, "FND λ at {label}");
            assert_eq!(par_fnd.peeling.order, par.order, "FND order at {label}");
            assert_eq!(h_fnd, par_fnd.hierarchy, "FND hierarchy at {label}");
            orders.push(par.order);
        }
        // deterministic: the emitted order is thread-count independent
        // (it may legitimately differ across drain thresholds)
        assert!(orders.windows(2).all(|w| w[0] == w[1]), "order determinism");
    }
}

/// The session's own contract for one kind, over every backend policy
/// at one thread (serial engine) and two (frontier engine on
/// materialized runs), for every algorithm of the kind:
///
/// * λ and the hierarchy are identical everywhere;
/// * the peel order is identical across backends at one thread count
///   wherever the same engine ran (at two threads, explicit-lazy runs
///   peel serially and the others ride the frontier engine);
/// * a **second** `run` on the same `Prepared` reproduces the first one
///   exactly — reuse does not corrupt the cached space or index;
/// * the Hypo baseline counts the same components everywhere, and as
///   the one-shot `hypo_baseline`.
fn check_session_equivalence(g: &CsrGraph, kind: Kind) {
    use std::collections::HashMap;
    let (_, hypo) = hypo_baseline(g, kind);
    let mut reference = HashMap::new();
    for threads in [1usize, 2] {
        let mut orders = HashMap::new();
        for backend in [Backend::Lazy, Backend::Materialized, Backend::Auto] {
            let p = Nucleus::builder(g)
                .kind(kind)
                .backend(backend)
                .threads(threads)
                .prepare()
                .expect("prepare");
            assert_eq!(
                p.hypo_baseline().1,
                hypo,
                "{kind}/{backend}/t{threads} hypo"
            );
            for &algo in Algorithm::for_kind(kind) {
                let label = format!("{kind}/{algo}/{backend}/t{threads}");
                let d = p.run(algo).expect(&label);
                let (lambda, hierarchy) = reference
                    .entry(algo)
                    .or_insert_with(|| (d.peeling.lambda.clone(), d.hierarchy.clone()));
                assert_eq!(*lambda, d.peeling.lambda, "{label} λ");
                assert_eq!(*hierarchy, d.hierarchy, "{label} hierarchy");
                let order = orders
                    .entry((algo, d.engine))
                    .or_insert_with(|| d.peeling.order.clone());
                assert_eq!(*order, d.peeling.order, "{label} order");
                // rerun on the same session: identical again
                let again = p.run(algo).expect(&label);
                assert_eq!(d.peeling.lambda, again.peeling.lambda, "{label} reuse λ");
                assert_eq!(d.peeling.order, again.peeling.order, "{label} reuse order");
                assert_eq!(d.hierarchy, again.hierarchy, "{label} reuse hierarchy");
            }
        }
    }
}

/// Pins the persisted-index path to the in-memory one: `save` → `load`
/// → `prepare_from_index` → `run` yields bit-identical λ, peeling order
/// and hierarchy for every algorithm of the kind, vs the `Prepared`
/// the index was saved from. Every byte of the λ/order/hierarchy
/// equality flows through the on-disk format, so any encode/decode
/// asymmetry fails loudly here.
fn check_persist_round_trip(g: &CsrGraph, kind: Kind) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("nucleus-persist-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}-{}-{}.nidx",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        kind.name(),
    ));
    let prepared = Nucleus::builder(g)
        .kind(kind)
        .backend(Backend::Materialized)
        .threads(2)
        .prepare()
        .expect("prepare");
    prepared.save(&path).expect("save");
    let index = PreparedIndex::load(&path).expect("load");
    assert_eq!(index.kind(), kind, "stored kind");
    assert_eq!(index.cells(), prepared.cells(), "stored cell count");
    let restored = Nucleus::builder(g)
        .threads(2)
        .prepare_from_index(index)
        .expect("prepare_from_index");
    for &algo in Algorithm::for_kind(kind) {
        let label = format!("{kind}/{algo}");
        let fresh = prepared.run(algo).expect(&label);
        let loaded = restored.run(algo).expect(&label);
        assert_eq!(fresh.peeling.lambda, loaded.peeling.lambda, "{label} λ");
        assert_eq!(fresh.peeling.order, loaded.peeling.order, "{label} order");
        assert_eq!(fresh.hierarchy, loaded.hierarchy, "{label} hierarchy");
    }
    std::fs::remove_file(&path).ok();
}

/// Deterministic multi-model coverage for the persist round trip: one
/// Erdős–Rényi and one Barabási–Albert graph across all five families
/// (the proptests below cover adversarial random graphs).
#[test]
fn persist_round_trip_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.08, 5);
    let ba = nucleus_gen::ba::barabasi_albert(100, 3, 5);
    for g in [&er, &ba] {
        for kind in Kind::all() {
            check_persist_round_trip(g, kind);
        }
    }
}

/// Deterministic multi-model coverage for the session equivalence: one
/// Erdős–Rényi and one Barabási–Albert graph across all five families.
#[test]
fn session_equivalence_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.08, 5);
    let ba = nucleus_gen::ba::barabasi_albert(100, 3, 5);
    for g in [&er, &ba] {
        for kind in Kind::all() {
            check_session_equivalence(g, kind);
        }
    }
}

/// Deterministic multi-model coverage for the prepare-phase
/// equivalence: one Erdős–Rényi and one Barabási–Albert graph, dense
/// enough that every builder has real triangles and K4s to enumerate.
#[test]
fn prepare_equivalence_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(80, 0.1, 7);
    let ba = nucleus_gen::ba::barabasi_albert(100, 4, 7);
    for g in [&er, &ba] {
        check_prepare_equivalence(g);
    }
}

/// Deterministic multi-model coverage for the engine equivalence: one
/// Erdős–Rényi and one Barabási–Albert graph per space family (the
/// proptests below cover the adversarial random cases).
#[test]
fn engine_equivalence_on_er_and_ba_models() {
    let er = nucleus_gen::er::gnp(120, 0.08, 3);
    let ba = nucleus_gen::ba::barabasi_albert(150, 4, 3);
    for g in [&er, &ba] {
        check_engine_equivalence(&VertexSpace::new(g));
        check_engine_equivalence(&EdgeSpace::new(g));
        check_engine_equivalence(&TriangleSpace::new(g));
        check_engine_equivalence(&VertexTriangleSpace::new(g));
        check_engine_equivalence(&EdgeK4Space::new(g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_equivalence_core(g in graph_strategy(24, 80)) {
        check_engine_equivalence(&VertexSpace::new(&g));
    }

    #[test]
    fn engine_equivalence_truss(g in graph_strategy(16, 60)) {
        check_engine_equivalence(&EdgeSpace::new(&g));
    }

    #[test]
    fn engine_equivalence_nucleus34(g in graph_strategy(12, 50)) {
        check_engine_equivalence(&TriangleSpace::new(&g));
    }

    #[test]
    fn engine_equivalence_vertex_triangle(g in graph_strategy(14, 50)) {
        check_engine_equivalence(&VertexTriangleSpace::new(&g));
    }

    #[test]
    fn engine_equivalence_edge_k4(g in graph_strategy(10, 40)) {
        check_engine_equivalence(&EdgeK4Space::new(&g));
    }

    #[test]
    fn prepare_equivalence(g in graph_strategy(14, 55)) {
        check_prepare_equivalence(&g);
    }

    /// The swept (3,4) index on Erdős–Rényi, Barabási–Albert and
    /// skewed R-MAT graphs (hub triangles carry long, out-of-order runs).
    #[test]
    fn prepare_equivalence_nucleus34_index_sweep(
        model in 0u32..3,
        size in 8u32..90,
        density in 1u32..8,
        seed in 0u64..1_000_000,
    ) {
        let g = match model {
            0 => nucleus_gen::er::gnp(size, (density as f64 * 4.0 / size as f64).min(1.0), seed),
            1 => nucleus_gen::ba::barabasi_albert(size, density + 1, seed),
            _ => nucleus_gen::rmat::rmat(
                3 + size % 6,
                density + 2,
                nucleus_gen::rmat::RmatParams::skewed(),
                seed,
            ),
        };
        check_nucleus34_index_sweep(&g);
    }

    /// The swept truss index on Erdős–Rényi, Barabási–Albert and
    /// skewed R-MAT graphs (hub edges carry long, out-of-order runs).
    #[test]
    fn prepare_equivalence_truss_index_sweep(
        model in 0u32..3,
        size in 8u32..120,
        density in 1u32..8,
        seed in 0u64..1_000_000,
    ) {
        let g = match model {
            0 => nucleus_gen::er::gnp(size, (density as f64 * 3.0 / size as f64).min(1.0), seed),
            1 => nucleus_gen::ba::barabasi_albert(size, density, seed),
            _ => nucleus_gen::rmat::rmat(
                3 + size % 6,
                density + 2,
                nucleus_gen::rmat::RmatParams::skewed(),
                seed,
            ),
        };
        check_truss_index_sweep(&g);
    }

    #[test]
    fn persist_round_trip_core(g in graph_strategy(20, 70)) {
        check_persist_round_trip(&g, Kind::Core);
    }

    #[test]
    fn persist_round_trip_vertex_triangle(g in graph_strategy(14, 50)) {
        check_persist_round_trip(&g, Kind::VertexTriangle);
    }

    #[test]
    fn persist_round_trip_truss(g in graph_strategy(14, 55)) {
        check_persist_round_trip(&g, Kind::Truss);
    }

    #[test]
    fn persist_round_trip_edge_k4(g in graph_strategy(10, 40)) {
        check_persist_round_trip(&g, Kind::EdgeK4);
    }

    #[test]
    fn persist_round_trip_nucleus34(g in graph_strategy(12, 50)) {
        check_persist_round_trip(&g, Kind::Nucleus34);
    }

    #[test]
    fn session_equivalence_core(g in graph_strategy(20, 70)) {
        check_session_equivalence(&g, Kind::Core);
    }

    #[test]
    fn session_equivalence_vertex_triangle(g in graph_strategy(14, 50)) {
        check_session_equivalence(&g, Kind::VertexTriangle);
    }

    #[test]
    fn session_equivalence_truss(g in graph_strategy(14, 55)) {
        check_session_equivalence(&g, Kind::Truss);
    }

    #[test]
    fn session_equivalence_edge_k4(g in graph_strategy(10, 40)) {
        check_session_equivalence(&g, Kind::EdgeK4);
    }

    #[test]
    fn session_equivalence_nucleus34(g in graph_strategy(12, 50)) {
        check_session_equivalence(&g, Kind::Nucleus34);
    }

    #[test]
    fn backend_equivalence_core(g in graph_strategy(24, 80)) {
        check_backend_equivalence(&VertexSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_truss(g in graph_strategy(16, 60)) {
        check_backend_equivalence(&EdgeSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_nucleus34(g in graph_strategy(12, 50)) {
        check_backend_equivalence(&TriangleSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_vertex_triangle(g in graph_strategy(14, 50)) {
        check_backend_equivalence(&VertexTriangleSpace::new(&g));
    }

    #[test]
    fn backend_equivalence_edge_k4(g in graph_strategy(10, 40)) {
        check_backend_equivalence(&EdgeK4Space::new(&g));
    }

    #[test]
    fn algorithms_agree_on_core(g in graph_strategy(24, 80)) {
        let vs = VertexSpace::new(&g);
        check_space_agreement(&vs);
        // LCPS too (k-core only)
        let p = peel(&vs);
        let h_lcps = lcps(&g, &p);
        let (h_dft, _) = dft(&vs, &p);
        prop_assert_eq!(h_lcps, h_dft);
    }

    #[test]
    fn algorithms_agree_on_truss(g in graph_strategy(16, 60)) {
        check_space_agreement(&EdgeSpace::new(&g));
    }

    #[test]
    fn algorithms_agree_on_nucleus34(g in graph_strategy(12, 50)) {
        check_space_agreement(&TriangleSpace::new(&g));
    }

    #[test]
    fn tcp_queries_match_hierarchy(g in graph_strategy(12, 40)) {
        let es = EdgeSpace::new(&g);
        let truss = peel(&es);
        let idx = TcpIndex::build(&g, &truss);
        let (h, _) = dft(&es, &truss);
        for k in 1..=h.max_lambda() {
            for node in h.nuclei_at(k) {
                let mut cells = h.nucleus_cells(node);
                cells.sort_unstable();
                let (u, v) = g.endpoints(cells[0]);
                let got = tcp_query(&g, &truss, &idx, u, v, k).expect("community exists");
                prop_assert_eq!(&got, &cells, "k={} node={}", k, node);
            }
        }
    }

    #[test]
    fn hierarchy_partitions_cells(g in graph_strategy(20, 70)) {
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        // every cell appears in exactly one delta, at its own λ
        let mut seen = vec![0u32; g.n()];
        for node in h.nodes() {
            for &c in &node.cells {
                seen[c as usize] += 1;
                prop_assert_eq!(p.lambda_of(c), node.lambda);
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn weighted_cores_with_unit_weights_match_plain(g in graph_strategy(20, 60)) {
        let weights = vec![1u64; g.m()];
        let wl = nucleus_core::weighted::weighted_core_numbers(&g, &weights);
        let plain = peel(&VertexSpace::new(&g)).lambda;
        let expect: Vec<u64> = plain.iter().map(|&l| l as u64).collect();
        prop_assert_eq!(wl, expect);
    }

    #[test]
    fn weighted_hierarchy_is_valid_for_random_weights(
        g in graph_strategy(14, 40),
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..5u64)).collect();
        let wd = nucleus_core::weighted::weighted_core_decomposition(&g, &weights);
        prop_assert!(wd.hierarchy.validate().is_ok());
        // deepest nuclei have the largest threshold
        if let Some(&last) = wd.levels.last() {
            let top = wd.hierarchy.nuclei_at(wd.hierarchy.max_lambda());
            for id in top {
                prop_assert_eq!(wd.threshold(id), last);
            }
        }
    }

    #[test]
    fn nuclei_are_nested(g in graph_strategy(20, 70)) {
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        // For every k, the union of k-nuclei is exactly {cells: λ ≥ k},
        // and each (k+1)-nucleus is contained in exactly one k-nucleus.
        for k in 1..=h.max_lambda() {
            let mut union: Vec<u32> = vec![];
            for id in h.nuclei_at(k) {
                union.extend(h.nucleus_cells(id));
            }
            union.sort_unstable();
            let expect: Vec<u32> = (0..g.n() as u32).filter(|&c| p.lambda_of(c) >= k).collect();
            prop_assert_eq!(union, expect, "level {}", k);
        }
    }
}
