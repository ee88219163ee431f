//! Property tests: batched incremental maintenance is equivalent to a
//! full static recompute — `apply(batch)` ≡ `recompute()` for λ — on
//! random ER and BA graphs under random mutation streams (inserts,
//! deletes, mixed) chunked into 1-, 2- and 8-op batches.
//!
//! These are the correctness spine of `nucleus-dynamic`: the exact
//! (1,2)/(2,3) repairs and the scoped-recompute fallback all reduce to
//! "after any stream, the maintained λ equals the λ of a fresh peel of
//! the snapshot" — and the snapshot itself must equal a from-scratch
//! `CsrGraph::from_edges` of the same edge set. CI runs this file in
//! release like the other equivalence suites.

use proptest::prelude::*;
use proptest::TestCaseError;

use nucleus_core::Kind;
use nucleus_dynamic::{DynamicGraph, EdgeOp, Strategy as UpdateStrategy};
use nucleus_graph::persist_io::graph_fingerprint;
use nucleus_graph::CsrGraph;

/// Checks maintained λ against a fresh static peel of the snapshot.
fn assert_equivalent(dg: &DynamicGraph, context: &str) -> Result<(), TestCaseError> {
    let g = dg.to_graph();
    prop_assert_eq!(
        graph_fingerprint(&g),
        dg.fingerprint(),
        "fingerprint drifted: {}",
        context
    );
    let maintained = dg.lambda_snapshot(&g).expect("λ is maintained");
    let fresh = DynamicGraph::new(&g, dg.kind().expect("kind is maintained"));
    let expect = fresh.lambda_snapshot(&g).unwrap();
    prop_assert_eq!(maintained, expect, "λ drifted from recompute: {}", context);
    Ok(())
}

/// Drives one mutation stream through `apply` in fixed-size batches,
/// checking equivalence and report accounting after every batch.
fn run_stream(g: &CsrGraph, kind: Kind, ops: &[EdgeOp], batch: usize) -> Result<(), TestCaseError> {
    let mut dg = DynamicGraph::new(g, kind);
    for (i, chunk) in ops.chunks(batch).enumerate() {
        let before_gen = dg.generation();
        let r = dg.apply(chunk);
        let context = format!("{kind:?} batch #{i} (size {batch})");
        prop_assert_eq!(
            r.applied + r.skipped + r.coalesced,
            chunk.len(),
            "op accounting broken: {}",
            &context
        );
        prop_assert_eq!(r.applied, r.inserted + r.deleted, "{}", &context);
        prop_assert_eq!(r.needs_reindex, r.applied > 0, "{}", &context);
        prop_assert_eq!(
            dg.generation(),
            before_gen + u64::from(r.applied > 0),
            "{}",
            &context
        );
        let expect_strategy = match kind {
            Kind::Core | Kind::Truss => UpdateStrategy::Incremental,
            _ => UpdateStrategy::ScopedRecompute,
        };
        prop_assert_eq!(r.strategy, expect_strategy, "{}", &context);
        assert_equivalent(&dg, &context)?;
    }
    Ok(())
}

/// A random mutation stream over `n` vertices: `bias` controls the
/// insert/delete mix (pure-insert and pure-delete streams come out of
/// the extreme biases; ops on absent/present edges coalesce or skip).
fn stream_strategy(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeOp>> {
    proptest::collection::vec((0..n, 0..n, 0..100u32, proptest::bool::ANY), len..=len).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(u, v, bias, flip)| {
                    // Thirds: mostly-insert, mostly-delete, mixed.
                    let insert = match bias % 3 {
                        0 => bias % 10 != 0,
                        1 => bias % 10 == 0,
                        _ => flip,
                    };
                    if insert {
                        EdgeOp::Insert(u, v)
                    } else {
                        EdgeOp::Delete(u, v)
                    }
                })
                .collect()
        },
    )
}

/// Checks the snapshot against [`CsrGraph::from_edges`] over the same
/// edge set, handed over reversed and unsorted: same neighbours, same
/// edge ids, same endpoints.
fn assert_snapshot_matches_from_edges(
    dg: &DynamicGraph,
    context: &str,
) -> Result<(), TestCaseError> {
    let g = dg.to_graph();
    let edges: Vec<(u32, u32)> = (0..dg.n() as u32)
        .rev()
        .flat_map(|u| dg.neighbors(u).iter().map(move |&v| (v, u)))
        .collect();
    let expect = CsrGraph::from_edges(dg.n(), &edges);
    prop_assert_eq!((g.n(), g.m()), (expect.n(), expect.m()), "{}", context);
    prop_assert_eq!(g.edge_endpoints(), expect.edge_endpoints(), "{}", context);
    for v in 0..g.n() as u32 {
        prop_assert_eq!(g.neighbors(v), expect.neighbors(v), "{}", context);
        prop_assert_eq!(
            g.neighbor_edge_ids(v),
            expect.neighbor_edge_ids(v),
            "{}",
            context
        );
    }
    Ok(())
}

fn er_graph(n: u32, seed: u64, p: f64) -> CsrGraph {
    nucleus_gen::er::gnp(n, p, seed)
}

fn ba_graph(n: u32, seed: u64) -> CsrGraph {
    nucleus_gen::ba::barabasi_albert(n, 3, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1,2) exact maintenance ≡ recompute on ER streams.
    #[test]
    fn dynamic_equivalence_core_er(
        n in 6u32..28,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 24),
    ) {
        let g = er_graph(n, seed, 0.25);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Core, &ops, batch)?;
        }
    }

    /// (2,3) exact maintenance ≡ recompute on ER streams.
    #[test]
    fn dynamic_equivalence_truss_er(
        n in 6u32..22,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 20),
    ) {
        let g = er_graph(n, seed, 0.35);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Truss, &ops, batch)?;
        }
    }

    /// Core and truss maintenance ≡ recompute on BA (preferential
    /// attachment) streams — skewed degrees stress the subcore and
    /// sub-truss traversals differently than ER.
    #[test]
    fn dynamic_equivalence_core_truss_ba(
        n in 8u32..24,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 16),
    ) {
        let g = ba_graph(n, seed);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for batch in [1usize, 2, 8] {
            run_stream(&g, Kind::Core, &ops, batch)?;
            run_stream(&g, Kind::Truss, &ops, batch)?;
        }
    }

    /// The mutation snapshot ≡ a from-scratch `CsrGraph::from_edges` of
    /// the same edge set, after every batch of a random stream.
    #[test]
    fn dynamic_equivalence_snapshot_matches_from_edges(
        n in 2u32..30,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 32),
    ) {
        let g = er_graph(n, seed, 0.3);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        let mut dg = DynamicGraph::topology(&g);
        assert_snapshot_matches_from_edges(&dg, "before any batch")?;
        for (i, chunk) in ops.chunks(4).enumerate() {
            dg.apply(chunk);
            assert_snapshot_matches_from_edges(&dg, &format!("after batch #{i}"))?;
        }
    }

    /// Scoped recompute ((1,3), (2,4), (3,4)) ≡ full recompute.
    #[test]
    fn dynamic_equivalence_scoped_kinds(
        n in 6u32..16,
        seed in 0u64..1_000_000,
        ops in stream_strategy(64, 10),
    ) {
        let g = er_graph(n, seed, 0.4);
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|op| {
                let (u, v) = op.endpoints();
                let (u, v) = (u % n, v % n);
                if op.is_insert() { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) }
            })
            .collect();
        for kind in [Kind::VertexTriangle, Kind::EdgeK4, Kind::Nucleus34] {
            for batch in [1usize, 2, 8] {
                run_stream(&g, kind, &ops, batch)?;
            }
        }
    }
}
