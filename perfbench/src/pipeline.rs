//! The build side: edge list → prepare → FND → saved index, the warm
//! reload, and (traced runs only) direct calls into the clique, session
//! and FND layers on the same input.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use nucleus_cliques::four_cliques::k4_degrees;
use nucleus_cliques::parallel::edge_supports_parallel;
use nucleus_cliques::triangles::edge_supports;
use nucleus_cliques::{k4_degrees_parallel, TriangleIndex, TriangleList};
use nucleus_core::peel::peel_reference;
use nucleus_core::prelude::*;
use nucleus_graph::io::read_edge_list_file;
use nucleus_graph::CsrGraph;

use crate::stats::{median, ms};
use crate::Ctx;

/// Facts about the input, for the provenance record.
#[derive(Clone, Copy, Debug, Default)]
pub struct InputFacts {
    pub n: usize,
    pub m: usize,
    pub cells: usize,
    pub containers: u64,
    pub index_bytes: u64,
}

fn same(a: &Decomposition, b: &Decomposition) -> bool {
    a.peeling.lambda == b.peeling.lambda
        && a.peeling.order == b.peeling.order
        && a.hierarchy == b.hierarchy
}

/// Cold builds and warm reloads, timed in batches spread over the run.
/// Every result is checked: a valid hierarchy, bit-identical (λ, peel
/// order, hierarchy) to the reference build.
#[derive(Default)]
pub struct Builds {
    build_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    /// This batch's first build, the reference when none is given.
    first: Option<Decomposition>,
}

impl Builds {
    /// `reps` cold builds and warm reloads, interleaved.
    pub fn run(
        &mut self,
        ctx: &mut Ctx,
        edges: &Path,
        index: &Path,
        reps: usize,
        reference: Option<&Decomposition>,
    ) {
        for _ in 0..reps {
            for reload in [false, true] {
                let what = if reload { "reload" } else { "build" };
                let t0 = Instant::now();
                let outcome = if reload {
                    warm_reload(ctx, edges, index)
                } else {
                    cold_build(ctx, edges, index)
                };
                let elapsed = ms(t0.elapsed());
                let d = match outcome {
                    Ok(d) => d,
                    Err(e) => {
                        ctx.tally.fail(format!("{what}: {e}"));
                        continue;
                    }
                };
                if reload {
                    &mut self.reload_ms
                } else {
                    &mut self.build_ms
                }
                .push(elapsed);
                let valid = d.hierarchy.validate();
                let identical = reference
                    .or(self.first.as_ref())
                    .is_none_or(|r| same(r, &d));
                ctx.tally.op(valid.is_ok() && identical, || {
                    format!("{what}: validate {valid:?}, identical to the reference: {identical}")
                });
                self.first.get_or_insert(d);
            }
        }
    }

    /// Median of each sample set (ms).
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.build_ms), median(&self.reload_ms))
    }

    /// Sets `build_s` and `reload_s`; returns the batch's first build.
    pub fn finish(self, ctx: &mut Ctx) -> Option<Decomposition> {
        let (build, reload) = self.medians();
        ctx.e2e.set("build_s", build / 1e3, "s");
        ctx.e2e.set("reload_s", reload / 1e3, "s");
        ctx.record("cold_build", self.build_ms);
        ctx.record("reload", self.reload_ms);
        self.first
    }
}

/// Parse → prepare → FND → save, as `nucleus decompose --save-index` runs it.
fn cold_build(ctx: &mut Ctx, edges: &Path, index: &Path) -> Result<Decomposition, String> {
    let kind = ctx.workload.kind();
    let tr = &mut ctx.tr;
    let outer = tr.open("build");
    let out = (|| {
        let g = tr
            .time("graph.io.parse", || read_edge_list_file(edges))
            .map_err(|e| e.to_string())?;
        let p = tr
            .time("core.session.prepare", || {
                Nucleus::builder(&g).kind(kind).prepare()
            })
            .map_err(|e| e.to_string())?;
        let d = tr
            .time("core.session.run_fnd", || p.run(Algorithm::Fnd))
            .map_err(|e| e.to_string())?;
        tr.time("core.persist.save", || p.save(index))
            .map_err(|e| e.to_string())?;
        if ctx.facts.cells == 0 {
            ctx.facts = InputFacts {
                n: g.n(),
                m: g.m(),
                cells: p.cells(),
                containers: p.containers(),
                index_bytes: std::fs::metadata(index).map_or(0, |m| m.len()),
            };
        }
        Ok(d)
    })();
    ctx.tr.close(outer);
    out
}

/// Parse → load index → `prepare_from_index` → FND.
fn warm_reload(ctx: &mut Ctx, edges: &Path, index: &Path) -> Result<Decomposition, String> {
    let tr = &mut ctx.tr;
    let outer = tr.open("reload");
    let out = (|| {
        let g = tr
            .time("graph.io.parse", || read_edge_list_file(edges))
            .map_err(|e| e.to_string())?;
        let idx = tr
            .time("core.persist.load", || PreparedIndex::load(index))
            .map_err(|e| e.to_string())?;
        let p = tr
            .time("core.session.prepare_from_index", || {
                Nucleus::builder(&g).prepare_from_index(idx)
            })
            .map_err(|e| e.to_string())?;
        tr.time("core.session.run_fnd_reloaded", || p.run(Algorithm::Fnd))
            .map_err(|e| e.to_string())
    })();
    ctx.tr.close(outer);
    out
}

/// λ from the brute-force definition, outside any timed region.
pub fn check_reference_lambda(ctx: &mut Ctx, g: &CsrGraph, reference: &Decomposition) {
    let lambda = match ctx.workload.kind() {
        Kind::Truss => peel_reference(&EdgeSpace::new(g)),
        Kind::Nucleus34 => peel_reference(&TriangleSpace::new(g)),
        other => unreachable!("no workload peels {other}"),
    };
    ctx.tally.op(lambda == reference.peeling.lambda, || {
        "λ differs from peel_reference".to_string()
    });
}

const LAYER_REPS: usize = 3;

/// Traced runs only: the clique kernels, single-threaded sessions and
/// the FND classify/assemble split, each called directly on `g`.
pub fn layer_calls(ctx: &mut Ctx, g: &CsrGraph, reference: &Decomposition) {
    let threads = ctx.threads;
    let kind = ctx.workload.kind();
    let tr = &mut ctx.tr;
    let mut triangles = 0;
    for _ in 0..LAYER_REPS {
        tr.time("cliques.edge_supports", || {
            black_box(if threads > 1 {
                edge_supports_parallel(g, threads)
            } else {
                edge_supports(g)
            })
        });
        let tris = tr.time("cliques.triangle_list", || {
            TriangleList::build_with_threads(g, threads)
        });
        tr.time("cliques.triangle_index", || {
            black_box(TriangleIndex::build_with_threads(g, &tris, threads))
        });
        tr.time("cliques.k4_degrees", || {
            black_box(if threads > 1 {
                k4_degrees_parallel(g, &tris, threads)
            } else {
                k4_degrees(g, &tris)
            })
        });
        triangles = tris.len();
    }
    ctx.layers
        .set("cliques.triangles", triangles as f64, "count");

    for _ in 0..LAYER_REPS {
        let p = ctx.tr.time("core.session.prepare_t1", || {
            Nucleus::builder(g).kind(kind).threads(1).prepare()
        });
        let d = p.and_then(|p| {
            ctx.tr
                .time("core.session.run_fnd_t1", || p.run(Algorithm::Fnd))
        });
        // The peel order is the engine's own; λ and the hierarchy are not.
        let agrees = d.as_ref().is_ok_and(|d| {
            d.peeling.lambda == reference.peeling.lambda && d.hierarchy == reference.hierarchy
        });
        ctx.tally.op(agrees, || {
            "single-threaded session differs from the default one".to_string()
        });
    }

    match kind {
        Kind::Truss => fnd_split(ctx, &EdgeSpace::with_threads(g, threads), reference),
        Kind::Nucleus34 => fnd_split(ctx, &TriangleSpace::with_threads(g, threads), reference),
        other => unreachable!("no workload peels {other}"),
    }
}

/// Figure 6's split: the peel that classifies cells into sub-nuclei,
/// then the assembly of the hierarchy from them, over the same index a
/// materialized session peels.
fn fnd_split<S: PeelSpace + Sync>(ctx: &mut Ctx, space: &S, reference: &Decomposition) {
    let threads = ctx.threads;
    let index = ContainerIndex::build(space, threads);
    let indexed = IndexedSpace::new(space, &index);
    let frontier = FrontierOptions {
        threads,
        ..FrontierOptions::default()
    };
    for _ in 0..LAYER_REPS {
        let tr = &mut ctx.tr;
        let FndClassified {
            peeling,
            mut skeleton,
            adj,
            ..
        } = tr.time("core.fnd.classify", || {
            fnd_classify(&indexed, FndOptions::default(), frontier)
        });
        tr.time("core.fnd.assemble", || {
            build_hierarchy(
                &mut skeleton,
                &adj,
                peeling.max_lambda,
                threads,
                frontier.min_parallel_work,
            )
        });
        let h = skeleton.into_raw().into_hierarchy(
            space.r(),
            space.s(),
            peeling.lambda,
            peeling.max_lambda,
        );
        ctx.tally.op(h == reference.hierarchy, || {
            "classify + assemble differs from Prepared::run".to_string()
        });
        ctx.layers
            .set("core.fnd.adj_connections", adj.len() as f64, "count");
    }
    ctx.layers.set(
        "core.fnd.subnuclei",
        reference.stats.subnuclei as f64,
        "count",
    );
}
