//! The prepared-pipeline API: build a peeling space **once**, then run
//! any number of hierarchy algorithms (and baselines) over it.
//!
//! The paper's framework is generic in two orthogonal directions — the
//! (r, s) family and the hierarchy algorithm — and the expensive part
//! of a run is almost never the algorithm: it is enumerating the
//! cliques behind the space (triangles for (2,3)/(1,3), four-cliques
//! for (3,4)/(2,4)) and, on materialized runs, building the
//! [`ContainerIndex`]. The one-shot [`crate::decompose::decompose`]
//! rebuilds all of that per call; a serving system that answers many
//! queries — or a comparison workload that runs Naive, DFT *and* FND on
//! one graph — should pay for it once:
//!
//! ```
//! use nucleus_core::prelude::*;
//!
//! let g = nucleus_graph::CsrGraph::from_edges(
//!     5,
//!     &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)],
//! );
//! let prepared = Nucleus::builder(&g).kind(Kind::Truss).prepare()?;
//! println!("{}", prepared.plan(Algorithm::Dft)?.explain());
//! let dft = prepared.run(Algorithm::Dft)?; // reuses the cached space
//! let fnd = prepared.run(Algorithm::Fnd)?; // ... and again
//! assert_eq!(dft.hierarchy, fnd.hierarchy);
//! # Ok::<(), nucleus_core::CoreError>(())
//! ```
//!
//! # Stages
//!
//! 1. **[`Nucleus::builder`]** collects the choices of
//!    [`crate::decompose::DecomposeOptions`] plus the [`Kind`].
//! 2. **[`NucleusBuilder::prepare`]** does the expensive, run-invariant
//!    work: builds the space (clique enumeration, ω counts), resolves
//!    the [`Backend`] policy (including the `Auto` size estimate) and,
//!    when materialized, builds the [`ContainerIndex`].
//! 3. **[`Prepared::run`]** executes one algorithm over the cached
//!    space/index and can be called any number of times; runs never
//!    mutate the prepared state. [`Prepared::plan`] returns the same
//!    decision as a [`Plan`] without running, and
//!    [`Prepared::hypo_baseline`] runs the Hypo baseline over the same
//!    cached space.
//!
//! A session keeps its own handle on the graph: [`CsrGraph`] clones
//! share their buffers, so [`Nucleus::builder`] copies no adjacency, and
//! a [`Prepared`] is a self-contained value that can be stored, moved or
//! shared across threads independently of the caller's graph.
//!
//! The session, not the caller, picks the peeling engine for each run
//! (the rule is on [`PeelEngine`]); `threads(1)` is how a caller gets
//! the serial engine.
//!
//! The one algorithm check, [`crate::plan::validate`] (LCPS × non-core),
//! happens at `plan`/`run` time, since one `Prepared` may serve
//! different algorithms.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use nucleus_graph::CsrGraph;

use crate::algo::dft::dft;
use crate::algo::fnd::{fnd, fnd_parallel_with, FndOptions};
use crate::algo::hypo::hypo_sweep;
use crate::algo::lcps::lcps;
use crate::algo::naive::naive;
use crate::decompose::{
    Algorithm, Backend, DecomposeOptions, Decomposition, Kind, PeelEngine, PhaseTimes,
    SkeletonStats,
};
use crate::error::CoreError;
use crate::peel::{peel, peel_with_sink, FrontierOptions, PlainSink};
use crate::plan::{self, format_bytes, Plan};
use crate::space::{
    ContainerIndex, EdgeK4Space, EdgeSpace, IndexedSpace, PeelBackend, PeelSpace, TriangleSpace,
    VertexSpace, VertexTriangleSpace,
};

/// The five lazy spaces behind one door, so [`Prepared`] can own any of
/// them by value while the algorithms stay monomorphized per space.
enum AnySpace {
    Vertex(VertexSpace),
    VertexTriangle(VertexTriangleSpace),
    Edge(EdgeSpace),
    EdgeK4(EdgeK4Space),
    Triangle(TriangleSpace),
}

impl AnySpace {
    fn build(g: &CsrGraph, kind: Kind, threads: usize) -> Self {
        match kind {
            Kind::Core => AnySpace::Vertex(VertexSpace::with_threads(g, threads)),
            Kind::VertexTriangle => {
                AnySpace::VertexTriangle(VertexTriangleSpace::with_threads(g, threads))
            }
            Kind::Truss => AnySpace::Edge(EdgeSpace::with_threads(g, threads)),
            Kind::EdgeK4 => AnySpace::EdgeK4(EdgeK4Space::with_threads(g, threads)),
            Kind::Nucleus34 => AnySpace::Triangle(TriangleSpace::with_threads(g, threads)),
        }
    }
}

/// How a session's prepare phase runs its cell enumeration — the string
/// [`Plan::explain`] reports on the `enumeration:` line.
fn enumeration_mode(kind: Kind, threads: usize) -> String {
    if kind == Kind::Core {
        // ω here is a plain degree read; there is no enumeration pass
        "serial (degree read, nothing to enumerate)".to_string()
    } else if threads > 1 {
        format!("parallel (t={threads})")
    } else {
        "serial".to_string()
    }
}

/// Dispatches `$body` with `$s` bound to the concrete lazy space.
/// A macro rather than a visitor so `$body` monomorphizes per space —
/// the same zero-overhead dispatch the one-shot API had.
macro_rules! with_space {
    ($space:expr, $s:ident => $body:expr) => {
        match &$space {
            AnySpace::Vertex($s) => $body,
            AnySpace::VertexTriangle($s) => $body,
            AnySpace::Edge($s) => $body,
            AnySpace::EdgeK4($s) => $body,
            AnySpace::Triangle($s) => $body,
        }
    };
}

/// Entry point of the prepared-pipeline API; see the [module docs]
/// (self) for the full walkthrough.
pub struct Nucleus;

impl Nucleus {
    /// Starts configuring a decomposition session over `g`. Defaults:
    /// [`Kind::Core`], automatic backend, all CPUs. The session keeps
    /// its own handle on `g` (an O(1) [`CsrGraph`] clone).
    pub fn builder(g: &CsrGraph) -> NucleusBuilder {
        NucleusBuilder {
            g: g.clone(),
            kind: Kind::Core,
            options: DecomposeOptions::default(),
        }
    }
}

/// Builder for a [`Prepared`] session: the same knobs as
/// [`DecomposeOptions`] plus the [`Kind`], applied fluently.
#[derive(Clone, Debug)]
pub struct NucleusBuilder {
    g: CsrGraph,
    kind: Kind,
    options: DecomposeOptions,
}

impl NucleusBuilder {
    /// Selects the (r, s) family (default [`Kind::Core`]).
    pub fn kind(mut self, kind: Kind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the backend policy (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Caps worker threads (default `0` = all CPUs).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Does the run-invariant heavy lifting: builds the space (clique
    /// enumeration + ω counts), resolves the backend policy, and builds
    /// the [`ContainerIndex`] when the resolution says materialize.
    ///
    /// # Errors
    /// None today: every option combination prepares. The algorithm
    /// check surfaces from [`Prepared::run`] / [`Prepared::plan`].
    pub fn prepare(self) -> Result<Prepared, CoreError> {
        let NucleusBuilder { g, kind, options } = self;
        let threads = options.effective_threads();
        let t0 = Instant::now();
        let space = AnySpace::build(&g, kind, threads);
        let cells = with_space!(space, s => s.cell_count());
        // Explicit-lazy sessions never touch `degrees()` here: the
        // one-shot lazy path never did (peeling computes ω itself per
        // run), so doing it eagerly would double the setup cost the
        // wrappers promise to preserve. The space facts defer to first
        // use instead (`Prepared::facts`).
        let (facts, backend_reason, index) = if options.backend == Backend::Lazy {
            (OnceLock::new(), "explicitly requested".to_string(), None)
        } else {
            with_space!(space, s => {
                let facts = OnceLock::new();
                let mut reason = String::new();
                let index = s.container_index(threads, |counts| {
                    let containers: u64 = counts.iter().map(|&c| c as u64).sum();
                    let est = ContainerIndex::estimate_bytes_from(s.r(), s.s(), counts);
                    let _ = facts.set((containers, est));
                    let (materialize, why) = resolve_backend(options.backend, est);
                    reason = why;
                    materialize
                });
                (facts, reason, index)
            })
        };
        Ok(Prepared {
            kind,
            backend: if index.is_some() {
                Backend::Materialized
            } else {
                Backend::Lazy
            },
            threads,
            space,
            index,
            cells,
            facts,
            backend_reason,
            enumeration: enumeration_mode(kind, threads),
            prep_time: t0.elapsed(),
        })
    }

    /// Like [`NucleusBuilder::prepare`], but the [`ContainerIndex`]
    /// comes from a persisted file ([`crate::persist::PreparedIndex`])
    /// instead of being rebuilt — the load path behind
    /// `nucleus decompose --index`. Only the cheap parts of preparation
    /// remain: the lazy space is still constructed (it answers identity
    /// queries like `cell_vertices`), but clique-per-cell enumeration
    /// and the index build are skipped.
    ///
    /// The session's kind is taken **from the index** — the stored
    /// (r, s) pair is authoritative; a kind set on the builder is
    /// ignored (callers that care should compare
    /// [`crate::persist::PreparedIndex::kind`] first, as the CLI does).
    ///
    /// # Errors
    /// [`CoreError::InvalidOptions`] when the builder explicitly asked
    /// for [`Backend::Lazy`] (contradicts loading an index);
    /// [`CoreError::IndexMismatch`] when the index's graph fingerprint
    /// or cell count does not match `g`.
    pub fn prepare_from_index(
        self,
        index: crate::persist::PreparedIndex,
    ) -> Result<Prepared, CoreError> {
        let NucleusBuilder {
            g,
            kind: _,
            options,
        } = self;
        if options.backend == Backend::Lazy {
            return Err(CoreError::InvalidOptions {
                reason: "the lazy backend contradicts loading a persisted index; \
                         drop the explicit Backend::Lazy"
                    .to_string(),
            });
        }
        index.matches(&g)?;
        let kind = index.kind();
        let threads = options.effective_threads();
        let t0 = Instant::now();
        let space = AnySpace::build(&g, kind, threads);
        let cells = with_space!(space, s => s.cell_count());
        // The fingerprint pins the graph only up to its hashes, so
        // cross-check the cell count too rather than trusting the file.
        if cells != index.cells() {
            return Err(CoreError::IndexMismatch {
                path: index.path().to_string(),
                reason: format!(
                    "index covers {} cells, the graph's {} space has {}",
                    index.cells(),
                    kind,
                    cells
                ),
            });
        }
        let backend_reason = format!("loaded index from {}", index.path());
        let containers = index.containers();
        let bytes = index.bytes();
        let container_index = index.into_container_index();
        let facts = OnceLock::new();
        let _ = facts.set((containers, bytes));
        Ok(Prepared {
            kind,
            backend: Backend::Materialized,
            threads,
            space,
            index: Some(container_index),
            cells,
            facts,
            backend_reason,
            enumeration: "skipped (persisted index)".to_string(),
            prep_time: t0.elapsed(),
        })
    }
}

/// Resolves the backend policy into a concrete materialize/lazy
/// decision plus the human-readable "why" that [`Plan::explain`]
/// reports.
fn resolve_backend(backend: Backend, est_bytes: usize) -> (bool, String) {
    let materialize = backend.wants_index(|| est_bytes);
    let reason = match backend {
        Backend::Lazy | Backend::Materialized => "explicitly requested".to_string(),
        Backend::Auto => {
            let cap = format_bytes(Backend::AUTO_BYTE_CAP);
            let est = format_bytes(est_bytes);
            if materialize {
                format!("auto: estimated index {est} ≤ {cap} cap")
            } else {
                format!("auto: estimated index {est} exceeds the {cap} cap")
            }
        }
    };
    (materialize, reason)
}

/// The engine rule: frontier exactly on materialized, multi-threaded
/// runs of an algorithm that peels (the frontier engine needs O(1)
/// repeated container access, and LCPS never runs `Set-λ`).
fn resolve(algorithm: Algorithm, materialized: bool, threads: usize) -> PeelEngine {
    if materialized && threads > 1 && algorithm != Algorithm::Lcps {
        PeelEngine::Frontier
    } else {
        PeelEngine::Serial
    }
}

/// A prepared decomposition session: the space (and, when materialized,
/// its [`ContainerIndex`]) built once, ready to serve any number of
/// [`Prepared::run`] calls. Runs never mutate the prepared state, so a
/// `Prepared` behaves like an immutable snapshot of the graph's
/// (r, s) structure.
pub struct Prepared {
    kind: Kind,
    /// Resolved: `Lazy` or `Materialized`, never `Auto`.
    backend: Backend,
    threads: usize,
    space: AnySpace,
    index: Option<ContainerIndex>,
    cells: usize,
    /// `(Σ ω, estimated index bytes)` — filled at prepare time whenever
    /// the ω counts were computed anyway (auto/materialized sessions),
    /// deferred to first use on explicit-lazy ones.
    facts: OnceLock<(u64, usize)>,
    backend_reason: String,
    /// How prepare ran its cell enumeration (see `enumeration_mode`).
    enumeration: String,
    prep_time: Duration,
}

impl Prepared {
    /// The family this session decomposes.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The resolved backend ([`Backend::Lazy`] or
    /// [`Backend::Materialized`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Effective worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of cells (K_r's) in the space.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Total containers (Σ ω over all cells). On explicit-lazy
    /// sessions the first call performs one container enumeration (the
    /// counts are not kept around otherwise — that is what "lazy"
    /// means); auto/materialized sessions recorded it during `prepare`.
    pub fn containers(&self) -> u64 {
        self.facts().0
    }

    /// Estimated [`ContainerIndex`] footprint in bytes (allocated only
    /// on materialized sessions). Same deferral as
    /// [`Prepared::containers`] on explicit-lazy sessions.
    pub fn estimated_index_bytes(&self) -> usize {
        self.facts().1
    }

    /// `(Σ ω, estimated index bytes)`, computing them on first use for
    /// explicit-lazy sessions.
    fn facts(&self) -> (u64, usize) {
        *self.facts.get_or_init(|| {
            with_space!(self.space, s => {
                let counts = s.degrees();
                let containers: u64 = counts.iter().map(|&c| c as u64).sum();
                let est = ContainerIndex::estimate_bytes_from(s.r(), s.s(), &counts);
                (containers, est)
            })
        })
    }

    /// Wall time spent in [`NucleusBuilder::prepare`] (space build, ω
    /// counts, index build). Every [`Prepared::run`] folds this into
    /// its reported peel phase, matching the one-shot API's accounting.
    pub fn prep_time(&self) -> Duration {
        self.prep_time
    }

    /// The underlying graph: the space's own handle, sharing the
    /// buffers of the graph the session was built from.
    pub fn graph(&self) -> &CsrGraph {
        with_space!(self.space, s => s.graph())
    }

    /// The session's [`ContainerIndex`], when materialized — what
    /// [`Prepared::save`](crate::persist) serializes.
    pub(crate) fn container_index(&self) -> Option<&ContainerIndex> {
        self.index.as_ref()
    }

    /// Resolves — without running — exactly what [`Prepared::run`]
    /// would do for `algorithm`: the concrete backend/engine, thread
    /// count, space sizes, and the reasons behind both decisions.
    ///
    /// # Errors
    /// The same [`crate::plan::validate`] rejections `run` would
    /// report.
    pub fn plan(&self, algorithm: Algorithm) -> Result<Plan, CoreError> {
        let engine = self.resolve_engine(algorithm)?;
        let materialized = self.index.is_some();
        // On frontier runs the reason also reports the hybrid-round
        // policy the engine runs under.
        let engine_reason = if engine == PeelEngine::Frontier {
            format!(
                "materialized run, {} threads, {algorithm} rides the peel (hybrid, serial \
                 below {})",
                self.threads,
                FrontierOptions::default().serial_round_threshold
            )
        } else if !materialized {
            "lazy backend re-enumerates containers per visit".to_string()
        } else if self.threads <= 1 {
            "single worker thread".to_string()
        } else {
            format!("{algorithm} walks the graph directly and never runs Set-λ")
        };
        Ok(Plan {
            kind: self.kind,
            algorithm,
            backend: self.backend,
            engine,
            threads: self.threads,
            cells: self.cells,
            containers: self.containers(),
            index_bytes: self.estimated_index_bytes(),
            backend_reason: self.backend_reason.clone(),
            engine_reason,
            enumeration: self.enumeration.clone(),
        })
    }

    /// Validates `algorithm` against this session and resolves the
    /// engine for it — the decision core shared by [`Prepared::plan`]
    /// and [`Prepared::run`] (the latter skips the [`Plan`] facts,
    /// which may cost a container enumeration on lazy sessions).
    fn resolve_engine(&self, algorithm: Algorithm) -> Result<PeelEngine, CoreError> {
        plan::validate(self.kind, algorithm)?;
        Ok(resolve(algorithm, self.index.is_some(), self.threads))
    }

    /// Runs one algorithm over the cached space, producing the same
    /// [`Decomposition`] the one-shot [`crate::decompose::decompose`]
    /// would, with the preparation cost amortized across calls. The
    /// reported peel phase includes [`Prepared::prep_time`] so phase
    /// splits stay comparable with [`mod@crate::decompose`].
    ///
    /// # Errors
    /// See [`crate::plan::validate`].
    pub fn run(&self, algorithm: Algorithm) -> Result<Decomposition, CoreError> {
        let engine = self.resolve_engine(algorithm)?;
        if algorithm == Algorithm::Lcps {
            return Ok(self.run_lcps(engine));
        }
        Ok(with_space!(self.space, s => match &self.index {
            Some(index) => self.run_algo(&IndexedSpace::new(s, index), algorithm, engine),
            None => self.run_algo(s, algorithm, engine),
        }))
    }

    /// LCPS: peel over the cached backend, then the Matula–Beck
    /// priority search directly on the graph. [`Prepared::resolve_engine`]
    /// already proved `kind == Core`.
    fn run_lcps(&self, engine: PeelEngine) -> Decomposition {
        let t0 = Instant::now();
        let peeling = with_space!(self.space, s => match &self.index {
            Some(index) => peel(&IndexedSpace::new(s, index)),
            None => peel(s),
        });
        let peel_t = self.prep_time + t0.elapsed();
        let t1 = Instant::now();
        let hierarchy = lcps(self.graph(), &peeling);
        let post_t = t1.elapsed();
        Decomposition {
            kind: self.kind,
            algorithm: Algorithm::Lcps,
            backend: self.backend,
            engine,
            stats: SkeletonStats {
                subnuclei: hierarchy.nucleus_count(),
                adj_connections: 0,
            },
            peeling,
            hierarchy,
            times: PhaseTimes {
                peel: peel_t,
                post: post_t,
            },
        }
    }

    /// Frontier-engine tuning for this session's runs.
    fn frontier_options(&self) -> FrontierOptions {
        FrontierOptions {
            threads: self.threads,
            ..FrontierOptions::default()
        }
    }

    /// The algorithm dispatch, monomorphized per space *and* backend,
    /// fed from the cached space. `engine` is already resolved.
    fn run_algo<S: PeelSpace + Sync>(
        &self,
        space: &S,
        algorithm: Algorithm,
        engine: PeelEngine,
    ) -> Decomposition {
        match algorithm {
            // `resolve_engine` rejects LCPS×non-core and `run` branches
            // LCPS off before dispatching to a backend.
            Algorithm::Lcps => unreachable!("LCPS never reaches backend dispatch"),
            Algorithm::Fnd => {
                let out = match engine {
                    PeelEngine::Frontier => {
                        fnd_parallel_with(space, FndOptions::default(), self.frontier_options())
                    }
                    PeelEngine::Serial => fnd(space),
                };
                Decomposition {
                    kind: self.kind,
                    algorithm,
                    backend: self.backend,
                    engine,
                    peeling: out.peeling,
                    hierarchy: out.hierarchy,
                    times: PhaseTimes {
                        peel: self.prep_time + out.peel_time,
                        post: out.post_time,
                    },
                    stats: SkeletonStats {
                        subnuclei: out.stats.subnuclei,
                        adj_connections: out.stats.adj_connections,
                    },
                }
            }
            Algorithm::Naive | Algorithm::Dft => {
                let t0 = Instant::now();
                let peeling = match engine {
                    PeelEngine::Frontier => {
                        peel_with_sink(space, self.frontier_options(), &mut PlainSink)
                    }
                    PeelEngine::Serial => peel(space),
                };
                let peel_t = self.prep_time + t0.elapsed();
                let t1 = Instant::now();
                let (hierarchy, subnuclei) = match algorithm {
                    Algorithm::Naive => {
                        let h = naive(space, &peeling);
                        let c = h.nucleus_count();
                        (h, c)
                    }
                    _ => {
                        let (h, st) = dft(space, &peeling);
                        (h, st.subnuclei)
                    }
                };
                let post_t = t1.elapsed();
                Decomposition {
                    kind: self.kind,
                    algorithm,
                    backend: self.backend,
                    engine,
                    peeling,
                    hierarchy,
                    times: PhaseTimes {
                        peel: peel_t,
                        post: post_t,
                    },
                    stats: SkeletonStats {
                        subnuclei,
                        adj_connections: 0,
                    },
                }
            }
        }
    }

    /// Distinct vertices spanned by the member cells of hierarchy node
    /// `node` — [`crate::report::nucleus_vertices`] over the cached
    /// space, so session users can summarize nuclei without rebuilding
    /// one.
    pub fn nucleus_vertices(&self, hierarchy: &crate::hierarchy::Hierarchy, node: u32) -> Vec<u32> {
        with_space!(self.space, s => crate::report::nucleus_vertices(s, hierarchy, node))
    }

    /// Runs the *Hypo* baseline over the cached space: serial peeling
    /// plus one full sweep. Returns the phase times (peel includes
    /// [`Prepared::prep_time`]) and the number of s-connectivity
    /// components; no hierarchy is produced (that is the point of the
    /// baseline). Always peels serially, whatever engine the session's
    /// runs use.
    pub fn hypo_baseline(&self) -> (PhaseTimes, usize) {
        fn run_on<B: crate::space::PeelBackend>(space: &B, prep: Duration) -> (PhaseTimes, usize) {
            let t0 = Instant::now();
            let _ = peel(space);
            let peel_t = prep + t0.elapsed();
            let t1 = Instant::now();
            let comps = hypo_sweep(space);
            (
                PhaseTimes {
                    peel: peel_t,
                    post: t1.elapsed(),
                },
                comps,
            )
        }
        with_space!(self.space, s => match &self.index {
            Some(index) => run_on(&IndexedSpace::new(s, index), self.prep_time),
            None => run_on(s, self.prep_time),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, hypo_baseline};
    use crate::test_graphs;

    #[test]
    fn prepared_runs_match_one_shot_for_all_kinds() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let prepared = Nucleus::builder(&g).kind(kind).prepare().unwrap();
            for &algo in Algorithm::for_kind(kind) {
                let one_shot = decompose(&g, kind, algo).unwrap();
                let run = prepared.run(algo).unwrap();
                assert_eq!(
                    run.peeling.lambda, one_shot.peeling.lambda,
                    "{kind}/{algo} λ"
                );
                assert_eq!(
                    run.peeling.order, one_shot.peeling.order,
                    "{kind}/{algo} order"
                );
                assert_eq!(run.hierarchy, one_shot.hierarchy, "{kind}/{algo} hierarchy");
                if algo != Algorithm::Lcps {
                    // LCPS one-shots prepare lazily by design; other
                    // algorithms must resolve identically
                    assert_eq!(run.backend, one_shot.backend, "{kind}/{algo} backend");
                    assert_eq!(run.engine, one_shot.engine, "{kind}/{algo} engine");
                }
            }
        }
    }

    #[test]
    fn reruns_do_not_corrupt_prepared_state() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Materialized)
            .threads(2)
            .prepare()
            .unwrap();
        let first = prepared.run(Algorithm::Dft).unwrap();
        let second = prepared.run(Algorithm::Dft).unwrap();
        assert_eq!(first.peeling.lambda, second.peeling.lambda);
        assert_eq!(first.peeling.order, second.peeling.order);
        assert_eq!(first.hierarchy, second.hierarchy);
        // and a different algorithm on the same session still agrees
        let fnd = prepared.run(Algorithm::Fnd).unwrap();
        assert_eq!(fnd.hierarchy, first.hierarchy);
        let (_, comps1) = prepared.hypo_baseline();
        let (_, comps2) = prepared.hypo_baseline();
        assert_eq!(comps1, comps2);
    }

    #[test]
    fn plan_resolves_and_explains() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .threads(4)
            .prepare()
            .unwrap();
        // small graph + auto → materialized; DFT + 4 threads → frontier
        assert_eq!(prepared.backend(), Backend::Materialized);
        let plan = prepared.plan(Algorithm::Dft).unwrap();
        assert_eq!(plan.backend, Backend::Materialized);
        assert_eq!(plan.engine, PeelEngine::Frontier);
        assert_eq!(plan.threads, 4);
        assert!(plan.cells > 0);
        let text = plan.explain();
        assert!(text.contains("truss"), "{text}");
        assert!(text.contains("(2,3)"), "{text}");
        assert!(text.contains("materialized"), "{text}");
        assert!(text.contains("frontier"), "{text}");
        assert!(text.contains("auto"), "{text}");
        // prepared with 4 threads → the enumeration ran parallel
        assert!(text.contains("enumeration: parallel (t=4)"), "{text}");
        // FND on the same session rides the frontier engine too, and
        // the reason names the hybrid-round policy it runs under
        let plan = prepared.plan(Algorithm::Fnd).unwrap();
        assert_eq!(plan.engine, PeelEngine::Frontier);
        assert!(
            plan.engine_reason.contains("hybrid, serial below 64"),
            "{}",
            plan.engine_reason
        );
        // Display goes through explain
        assert_eq!(format!("{plan}"), plan.explain());
    }

    #[test]
    fn plan_and_run_reject_what_validate_rejects() {
        let g = test_graphs::nested_cores();
        // every backend × thread count prepares, and runs every
        // algorithm of the kind
        for backend in [Backend::Lazy, Backend::Materialized, Backend::Auto] {
            for threads in [1, 2] {
                let prepared = Nucleus::builder(&g)
                    .backend(backend)
                    .threads(threads)
                    .prepare()
                    .unwrap();
                for algo in Algorithm::ALL {
                    assert!(prepared.run(algo).is_ok(), "{algo} {backend} t{threads}");
                }
            }
        }
        // LCPS × non-core dies at plan/run
        let prepared = Nucleus::builder(&g).kind(Kind::EdgeK4).prepare().unwrap();
        assert!(prepared.plan(Algorithm::Lcps).is_err());
        let err = prepared.run(Algorithm::Lcps).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedAlgorithm { .. }),
            "{err}"
        );
    }

    #[test]
    fn lcps_reuses_a_materialized_session() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Core)
            .backend(Backend::Materialized)
            .prepare()
            .unwrap();
        let via_session = prepared.run(Algorithm::Lcps).unwrap();
        assert_eq!(via_session.backend, Backend::Materialized);
        let one_shot = decompose(&g, Kind::Core, Algorithm::Lcps).unwrap();
        // the shorthand prepares LCPS lazily, results agree
        assert_eq!(one_shot.backend, Backend::Lazy);
        assert_eq!(via_session.peeling.lambda, one_shot.peeling.lambda);
        assert_eq!(via_session.hierarchy, one_shot.hierarchy);
    }

    #[test]
    fn hypo_baseline_matches_one_shot() {
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let prepared = Nucleus::builder(&g).kind(kind).prepare().unwrap();
            let (_, comps) = prepared.hypo_baseline();
            let (_, one_shot) = hypo_baseline(&g, kind);
            assert_eq!(comps, one_shot, "{kind}");
        }
    }

    #[test]
    fn accessors_report_the_prepared_shape() {
        let g = test_graphs::nested_cores();
        let prepared = Nucleus::builder(&g)
            .kind(Kind::Truss)
            .backend(Backend::Lazy)
            .threads(3)
            .prepare()
            .unwrap();
        assert_eq!(prepared.kind(), Kind::Truss);
        assert_eq!(prepared.backend(), Backend::Lazy);
        assert_eq!(prepared.threads(), 3);
        assert_eq!(prepared.cells(), g.m());
        assert!(prepared.containers() > 0);
        assert!(prepared.estimated_index_bytes() > 0);
        // preparing shares g's buffers instead of copying the graph
        let buffer = g.neighbors(0).as_ptr();
        assert_eq!(g.clone().neighbors(0).as_ptr(), buffer);
        assert_eq!(prepared.graph().neighbors(0).as_ptr(), buffer);
    }
}
