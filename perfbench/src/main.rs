//! End-to-end benchmark of the nucleus pipeline.
//!
//! One run executes one workload as a user drives it: generate the
//! input and write it as an edge list, build it into a persisted index
//! (`Nucleus::builder(..).prepare()` → `run(Fnd)` → `save`), reload it
//! (`PreparedIndex::load` → `prepare_from_index`), serve it read-only
//! over TCP with `nucleus_serve::serve`, then serve it mutably. Every
//! answer is checked. The last line of standard output is the result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run records spans around each call into a layer and
//! reports the per-layer metrics instead (see `README.md`).
//!
//! Usage: `nucleus-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> --work-dir <dir> [--corrupt]`

mod pipeline;
mod report;
mod serving;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use nucleus_core::DecomposeOptions;
use nucleus_graph::io::read_edge_list_file;
use nucleus_serve::ServerReport;

use pipeline::InputFacts;
use report::{Metrics, Tally};
use stats::{median, ms, quantile};
use trace::Tracer;
use workload::{Plan, Workload};

/// Totals over the servers a run started.
#[derive(Debug, Default)]
pub struct ServerTotals {
    connections: u64,
    errors: u64,
}

impl ServerTotals {
    pub fn absorb(&mut self, r: &ServerReport) {
        self.connections += r.connections;
        self.errors += r.metrics.errors;
    }
}

/// Everything one run shares between its phases.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    /// The session default: every CPU.
    pub threads: usize,
    /// Replace one served answer with a wrong one (self-test).
    pub corrupt: bool,
    pub tr: Tracer,
    pub tally: Tally,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub facts: InputFacts,
    pub server: ServerTotals,
    /// Latency samples (ms) by family, for the distribution lines.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Ctx {
    /// Keeps one family's latency samples, replacing earlier ones.
    pub fn record(&mut self, family: &'static str, samples: Vec<f64>) {
        self.samples.retain(|(f, _)| *f != family);
        self.samples.push((family, samples));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut corrupt) = (1, 20, false, false);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join("|")
                    )
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        corrupt,
        work_dir,
    })
}

/// Stolen and total CPU ticks of the whole machine, from `/proc/stat`:
/// on a virtual machine, time the host gave to other guests.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// VmHWM of this process: it runs a single workload, so the peak
/// belongs to that workload alone.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The whole session; end-to-end metrics land in `ctx.e2e`, per-layer
/// metrics (traced runs) in `ctx.layers`. After a warm-up the run goes
/// in rounds, each a set-up that serves a slice of the read script, a
/// batch of builds and reloads, and a slice of the mutation script, so
/// every metric samples the whole run rather than one burst of it.
fn run(ctx: &mut Ctx, dir: &Path) {
    let edges = dir.join("graph.txt");
    let index = dir.join("graph.idx");
    let Some(reference) = warm_up(ctx, &edges, &index) else {
        return ctx.tally.fail("no warm-up build succeeded".to_string());
    };
    let g = match read_edge_list_file(&edges) {
        Ok(g) => g,
        Err(e) => return ctx.tally.fail(format!("reading the edge list: {e}")),
    };
    let mut reads = serving::Reads::new(
        ctx.seed,
        ctx.facts.cells,
        reference.hierarchy.len(),
        ctx.plan.reads_per_type,
    );
    let mut mutations = match serving::Mutations::new(ctx, &g) {
        Ok(m) => m,
        Err(e) => return ctx.tally.fail(format!("mutable server: {e}")),
    };
    let traced = ctx.tr.enabled();
    let mut builds = pipeline::Builds::default();
    // Traced runs time the same builds untraced too: the difference is
    // the cost of tracing.
    let mut untraced_builds = pipeline::Builds::default();
    let mut setup_ms = Vec::new();

    let (rounds, per_round) = (ctx.plan.rounds, ctx.plan.builds_per_round);
    for round in 0..rounds {
        let session = serving::served_session(ctx, &edges, |ctx, state, addr| {
            reads.run_slice(ctx, state, addr, round, rounds)
        });
        match session {
            Ok((t, report)) => {
                setup_ms.push(t);
                ctx.server.absorb(&report);
                reads.absorb(&report);
            }
            Err(e) => ctx.tally.fail(format!("set-up: {e}")),
        }
        if traced {
            ctx.tr.set_enabled(false);
            untraced_builds.run(ctx, &edges, &index, per_round, Some(&reference));
            ctx.tr.set_enabled(true);
        }
        builds.run(ctx, &edges, &index, per_round, Some(&reference));
        mutations.run_slice(ctx, round, rounds);
    }

    ctx.e2e.set("setup_s", median(&setup_ms) / 1e3, "s");
    ctx.record("setup", setup_ms);
    if traced {
        let (b0, r0) = untraced_builds.medians();
        let (b1, r1) = builds.medians();
        ctx.layers
            .set("trace.overhead_ms", (b1 + r1) - (b0 + r0), "ms");
    }
    builds.finish(ctx);
    mutations.finish(ctx);
    if traced {
        // The engine alone, over the same script, on a state of its own.
        let kind = ctx.workload.kind();
        match nucleus_core::Nucleus::builder(&g).kind(kind).prepare() {
            Ok(p) => reads.finish(ctx, Some(&nucleus_serve::ServeState::new(p))),
            Err(e) => ctx.tally.fail(format!("engine profile: {e}")),
        }
        pipeline::layer_calls(ctx, &g, &reference);
        layer_metrics(ctx, &reference);
    } else {
        reads.finish(ctx, None);
    }
    pipeline::check_reference_lambda(ctx, &g, &reference);
}

/// Untimed and untraced: one set-up and a few builds, so the first
/// timed samples do not pay for cold caches and idle CPUs. Returns the
/// first build, the reference every later result must equal.
fn warm_up(ctx: &mut Ctx, edges: &Path, index: &Path) -> Option<nucleus_core::Decomposition> {
    const WARM_UP_BUILDS: usize = 8;
    let traced = ctx.tr.enabled();
    ctx.tr.set_enabled(false);
    if let Err(e) = serving::served_session(ctx, edges, |_, _, _| {}) {
        ctx.tally.fail(format!("warm-up set-up: {e}"));
    }
    let mut builds = pipeline::Builds::default();
    builds.run(ctx, edges, index, WARM_UP_BUILDS, None);
    ctx.tr.set_enabled(traced);
    builds.finish(ctx)
}

/// Per-layer metrics read off the spans, plus the counts.
fn layer_metrics(ctx: &mut Ctx, reference: &nucleus_core::Decomposition) {
    let tr = &ctx.tr;
    let med = |name: &str| median(&tr.durations(name));
    let under = |name: &str, parent: &str| median(&tr.durations_in(name, parent));
    let timings = [
        ("graph.io.parse_ms", under("graph.io.parse", "build")),
        ("graph.io.write_ms", med("graph.io.write")),
        ("cliques.edge_supports_ms", med("cliques.edge_supports")),
        ("cliques.triangle_list_ms", med("cliques.triangle_list")),
        ("cliques.triangle_index_ms", med("cliques.triangle_index")),
        ("cliques.k4_degrees_ms", med("cliques.k4_degrees")),
        (
            "core.session.prepare_ms",
            under("core.session.prepare", "build"),
        ),
        ("core.session.run_fnd_ms", med("core.session.run_fnd")),
        ("core.session.prepare_t1_ms", med("core.session.prepare_t1")),
        ("core.session.run_fnd_t1_ms", med("core.session.run_fnd_t1")),
        (
            "core.session.prepare_from_index_ms",
            med("core.session.prepare_from_index"),
        ),
        ("core.fnd.classify_ms", med("core.fnd.classify")),
        ("core.fnd.assemble_ms", med("core.fnd.assemble")),
        ("core.persist.save_ms", med("core.persist.save")),
        ("core.persist.load_ms", med("core.persist.load")),
        ("serve.engine.hierarchy_ms", med("serve.engine.hierarchy")),
    ];
    let coverage = [
        ("trace.coverage.build", median(&tr.coverage("build"))),
        ("trace.coverage.reload", median(&tr.coverage("reload"))),
        ("trace.coverage.setup", median(&tr.coverage("setup"))),
    ];
    for (name, v) in timings {
        ctx.layers.set(name, v, "ms");
    }
    for (name, v) in coverage {
        ctx.layers.set(name, v, "ratio");
    }
    let counts = [
        ("cliques.containers", ctx.facts.containers as f64),
        ("core.cells", ctx.facts.cells as f64),
        ("core.max_lambda", reference.hierarchy.max_lambda() as f64),
        ("core.hierarchy.nodes", reference.hierarchy.len() as f64),
        ("serve.server.connections", ctx.server.connections as f64),
        ("serve.server.errors", ctx.server.errors as f64),
    ];
    for (name, v) in counts {
        ctx.layers.set(name, v, "count");
    }
    ctx.layers.set(
        "core.persist.index_bytes",
        ctx.facts.index_bytes as f64,
        "bytes",
    );
}

fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dir = args.work_dir.join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let mut ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        plan: Plan::for_seconds(args.seconds),
        threads: DecomposeOptions::default().effective_threads(),
        corrupt: args.corrupt,
        tr: Tracer::new(args.trace, run_id.clone()),
        tally: Tally::default(),
        e2e: Metrics::default(),
        layers: Metrics::default(),
        facts: InputFacts::default(),
        server: ServerTotals::default(),
        samples: Vec::new(),
    };

    let t0 = Instant::now();
    let ticks0 = cpu_ticks();
    run(&mut ctx, &dir);
    let wall_s = ms(t0.elapsed()) / 1e3;
    let steal_pct = match (ticks0, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    ctx.e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = if args.trace { &ctx.layers } else { &ctx.e2e };
    let correct = ctx.tally.failed == 0 && metrics.complete();
    let failed_frac = ctx.tally.failed as f64 / ctx.tally.attempted.max(1) as f64;
    let f = &ctx.facts;
    println!(
        "provenance: commit={} nproc={} threads={} workload={} seed={} trace={} plan={:?} \
         host_steal={steal_pct:.1}%",
        commit(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        ctx.threads,
        args.workload.name(),
        args.seed,
        args.trace as u8,
        ctx.plan,
    );
    println!(
        "input: n={} m={} cells={} containers={} index_bytes={}",
        f.n, f.m, f.cells, f.containers, f.index_bytes
    );
    for (family, v) in &ctx.samples {
        println!(
            "samples {family}: n={} min={:.4} p10={:.4} p50={:.4} p90={:.4} p95={:.4} p99={:.4} p999={:.4} max={:.4} ms",
            v.len(),
            quantile(v, 0.0),
            quantile(v, 0.1),
            quantile(v, 0.5),
            quantile(v, 0.9),
            quantile(v, 0.95),
            quantile(v, 0.99),
            quantile(v, 0.999),
            quantile(v, 1.0),
        );
    }
    if args.trace {
        let path = args.work_dir.join(format!("trace-{run_id}.json"));
        match std::fs::write(&path, ctx.tr.to_json()) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    for line in metrics.lines() {
        println!("{line}");
    }
    println!(
        "failed_frac {failed_frac} ratio ({} of {} operations failed; run took {wall_s:.1} s)",
        ctx.tally.failed, ctx.tally.attempted
    );
    for note in ctx.tally.notes() {
        eprintln!("failure: {note}");
    }
    println!("{}", metrics.result_json(correct, &ctx.tally));
    std::process::exit(if correct { 0 } else { 3 });
}
