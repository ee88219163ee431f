//! The serve side: set-up to the first answered request, a read-only
//! server driven by a fixed read script, and a mutable server driven by
//! a fixed mutation script beside a reader. Every latency is a
//! client-side round trip timed by the benchmark.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use nucleus_core::{Algorithm, Nucleus};
use nucleus_dynamic::DynamicGraph;
use nucleus_dynamic::EdgeOp;
use nucleus_graph::io::{read_edge_list_file, write_edge_list};
use nucleus_graph::CsrGraph;
use nucleus_serve::{
    ok_response, serve, Client, DynamicServeState, QueryAnswerer, Request, ServeConfig, ServeState,
    ServerReport,
};
use serde::Value;

use crate::report::Tally;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{max, median, ms, shuffle, tail};
use crate::Ctx;

/// Server workers and client connections: two each, one per CPU of the
/// two-CPU host the workloads are sized for.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Responses per query type compared byte for byte with the engine.
const VERIFIED_PER_TYPE: usize = 24;
/// Cells whose served λ is also checked over TCP after a mutation.
const TCP_LAMBDA_SAMPLE: usize = 64;
/// Mutations replayed in-process by a traced run.
const TRACED_MUTATIONS: usize = 10;
/// Mutations sent through one mutable server. Whether the first read
/// after a swap finds the new epoch in a warm cache depends on which
/// CPUs the server's workers land on, and that holds for a server's
/// whole life; many short servers average over the placements.
const MUTATIONS_PER_SERVER: usize = 8;

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

fn is_ok(resp: &str) -> bool {
    resp.starts_with(r#"{"ok":true"#)
}

fn parse(resp: &str) -> Option<Value> {
    serde_json::from_str::<Value>(resp).ok()
}

fn result_u64(resp: &Value, field: &str) -> Option<u64> {
    match resp.field("result").ok()?.field(field).ok()? {
        Value::U64(x) => Some(*x),
        _ => None,
    }
}

/// `s` with its last digit changed: a plausible wrong answer.
fn corrupted(s: &str) -> String {
    let mut bytes = s.as_bytes().to_vec();
    if let Some(b) = bytes.iter_mut().rev().find(|b| b.is_ascii_digit()) {
        *b = if *b == b'0' { b'1' } else { *b - 1 };
    }
    String::from_utf8(bytes).expect("ASCII digit swap keeps UTF-8")
}

fn write_edges(g: &CsrGraph, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    write_edge_list(g, file).map_err(|e| e.to_string())
}

/// One set-up, timed from input generation to the first answered
/// request: generate, write the edge list, parse it, prepare, build the
/// FND hierarchy, listen. `phase` then drives the live server. Returns
/// the set-up time (ms) and the server's report.
pub fn served_session(
    ctx: &mut Ctx,
    edges: &Path,
    phase: impl FnOnce(&mut Ctx, &ServeState, SocketAddr),
) -> Result<(f64, ServerReport), String> {
    let t0 = Instant::now();
    let kind = ctx.workload.kind();
    let outer = ctx.tr.open("setup");
    let generated = ctx
        .tr
        .time("input.generate", || ctx.workload.generate(ctx.seed));
    let written = ctx
        .tr
        .time("graph.io.write", || write_edges(&generated, edges));
    drop(generated);
    let parsed = written.and_then(|()| {
        ctx.tr
            .time("graph.io.parse", || read_edge_list_file(edges))
            .map_err(|e| e.to_string())
    });
    let g = match parsed {
        Ok(g) => g,
        Err(e) => {
            ctx.tr.close(outer);
            return Err(e);
        }
    };
    let prepared = ctx.tr.time("core.session.prepare", || {
        Nucleus::builder(&g).kind(kind).prepare()
    });
    let state = match prepared {
        Ok(p) => ServeState::new(p),
        Err(e) => {
            ctx.tr.close(outer);
            return Err(e.to_string());
        }
    };
    let built = ctx.tr.time("serve.engine.hierarchy", || {
        state.hierarchy(Algorithm::Fnd).is_ok()
    });
    let listener = ctx
        .tr
        .time("serve.server.listen", || TcpListener::bind("127.0.0.1:0"));
    ctx.tr.close(outer);
    let listener = listener.map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let config = config();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, &state, &config));
        // A worker serves one connection until it closes, so this one
        // is closed before the phase opens its own.
        let first =
            Client::connect(addr).and_then(|mut c| c.roundtrip(r#"{"query":"lambda","cell":0}"#));
        let setup_ms = ms(t0.elapsed());
        let resp = first.map_err(|e| e.to_string())?;
        ctx.tally.op(built && is_ok(&resp), || {
            format!("set-up: first request answered {resp}")
        });
        phase(ctx, &state, addr);
        let _ = Client::connect(addr).and_then(|mut c| c.roundtrip(r#"{"query":"shutdown"}"#));
        let report = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok((setup_ms, report))
    })
}

// ---------------------------------------------------------------- reads

/// The six read query types of the mix, in wire-name order.
const READ_TYPES: [&str; 6] = [
    "lambda",
    "nuclei_of",
    "members",
    "subtree",
    "density",
    "level_profile",
];

struct ScriptedRead {
    kind: usize,
    line: String,
    /// Connection that sends it.
    conn: usize,
}

const DENSITY: usize = 4;

/// The read script: equal counts of the six types, cells drawn
/// uniformly, nodes drawn as whole shuffled sweeps over the hierarchy,
/// so every node — the root's costly `density` included — is asked
/// the same number of times in every run. The script is a sequence of
/// slots, each sending one request of the same type (and, for node
/// queries, the same node) down every connection: the connections stay
/// in step, slow calls overlap by construction rather than by chance,
/// and both CPUs stay busy for the whole phase.
fn read_script(seed: u64, cells: u64, nodes: u64, per_type_target: usize) -> Vec<ScriptedRead> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAD);
    let lanes = CONNECTIONS as u64;
    let sweeps = (per_type_target as u64).div_ceil(nodes * lanes);
    let mut slots: Vec<(usize, u64)> = Vec::new();
    for kind in 0..READ_TYPES.len() {
        let mut draws: Vec<u64> = (0..sweeps * nodes).map(|i| i % nodes).collect();
        shuffle(&mut rng, &mut draws);
        slots.extend(draws.into_iter().map(|node| (kind, node)));
    }
    shuffle(&mut rng, &mut slots);
    let mut script = Vec::with_capacity(slots.len() * CONNECTIONS);
    for (kind, node) in slots {
        for conn in 0..CONNECTIONS {
            let name = READ_TYPES[kind];
            let line = match name {
                "lambda" | "nuclei_of" => {
                    format!(r#"{{"query":"{name}","cell":{}}}"#, rng.gen_range(0..cells))
                }
                "members" => format!(r#"{{"query":"members","node":{node},"limit":32}}"#),
                "level_profile" => r#"{"query":"level_profile"}"#.to_string(),
                _ => format!(r#"{{"query":"{name}","node":{node}}}"#),
            };
            script.push(ScriptedRead { kind, line, conn });
        }
    }
    script
}

/// Sends `lines` in order on one connection, closed loop. Returns the
/// round trips (ms) and the responses; a transport error ends the lane.
fn drive(addr: SocketAddr, lines: &[&str]) -> (Vec<f64>, Vec<String>) {
    let mut rtts = Vec::with_capacity(lines.len());
    let mut resps = Vec::with_capacity(lines.len());
    let Ok(mut client) = Client::connect(addr) else {
        return (rtts, resps);
    };
    for line in lines {
        let t = Instant::now();
        match client.roundtrip(line) {
            Ok(resp) => {
                rtts.push(ms(t.elapsed()));
                resps.push(resp);
            }
            Err(_) => break,
        }
    }
    (rtts, resps)
}

fn verify(tally: &mut Tally, state: &ServeState, line: &str, served: &str) {
    let expected = Request::parse(line)
        .map_err(|e| e.to_string())
        .and_then(|req| {
            state
                .answer(&req)
                .map(|v| ok_response(req.id, req.query.name(), v))
                .map_err(|e| e.to_string())
        });
    tally.op(expected.as_deref() == Ok(served), || {
        format!("served `{served}` for {line}, engine says {expected:?}")
    });
}

/// The read script, sent in slices spread over the run, each slice on
/// a freshly set-up server.
pub struct Reads {
    script: Vec<ScriptedRead>,
    /// Round trip (ms) per script entry; NaN until answered.
    rtt: Vec<f64>,
    wall_s: f64,
    verified: [usize; READ_TYPES.len()],
    selftest_done: bool,
    /// Server-side service time: Σ(mean × count) in ns, and Σ count.
    service_ns: (f64, f64),
}

impl Reads {
    pub fn new(seed: u64, cells: usize, nodes: usize, per_type_target: usize) -> Reads {
        let script = read_script(
            seed,
            cells.max(1) as u64,
            nodes.max(1) as u64,
            per_type_target,
        );
        Reads {
            rtt: vec![f64::NAN; script.len()],
            script,
            wall_s: 0.0,
            verified: [0; READ_TYPES.len()],
            selftest_done: false,
            service_ns: (0.0, 0.0),
        }
    }

    /// Sends slice `part` of `parts` to the live server, one closed-loop
    /// lane per connection. Counts every request and compares a sample
    /// of each type byte for byte with the in-process engine.
    pub fn run_slice(
        &mut self,
        ctx: &mut Ctx,
        state: &ServeState,
        addr: SocketAddr,
        part: usize,
        parts: usize,
    ) {
        let slots = self.script.len() / CONNECTIONS;
        let range =
            (part * slots / parts * CONNECTIONS)..((part + 1) * slots / parts * CONNECTIONS);
        let script = &self.script;
        let lanes: Vec<Vec<usize>> = (0..CONNECTIONS)
            .map(|c| range.clone().filter(|&i| script[i].conn == c).collect())
            .collect();
        let t0 = Instant::now();
        let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|lane| {
                    let lines: Vec<&str> = lane.iter().map(|&i| script[i].line.as_str()).collect();
                    scope.spawn(move || drive(addr, &lines))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.wall_s += t0.elapsed().as_secs_f64();

        let mut resp: Vec<Option<&str>> = vec![None; self.script.len()];
        for (lane, (rtts, resps)) in lanes.iter().zip(&results) {
            for (k, &i) in lane.iter().enumerate().take(rtts.len()) {
                self.rtt[i] = rtts[k];
                resp[i] = Some(&resps[k]);
            }
        }
        for i in range {
            let r = &self.script[i];
            let Some(served) = resp[i] else {
                ctx.tally.fail(format!("no response to {}", r.line));
                continue;
            };
            if self.verified[r.kind] == VERIFIED_PER_TYPE {
                ctx.tally
                    .op(is_ok(served), || format!("{} answered {served}", r.line));
                continue;
            }
            self.verified[r.kind] += 1;
            if !self.selftest_done {
                self.selftest_done = true;
                // The checker must reject a corrupted copy of a served answer.
                let mut probe = Tally::default();
                verify(&mut probe, state, &r.line, &corrupted(served));
                if probe.failed != 1 {
                    ctx.tally
                        .fail("self-test: a corrupted answer passed the check".to_string());
                }
                if ctx.corrupt {
                    verify(&mut ctx.tally, state, &r.line, &corrupted(served));
                    continue;
                }
            }
            verify(&mut ctx.tally, state, &r.line, served);
        }
    }

    /// Folds in the report of a server that answered a slice.
    pub fn absorb(&mut self, report: &ServerReport) {
        let latency = &report.metrics.latency;
        self.service_ns.0 += latency.mean_ns as f64 * latency.count as f64;
        self.service_ns.1 += latency.count as f64;
    }

    /// Sets `qps` and the read latencies; on traced runs, profiles the
    /// engine alone over the same script on `state`.
    pub fn finish(self, ctx: &mut Ctx, state: Option<&ServeState>) {
        let completed: Vec<f64> = self.rtt.iter().copied().filter(|x| x.is_finite()).collect();
        ctx.e2e
            .set("qps", completed.len() as f64 / self.wall_s, "1/s");
        ctx.e2e.set("read_p50_ms", median(&completed), "ms");
        ctx.e2e.set(
            "read_p999_ms",
            tail(&completed, 0.999).unwrap_or(f64::NAN),
            "ms",
        );
        ctx.record("read", completed);
        if let Some(state) = state {
            let mean_us = self.service_ns.0 / self.service_ns.1 / 1e3;
            ctx.layers
                .set("serve.server.service_mean_us", mean_us, "us");
            engine_profile(ctx, state, &self.script, &self.rtt);
        }
    }
}

/// Traced runs: the engine alone (`ServeState::answer`) on every request
/// of the script, per type, and the client's wait beyond it.
fn engine_profile(ctx: &mut Ctx, state: &ServeState, script: &[ScriptedRead], rtt: &[f64]) {
    let mut per_type: Vec<Vec<f64>> = vec![Vec::new(); READ_TYPES.len()];
    let mut waits = Vec::with_capacity(script.len());
    for (r, &client_ms) in script.iter().zip(rtt) {
        let Ok(req) = Request::parse(&r.line) else {
            continue;
        };
        let t = Instant::now();
        let _ = std::hint::black_box(state.answer(&req));
        let engine_ms = ms(t.elapsed());
        per_type[r.kind].push(engine_ms * 1e3);
        if client_ms.is_finite() {
            waits.push((client_ms - engine_ms) * 1e3);
        }
    }
    for (name, us) in READ_TYPES.iter().zip(&per_type) {
        ctx.layers
            .set(format!("serve.engine.{name}_p50_us"), median(us), "us");
        ctx.layers
            .set(format!("serve.engine.{name}_max_us"), max(us), "us");
    }
    let density_ms: f64 = per_type[DENSITY].iter().sum::<f64>() / 1e3;
    ctx.layers
        .set("serve.engine.density_total_ms", density_ms, "ms");
    ctx.layers.set("serve.client.wait_us", median(&waits), "us");
}

// ------------------------------------------------------------ mutations

/// `count` distinct vertex pairs that are not edges of `g`.
fn absent_pairs(g: &CsrGraph, count: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let n = g.n() as u32;
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !g.has_edge(u, v) && !pairs.contains(&(u, v)) {
            pairs.push((u, v));
        }
    }
    pairs
}

/// The mutation script: insert every pair, then delete exactly those
/// pairs in shuffled order. Every op applies, so every op swaps in a
/// new epoch and the graph ends where it started.
fn mutation_script(g: &CsrGraph, count: usize, seed: u64) -> (Vec<(u32, u32)>, Vec<EdgeOp>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D15);
    let pairs = absent_pairs(g, count / 2, &mut rng);
    let mut deletes = pairs.clone();
    shuffle(&mut rng, &mut deletes);
    let ops = pairs
        .iter()
        .map(|&(u, v)| EdgeOp::Insert(u, v))
        .chain(deletes.iter().map(|&(u, v)| EdgeOp::Delete(u, v)))
        .collect();
    (pairs, ops)
}

fn mutate_line(op: EdgeOp) -> String {
    let (sign, (u, v)) = (if op.is_insert() { "+" } else { "-" }, op.endpoints());
    format!(r#"{{"query":"mutate","ops":[["{sign}",{u},{v}]]}}"#)
}

fn lambda_of(resp: &Value) -> Option<u64> {
    match resp.field("lambda").ok()? {
        Value::U64(x) => Some(*x),
        _ => None,
    }
}

/// After a mutation: the served λ of every cell (in-process on the
/// served state, and over TCP on a sample) must equal λ from a fresh
/// prepare of the graph the mutations produced.
fn check_served_lambda(
    ctx: &mut Ctx,
    state: &DynamicServeState,
    client: &mut Client,
    edges: &[(u32, u32)],
    n: usize,
    when: &str,
) {
    let g = CsrGraph::from_edges(n, edges);
    let expected = Nucleus::builder(&g)
        .kind(ctx.workload.kind())
        .prepare()
        .and_then(|p| p.run(Algorithm::Fnd))
        .map(|d| d.peeling.lambda);
    let Ok(expected) = expected else {
        ctx.tally.fail(format!("{when}: fresh prepare failed"));
        return;
    };
    let served = |cell: usize| {
        Request::parse(&format!(r#"{{"query":"lambda","cell":{cell}}}"#))
            .ok()
            .and_then(|req| state.answer(&req).ok())
            .and_then(|v| lambda_of(&v))
    };
    // One past the last cell must be out of range: the cell counts agree.
    let mismatches = (0..=expected.len())
        .filter(|&c| served(c) != expected.get(c).map(|&l| l as u64))
        .count();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7C9);
    let tcp_mismatches = (0..TCP_LAMBDA_SAMPLE)
        .filter(|_| {
            let cell = rng.gen_range(0..expected.len());
            let resp = client.roundtrip(&format!(r#"{{"query":"lambda","cell":{cell}}}"#));
            let got = resp
                .ok()
                .and_then(|r| parse(&r))
                .and_then(|v| v.field("result").ok().and_then(lambda_of));
            got != Some(expected[cell] as u64)
        })
        .count();
    ctx.tally.op(mismatches == 0 && tcp_mismatches == 0, || {
        format!("{when}: served λ differs from a fresh prepare on {mismatches} cells ({tcp_mismatches} of the TCP sample)")
    });
}

/// The mutation script against one `DynamicServeState`, sent in slices
/// spread over the run, each slice on servers of its own over that
/// state, `MUTATIONS_PER_SERVER` mutations per server. One connection
/// sends the mutations; after each epoch swap the other sends
/// `reads_per_epoch` point lookups, the first of which builds the new
/// epoch's hierarchy. The writer waits for that first read, so every
/// epoch is read first exactly once and the rebuild count is fixed.
pub struct Mutations<'g> {
    g: &'g CsrGraph,
    state: DynamicServeState,
    pairs: Vec<(u32, u32)>,
    ops: Vec<EdgeOp>,
    reader_rng: StdRng,
    mutate_ms: Vec<f64>,
    reads: Vec<f64>,
    first_reads: Vec<f64>,
    /// Median first read after a swap, per server.
    first_read_medians: Vec<f64>,
    /// Summed `applied`, `skipped` and `coalesced` of the responses.
    counts: [u64; 3],
}

impl<'g> Mutations<'g> {
    pub fn new(ctx: &Ctx, g: &'g CsrGraph) -> Result<Mutations<'g>, String> {
        let state = DynamicServeState::new(g, ctx.workload.kind()).map_err(|e| e.to_string())?;
        let (pairs, ops) = mutation_script(g, ctx.plan.mutations, ctx.seed);
        Ok(Mutations {
            g,
            state,
            pairs,
            ops,
            reader_rng: StdRng::seed_from_u64(ctx.seed ^ 0x2EAD),
            mutate_ms: Vec::new(),
            reads: Vec::new(),
            first_reads: Vec::new(),
            first_read_medians: Vec::new(),
            counts: [0; 3],
        })
    }

    /// Sends slice `part` of `parts` of the mutation script.
    pub fn run_slice(&mut self, ctx: &mut Ctx, part: usize, parts: usize) {
        let total = self.ops.len();
        let (start, end) = (part * total / parts, (part + 1) * total / parts);
        for from in (start..end).step_by(MUTATIONS_PER_SERVER) {
            self.serve_ops(ctx, from..end.min(from + MUTATIONS_PER_SERVER));
        }
    }

    /// Sends the mutations in `range` through a server of their own.
    fn serve_ops(&mut self, ctx: &mut Ctx, range: std::ops::Range<usize>) {
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => return ctx.tally.fail(format!("mutable server: {e}")),
        };
        let Ok(addr) = listener.local_addr() else {
            return ctx
                .tally
                .fail("mutable server: no local address".to_string());
        };
        let config = config();
        let cells0 = ctx.facts.cells.max(1) as u64;
        let reads_per_epoch = ctx.plan.reads_per_epoch;
        let Mutations {
            g,
            state,
            pairs,
            ops,
            reader_rng,
            mutate_ms,
            reads,
            first_reads,
            first_read_medians,
            counts,
        } = self;
        let state = &*state;
        // The first request on a connection waits for the accept loop's
        // poll tick; an untimed `stats` takes that wait.
        let connect = || {
            Client::connect(addr).and_then(|mut c| c.roundtrip(r#"{"query":"stats"}"#).map(|_| c))
        };
        let (failures, firsts, report) = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(listener, state, &config));
            let (epoch_tx, epoch_rx) = mpsc::channel::<()>();
            let (ack_tx, ack_rx) = mpsc::channel::<()>();
            let reader = scope.spawn(move || {
                let (mut failed, mut firsts) = (Vec::new(), Vec::new());
                let Ok(mut client) = connect() else {
                    failed.push("reader could not connect".to_string());
                    return (failed, firsts);
                };
                let mut k = 0usize;
                while epoch_rx.recv().is_ok() {
                    for i in 0..reads_per_epoch {
                        let q = if k.is_multiple_of(2) {
                            "lambda"
                        } else {
                            "nuclei_of"
                        };
                        k += 1;
                        let line = format!(
                            r#"{{"query":"{q}","cell":{}}}"#,
                            reader_rng.gen_range(0..cells0)
                        );
                        let t = Instant::now();
                        let resp = client.roundtrip(&line);
                        let rtt = ms(t.elapsed());
                        match resp {
                            Ok(r) if is_ok(&r) => reads.push(rtt),
                            Ok(r) => failed.push(format!("{line} answered {r}")),
                            Err(e) => failed.push(format!("{line}: {e}")),
                        }
                        if i == 0 {
                            firsts.push(rtt);
                            let _ = ack_tx.send(());
                        }
                    }
                }
                (failed, firsts)
            });

            let mut client = connect();
            for i in range {
                let Ok(c) = client.as_mut() else { break };
                let line = mutate_line(ops[i]);
                let t = Instant::now();
                let resp = c.roundtrip(&line);
                let rtt = ms(t.elapsed());
                let v = resp.as_deref().ok().and_then(parse);
                let field = |name| v.as_ref().and_then(|v| result_u64(v, name));
                for (slot, name) in counts.iter_mut().zip(["applied", "skipped", "coalesced"]) {
                    *slot += field(name).unwrap_or(0);
                }
                let ok = field("applied") == Some(1) && field("epoch") == Some(i as u64 + 1);
                ctx.tally.op(ok, || format!("{line} answered {resp:?}"));
                if ok {
                    mutate_ms.push(rtt);
                }
                let _ = epoch_tx.send(());
                let _ = ack_rx.recv();
                let base = g.edges().map(|(_, u, v)| (u, v));
                if i + 1 == pairs.len() {
                    let grown: Vec<(u32, u32)> = base.chain(pairs.iter().copied()).collect();
                    check_served_lambda(ctx, state, c, &grown, g.n(), "after the inserts");
                } else if i + 1 == ops.len() {
                    let base: Vec<(u32, u32)> = base.collect();
                    check_served_lambda(ctx, state, c, &base, g.n(), "after the deletes");
                }
            }
            drop(epoch_tx);
            let (failures, firsts) = reader.join().expect("reader thread panicked");
            match client.as_mut() {
                Ok(c) => {
                    let _ = c.roundtrip(r#"{"query":"shutdown"}"#);
                }
                Err(e) => ctx.tally.fail(format!("writer could not connect: {e}")),
            }
            let report = server.join().expect("server thread panicked");
            (failures, firsts, report)
        });
        if !firsts.is_empty() {
            first_read_medians.push(median(&firsts));
            first_reads.extend(firsts);
        }
        match report {
            Ok(r) => ctx.server.absorb(&r),
            Err(e) => ctx.tally.fail(format!("mutable server: {e}")),
        }
        for f in failures {
            ctx.tally.fail(f);
        }
    }

    /// Sets the mutation metrics; traced runs add the dynamic layers.
    pub fn finish(self, ctx: &mut Ctx) {
        ctx.tally.attempted += self.reads.len() as u64;
        ctx.e2e.set("mutate_p50_ms", median(&self.mutate_ms), "ms");
        // The first read on each epoch builds its hierarchy. Its cost has
        // one mode per worker placement, so a percentile of the pooled
        // reads jumps between modes from run to run; the mean over
        // servers of each server's median moves smoothly.
        let first =
            self.first_read_medians.iter().sum::<f64>() / self.first_read_medians.len() as f64;
        ctx.e2e.set("mutate_first_read_ms", first, "ms");
        if ctx.tr.enabled() {
            for (name, v) in ["dynamic.applied", "dynamic.skipped", "dynamic.coalesced"]
                .iter()
                .zip(self.counts)
            {
                ctx.layers.set(*name, v as f64, "count");
            }
            ctx.layers
                .set("serve.dynamic.epochs", self.state.epoch() as f64, "count");
            let first = median(&self.first_reads);
            ctx.layers
                .set("serve.dynamic.first_read_after_swap_ms", first, "ms");
            dynamic_profile(ctx, self.g, &self.pairs, &self.ops);
        }
        ctx.record("mutate", self.mutate_ms);
        ctx.record("read_beside_mutate", self.reads);
    }
}

/// Traced runs: the dynamic layers called in-process — the mutable
/// engine's `answer(mutate)`, the epoch rebuild it performs, and
/// `DynamicGraph::apply` with and without truss maintenance.
fn dynamic_profile(ctx: &mut Ctx, g: &CsrGraph, pairs: &[(u32, u32)], ops: &[EdgeOp]) {
    let kind = ctx.workload.kind();
    let few = &pairs[..TRACED_MUTATIONS.min(pairs.len())];
    let few_ops: Vec<EdgeOp> = few
        .iter()
        .map(|&(u, v)| EdgeOp::Insert(u, v))
        .chain(few.iter().rev().map(|&(u, v)| EdgeOp::Delete(u, v)))
        .collect();
    if let Ok(state) = DynamicServeState::new(g, kind) {
        let read = Request::parse(r#"{"query":"lambda","cell":0}"#).expect("valid request");
        for &op in &few_ops {
            let Ok(req) = Request::parse(&mutate_line(op)) else {
                continue;
            };
            let r = ctx.tr.time("serve.dynamic.mutate", || state.answer(&req));
            ctx.tally
                .op(r.is_ok(), || format!("in-process mutate: {r:?}"));
            let r = ctx
                .tr
                .time("serve.dynamic.first_read", || state.answer(&read));
            ctx.tally
                .op(r.is_ok(), || format!("in-process read: {r:?}"));
        }
    }
    let mut topo = DynamicGraph::topology(g);
    for &op in &few_ops[..few.len()] {
        topo.apply(&[op]);
        let d = ctx.tr.time("serve.dynamic.epoch_rebuild", || {
            let snapshot = topo.to_graph();
            Nucleus::builder(&snapshot)
                .kind(kind)
                .prepare()
                .and_then(|p| p.run(Algorithm::Fnd))
                .is_ok()
        });
        ctx.tally.op(d, || "epoch rebuild failed".to_string());
    }
    for (name, mut dg) in [
        ("dynamic.graph.apply_topology", DynamicGraph::topology(g)),
        (
            "dynamic.graph.apply_truss",
            DynamicGraph::new(g, nucleus_core::Kind::Truss),
        ),
    ] {
        for &op in ops {
            let report = ctx.tr.time(name, || dg.apply(&[op]));
            ctx.tally.op(report.applied == 1, || {
                format!("{name}: {op:?} did not apply")
            });
        }
    }
    let tr = &ctx.tr;
    let med = |name: &str| median(&tr.durations(name));
    let set = [
        ("serve.dynamic.mutate_ms", med("serve.dynamic.mutate"), "ms"),
        (
            "serve.dynamic.epoch_rebuild_ms",
            med("serve.dynamic.epoch_rebuild"),
            "ms",
        ),
        (
            "dynamic.graph.apply_topology_us",
            med("dynamic.graph.apply_topology") * 1e3,
            "us",
        ),
        (
            "dynamic.graph.apply_truss_us",
            med("dynamic.graph.apply_truss") * 1e3,
            "us",
        ),
    ];
    for (name, v, unit) in set {
        ctx.layers.set(name, v, unit);
    }
}
