//! The workloads and how much work one run does.
//!
//! Every workload is one user session over one seeded graph: the edge
//! list is built into a persisted index, reloaded, served read-only over
//! TCP and then served mutably. The workloads differ in the graph and
//! the (r, s) family, and so in which layers carry the time.

use nucleus_core::Kind;
use nucleus_gen::rmat::{rmat, RmatParams};
use nucleus_graph::CsrGraph;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// (2,3) truss of Barabási–Albert n = 10 000, m = 6.
    TrussBa,
    /// (3,4) nucleus of eight disjoint skewed R-MAT blocks, each of
    /// scale 8 and edge factor 8.
    Nucleus34Rmat,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::TrussBa, Workload::Nucleus34Rmat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrussBa => "truss-ba",
            Workload::Nucleus34Rmat => "nucleus34-rmat",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn kind(self) -> Kind {
        match self {
            Workload::TrussBa => Kind::Truss,
            Workload::Nucleus34Rmat => Kind::Nucleus34,
        }
    }

    /// The workload's input graph; the seed fixes it.
    pub fn generate(self, seed: u64) -> CsrGraph {
        match self {
            Workload::TrussBa => nucleus_gen::ba::barabasi_albert(10_000, 6, seed),
            Workload::Nucleus34Rmat => disjoint_union(
                &(0..8)
                    .map(|i| {
                        rmat(
                            8,
                            8,
                            RmatParams::skewed(),
                            seed.wrapping_mul(8).wrapping_add(i),
                        )
                    })
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// The graphs side by side, vertex ids shifted block by block. Eight
/// independent blocks vary less from seed to seed than one block eight
/// times the size, whose few hubs decide its clique counts.
fn disjoint_union(parts: &[CsrGraph]) -> CsrGraph {
    let mut edges = Vec::new();
    let mut offset = 0u32;
    for part in parts {
        edges.extend(part.edges().map(|(_, u, v)| (u + offset, v + offset)));
        offset += part.n() as u32;
    }
    CsrGraph::from_edges(offset as usize, &edges)
}

/// How much work one run does. Derived from `--seconds` alone, never
/// from a clock, so one setting gives the same scripts on every run.
/// The floors keep at least ten samples beyond every reported tail.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Rounds; each one set-up, a build batch and a slice of each script.
    pub rounds: usize,
    /// Cold builds and warm reloads per round.
    pub builds_per_round: usize,
    /// Target count per read query type; rounded up to whole sweeps
    /// over the hierarchy's nodes.
    pub reads_per_type: usize,
    /// Single-edge mutations (half inserts, then the matching deletes).
    pub mutations: usize,
    /// Reads issued on each epoch of the mutable server.
    pub reads_per_epoch: usize,
}

impl Plan {
    pub fn for_seconds(seconds: u64) -> Plan {
        let scale = seconds.max(1) as f64 / 15.0;
        let scaled = |base: f64, floor: usize| ((base * scale).round() as usize).max(floor);
        Plan {
            rounds: scaled(10.0, 4),
            builds_per_round: 2,
            reads_per_type: scaled(2000.0, 200),
            mutations: scaled(300.0, 200) & !1,
            reads_per_epoch: 4,
        }
    }
}
