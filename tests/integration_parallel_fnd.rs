//! End-to-end parallel-FND flow through the CLI: `decompose --algo fnd
//! --threads 2` (the frontier engine) must produce the same hierarchy
//! rendering as `--threads 1` (the serial engine) on every peeling
//! family, and `--explain` must name the frontier engine and its
//! hybrid-round policy.

use std::path::PathBuf;

fn cli(argv: &[&str]) -> Result<String, String> {
    let mut out = Vec::new();
    nucleus_cli::run(argv.iter().map(|s| s.to_string()).collect(), &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nucleus-integration-parallel-fnd");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Everything after the first line; the first line carries wall-clock
/// timings that legitimately differ between runs.
fn body(out: &str) -> String {
    out.lines().skip(1).collect::<Vec<_>>().join("\n")
}

#[test]
fn frontier_fnd_matches_serial_on_every_kind() {
    let graph = tmp("ba.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&[
        "generate", "--model", "ba", "--n", "250", "--m", "4", "--seed", "7", "--out", graph_s,
    ])
    .unwrap();

    for kind in ["core", "vertex-triangle", "truss", "edge-k4", "nucleus34"] {
        let run = |threads| {
            cli(&[
                "decompose",
                "--input",
                graph_s,
                "--kind",
                kind,
                "--algo",
                "fnd",
                "--threads",
                threads,
                "--depth",
                "4",
            ])
            .unwrap()
        };
        let serial = run("1");
        assert!(
            serial.contains("[materialized][serial]"),
            "{kind}: {serial}"
        );
        let frontier = run("2");
        assert!(
            frontier.contains("[materialized][frontier]"),
            "{kind}: {frontier}"
        );
        assert_eq!(
            body(&serial),
            body(&frontier),
            "{kind}: hierarchies diverge"
        );
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn explain_names_the_hybrid_round_policy() {
    let graph = tmp("karate.txt");
    let graph_s = graph.to_str().unwrap();
    cli(&["generate", "--model", "karate", "--out", graph_s]).unwrap();

    let explained = cli(&[
        "decompose",
        "--input",
        graph_s,
        "--kind",
        "truss",
        "--algo",
        "fnd",
        "--threads",
        "2",
        "--explain",
    ])
    .unwrap();
    assert!(explained.contains("plan:"), "{explained}");
    assert!(explained.contains("frontier"), "{explained}");
    assert!(explained.contains("hybrid, serial below 64"), "{explained}");
    std::fs::remove_file(&graph).ok();
}

/// FND's |T*| depends on the engine although the hierarchy does not:
/// the serial loop counts the sub-nuclei Alg. 8 creates, which depends
/// on the processing order; the frontier engine counts same-λ
/// components, which are DFT's maximal sub-nuclei |T|.
#[test]
fn fnd_subnuclei_count_depends_on_the_engine() {
    use nucleus_core::{Algorithm, Kind, Nucleus, PeelEngine};
    let g = nucleus_gen::rmat::rmat(9, 8, nucleus_gen::rmat::RmatParams::skewed(), 1);
    for kind in Kind::all() {
        let run = |threads, algo| {
            Nucleus::builder(&g)
                .kind(kind)
                .threads(threads)
                .prepare()
                .unwrap()
                .run(algo)
                .unwrap()
        };
        let serial = run(1, Algorithm::Fnd);
        let frontier = run(2, Algorithm::Fnd);
        let dft = run(1, Algorithm::Dft);
        assert_eq!(serial.engine, PeelEngine::Serial, "{kind}");
        assert_eq!(frontier.engine, PeelEngine::Frontier, "{kind}");
        assert_eq!(serial.hierarchy, frontier.hierarchy, "{kind}");
        assert!(
            serial.stats.subnuclei >= frontier.stats.subnuclei,
            "{kind}: serial |T*| {} < frontier {}",
            serial.stats.subnuclei,
            frontier.stats.subnuclei
        );
        assert_eq!(frontier.stats.subnuclei, dft.stats.subnuclei, "{kind}");
    }
}
