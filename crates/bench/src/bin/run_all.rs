#![forbid(unsafe_code)]
//! Runs every experiment in sequence (Tables 1/3/4/5, Figure 6 plus the
//! raw timing grids), writing markdown + CSV under `results/`.
//! Usage: `run_all [--scale small|medium|large] [--naive34]`.
use nucleus_bench::experiments as ex;
use nucleus_core::Kind;

fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    nucleus_bench::emit("table3", "Table 3: dataset statistics", &ex::table3(scale));
    nucleus_bench::emit(
        "table4",
        "Table 4: k-core decomposition",
        &ex::table4(scale),
    );
    nucleus_bench::emit(
        "table5_truss",
        "Table 5 — (2,3) nuclei (fastest: FND)",
        &ex::table5_truss(scale),
    );
    nucleus_bench::emit(
        "table5_nucleus34",
        "Table 5 — (3,4) nuclei (fastest: FND)",
        &ex::table5_nucleus34(scale),
    );
    nucleus_bench::emit("figure6", "Figure 6: phase breakdown", &ex::figure6(scale));
    nucleus_bench::emit("table1", "Table 1: headline speedups", &ex::table1(scale));
    for (kind, name) in [
        (Kind::Core, "grid_core"),
        (Kind::Truss, "grid_truss"),
        (Kind::Nucleus34, "grid_nucleus34"),
    ] {
        nucleus_bench::emit(
            name,
            &format!("raw timing grid for {kind}"),
            &ex::timing_grid(scale, kind),
        );
    }
}
