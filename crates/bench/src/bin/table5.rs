#![forbid(unsafe_code)]
//! Regenerates Table 5 (both halves: (2,3) and (3,4) decompositions).
//! Usage: `table5 [--scale small|medium|large] [--naive34]`.
fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    let t = nucleus_bench::experiments::table5_truss(scale);
    nucleus_bench::emit("table5_truss", "Table 5 — (2,3) nuclei (fastest: FND)", &t);
    let t = nucleus_bench::experiments::table5_nucleus34(scale);
    nucleus_bench::emit(
        "table5_nucleus34",
        "Table 5 — (3,4) nuclei (fastest: FND)",
        &t,
    );
}
