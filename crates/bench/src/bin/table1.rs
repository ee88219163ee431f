#![forbid(unsafe_code)]
//! Regenerates Table 1: headline speedups (best algorithm per decomposition) of the paper. Usage: `table1 [--scale small|medium|large]`.
fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    let t = nucleus_bench::experiments::table1(scale);
    nucleus_bench::emit(
        "table1",
        "Table 1: headline speedups (best algorithm per decomposition)",
        &t,
    );
}
