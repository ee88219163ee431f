#![forbid(unsafe_code)]
//! Regenerates Figure 6: peeling vs post-processing breakdown (normalized to DFT total) of the paper. Usage: `figure6 [--scale small|medium|large]`.
fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    let t = nucleus_bench::experiments::figure6(scale);
    nucleus_bench::emit(
        "figure6",
        "Figure 6: peeling vs post-processing breakdown (normalized to DFT total)",
        &t,
    );
}
