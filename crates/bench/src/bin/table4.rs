#![forbid(unsafe_code)]
//! Regenerates Table 4: k-core decomposition of the paper. Usage: `table4 [--scale small|medium|large]`.
fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    let t = nucleus_bench::experiments::table4(scale);
    nucleus_bench::emit("table4", "Table 4: k-core decomposition", &t);
}
