#![forbid(unsafe_code)]
//! Regenerates Table 3: dataset statistics of the paper. Usage: `table3 [--scale small|medium|large]`.
fn main() {
    let scale = nucleus_bench::scale_from_args();
    println!("scale: {scale:?}");
    let t = nucleus_bench::experiments::table3(scale);
    nucleus_bench::emit("table3", "Table 3: dataset statistics", &t);
}
