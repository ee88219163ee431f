#![forbid(unsafe_code)]
//! `nucleus` binary entry point; all logic lives in [`nucleus_cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    if let Err(msg) = nucleus_cli::run(argv, &mut stdout) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
