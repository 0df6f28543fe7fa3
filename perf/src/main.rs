//! `farmem-perf` command line; see `README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match farmem_perf::cli::parse(&argv) {
        Ok(args) => farmem_perf::cli::main_with(&args),
        Err(e) => {
            eprintln!("farmem-perf: {e} (try --help)");
            2
        }
    };
    std::process::exit(code);
}
