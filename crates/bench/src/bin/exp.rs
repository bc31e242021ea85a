//! `exp <name> [flags]`: regenerates one table or figure of the paper's
//! evaluation, or runs one long-running driver. `exp` with no name lists
//! them all; see `rhb_bench::exp`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rhb_bench::exp::main(&args)
}
