use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    nucanet_benchmark::cli::main(&argv, process_start)
}
