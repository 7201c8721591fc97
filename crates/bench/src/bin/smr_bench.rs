//! The one benchmark binary: `smr_bench <subcommand> [flags]` (see
//! `bench::cli::USAGE`). Sweeps re-spawn this executable as `smr_bench run …`
//! once per scenario.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::cli::main(&args));
}
