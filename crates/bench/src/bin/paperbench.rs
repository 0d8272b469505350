//! The workspace's one binary: `paperbench <name>|all [flags]` runs any
//! registry experiment (`paperbench --list` enumerates them), and
//! `paperbench bench-delta` / `validate-trace` are the offline tools.
//! `paperbench --help` prints the flags.

fn main() -> std::process::ExitCode {
    paperbench::cli::main()
}
