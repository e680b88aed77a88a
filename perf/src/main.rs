//! `perf`: the end-to-end benchmark, on the system allocator.

fn main() -> std::process::ExitCode {
    cloudbench_perf::cli::main()
}
