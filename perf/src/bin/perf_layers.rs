//! `perf-layers`: the same command line as `perf`, with allocations
//! counted. `perf layers` hands over to this binary; nothing else should.

use cloudbench_perf::alloc::CountingAlloc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    cloudbench_perf::cli::main()
}
