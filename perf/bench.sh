#!/usr/bin/env bash
# The benchmark's entry point, run from the root of a checkout as
#
#   bash perf/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the perf crate from source (release, offline; a no-op once built)
# and hands the flags to `perf run`. Build output goes to stderr so that
# the last line of stdout is the run's one-line JSON record. Outside a
# full checkout the build fails, nothing is printed and the exit code is
# not 0.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perf" run --out "$here/out" "$@"
