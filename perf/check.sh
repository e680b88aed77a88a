#!/usr/bin/env bash
# Everything the root CI would do for this crate if it could see it: the
# perf crate is a workspace of its own, so `cargo test` at the repository
# root never builds it. Run from anywhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo build --release --offline
"${CARGO_TARGET_DIR:-target}/release/perf" run --quick
