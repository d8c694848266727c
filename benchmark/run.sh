#!/usr/bin/env bash
# Builds the shapefrag CLI and the benchmark from source, then makes one
# benchmark run. Run it from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both builds share CARGO_TARGET_DIR (default: target); the benchmark
# finds the CLI at $CARGO_TARGET_DIR/release/shapefrag.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin shapefrag
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin bench
exec "$CARGO_TARGET_DIR/release/bench" "$@"
