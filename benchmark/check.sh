#!/usr/bin/env bash
# Build the benchmark, run its unit tests, then a smoke run of every
# workload (scale 0.05, ~2 s each, untraced and traced): every declared
# name must be emitted, every correctness gate must run and hold, and
# BENCHMARK.json must match the tables in src/metrics.rs.
# For a later PR to wire into CI without touching this directory.
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo test --release --quiet --manifest-path "$manifest"
cargo run --release --quiet --manifest-path "$manifest" -- run --smoke "$@"
