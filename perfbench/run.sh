#!/usr/bin/env bash
# Builds the benchmark and the synthd daemon it drives from source, then
# runs it from the repository root with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
