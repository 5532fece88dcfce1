#!/usr/bin/env bash
# Builds proteus-serve, proteus-train and the e2e load generator in
# release mode into one target directory, then runs e2e with this
# script's arguments. Run it from the repository root, e.g.
#
#   bash crates/bench/src/bin/e2e/run.sh --workload zoo-warm --seed 1 --seconds 10 --trace 0
#
# CARGO_TARGET_DIR is honoured; it defaults to ./target.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    -p proteus-net --bin proteus-serve -p proteus-bench --bin proteus-train >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
