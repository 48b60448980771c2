#!/usr/bin/env bash
# Build the `formad` binary and the benchmark from this checkout's
# sources, then run one benchmark workload (or `--workload all`).
#
#   bash perfbench/run.sh --workload <prove-cold|serve-mixed|gradient|all> \
#        --seed N --seconds S --trace <0|1>
#
# Build output, AOT artifacts, span dumps and records go under
# $CARGO_TARGET_DIR (default: .bench_build at the checkout root).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: $root is not a formad checkout (no Cargo.toml or crates/)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR/tmp"
# rustc (run by the AOT backend) writes temporaries; keep them in the checkout.
TMPDIR="$(cd "$CARGO_TARGET_DIR/tmp" && pwd)"
export TMPDIR
cargo build --release --offline --quiet -p formad-cli --bin formad >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/formad-perfbench" \
    --formad "$CARGO_TARGET_DIR/release/formad" "$@"
