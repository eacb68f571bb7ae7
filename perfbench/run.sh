#!/usr/bin/env bash
# Builds the benchmark from source (with the campaign binary the
# serve_jobs workload spawns), then runs it with the given arguments.
# Build output goes to $CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/perfbench"
# One CPU for the whole run, so the host-speed sampler thread measures
# the core the campaign runs on (see src/calib.rs): the one this shell
# is on now.
if command -v taskset >/dev/null; then
    cpu="$(awk '{print $39}' /proc/$$/stat)"
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
