#!/usr/bin/env bash
# The benchmark's one command. Builds `dbgpd` from the root workspace and
# the harness from this package, then runs the harness with whatever
# arguments were given:
#
#   benchmark/run.sh                         every workload, untraced, seed 42
#   benchmark/run.sh --traced [--spans P]    every workload, traced; span dumps to P<workload>.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     (what the driver runs)
#   benchmark/run.sh check                   validate BENCHMARK.json
#   benchmark/run.sh compare A.json B.json   hold two result files to the bounds
#   benchmark/run.sh tables                  the README's tables, from the harness's own
#   benchmark/run.sh test                    the harness's self-tests
#
# Both builds go into one target directory: $CARGO_TARGET_DIR when the
# caller set it (the driver does), else the root workspace's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
case "${CARGO_TARGET_DIR:-}" in
    "") target="$root/target" ;;
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

# --offline: every dependency is a path in this repo; never wait on a
# registry. Cargo reports on stderr, so stdout stays the harness's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dbgp-daemon --bin dbgpd
export DBGPD_BIN="$target/release/dbgpd"

if [ "${1:-}" = test ]; then
    shift
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml" "$@"
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/dbgp-benchmark" "$@"
