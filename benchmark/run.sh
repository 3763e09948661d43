#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds and runs only the binary the pass needs, so a change beneath the
# facade that breaks the per-layer binary cannot break the end-to-end one.
set -euo pipefail
bin=mwr-benchmark
prev=
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin=mwr-benchmark-trace; fi
  prev=$arg
done
here=$(dirname "${BASH_SOURCE[0]}")
exec cargo run --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --bin "$bin" -- "$@"
