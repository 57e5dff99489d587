#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build and run the benchmark from the
# root of a checkout. Arguments go to run.exe unchanged, e.g.
#   bash bench/e2e/bench.sh --workload omni-pipeline --seed 1 --seconds 5 --trace 0
set -euo pipefail
exec dune exec --root . --cache=disabled --display quiet bench/e2e/run.exe -- "$@"
