#!/usr/bin/env bash
# Exact row check: regenerate the serving and SLO baselines at one and four
# threads and require every row to equal the committed one, field for
# field — tolerance fields included. An engine or kernel change that moves
# any number fails here even where bench_compare's ±10% would pass it.
#
# Usage (from the repository root): tools/check_exact_rows.sh [build-dir]
set -euo pipefail

build=${1:-build}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

same_rows() {
  python3 -c 'import json, sys
a, b = (json.load(open(p))["rows"] for p in sys.argv[1:])
sys.exit(0 if a == b else "rows differ: %s vs %s" % tuple(sys.argv[1:]))' "$1" "$2"
}

for t in 1 4; do
  BBAL_THREADS=$t "$build/tools/record_serve" "$out/serve_t$t.json"
  BBAL_THREADS=$t "$build/tools/record_slo" "$out/slo_t$t.json"
  same_rows BENCH_serve.json "$out/serve_t$t.json"
  same_rows BENCH_slo.json "$out/slo_t$t.json"
done
echo "check_exact_rows: BENCH_serve.json and BENCH_slo.json rows equal at BBAL_THREADS=1 and 4"
