#!/usr/bin/env bash
# The end-to-end benchmark's one command. Builds gqzoo_serve and
# gqzoo_bench from this checkout's sources (Release, into .bench_build/e2e;
# the first run builds, later runs only check the build is current), then:
#
#   bash bench/e2e/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#       one run of one workload; the last stdout line is the JSON result
#   bash bench/e2e/run.sh --all [--seeds <first> <last>] [--seconds <n>]
#                               [--results <dir>]
#       the four workloads for each seed in turn, trace off; results files
#       and their medians and quartiles (summary.json) in .bench_build/results
#   bash bench/e2e/run.sh --smoke
#       every path (gates, --trace, --compare) on small graphs, seconds long
#   bash bench/e2e/run.sh --compare A.json... --against B.json...
#       verdicts under the bounds in BENCHMARK.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=".bench_build/e2e"
mkdir -p .bench_build
log=".bench_build/build.log"
if ! { { [ -f "$build/CMakeCache.txt" ] ||
         cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j"$(nproc)"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log in $log)" >&2
  exit 1
fi
bench="$build/gqzoo_bench"

provenance=()
if commit=$(git rev-parse HEAD 2>/dev/null); then
  dirty=0
  [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ] && dirty=1
  provenance=(--commit "$commit" --dirty "$dirty")
fi

workloads=(lookup analytics paths write_mix)
case "${1:-}" in
  --all)
    shift
    first=1
    last=1
    seconds=15
    out=".bench_build/results"
    while [ $# -gt 0 ]; do
      case "$1" in
        --seeds) first="$2"; last="$3"; shift 3 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --results) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
      esac
    done
    files=()
    for seed in $(seq "$first" "$last"); do
      for w in "${workloads[@]}"; do
        "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
          --trace 0 --results "$out" "${provenance[@]}" | tail -n 1
        files+=("$out/$w-seed$seed-trace0.json")
      done
    done
    "$bench" --summarize "${files[@]}" >"$out/summary.json"
    echo "results: $out (medians and quartiles in $out/summary.json)"
    ;;
  --smoke)
    out=".bench_build/smoke"
    rm -rf "$out"
    files=()
    for w in "${workloads[@]}"; do
      "$bench" --workload "$w" --seed 1 --smoke --trace 1 --results "$out" \
        "${provenance[@]}" >"$out.$w.log" || {
        cat "$out.$w.log" >&2
        echo "run.sh: smoke run of $w failed" >&2
        exit 1
      }
      tail -n 1 "$out.$w.log"
      files+=("$out/$w-seed1-trace1.json")
    done
    # Three copies a side, so the verdict logic runs past its run-count check.
    "$bench" --compare "${files[@]}" "${files[@]}" "${files[@]}" \
      --against "${files[@]}" "${files[@]}" "${files[@]}"
    echo "smoke: ok"
    ;;
  *)
    exec "$bench" "$@" "${provenance[@]}"
    ;;
esac
