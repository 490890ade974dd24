#!/usr/bin/env bash
# Runs the kernel micro-benchmarks and writes results/BENCH_kernels.json,
# then the streaming-ingestion benchmarks into results/BENCH_ingest.json.
#
# The JSON document goes to stdout of bench_kernels (captured into the file);
# progress goes to stderr, so the artifact stays machine-parseable. Each
# record carries the git SHA, thread count, and median-of-N wall times.
#
# A benchmark result is only comparable when it describes a commit, so this
# refuses to run on a dirty tree (set ACBM_BENCH_ALLOW_DIRTY=1 to override
# while iterating locally — the SHA is then suffixed with "-dirty").
#
# The record also carries the CPU model and the detected SIMD ISA; when the
# existing results file was produced on a different ISA the numbers are not
# comparable and this refuses to overwrite it (ACBM_BENCH_ALLOW_CROSS_ISA=1
# overrides).
#
# Usage: scripts/bench.sh [extra bench_kernels args, e.g. --repeat 9]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ACBM_BENCH_BUILD_DIR:-$repo_root/build}"
out_file="${ACBM_BENCH_OUT:-$repo_root/results/BENCH_kernels.json}"

sha="$(git -C "$repo_root" rev-parse HEAD)"
if [[ -n "$(git -C "$repo_root" status --porcelain)" ]]; then
  if [[ "${ACBM_BENCH_ALLOW_DIRTY:-0}" != "1" ]]; then
    echo "bench.sh: working tree is dirty; benchmark numbers must describe" >&2
    echo "bench.sh: a commit. Commit or stash first, or set" >&2
    echo "bench.sh: ACBM_BENCH_ALLOW_DIRTY=1 to tag the result as dirty." >&2
    exit 1
  fi
  sha="$sha-dirty"
fi

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
  -DACBM_BUILD_BENCH=ON >&2
cmake --build "$build_dir" -j"$(nproc)" --target bench_kernels bench_ingest bench_serve bench_generate >&2

cpu_model="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
if [[ -z "$cpu_model" ]]; then cpu_model="unknown"; fi

isa="$("$build_dir/bench/bench_kernels" --print-isa)"
if [[ -f "$out_file" ]]; then
  prev_isa="$(sed -n 's/^  "isa": "\(.*\)",$/\1/p' "$out_file" | head -1)"
  if [[ -n "$prev_isa" && "$prev_isa" != "$isa" ]]; then
    if [[ "${ACBM_BENCH_ALLOW_CROSS_ISA:-0}" != "1" ]]; then
      echo "bench.sh: $out_file was produced on ISA '$prev_isa' but this" >&2
      echo "bench.sh: machine detects '$isa'; the numbers are not" >&2
      echo "bench.sh: comparable. Set ACBM_BENCH_ALLOW_CROSS_ISA=1 to" >&2
      echo "bench.sh: overwrite anyway." >&2
      exit 1
    fi
    echo "bench.sh: warning: overwriting '$prev_isa' results with '$isa'" >&2
  fi
fi

mkdir -p "$(dirname "$out_file")"
"$build_dir/bench/bench_kernels" --sha "$sha" --cpu "$cpu_model" "$@" > "$out_file"
echo "bench.sh: wrote $out_file (isa: $isa)" >&2

# Ingest throughput trajectory (snapshots/sec appended+validated, recovery
# scan, drift-check cost per family). Not ISA-sensitive: the hot costs are
# fsync, CRC, and CSV parse/validate, so no cross-ISA guard here.
ingest_out="${ACBM_BENCH_INGEST_OUT:-$repo_root/results/BENCH_ingest.json}"
"$build_dir/bench/bench_ingest" --sha "$sha" --cpu "$cpu_model" "$@" > "$ingest_out"
echo "bench.sh: wrote $ingest_out" >&2

# Serving benchmarks (.armm mmap vs framed cold start, daemon qps and
# p50/p99 over a unix socket at 1/4/16 connections).
# Socket round trips and mmap costs are not ISA-sensitive, so no cross-ISA
# guard here either.
serve_out="${ACBM_BENCH_SERVE_OUT:-$repo_root/results/BENCH_serve.json}"
"$build_dir/bench/bench_serve" --sha "$sha" --cpu "$cpu_model" "$@" > "$serve_out"
echo "bench.sh: wrote $serve_out" >&2

# Scenario-generation throughput (attacks/sec per catalog scenario at
# million-attack scale; SCENARIOS.md). Dominated by scalar RNG draws and
# vector appends, not SIMD kernels, so no cross-ISA guard here.
generate_out="${ACBM_BENCH_GENERATE_OUT:-$repo_root/results/BENCH_generate.json}"
"$build_dir/bench/bench_generate" --sha "$sha" --cpu "$cpu_model" "$@" > "$generate_out"
echo "bench.sh: wrote $generate_out" >&2
