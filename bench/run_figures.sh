#!/usr/bin/env bash
# Runs every figure, ablation and extension bench (bench/bench_fig*,
# bench/bench_ablation_*, bench/bench_ext_*) and the multi-tenant pool
# bench in full mode (bench/bench_multitenant_pool, about 0.2 s) built
# under BUILD_DIR, and writes each one's standard output to
# OUT_DIR/<bench>.txt.
#
#   bench/run_figures.sh BUILD_DIR OUT_DIR
#
# The benches are deterministic (seeded workloads, simulated seconds),
# so two builds that make the same decisions write identical files:
# `diff -r OUT_A OUT_B` compares two revisions. Each bench ends with its
# paper-shape gates, one `shape <name>: ok|FAIL` line per shape
# EXPERIMENTS.md marks reproduced (the multi-tenant bench's is `shape
# multitenant shared < split`, followed by its per-query CSV), and
# exits non-zero after a FAIL.
# Exits non-zero when a bench is missing from BUILD_DIR or exits
# non-zero itself, echoing its failed shapes; the other benches still
# run.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build_dir=$1
out_dir=$2
src_dir=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$out_dir"

status=0
for src in "$src_dir"/bench_fig*.cc "$src_dir"/bench_ablation_*.cc \
           "$src_dir"/bench_ext_*.cc "$src_dir"/bench_multitenant_pool.cc; do
  name=$(basename "$src" .cc)
  bin="$build_dir/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "FAIL $name: $bin not built" >&2
    status=1
    continue
  fi
  start_ms=$(($(date +%s%N) / 1000000))
  "$bin" > "$out_dir/$name.txt"
  code=$?
  elapsed_ms=$(($(date +%s%N) / 1000000 - start_ms))
  if [ $code -eq 0 ]; then
    printf 'ok   %-34s %6d ms\n' "$name" "$elapsed_ms"
  else
    echo "FAIL $name: exit $code" >&2
    grep '^shape .*: FAIL$' "$out_dir/$name.txt" >&2
    status=1
  fi
done
exit $status
