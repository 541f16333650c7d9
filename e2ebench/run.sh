#!/usr/bin/env bash
# Entry point of the end-to-end benchmark, run from the repository root:
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the program and the benchmark from source, writes the corpus
# for the seed under e2ebench/_out, and runs one workload.  The last line
# of standard output is the result object; everything else goes to
# standard error.
set -euo pipefail

workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
  echo "usage: run.sh --workload NAME --seed N --seconds S [--trace 0|1]" >&2
  exit 2
fi

dune build --root . ./e2ebench/main.exe ./bin/incdbd.exe 1>&2
exe=_build/default/e2ebench/main.exe
corpus=e2ebench/_out/seed-$seed
rm -rf "$corpus"
# incdbd makes a spill directory per request under TMPDIR: keep it in
# the checkout.
export TMPDIR="$PWD/e2ebench/_out/tmp"
mkdir -p "$TMPDIR"
if [ "$trace" = 1 ]; then
  "$exe" gen --seed "$seed" --out "$corpus" 1>&2
else
  "$exe" gen --seed "$seed" --out "$corpus" --workload "$workload" 1>&2
fi
# The benchmark and the server it starts share one CPU, the first this
# process may use: each request then hands over between two threads of
# one core instead of waking a second one, which on a virtual machine
# costs a host round trip whose price varies with the host's load.
pin=()
if command -v taskset >/dev/null; then
  cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//' || true)
  if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
    pin=(taskset -c "$cpu")
  fi
fi
exec ${pin[@]+"${pin[@]}"} "$exe" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --trace "$trace" --corpus "$corpus" --incdbd _build/default/bin/incdbd.exe
