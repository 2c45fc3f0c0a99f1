#!/usr/bin/env bash
# Build the benchmark from the source checkout it sits in, then run it:
#
#   bash perfbench/run.sh --workload kernel_cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the benchmark's last line of standard
# output stays its JSON result. Everything is built and written under
# the checkout's _build directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root is not a source checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
mkdir -p _build/perfbench
# the runtime's GC event ring (traced runs) lives under _build too, at
# 2^18 words so that set-up phases too long to poll inside cannot wrap it
export OCAML_RUNTIME_EVENTS_DIR="$root/_build/perfbench"
export OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}e=18"
exec ./_build/default/perfbench/main.exe "$@"
