#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes stays in the checkout: dune's _build/ and the
# per-run private native caches under .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
# The toolchain settings the library reads from the environment are
# pinned to their defaults, so every run compiles the same way.
unset RACS_CC RACS_CFLAGS RACS_VERIFY
export DUNE_CACHE=disabled
# The C compiler's temporary files stay in the checkout too.
mkdir -p .perfbench/tmp
TMPDIR="$PWD/.perfbench/tmp"
export TMPDIR
dune build --root . ./perfbench/bench.exe >&2
# One single-threaded process: pinned to the last CPU, it is never
# migrated mid-run (the cc children it waits for inherit the pin).
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" ./_build/default/perfbench/bench.exe "$@"
fi
exec ./_build/default/perfbench/bench.exe "$@"
