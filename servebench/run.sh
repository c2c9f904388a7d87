#!/bin/sh
# Builds the serve benchmark from source, then runs it.  From the
# repository root:
#
#   sh servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the benchmark's last line on
# standard output is its JSON result.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet -j 2 \
  ./servebench/servebench.exe 1>&2
exec ./_build/default/servebench/servebench.exe "$@"
