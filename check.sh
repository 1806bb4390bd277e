#!/usr/bin/env bash
# Sanitizer gate: builds the ASAN, UBSAN and TSAN variants of the test
# suites, each in its own build directory, and runs the labelled suites
# there, in that order. Stops with a non-zero exit at the first build or
# test failure. Only the test executables of the labels are built, not the
# benches or examples.
#
#   asan   build-asan   -DNETLLM_SANITIZE=address    MEMORY_LABELS
#   ubsan  build-ubsan  -DNETLLM_SANITIZE=undefined  MEMORY_LABELS, halt_on_error=1
#   tsan   build-tsan   -DNETLLM_SANITIZE=thread     THREAD_LABELS
#
# These two label sets are the one list of which suites run under which
# sanitizer; add a new suite's ctest label here.
set -euo pipefail
cd "$(dirname "$0")"

MEMORY_LABELS="autograd|serialize|session|adapt|quant|inference|sched|isa"
THREAD_LABELS="parallel|observability|chaos|sched|quant|isa|serialize|session|adapt"

# gate <sanitizer> <build dir> <ctest label regex>
gate() {
  local sanitizer="$1" dir="$2" labels="$3"
  echo "== check.sh: ${sanitizer} in ${dir}, ctest -L \"${labels}\""
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNETLLM_SANITIZE="${sanitizer}" >/dev/null
  local tests
  tests="$(cd "${dir}" && ctest -N -L "${labels}" | sed -n 's/^ *Test *#[0-9]*: *//p')"
  if [ -z "${tests}" ]; then
    echo "check.sh: no tests match -L \"${labels}\"" >&2
    exit 1
  fi
  # shellcheck disable=SC2086  # one target per word
  cmake --build "${dir}" -j "$(nproc)" --target ${tests}
  (cd "${dir}" && ctest -L "${labels}" --output-on-failure -j "$(nproc)")
}

gate address build-asan "${MEMORY_LABELS}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" gate undefined build-ubsan "${MEMORY_LABELS}"
gate thread build-tsan "${THREAD_LABELS}"
echo "== check.sh: passed"
