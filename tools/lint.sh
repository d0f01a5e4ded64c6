#!/usr/bin/env bash
# Project-specific lint, now a thin wrapper over qoco-analyze
# (tools/analyzer/): a tokenizer-based analyzer enforcing the determinism
# and thread-safety contracts. The grep-era rules 1-6 live on as analyzer
# rules (naked-new, c-randomness, relation-iterate-mutate, raw-thread,
# temp-string-key, adhoc-search) alongside the newer unordered-iteration,
# id-order, worker-intern, and guarded-by rules — see DESIGN.md "Static
# analysis" for the catalog and suppression policy.
#
# Contract (unchanged from the grep era):
#   tools/lint.sh [--verbose]   scan src tests bench tools examples; exit 0
#                               iff clean
#   tools/lint.sh --self-test   run the rule calibration; exit 0 iff it holds
#
# The wrapper reuses the cmake-built binary when it is fresh, and otherwise
# compiles the analyzer directly into build-lint/ so lint works without a
# configured build tree.
set -u

cd "$(dirname "$0")/.."

analyzer_sources=(tools/analyzer/*.cc tools/analyzer/*.h)

is_fresh() { # 1 = candidate binary; fresh iff newer than every source
  local bin=$1 src
  [[ -x "$bin" ]] || return 1
  for src in "${analyzer_sources[@]}"; do
    [[ "$src" -nt "$bin" ]] && return 1
  done
  return 0
}

bin="build/tools/analyzer/qoco-analyze"
if ! is_fresh "$bin"; then
  bin="build-lint/qoco-analyze"
  if ! is_fresh "$bin"; then
    mkdir -p build-lint
    compiler="${CXX:-c++}"
    "$compiler" -std=c++20 -O2 -I. tools/analyzer/analyzer.cc \
      tools/analyzer/lexer.cc tools/analyzer/rules.cc tools/analyzer/main.cc \
      -o "$bin" \
      || { echo "lint: failed to build qoco-analyze" >&2; exit 1; }
  fi
fi

if [[ "${1:-}" == "--self-test" ]]; then
  "$bin" --self-test >/dev/null || { echo "lint self-test: failed" >&2; exit 1; }
  echo "lint self-test: ok"
  exit 0
fi

args=()
[[ "${1:-}" == "--verbose" ]] && args+=(--verbose)
"$bin" --root . "${args[@]+"${args[@]}"}" src tests bench tools examples
