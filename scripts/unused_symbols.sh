#!/usr/bin/env bash
# Link-time dead-code scan of libsitm.
#
# Builds every program that ships with the repository -- the perfbench
# program, the `sitm` CLI, every bench_* and example_* binary and fuzz_parse
# -- with -ffunction-sections and --gc-sections, so that each binary keeps
# only the functions it can reach.  A function in `sitm::` that libsitm.a
# defines and no binary contains is reachable from tests alone (or from
# nothing) and is reported.  The scan fails when a reported function is not
# on the allowlist below.
#
# -O1 -fno-inline keeps same-file inlining from hiding a called function's
# body inside its caller, where it would look unused.  Header-inline
# functions that no library source calls are never emitted into libsitm.a,
# so this scan cannot see them; grep for those.
#
# Usage: scripts/unused_symbols.sh [build-dir]   (default: build-unused)
# Takes about a minute on 4 cores.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-unused}
jobs=${JOBS:-$(nproc)}

# Functions that stay although no program calls them, each with its reason.
# Matched as extended regexes against the demangled name.
allowlist=(
  # Fault-injection seams: tests arm, clear and count the sites.
  '^sitm::fault::(clear|fired|hit_count)\('
  # Fixtures of the bench library shared by benchmarks and tests.
  '^sitm::bench::'
)

mkdir -p "$build"
cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE='-O1 -fno-inline -ffunction-sections' \
  -DCMAKE_EXE_LINKER_FLAGS='-Wl,--gc-sections' \
  -DSITM_BUILD_FUZZERS=ON > "$build/configure.log"

programs=(sitm_perfbench sitm_cli fuzz_parse)
for src in "$root"/bench/*.cpp; do programs+=("$(basename "$src" .cpp)"); done
for src in "$root"/examples/*.cpp; do
  programs+=("example_$(basename "$src" .cpp)")
done
cmake --build "$build" -j "$jobs" --target "${programs[@]}" > /dev/null

# Defined functions (text symbols), mangled, one per line.
functions() { nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }' |
              sort -u; }

lib=$build/sitm/libsitm.a
binaries=("$build/sitm_perfbench" "$build/sitm/sitm")
for p in "${programs[@]:2}"; do binaries+=("$build/sitm/$p"); done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Names nested in namespace sitm (members, free functions and the lambdas
# inside them); std:: templates instantiated on sitm types start otherwise.
functions "$lib" 2> /dev/null | grep -E '^_ZZ?N[rVKRO]*4sitm' > "$tmp/lib" ||
  true
for b in "${binaries[@]}"; do functions "$b"; done | sort -u > "$tmp/used"
comm -23 "$tmp/lib" "$tmp/used" | c++filt | sort -u > "$tmp/unused"

pattern=$(IFS='|'; echo "${allowlist[*]}")
grep -Ev "$pattern" "$tmp/unused" > "$tmp/reported" || true
grep -E "$pattern" "$tmp/unused" | sed 's/^/allowed: /' || true
if [ -s "$tmp/reported" ]; then
  echo "libsitm functions that no program calls:"
  sed 's/^/  /' "$tmp/reported"
  exit 1
fi
echo "unused_symbols: every libsitm function is called by a program"
