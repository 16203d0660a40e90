#!/usr/bin/env bash
# Builds the full tree under a sanitizer and runs the tier-1 ctest suite.
# The thread-pool (SweepRunner), shared-cache (WorkloadCache) and
# flat-trie hot-path code must stay clean under every mode.
#
# Usage: tools/sanitize_check.sh [asan|ubsan|asan+ubsan|tsan] [build-dir] [ctest-regex]
#   mode         asan  -> -fsanitize=address (+ leak detection)
#                ubsan -> -fsanitize=undefined
#                tsan  -> -fsanitize=thread (cannot combine with asan)
#                default: asan+ubsan combined (the historical behaviour)
#   build-dir    defaults to build-sanitize-<mode>
#   ctest-regex  optional -R filter (default: everything)
#
# The script probes the compiler for the requested sanitizer first and
# fails loudly if it is unsupported — a sanitizer that silently does not
# instrument is worse than no sanitizer at all.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-asan+ubsan}"
ctest_filter="${3:-}"

case "${mode}" in
  asan)       sanitize="address" ;;
  ubsan)      sanitize="undefined" ;;
  tsan)       sanitize="thread" ;;
  asan+ubsan) sanitize="address,undefined" ;;
  *)
    echo "sanitize_check: unknown mode '${mode}'" >&2
    echo "usage: $0 [asan|ubsan|asan+ubsan|tsan] [build-dir] [ctest-regex]" >&2
    exit 2
    ;;
esac
build_dir="${2:-${repo_root}/build-sanitize-${mode}}"

# Probe: the compiler must accept AND link every requested -fsanitize flag.
cxx="${CXX:-c++}"
probe_dir="$(mktemp -d)"
trap 'rm -rf "${probe_dir}"' EXIT
echo 'int main() { return 0; }' > "${probe_dir}/probe.cpp"
IFS=',' read -ra requested <<< "${sanitize}"
for san in "${requested[@]}"; do
  if ! "${cxx}" -fsanitize="${san}" "${probe_dir}/probe.cpp" \
       -o "${probe_dir}/probe" > "${probe_dir}/probe.log" 2>&1; then
    echo "sanitize_check: FATAL — ${cxx} does not support" \
         "-fsanitize=${san} on this host:" >&2
    cat "${probe_dir}/probe.log" >&2
    exit 1
  fi
done

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVR_SANITIZE="${sanitize}"
cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cd "${build_dir}"
if [[ -n "${ctest_filter}" ]]; then
  ctest --output-on-failure -R "${ctest_filter}"
else
  ctest --output-on-failure
fi
echo "sanitize_check[${mode}]: all tests clean"
