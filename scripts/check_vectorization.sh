#!/usr/bin/env bash
# Vectorization smoke for the batched geometry kernels.
#
#   scripts/check_vectorization.sh [clang++]
#
# Compiles src/uavdc/core/batch_kernels.cpp with clang's optimization-record
# output and asserts that the loop-vectorizer reports success for each
# kernel. The kernels are written as portable 8-wide-friendly loops (no
# intrinsics, no pragmas); this gate is what keeps a future refactor from
# silently de-vectorizing them — gcc offers no equivalent per-function
# remark stream, so the check runs under clang (CI: static-analysis job).
#
# The flags mirror the Release build contract: -O3 plus -ffp-contract=off,
# the same contraction setting src/CMakeLists.txt pins for this TU so that
# the vectorized lanes stay bit-identical to geom::distance2.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

clangxx="${1:-${CLANG_CXX:-clang++}}"
if ! command -v "$clangxx" >/dev/null 2>&1; then
    echo "check_vectorization.sh: $clangxx not found; skipping (install" \
         "clang or pass the compiler path to enable this gate)" >&2
    exit 0
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

record="$workdir/batch_kernels.opt.yaml"
"$clangxx" -std=c++20 -O3 -ffp-contract=off -DNDEBUG -Isrc \
    -c src/uavdc/core/batch_kernels.cpp -o "$workdir/batch_kernels.o" \
    -foptimization-record-file="$record"

if [ ! -s "$record" ]; then
    echo "FAIL: no optimization record emitted at $record" >&2
    exit 1
fi

# Each required kernel must have at least one !Passed loop-vectorize record
# attached to a function whose mangled name contains the kernel name. The
# name must sit right after its Itanium length prefix ("[0-9]<name>") so
# that a kernel cannot be satisfied by a longer symbol that merely ends in
# its name. The portable bodies are always_inline,
# so remarks land on the exported baseline symbols and/or the
# target("avx2") clones — either counts.
kernels=(
    squared_distances_to_point
    squared_insertion_lower_bounds
)

status=0
for kernel in "${kernels[@]}"; do
    if awk -v fn="$kernel" '
        function flush() { if (rec && pass && fnmatch) found = 1 }
        /^--- /       { flush();
                        rec = ($0 ~ /^--- !Passed/); pass = 0; fnmatch = 0;
                        next }
        rec && $1 == "Pass:" && $0 ~ /loop-vectorize/     { pass = 1 }
        rec && $1 == "Function:" && $0 ~ ("[0-9]" fn)     { fnmatch = 1 }
        END { flush(); exit found ? 0 : 1 }
    ' "$record"; then
        echo "OK:   $kernel vectorized"
    else
        echo "FAIL: no loop-vectorize success record for $kernel" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo >&2
    echo "The batched kernels lost auto-vectorization. Inspect with:" >&2
    echo "  $clangxx -std=c++20 -O3 -ffp-contract=off -DNDEBUG -Isrc \\" >&2
    echo "      -c src/uavdc/core/batch_kernels.cpp -o /dev/null \\" >&2
    echo "      -Rpass=loop-vectorize -Rpass-missed=loop-vectorize" >&2
fi
exit "$status"
