#!/usr/bin/env bash
# End-to-end benchmark: build the harness into build-e2e (Release, with
# its targets registered through register.cmake so no project file
# changes), then run ppm_e2e from the repository root.
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1] [--out FILE]
#   bash bench/e2e/run.sh --smoke
#
# Without --workload every workload runs in turn. Build output goes to
# build-e2e/e2e-build.log; the last line of stdout is ppm_e2e's JSON
# result. Exits non-zero if the build fails or any run is incorrect.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"
build=build-e2e
mkdir -p "$build"
log=$build/e2e-build.log

if ! { cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_PROJECT_ppm_INCLUDE="$here/register.cmake" &&
       cmake --build "$build" -j "$(nproc)" --target ppm_e2e; } \
        >"$log" 2>&1; then
    tail -n 20 "$log" >&2
    echo "run.sh: build failed; see $log" >&2
    exit 1
fi

commit=unknown
toplevel=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)
if [[ $toplevel == "$root" ]]; then
    commit=$(git -C "$root" describe --always --dirty)
fi
harness=("$build/ppm_e2e" --work-dir "$build/e2e-work" --commit "$commit")

for arg in "$@"; do
    if [[ $arg == --workload || $arg == --smoke ]]; then
        exec "${harness[@]}" "$@"
    fi
done
status=0
for workload in build_cold build_warm predict_point predict_batch; do
    "${harness[@]}" --workload "$workload" "$@" || status=1
done
exit $status
