#!/usr/bin/env sh
# Non-test line counts per crate: for every .rs file under crates/*/src,
# the lines before the file's first `#[cfg(test)]` (the whole file when it
# has none). Prints one line per crate, then the core + hisa + device
# total that ROADMAP item 3 tracks. With `--files`, lists every file's
# count first.
#
# Usage: scripts/nontest_loc.sh [--files] [REPO_ROOT]
set -eu

files=0
if [ "${1:-}" = "--files" ]; then
    files=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

counts=$(find crates -path '*/src/*.rs' -not -path 'crates/bench/src/bin/gpulog_perf/*' |
    sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { per_file[FILENAME]++ }
        END { for (f in per_file) printf "%7d  %s\n", per_file[f], f }' | sort -k2)

if [ "$files" = 1 ]; then
    printf '%s\n' "$counts"
fi
printf '%s\n' "$counts" | awk '
    { split($2, parts, "/"); per_crate[parts[2]] += $1 }
    END { for (c in per_crate) printf "%7d  crates/%s\n", per_crate[c], c }' | sort -k2
printf '%s\n' "$counts" | awk '
    $2 ~ /^crates\/(core|hisa|device)\// { total += $1 }
    END { printf "%7d  core + hisa + device\n", total }'
