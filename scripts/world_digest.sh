#!/usr/bin/env bash
# Print one SHA-256 per top-level entry of a generated world tree: the
# digest of the `sha256sum` listing of the entry's files, sorted by path.
# Every file counts, so a row that changes, moves within a file or
# moves between files changes its entry's line.
#
# Usage: scripts/world_digest.sh DIR
#
# CI diffs the digests of `droplens generate --out DIR --seed 42 --scale
# paper` against tests/data/world_42_paper.sha256.
set -euo pipefail
export LC_ALL=C
cd "$1"
for entry in *; do
    digest=$(find "$entry" -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum)
    printf '%s  %s\n' "${digest%% *}" "$entry"
done
