#!/usr/bin/env bash
# Lines added and removed per area between a base commit and the working
# tree (staged and unstaged changes; untracked files count once `git add`ed).
# Areas: src/<dir>, tests, bench, scripts, docs (Markdown anywhere and
# docs/), and other. ISSUE.md and CHANGES.md are left out.
#
# Usage:
#   scripts/line_delta.sh [base]    # base defaults to HEAD
set -euo pipefail

cd "$(dirname "$0")/.."
git diff --numstat "${1:-HEAD}" -- . ':(exclude)ISSUE.md' ':(exclude)CHANGES.md' |
  awk -F '\t' '
    $1 == "-" { next }  # binary file
    {
      path = $3
      if (path ~ /^src\//) { split(path, p, "/"); area = "src/" p[2] }
      else if (path ~ /^tests\//) area = "tests"
      else if (path ~ /^bench\//) area = "bench"
      else if (path ~ /^scripts\//) area = "scripts"
      else if (path ~ /^docs\// || path ~ /\.md$/) area = "docs"
      else area = "other"
      added[area] += $1
      removed[area] += $2
    }
    END { for (a in added) print a, added[a], removed[a] }' |
  sort |
  awk '
    BEGIN { printf "%-16s %8s %8s %8s\n", "area", "added", "removed", "net" }
    { printf "%-16s %8d %8d %+8d\n", $1, $2, $3, $2 - $3; ta += $2; tr += $3 }
    END { printf "%-16s %8d %8d %+8d\n", "total", ta, tr, ta - tr }'
