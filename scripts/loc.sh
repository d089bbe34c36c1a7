#!/usr/bin/env bash
# Non-test Go lines per package (`ls … | grep -v _test | xargs cat | wc -l`):
# the figure every simplicity gate in CHANGES.md and ROADMAP.md quotes.
cd "$(dirname "$0")/.." || exit 1
total=0
for pkg in internal/* cmd/* examples/*; do
  files=$(ls "$pkg"/*.go 2>/dev/null | grep -v _test)
  [ -z "$files" ] && continue
  n=$(cat $files | wc -l)
  total=$((total + n))
  printf '%6d  %s\n' "$n" "$pkg"
done
printf '%6d  total\n' "$total"
