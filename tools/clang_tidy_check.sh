#!/usr/bin/env bash
# clang-tidy gate with a ratcheting baseline.
#
# Runs clang-tidy (checks from .clang-tidy) over every translation unit in
# src/ and compares the findings against tools/clang_tidy_baseline.txt.
# Findings are normalized to "<repo-relative-file> [<check>]" — no line
# numbers — so unrelated edits do not shift the baseline.
#
#   * new findings (not in the baseline)  -> exit 1 (listed on stdout)
#   * baseline entries that disappeared   -> informational; tighten the
#     baseline by re-running with REFRESH_BASELINE=1
#   * missing baseline file               -> exit 1, printing the findings
#     a baseline would hold (commit them as the baseline file)
#   * REFRESH_BASELINE=1                  -> write the baseline, exit 0
#   * clang-tidy not installed            -> exit 1: a gate that did not
#     run must not read as clean
#
# Usage: tools/clang_tidy_check.sh [build-dir]   (default: build)
# The build dir must contain compile_commands.json
# (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON).
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
baseline="$repo_root/tools/clang_tidy_baseline.txt"
tidy="${CLANG_TIDY:-clang-tidy}"

if ! command -v "$tidy" >/dev/null 2>&1; then
  echo "clang_tidy_check: $tidy not found; skipping (install clang-tidy to run this gate)" >&2
  echo "clang_tidy_check: the gate did not run, so it fails" >&2
  exit 1
fi
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "clang_tidy_check: $build_dir/compile_commands.json missing;" >&2
  echo "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
  exit 1
fi

mapfile -t sources < <(find "$repo_root/src" -name '*.cpp' | sort)
echo "clang_tidy_check: analysing ${#sources[@]} translation units" >&2

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$tidy" -p "$build_dir" --quiet "${sources[@]}" 2>/dev/null > "$raw" || true

# "path:line:col: warning: ... [check]" -> "relative/path [check]", deduped.
current="$(
  sed -n 's|^\([^: ]*\):[0-9]*:[0-9]*: warning: .* \(\[[a-z0-9.,-]*\]\)$|\1 \2|p' "$raw" \
    | sed "s|^$repo_root/||" \
    | sort -u
)"

if [ "${REFRESH_BASELINE:-0}" = "1" ]; then
  printf '%s\n' "$current" > "$baseline"
  echo "clang_tidy_check: baseline written to $baseline ($(printf '%s\n' "$current" | grep -c . ) findings)" >&2
  exit 0
fi
if [ ! -f "$baseline" ]; then
  echo "clang_tidy_check: $baseline is missing; nothing to compare against."
  echo "clang_tidy_check: commit these findings as that file (or run with REFRESH_BASELINE=1):"
  printf '%s\n' "$current"
  exit 1
fi

new_findings="$(comm -13 <(sort -u "$baseline") <(printf '%s\n' "$current"))"
fixed_findings="$(comm -23 <(sort -u "$baseline") <(printf '%s\n' "$current"))"

if [ -n "$fixed_findings" ]; then
  echo "clang_tidy_check: findings no longer present (consider REFRESH_BASELINE=1):" >&2
  printf '  %s\n' $'\n'"$fixed_findings" >&2
fi

if [ -n "$new_findings" ]; then
  echo "clang_tidy_check: NEW findings (not in baseline):"
  printf '%s\n' "$new_findings"
  echo "clang_tidy_check: full diagnostics for the files above:" >&2
  while IFS=' ' read -r file _; do
    grep -F "$repo_root/$file" "$raw" | head -20 >&2 || true
  done <<< "$new_findings"
  exit 1
fi

echo "clang_tidy_check: clean — no findings beyond the baseline"
