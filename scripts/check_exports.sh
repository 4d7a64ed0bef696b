#!/usr/bin/env bash
# Fail when a library exports a value that nothing outside its own
# module uses, unless scripts/exports_allowlist.txt names it with a
# reason. Keeps lib/*/*.mli down to what bin/, bench/ and examples/
# (and the libraries themselves) call.
#
# A use is a whole-word occurrence of the value's name in any .ml/.mli
# under lib/ bin/ bench/ examples/ outside the module's own .ml/.mli.
# Tests do not count, except for lib/oracle, whose exports exist for
# them. Word matching over-counts (a comment or another binding of the
# same name counts as a use), so the check can miss an unused export
# but never flags a used one.
#
# Allowlist lines: `lib/DIR/FILE.mli NAME REASON...`; `#` starts a
# comment. An entry for an export that has gained a user, or that no
# longer exists, fails the check too, so the list cannot go stale.
#
# Usage: bash scripts/check_exports.sh    (exit 0 clean, 1 findings)
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/exports_allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for mli in lib/*/*.mli; do
  sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*)[[:space:]]*:.*/\1/p" "$mli" |
    sed "s|^|$mli |"
done >"$tmp/vals"

# One pass over every source file: for each word, the files it occurs
# in; then every exported name with no occurrence outside its module.
# (Paths under these directories contain no whitespace.)
# shellcheck disable=SC2046
awk '
  FNR == NR { vals[++nv] = $0; next }
  {
    line = $0
    gsub(/[^A-Za-z0-9_'"'"']/, " ", line)
    k = split(line, w, " ")
    for (i = 1; i <= k; i++)
      if (!((FILENAME, w[i]) in seen)) {
        seen[FILENAME, w[i]] = 1
        users[w[i]] = users[w[i]] "|" FILENAME
      }
  }
  END {
    for (i = 1; i <= nv; i++) {
      split(vals[i], a, " ")
      mli = a[1]; ml = substr(mli, 1, length(mli) - 1); name = a[2]
      tests_count = (mli ~ /^lib\/oracle\//)
      k = split(users[name], fs, "|"); used = 0
      for (j = 2; j <= k && !used; j++)
        if (fs[j] != mli && fs[j] != ml && (tests_count || fs[j] !~ /^test\//))
          used = 1
      if (!used) print mli, name
    }
  }' "$tmp/vals" $(find lib bin bench examples test -name '*.ml' -o -name '*.mli' | sort) |
  sort -u >"$tmp/unused"

awk '!/^[[:space:]]*(#|$)/' "$allow" >"$tmp/entries"
awk '{ print $1, $2 }' "$tmp/entries" | sort >"$tmp/allowed"
awk 'NF < 3' "$tmp/entries" >"$tmp/no_reason"
comm -23 "$tmp/unused" "$tmp/allowed" >"$tmp/unlisted"
comm -13 "$tmp/unused" "$tmp/allowed" >"$tmp/stale"

status=0
report() {
  if [ -s "$2" ]; then
    echo "check_exports: $1:"
    sed 's/^/  /' "$2"
    status=1
  fi
}
report "allowlist entries without a reason" "$tmp/no_reason"
report "exported, but nothing outside the module uses it (drop it from the .mli, or allowlist it with a reason)" "$tmp/unlisted"
report "stale allowlist entries (the export is now used, or gone)" "$tmp/stale"
if [ "$status" -eq 0 ]; then
  echo "check_exports: $(wc -l <"$tmp/vals") exports checked, $(wc -l <"$tmp/allowed") allowlisted, none unused"
fi
exit "$status"
