#!/bin/sh
# Every exported value has a program that uses it.
#
# Lists each `val` in lib/**/*.mli whose name appears, as a whole word,
# nowhere in lib/ bin/ bench/ benchmark/ examples/ outside its own module
# (the module's .ml and .mli). Such a value has no user but the tests, so
# it must say why it stays public: its doc comment carries the marker
# "Test-only:" followed by the reason. Exits 1 if any value lacks it.
#
# The scan is textual, so it is a lower bound: a value whose name is a
# common word (create, read, ...) passes even when only tests use it.
#
# Run from the repository root: sh scripts/check_exports.sh
set -eu

dirs="lib bin bench benchmark examples"
bad=0
checked=0
for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  dir=$(dirname "$mli")
  # Each top-level val: its name, then whether the val's text (signature
  # and the doc comment right after it) carries the marker.
  awk '
    function flush() { if (name != "") print name, marked; name = "" }
    /^val / {
      flush()
      name = $2; sub(/:.*/, "", name); marked = 0; indoc = 0; inval = 1
      if ($0 ~ /Test-only:/) marked = 1
      next
    }
    inval && /^\(\*\*/ { indoc = 1 }
    inval && (indoc || /^[ \t]/) {
      if ($0 ~ /Test-only:/) marked = 1
      if (indoc && $0 ~ /\*\)[ \t]*$/) { indoc = 0; inval = 0 }
      next
    }
    { inval = 0 }
    END { flush() }
  ' "$mli" | while read -r name marked; do
    users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$name" $dirs \
      | grep -v -x -e "$dir/$base.ml" -e "$dir/$base.mli" || true)
    if [ -z "$users" ] && [ "$marked" = 0 ]; then
      echo "$mli: val $name has no user outside tests and no Test-only: reason"
    fi
  done
done > "${TMPDIR:-/tmp}/check_exports.$$"
count=$(wc -l < "${TMPDIR:-/tmp}/check_exports.$$")
cat "${TMPDIR:-/tmp}/check_exports.$$"
rm -f "${TMPDIR:-/tmp}/check_exports.$$"
if [ "$count" -gt 0 ]; then
  echo "$count exported values without a program user"
  exit 1
fi
echo "every exported value has a program user or a Test-only: reason"
