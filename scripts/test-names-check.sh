#!/bin/sh
# test-names-check: fail when a document names a Test*, Fuzz* or
# Benchmark* function that no _test.go file in the repository declares,
# so a renamed or deleted test cannot stay cited. Run by docs-check.sh.
#
# Usage: scripts/test-names-check.sh   (checks the repository it sits in)
set -u
cd "$(dirname "$0")/.." || exit 1
docs="DESIGN.md README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml"
name='(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*'

declared=$(find . -name '*_test.go' -not -path './.git/*' -exec grep -ohE "^func $name\(" {} + |
    sed -e 's/^func //' -e 's/($//' | sort -u)

for doc in $docs; do
    [ -e "$doc" ] || continue
    grep -onE "\\b$name" "$doc" | sed "s|^|$doc:|"
done | awk -F: -v declared="$declared" '
    BEGIN { n = split(declared, d, "\n"); for (i = 1; i <= n; i++) ok[d[i]] = 1 }
    !($3 in ok) { printf "%s:%s: names %s, which no _test.go file declares\n", $1, $2, $3; bad = 1 }
    END { exit bad }
'
