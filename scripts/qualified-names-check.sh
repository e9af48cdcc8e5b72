#!/bin/sh
# qualified-names-check: fail when a document names, in backticks, a
# `pkg.Ident` or `pkg.Type.Member` where pkg is a package of this module
# that declares no such Ident (a top-level name, or a method or field
# the text names without its type) or no such Type and Member (a field,
# method or interface method of any of the package's types), so a
# deleted or renamed identifier cannot stay cited. Names qualified by a
# package outside the module (`sync.Pool`) are not checked; neither are
# fenced code blocks. Run by docs-check.sh.
#
# Usage: scripts/qualified-names-check.sh   (checks the repository it sits in)
set -u
cd "$(dirname "$0")/.." || exit 1
docs="DESIGN.md README.md ARCHITECTURE.md"

# One "pkg top Name" or "pkg member Name" line per declaration in every
# non-main package, test files included.
decls=$(go list -f '{{if ne .Name "main"}}{{.Name}} {{.Dir}}{{end}}' ./... | while read -r pkg dir; do
    for f in "$dir"/*.go; do
        awk -v pkg="$pkg" '
            # ids prints the identifier list s starts with ("A, B int").
            function ids(s, kind) {
                sub(/^[\t ]+/, "", s)
                while (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
                    print pkg, kind, substr(s, 1, RLENGTH)
                    s = substr(s, RLENGTH + 1)
                    if (!sub(/^[\t ]*,[\t ]*/, "", s)) break
                }
            }
            /^\)/ || /^}/ { block = ""; next }
            block == "group" && /^\t[A-Za-z_]/ { ids($0, "top"); next }
            block == "struct" && /^\t+[A-Za-z_][A-Za-z0-9_]*[ \t,(]/ { ids($0, "member"); next }
            /^(type|var|const) \($/ { block = "group"; next }
            /^type [A-Za-z_][A-Za-z0-9_]*(\[[^]]*\])? (struct|interface) \{$/ { block = "struct" }
            /^(type|var|const) [A-Za-z_]/ { ids(substr($0, index($0, " ") + 1), "top"); next }
            /^func [A-Za-z_]/ { ids(substr($0, 6), "top"); next }
            /^func \(/ { s = $0; sub(/^func \([^)]*\) */, "", s); ids(s, "member") }
        ' "$f"
    done
done)
if [ -z "$decls" ]; then
    echo "qualified-names-check: found no declarations (is go on PATH?)" >&2
    exit 1
fi

for doc in $docs; do
    [ -e "$doc" ] || continue
    awk -v doc="$doc" '
        /^```/ { fenced = !fenced; next }
        fenced { next }
        {
            line = $0
            while (match(line, /`[^`]+`/)) {
                span = substr(line, RSTART + 1, RLENGTH - 2)
                line = substr(line, RSTART + RLENGTH)
                while (match(span, /[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?/)) {
                    name = substr(span, RSTART, RLENGTH)
                    before = RSTART > 1 ? substr(span, RSTART - 1, 1) : ""
                    span = substr(span, RSTART + RLENGTH)
                    if (before ~ /[A-Za-z0-9_.]/) continue
                    print doc ":" FNR ":" name
                }
            }
        }
    ' "$doc"
done | awk -F: -v decls="$decls" '
    BEGIN {
        n = split(decls, d, "\n")
        for (i = 1; i <= n; i++) {
            split(d[i], f, " ")
            pkgs[f[1]] = 1
            has[f[1] " " f[2] " " f[3]] = 1
        }
    }
    {
        k = split($3, part, ".")
        if (!(part[1] in pkgs)) next
        found = (part[1] " top " part[2]) in has
        if (k == 2 && !found) found = (part[1] " member " part[2]) in has
        if (!found) {
            printf "%s:%s: names %s, but package %s declares no %s\n", $1, $2, $3, part[1], part[2]
            bad = 1
        } else if (k == 3 && !((part[1] " member " part[3]) in has)) {
            printf "%s:%s: names %s, but package %s declares no field or method %s\n", $1, $2, $3, part[1], part[3]
            bad = 1
        }
    }
    END { exit bad }
'
