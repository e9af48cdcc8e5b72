#!/bin/sh
# docs-check: fail when an exported top-level identifier lacks a doc
# comment, or when a checked package has no package doc comment at all
# (conventionally a doc.go). A cheap grep-style gate (paired with
# `go vet` in the Makefile) over the packages whose godoc we guarantee.
# It also runs test-names-check.sh: the documents may only cite tests
# that exist.
#
# Usage: scripts/docs-check.sh DIR [DIR...]
set -u
status=0

# Package doc gate: at least one non-test file per package must carry a
# // comment block directly above its package clause.
for dir in "$@"; do
    has_doc=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in
        *_test.go) continue ;;
        esac
        if awk '
            /^\/\// { prev_comment = 1; next }
            /^package / { if (prev_comment) found = 1 }
            { prev_comment = 0 }
            END { exit !found }
        ' "$f"; then
            has_doc=1
            break
        fi
    done
    if [ "$has_doc" -eq 0 ]; then
        echo "$dir: package has no package doc comment (add a doc.go)" >&2
        status=1
    fi
done

for dir in "$@"; do
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in
        *_test.go) continue ;;
        esac
        awk -v file="$f" '
            /^\/\// { prev_comment = 1; next }
            /^func \([^)]*\) [A-Z]/ || /^(func|type|var|const) [A-Z]/ {
                if (!prev_comment) {
                    printf "%s:%d: exported declaration has no doc comment: %s\n", file, FNR, $0
                    bad = 1
                }
            }
            { prev_comment = 0 }
            END { exit bad }
        ' "$f" || status=1
    done
done
if [ "$status" -ne 0 ]; then
    echo "docs-check: the declarations/packages above need doc comments" >&2
fi
sh "$(dirname "$0")/test-names-check.sh" || status=1
exit $status
