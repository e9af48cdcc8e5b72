#!/bin/sh
# fma-check.sh: fails when the compiler fuses a multiply and an add into
# one instruction (one rounding instead of two) anywhere in this module's
# code, on the architectures whose Go backends fuse: arm64, ppc64le and
# riscv64. amd64 never fuses, so an amd64 leader and an arm64 follower
# compute the same rows and model cells bit for bit only if no kqr
# function fuses there either. An explicit float64(...) conversion around
# a product forbids the fusion (Go spec, "Floating-point operators").
#
# It cross-compiles ./cmd/kqr-server for each architecture, disassembles
# the kqr functions with `go tool objdump`, and names every F(N)M(ADD|SUB)
# instruction it finds with its function, file:line and architecture.
#
# Usage: sh scripts/fma-check.sh   (from any directory; no network)
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

# Functions (as objdump names them, e.g. kqr/internal/serving.(*Histogram).Quantile)
# whose fused instructions are accepted, one per line. Empty: none is.
ALLOW=''

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for arch in arm64 ppc64le riscv64; do
	GOOS=linux GOARCH=$arch $GO build -o "$tmp/kqr-server" ./cmd/kqr-server
	$GO tool objdump -s '^kqr[./]' "$tmp/kqr-server" >"$tmp/dis"
	awk -v arch="$arch" -v allow="$ALLOW" '
		BEGIN { n = split(allow, a, "\n"); for (i = 1; i <= n; i++) if (a[i] != "") ok[a[i]] = 1 }
		$1 == "TEXT" { fn = $2; sub(/\(SB\)$/, "", fn); next }
		$4 ~ /^FN?M(ADD|SUB)/ && !(fn in ok) {
			ins = $4; for (i = 5; i <= NF; i++) ins = ins " " $i
			printf "fma-check: %s: %s %s: %s\n", arch, fn, $1, ins
			found++
		}
		END { exit found > 0 }
	' "$tmp/dis" || status=1
done
if [ "$status" -ne 0 ]; then
	echo "fma-check: fused multiply-add in kqr code; wrap the product in float64(...) at each line above" >&2
fi
exit "$status"
