#!/usr/bin/env bash
# unreached.sh — list the functions and methods under internal/ that no
# shipped binary contains: the reachability pass behind "delete what
# production does not reach".
#
# It builds every cmd/ and examples/ binary plus perfbench with inlining
# off (-gcflags=all=-l, so a callee cannot vanish into its caller), reads
# each binary's text symbols with `go tool nm`, and prints every non-test
# func or method declared under internal/ (internal/analysis excluded:
# only mehpt-lint links it, and whole-analyzer reachability is not the
# question) that appears in none of them. Generic instantiations carry
# nested [...] in their symbol names; those are stripped before matching.
#
# A listed function is reached only by tests (or by nothing). It is a
# deletion candidate, not a verdict: code that tests still call stays
# until those tests are replaced. The script only reports: it exits 0
# whatever it lists. It exits 1 when `git ls-files` lists no declarations
# (outside a git work tree, e.g. in a `git archive` export), since an
# empty list there would read as "every function is reached".
#
# Output: one `path:line: pkg.[Recv.]Name` line per unreached function.
set -u
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Declared funcs as candidate symbols: "file:line pkgpath.Name" for plain
# functions, "file:line pkgpath.Recv.Name" for methods (matched against
# both the value and the pointer-receiver spelling).
git ls-files 'internal/*.go' |
    grep -v -e '_test\.go$' -e '/testdata/' -e '^internal/analysis/' |
    while read -r f; do
        pkg="repro/$(dirname "$f")"
        grep -n -E '^func ' "$f" |
            sed -E -e 's/\[[^]]*\]//g' \
                -e 's/^([0-9]+):func \(([^)]*)\) ([A-Za-z0-9_]+).*/\1 \2 \3/' \
                -e 's/^([0-9]+):func ([A-Za-z0-9_]+).*/\1 - \2/' |
            while read -r line rest; do
                name=${rest##* }
                recv=${rest% *}
                recv=${recv##* }
                recv=${recv#\*}
                if [ "$recv" = "-" ]; then
                    echo "$f:$line $pkg.$name"
                else
                    echo "$f:$line $pkg.$recv.$name"
                fi
            done
    done >"$tmp/decls"
if [ ! -s "$tmp/decls" ]; then
    echo "unreached.sh: git ls-files lists no declarations under internal/; run it in a git work tree" >&2
    exit 1
fi

for d in cmd/*/ examples/*/; do
    name=$(basename "$d")
    go build -gcflags=all=-l -o "$tmp/bin/$name" "./$d" ||
        echo "unreached.sh: building $d failed; its symbols are missing" >&2
done
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .) ||
    echo "unreached.sh: building perfbench failed; its symbols are missing" >&2

# Text symbols of every binary, one per line, generic brackets removed:
# repro/internal/x.(*Table[go.shape.int]).Get -> repro/internal/x.(*Table).Get
for b in "$tmp"/bin/*; do
    go tool nm "$b" 2>/dev/null
done | awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^ +/, ""); print }' |
    grep '^repro/internal/' |
    sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' |
    sort -u >"$tmp/syms"

while read -r loc sym; do
    pkg=${sym%%.*}
    rest=${sym#*.}
    if [[ $rest == *.* ]]; then
        recv=${rest%%.*}
        name=${rest#*.}
        alt="$pkg.(*$recv).$name"
    else
        alt=$sym
    fi
    if ! grep -qxF -e "$sym" -e "$alt" "$tmp/syms"; then
        echo "$loc: ${sym#repro/internal/}"
    fi
done <"$tmp/decls"
exit 0
