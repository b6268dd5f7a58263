#!/usr/bin/env bash
# unreached.sh — the reachability gate: every function or method declared
# under internal/ is either linked into a shipped binary or named, with a
# reason, in scripts/unreached.allow.
#
# It builds every cmd/ and examples/ binary plus perfbench with inlining
# off (-gcflags=all=-l, so a callee cannot vanish into its caller), reads
# each binary's text symbols with `go tool nm`, and checks every non-test
# func or method declared under internal/ (internal/analysis excluded:
# only mehpt-lint links it, and whole-analyzer reachability is not the
# question) against them. Generic instantiations carry nested [...] in
# their symbol names; those are stripped before matching.
#
# It exits 1 when
#   - a function no binary links is not on the allowlist (delete it, give
#     it a caller it needs, or allowlist it with a reason);
#   - an allowlist entry is stale: its function is now linked, or is no
#     longer declared (remove the entry);
#   - an allowlist line is malformed (no `# reason`) or duplicated;
#   - a binary fails to build (its symbols would be missing, so the check
#     would be meaningless);
#   - `git ls-files` lists no declarations (outside a git work tree, e.g.
#     in a `git archive` export), since an empty list would pass anything.
#
# Allowlist format, one entry a line: `pkg.[Recv.]Name  # reason`, where
# pkg is the path under internal/ (e.g. `phys.Memory.FMFI`); blank lines
# and lines starting with # are ignored.
#
# Output: one `path:line: pkg.[Recv.]Name: <finding>` line per finding,
# then a one-line summary. Exit status: 0 clean, 1 findings.
set -u
cd "$(dirname "$0")/.."

allow=scripts/unreached.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

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
    if ! go build -gcflags=all=-l -o "$tmp/bin/$name" "./$d"; then
        echo "unreached.sh: building $d failed" >&2
        status=1
    fi
done
if ! (cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .); then
    echo "unreached.sh: building perfbench failed" >&2
    status=1
fi

# Text symbols of every binary, one per line, generic brackets removed:
# repro/internal/x.(*Table[go.shape.int]).Get -> repro/internal/x.(*Table).Get
for b in "$tmp"/bin/*; do
    go tool nm "$b" 2>/dev/null
done | awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^ +/, ""); print }' |
    grep '^repro/internal/' |
    sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' |
    sort -u >"$tmp/syms"

# Every declaration as "name loc reached|unreached", name relative to
# internal/.
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
    if grep -qxF -e "$sym" -e "$alt" "$tmp/syms"; then
        echo "${sym#repro/internal/} $loc reached"
    else
        echo "${sym#repro/internal/} $loc unreached"
    fi
done <"$tmp/decls" | sort >"$tmp/state"

# Allowlist entries, validated: "name" per line.
touch "$tmp/allowed"
if [ -f "$allow" ]; then
    lineno=0
    while IFS= read -r raw || [ -n "$raw" ]; do
        lineno=$((lineno + 1))
        [[ $raw =~ ^[[:space:]]*(#.*)?$ ]] && continue
        if [[ ! $raw =~ ^([A-Za-z0-9_./]+)[[:space:]]+#[[:space:]]*[^[:space:]] ]]; then
            echo "$allow:$lineno: malformed entry (want \`pkg.[Recv.]Name  # reason\`): $raw"
            status=1
            continue
        fi
        entry=${BASH_REMATCH[1]}
        if grep -qxF "$entry" "$tmp/allowed"; then
            echo "$allow:$lineno: $entry: duplicate entry"
            status=1
        fi
        echo "$entry" >>"$tmp/allowed"
        if ! state=$(awk -v n="$entry" '$1 == n { print $3; exit }' "$tmp/state") || [ -z "$state" ]; then
            echo "$allow:$lineno: $entry: stale entry, no longer declared under internal/"
            status=1
        elif [ "$state" = reached ]; then
            echo "$allow:$lineno: $entry: stale entry, now linked into a binary"
            status=1
        fi
    done <"$allow"
fi

unreached=0
allowed=0
while read -r name loc state; do
    [ "$state" = unreached ] || continue
    unreached=$((unreached + 1))
    if grep -qxF "$name" "$tmp/allowed"; then
        allowed=$((allowed + 1))
    else
        echo "$loc: $name: no binary links it and it is not in $allow"
        status=1
    fi
done <"$tmp/state"

echo "unreached.sh: $unreached unreached functions, $allowed allowlisted" >&2
exit $status
