#!/usr/bin/env bash
# lint.sh — run the repo's own analyzer suite exactly the way CI gates on
# it, so "works locally, fails in CI" cannot happen for lint.
#
# The suite (internal/analysis, see DESIGN.md § "Mechanically enforced
# invariants" and § "Snapshot completeness & determinism") runs three
# syntactic analyzers plus the waiver audit: determinism bans and map
# ranges other than collect-then-sort (detflow), address units
# (addrspace), error wrapping (errwrap), and stale //mehpt:allow waivers
# (staleallow). Snapshot completeness is held by the restore gates
# instead (README.md § "Linting the invariants").
#
# Environment knobs:
#   LINT_JSON  set to a path to also write the machine-readable report
#              (per-analyzer findings / suppressed counts / wall time)
#   LINT_PKGS  package patterns to lint (default: ./...) — note that
#              subsetting skips the whole-module waiver audit guarantees
#
# Exit status mirrors mehpt-lint: 0 clean, 1 findings, 2 load error.
set -u
cd "$(dirname "$0")/.."

pkgs=${LINT_PKGS:-./...}

if [[ -n ${LINT_JSON:-} ]]; then
    go run ./cmd/mehpt-lint -json "$pkgs" >"$LINT_JSON"
    status=$?
    # The JSON report goes to the file; re-print findings for humans.
    if [[ $status -eq 1 ]]; then
        go run ./cmd/mehpt-lint "$pkgs"
    fi
    exit $status
fi

exec go run ./cmd/mehpt-lint "$pkgs"
