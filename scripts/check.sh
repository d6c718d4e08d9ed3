#!/bin/sh
# check.sh — the tier-1 verify loop, `make check`-equivalent.
#
#   ./scripts/check.sh          # fmt + vet + build + test + race on hardened packages
#   ./scripts/check.sh -full    # additionally race-test every package
#
# The race pass covers the packages with concurrent hot paths (banked
# pcache locking, the resilience engine/scrubber, atomic twod stats,
# the obs registry) and the kernel layer they are built on (bitvec word
# views, ecc scratch pools); -full extends it to the whole module.
#
# perfbench/ is its own Go module (the serving benchmark), so the
# root go vet/go test never reach it; its self-tests (seed determinism,
# histogram error, bare-vs-wrapped differential, metric names) run as a
# separate step.
#
# The replay gate re-runs every committed fault trace in
# internal/replay/testdata/ (each one is a shrunk, once-silent storm
# run) through the deterministic replayer; -full repeats them under
# -race and adds the cmd/soak exit-code contract.
#
# Every go test invocation carries -timeout 120s — the deadlock gate: a
# wedged repair (stuck single-flight leader, watchdog that never fires,
# scrubber Stop that never joins) fails the build in two minutes with a
# goroutine dump instead of idling under go test's default 10m.
#
# staticcheck runs when the binary is on PATH and is skipped with a
# warning otherwise, so the gate tightens automatically on machines
# that have it without breaking minimal containers.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$fmt_out" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi
echo "== go build ./..."
go build ./...
echo "== go test ./..."
go test -timeout 120s ./...
echo "== perfbench self-tests (separate module; go test ./... skips it)"
(cd perfbench && go vet ./... && go test -timeout 120s ./...)
echo "== replay gate (committed fault traces)"
go test -timeout 120s ./internal/replay/ -run 'TestCommittedTraces'
if [ "${1:-}" = "-full" ]; then
    echo "== go test -race ./... (full)"
    go test -race -timeout 120s ./...
    echo "== replay gate under -race (full)"
    go test -race -timeout 120s ./internal/replay/ -run 'TestCommittedTraces'
    echo "== cmd/soak exit-code contract (full)"
    sh scripts/test_soak_exit.sh
else
    echo "== go test -race (concurrency-hardened packages + kernel layer)"
    go test -race -timeout 120s ./internal/bitvec/ ./internal/ecc/ ./internal/twod/ ./internal/pcache/ ./internal/resilience/ ./internal/obs/ ./internal/store/ ./internal/netsrv/ ./internal/fault/ ./internal/cluster/ ./internal/bufpool/
fi
echo "check: OK"
