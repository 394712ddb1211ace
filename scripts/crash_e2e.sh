#!/bin/sh
# crash_e2e.sh — crash-recovery gate for the serving layer: boot ptbserve
# with a persistent store (results plus one .pending file per accepted
# job), hammer it with sweep requests, SIGKILL the server mid-sweep,
# reboot it on the same store, and demand that (a) the journal replays
# every accepted-but-incomplete job to completion (zero accepted jobs
# lost; interrupted runs recompute from cycle 0) and leaves no pending
# file behind, and (b) the digests served after recovery are
# byte-identical to a never-crashed reference server's. Used by
# `make crash-e2e` and CI's crash-e2e job.
set -eu

ADDR="${PTBSERVE_ADDR:-127.0.0.1:18178}"
SCALE="${PTBSERVE_SCALE:-0.5}"

workdir="$(mktemp -d)"
server_pid=""
loader_pid=""
trap 'kill -9 "$server_pid" "$loader_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building binaries"
go build -o "$workdir/ptbserve" ./cmd/ptbserve
go build -o "$workdir/ptbload" ./cmd/ptbload

stats() {
    # Tiny dependency-free stats probe (curl is not guaranteed).
    "$workdir/ptbstats" "http://$ADDR/v1/stats"
}
cat >"$workdir/stats.go" <<'EOF'
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
)

func main() {
	resp, err := http.Get(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}
EOF
go build -o "$workdir/ptbstats" "$workdir/stats.go"

boot() {
    store="$1"
    shift
    "$workdir/ptbserve" -addr "$ADDR" -store "$store" -scale "$SCALE" "$@" \
        >"$workdir/serve.log" 2>&1 &
    server_pid=$!
    i=0
    while [ "$i" -lt 100 ]; do
        if "$workdir/ptbload" -addr "$ADDR" -n 1 -c 1 -benches fft -cores 2 -techs none \
            >/dev/null 2>&1; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.2
    done
    echo "server failed to come up:"; cat "$workdir/serve.log"; exit 1
}

echo "== reference pass (never-crashed server)"
boot "$workdir/ref-store"
"$workdir/ptbload" -addr "$ADDR" -n 1 -c 1 | tee "$workdir/ref.out"
kill -TERM "$server_pid"
wait "$server_pid" || true

echo "== boot the crash-test server (store + journal)"
boot "$workdir/store"

echo "== hammer with sweeps, then SIGKILL mid-sweep"
"$workdir/ptbload" -addr "$ADDR" -n 20 -c 8 >"$workdir/crash.out" 2>&1 &
loader_pid=$!
# Kill as soon as fresh simulation work is actually in flight.
i=0
while [ "$i" -lt 200 ]; do
    if stats | grep -Eq '"running":[1-9]'; then
        break
    fi
    i=$((i + 1))
    sleep 0.05
done
kill -9 "$server_pid"
wait "$loader_pid" 2>/dev/null || true
loader_pid=""
echo "   (server SIGKILLed; loader aborted as expected)"

echo "== reboot on the same store: journal replay"
boot "$workdir/store"
# The kill must have landed mid-sweep: at least one accepted job left
# pending for the journal to recover, or the gate would pass vacuously.
if ! grep -E "journal: replaying [1-9][0-9]* interrupted" "$workdir/serve.log"; then
    echo "no accepted job was pending at the kill; nothing was recovered:"
    cat "$workdir/serve.log"; exit 1
fi

echo "== wait until every accepted job is recovered (journal drains)"
i=0
while [ "$i" -lt 600 ]; do
    if ! stats | grep -q '"journal_pending"'; then
        break
    fi
    i=$((i + 1))
    sleep 0.5
done
if stats | grep -q '"journal_pending"'; then
    echo "journal never drained:"; stats; exit 1
fi
# A drained journal is an empty one on disk: every pending file cleared,
# and no file in any older journal format written.
if ls "$workdir/store"/*.pending >/dev/null 2>&1; then
    echo "pending files left after the journal drained:"; ls "$workdir/store"; exit 1
fi
if [ -e "$workdir/store/jobs.wal" ]; then
    echo "a jobs.wal was written; the journal is pending files only"; exit 1
fi

echo "== recovered digests byte-identical to the reference server"
"$workdir/ptbload" -addr "$ADDR" -n 1 -c 1 | tee "$workdir/recovered.out"
grep '^digest' "$workdir/ref.out" >"$workdir/ref.digests"
grep '^digest' "$workdir/recovered.out" >"$workdir/recovered.digests"
diff "$workdir/ref.digests" "$workdir/recovered.digests"

echo "== clean shutdown"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "server exited non-zero:"; cat "$workdir/serve.log"; exit 1; }
grep -q "drained cleanly" "$workdir/serve.log"

echo "crash-e2e: PASS"
