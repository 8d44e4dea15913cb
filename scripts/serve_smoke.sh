#!/bin/sh
# Serve-layer smoke: boot mdserve on an ephemeral port, refuse a script
# the parser rejects and a spec with a negative count, drive one small
# LJ job through the HTTP API to completion, scrape /metrics, then
# SIGTERM-drain with a second job running and assert a clean exit
# (code 0) with an intact journal. Run from the repository root (make
# serve-smoke does).
set -eu

DIR=$(mktemp -d /tmp/gomd-serve-smoke.XXXXXX)
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
	echo "serve-smoke: $*" >&2
	exit 1
}

go build -o "$DIR/mdserve" ./cmd/mdserve

"$DIR/mdserve" -addr 127.0.0.1:0 -addr-file "$DIR/addr" -data "$DIR/data" \
	>"$DIR/serve.log" 2>&1 &
PID=$!

# Wait for the daemon to publish its bound address.
i=0
while [ ! -s "$DIR/addr" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { cat "$DIR/serve.log" >&2; fail "daemon never bound"; }
	kill -0 "$PID" 2>/dev/null || { cat "$DIR/serve.log" >&2; fail "daemon died on startup"; }
	sleep 0.1
done
ADDR=$(cat "$DIR/addr")

# A script the parser refuses is a 400 naming its line and command, not
# a job that takes the daemon down.
CODE=$(curl -sS -o "$DIR/poison.json" -w '%{http_code}' -X POST \
	-d '{"script":"thermo\nrun 1\n"}' "http://$ADDR/api/v1/jobs")
[ "$CODE" = 400 ] || fail "poison script: HTTP $CODE, want 400"
grep -q 'line 1' "$DIR/poison.json" && grep -q 'thermo' "$DIR/poison.json" ||
	fail "poison script: 400 body does not name line 1 and thermo: $(cat "$DIR/poison.json")"

# An out-of-range count is a 400 and never reaches the journal: zero
# means the default, a negative value is refused, not replaced.
SIZE=$(wc -c <"$DIR/data/serve.journal")
CODE=$(curl -sS -o "$DIR/negative.json" -w '%{http_code}' -X POST \
	-d '{"workload":"lj","atoms":500,"steps":10,"workers":-1}' "http://$ADDR/api/v1/jobs")
[ "$CODE" = 400 ] || fail "workers -1: HTTP $CODE, want 400"
grep -q 'workers -1 is negative' "$DIR/negative.json" ||
	fail "workers -1: 400 body does not name the field: $(cat "$DIR/negative.json")"
[ "$(wc -c <"$DIR/data/serve.journal")" -eq "$SIZE" ] ||
	fail "workers -1: the refused spec grew the journal"

# Submit a small checkpointed LJ job and poll it to completion.
BODY='{"tenant":"ci","workload":"lj","atoms":500,"steps":40,"ranks":2,"thermo_every":10,"checkpoint_every":20}'
RESP=$(curl -sS -X POST -d "$BODY" "http://$ADDR/api/v1/jobs")
ID=$(printf '%s' "$RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "submit returned no job id: $RESP"

i=0
while :; do
	STATE=$(curl -sS "http://$ADDR/api/v1/jobs/$ID" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
	case "$STATE" in
	done) break ;;
	failed | cancelled) fail "job $ID ended $STATE" ;;
	esac
	i=$((i + 1))
	[ "$i" -gt 300 ] && fail "job $ID stuck in state '$STATE'"
	sleep 0.2
done

curl -sS "http://$ADDR/api/v1/jobs/$ID/result" | grep -q '"steps": *40' ||
	fail "result for $ID missing steps=40"

# The admission/scheduler counters must be on the exposition surface.
curl -sS "http://$ADDR/metrics" | grep -q '^gomd_serve_submitted' ||
	fail "/metrics missing gomd_serve_submitted"

# Drain drill: park a long checkpointed job, SIGTERM, expect exit 0 and
# a journal left behind for the next daemon generation.
BODY='{"tenant":"ci","workload":"lj","atoms":500,"steps":100000,"ranks":2,"thermo_every":10,"checkpoint_every":20}'
curl -sS -X POST -d "$BODY" "http://$ADDR/api/v1/jobs" >/dev/null

kill -TERM "$PID"
CODE=0
wait "$PID" || CODE=$?
PID=""
[ "$CODE" -eq 0 ] || { cat "$DIR/serve.log" >&2; fail "drain exited $CODE, want 0"; }
[ -s "$DIR/data/serve.journal" ] || fail "journal missing after drain"
grep -q '"state":"running"' "$DIR/data/serve.journal" ||
	fail "drained journal has no parked running job"

echo "serve-smoke: ok"
