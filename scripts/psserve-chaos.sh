#!/bin/sh
# psserve-chaos.sh is the serving chaos wall from the outside: a psserve
# binary built with -race serves a models directory while this script
# floods /classify from several workers and concurrently drives hot-reload
# cycles — retrained snapshots (must swap in as the next generation),
# truncated snapshots and bit-flipped snapshots (must be rejected with the
# old generation still serving), plus SIGHUP-triggered rescans. Every flood
# response must be HTTP 200 with a generation tag inside the published
# range; any dropped request, torn read or race-detector report fails the
# run. In-process chaos tests cover the same invariants faster, but only a
# real binary on a real socket exercises the signal handler, the listener
# timeouts and the full HTTP stack at once.
#
# A second phase drives the train-while-serve loop end to end: a -learn
# server ingests labeled traffic over POST /models/digits/learn, emits a
# candidate, shadow-evaluates and promotes it (generation must advance under
# live traffic), survives a kill -9 between promotions, and promotes again
# after restarting from the durable base checkpoint.
#
# Usage: scripts/psserve-chaos.sh [port] [cycles]
set -eu
cd "$(dirname "$0")/.."

PORT="${1:-18081}"
CYCLES="${2:-30}"
WORK="$(mktemp -d)"
MODELS="$WORK/models"
SERVER_PID=""
LEARN_PID=""
FLOOD_PIDS=""

cleanup() {
	for p in $FLOOD_PIDS; do
		kill "$p" 2>/dev/null || true
	done
	for p in "$SERVER_PID" "$LEARN_PID"; do
		if [ -n "$p" ]; then
			kill "$p" 2>/dev/null || true
			wait "$p" 2>/dev/null || true
		fi
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "psserve-chaos: building binaries (-race)"
go build -o "$WORK/pssim" ./cmd/pssim
go build -race -o "$WORK/psserve" ./cmd/psserve

PRESET=8bit
RULE=stochastic
TLEARN=80

# Two distinguishable trained snapshots: reloads alternate between them so
# every swap is a real weight change, not a no-op.
echo "psserve-chaos: training two test-scale snapshots"
"$WORK/pssim" -preset "$PRESET" -rule "$RULE" -seed 7 -tlearn "$TLEARN" \
	-train 60 -label 30 -infer 30 -neurons 20 -save "$WORK/v1.pss" >/dev/null
"$WORK/pssim" -preset "$PRESET" -rule "$RULE" -seed 11 -tlearn "$TLEARN" \
	-train 60 -label 30 -infer 30 -neurons 20 -save "$WORK/v2.pss" >/dev/null

mkdir -p "$MODELS"
cp "$WORK/v1.pss" "$MODELS/digits.pss"

echo "psserve-chaos: starting server on :$PORT"
"$WORK/psserve" -models "$MODELS" -model digits -preset "$PRESET" -rule "$RULE" \
	-seed 7 -tlearn "$TLEARN" -classes 10 -max-inflight 8 \
	-addr "127.0.0.1:$PORT" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

BASE="http://127.0.0.1:$PORT"
for _ in $(seq 1 50); do
	if curl -sf "$BASE/healthz" >"$WORK/health.json" 2>/dev/null; then
		break
	fi
	kill -0 "$SERVER_PID" 2>/dev/null || { echo "psserve-chaos: FAIL: server exited early"; cat "$WORK/server.log"; exit 1; }
	sleep 0.2
done
grep -q '"model":"digits"' "$WORK/health.json" || { echo "psserve-chaos: FAIL: bad health: $(cat "$WORK/health.json")"; exit 1; }

gen() {
	curl -sf "$BASE/healthz" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p'
}

[ "$(gen)" = "1" ] || { echo "psserve-chaos: FAIL: initial generation $(gen), want 1"; exit 1; }

# The flood: workers hammer /models/digits/classify for the whole run. A
# non-200 or a generation tag above the published bound (written to
# $WORK/published by the reload loop below) is recorded and fails the run.
ZEROS=$(awk 'BEGIN{for(i=0;i<784;i++)printf i?",0":"0"}')
printf '{"images":[[%s]]}' "$ZEROS" >"$WORK/req.json"
echo 1 >"$WORK/published"
: >"$WORK/flood.err"

flood() {
	while [ ! -f "$WORK/stop" ]; do
		body=$(curl -s -X POST --data-binary @"$WORK/req.json" "$BASE/models/digits/classify") || {
			echo "flood $1: request failed" >>"$WORK/flood.err"
			return
		}
		case "$body" in
		*'"model":"digits"'*) ;;
		*)
			echo "flood $1: bad response: $body" >>"$WORK/flood.err"
			return
			;;
		esac
		g=$(echo "$body" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')
		bound=$(cat "$WORK/published")
		if [ -z "$g" ] || [ "$g" -gt "$bound" ]; then
			echo "flood $1: generation $g above published bound $bound: $body" >>"$WORK/flood.err"
			return
		fi
	done
}
for i in 1 2 3 4; do
	flood "$i" &
	FLOOD_PIDS="$FLOOD_PIDS $!"
done

echo "psserve-chaos: $CYCLES reload cycles under flood"
EXPECT=1
cycle=0
while [ "$cycle" -lt "$CYCLES" ]; do
	cycle=$((cycle + 1))
	case $((cycle % 4)) in
	2)
		# Torn publish: truncated file must be rejected, generation frozen.
		head -c 100 "$WORK/v2.pss" >"$MODELS/digits.pss"
		CODE=$(curl -s -o "$WORK/reload.json" -w '%{http_code}' -X POST "$BASE/reload")
		[ "$CODE" = "500" ] || { echo "psserve-chaos: FAIL: torn reload gave $CODE"; exit 1; }
		;;
	3)
		# Bit rot mid-payload: same contract as a torn file.
		cp "$WORK/v2.pss" "$MODELS/digits.pss"
		printf '\377' | dd of="$MODELS/digits.pss" bs=1 seek=60 conv=notrunc 2>/dev/null
		CODE=$(curl -s -o "$WORK/reload.json" -w '%{http_code}' -X POST "$BASE/reload")
		[ "$CODE" = "500" ] || { echo "psserve-chaos: FAIL: corrupt reload gave $CODE"; exit 1; }
		;;
	esac
	G=$(gen)
	[ "$G" = "$EXPECT" ] || { echo "psserve-chaos: FAIL: generation $G after hostile publish, want $EXPECT"; exit 1; }

	# Good publish: alternate snapshots, announce the bound, then reload —
	# half via the admin endpoint, half via SIGHUP.
	if [ $((cycle % 2)) = 0 ]; then SRC="$WORK/v2.pss"; else SRC="$WORK/v1.pss"; fi
	cp "$SRC" "$MODELS/digits.pss"
	EXPECT=$((EXPECT + 1))
	# Replace the bound by rename, never in place: a redirect truncates
	# the file before it writes, and a flood read in between would see an
	# empty bound and skip its generation check.
	echo "$EXPECT" >"$WORK/published.tmp"
	mv "$WORK/published.tmp" "$WORK/published"
	if [ $((cycle % 3)) = 0 ]; then
		kill -HUP "$SERVER_PID"
		for _ in $(seq 1 50); do
			[ "$(gen)" = "$EXPECT" ] && break
			sleep 0.1
		done
	else
		CODE=$(curl -s -o "$WORK/reload.json" -w '%{http_code}' -X POST "$BASE/reload")
		[ "$CODE" = "200" ] || { echo "psserve-chaos: FAIL: reload cycle $cycle gave $CODE: $(cat "$WORK/reload.json")"; exit 1; }
	fi
	G=$(gen)
	[ "$G" = "$EXPECT" ] || { echo "psserve-chaos: FAIL: generation $G after reload cycle $cycle, want $EXPECT"; exit 1; }

	if [ -s "$WORK/flood.err" ]; then
		echo "psserve-chaos: FAIL: flood errors at cycle $cycle:"
		cat "$WORK/flood.err"
		exit 1
	fi
done

touch "$WORK/stop"
for p in $FLOOD_PIDS; do
	wait "$p" 2>/dev/null || true
done
FLOOD_PIDS=""
if [ -s "$WORK/flood.err" ]; then
	echo "psserve-chaos: FAIL: flood errors:"
	cat "$WORK/flood.err"
	exit 1
fi

# Degradation and reload metrics must show the run actually happened.
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
SWAPS=$(sed -n 's/^registry_swaps_total \([0-9]*\)$/\1/p' "$WORK/metrics.txt")
[ -n "$SWAPS" ] && [ "$SWAPS" -ge "$CYCLES" ] || { echo "psserve-chaos: FAIL: registry_swaps_total=$SWAPS, want >= $CYCLES"; exit 1; }
FAILS=$(sed -n 's/^registry_reload_failures_total \([0-9]*\)$/\1/p' "$WORK/metrics.txt")
[ -n "$FAILS" ] && [ "$FAILS" -ge 1 ] || { echo "psserve-chaos: FAIL: no reload failures counted despite corrupt publishes"; exit 1; }

# Graceful drain: SIGTERM must exit cleanly, and the race detector must
# have stayed silent for the whole run.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || { echo "psserve-chaos: FAIL: server exited non-zero"; cat "$WORK/server.log"; exit 1; }
SERVER_PID=""
if grep -q 'DATA RACE' "$WORK/server.log"; then
	echo "psserve-chaos: FAIL: race detector fired:"
	cat "$WORK/server.log"
	exit 1
fi
grep -q 'drained, bye' "$WORK/server.log" || { echo "psserve-chaos: FAIL: no graceful drain in log"; cat "$WORK/server.log"; exit 1; }

# ---------------------------------------------------------------------------
# Phase 2: train -> shadow -> promote -> kill -9 -> restart -> promote again.
# ---------------------------------------------------------------------------
LPORT=$((PORT + 1))
LBASE="http://127.0.0.1:$LPORT"
printf '{"image":[%s],"label":0}' "$ZEROS" >"$WORK/learnreq.json"

lgen() {
	curl -sf "$LBASE/healthz" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p'
}

start_learner() {
	"$WORK/psserve" -models "$MODELS" -model digits -preset "$PRESET" -rule "$RULE" \
		-seed 7 -tlearn "$TLEARN" -classes 10 -max-inflight 8 \
		-learn -learn-every 8 -learn-shadow 8 -learn-min-delta=-1 -learn-queue 64 \
		-addr "127.0.0.1:$LPORT" >>"$1" 2>&1 &
	LEARN_PID=$!
	for _ in $(seq 1 50); do
		curl -sf "$LBASE/healthz" >/dev/null 2>&1 && return 0
		kill -0 "$LEARN_PID" 2>/dev/null || { echo "psserve-chaos: FAIL: learn server exited early"; cat "$1"; exit 1; }
		sleep 0.2
	done
	echo "psserve-chaos: FAIL: learn server never became healthy"
	exit 1
}

# feed_until_gen posts labeled examples (retrying 429 shed) until the served
# generation reaches $1; classification traffic keeps flowing the whole time.
feed_until_gen() {
	want="$1"
	tries=0
	while [ "$(lgen)" -lt "$want" ]; do
		tries=$((tries + 1))
		[ "$tries" -le 400 ] || { echo "psserve-chaos: FAIL: generation never reached $want"; curl -s "$LBASE/models/digits/learn"; exit 1; }
		CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$WORK/learnreq.json" "$LBASE/models/digits/learn")
		case "$CODE" in
		202) ;;
		429) sleep 0.1 ;;
		*) echo "psserve-chaos: FAIL: learn ingest gave $CODE"; exit 1 ;;
		esac
		curl -sf -X POST --data-binary @"$WORK/req.json" "$LBASE/models/digits/classify" >/dev/null ||
			{ echo "psserve-chaos: FAIL: classify dropped during training"; exit 1; }
	done
}

echo "psserve-chaos: train-while-serve phase on :$LPORT"
start_learner "$WORK/learn.log"
[ "$(lgen)" = "1" ] || { echo "psserve-chaos: FAIL: learn server initial generation $(lgen)"; exit 1; }

# Runtime knobs answer over HTTP before training starts.
CODE=$(curl -s -o "$WORK/tune.json" -w '%{http_code}' -X POST -d '{"emit_every":8,"max_hz":78}' "$LBASE/models/digits/tune")
[ "$CODE" = "200" ] || { echo "psserve-chaos: FAIL: tune gave $CODE: $(cat "$WORK/tune.json")"; exit 1; }
grep -q '"emit_every":8' "$WORK/tune.json" || { echo "psserve-chaos: FAIL: tune not applied: $(cat "$WORK/tune.json")"; exit 1; }

# Labeled traffic until the trainer promotes over the live generation.
feed_until_gen 2
curl -sf "$LBASE/models/digits/learn" >"$WORK/learnstat.json"
grep -q '"outcome":"promoted"' "$WORK/learnstat.json" ||
	grep -q '"outcome":"bootstrapped"' "$WORK/learnstat.json" ||
	{ echo "psserve-chaos: FAIL: no promotion audit: $(cat "$WORK/learnstat.json")"; exit 1; }
[ -f "$MODELS/digits.base.ckpt" ] || { echo "psserve-chaos: FAIL: no base checkpoint on disk"; exit 1; }

# Crash hard between promotions: no drain, no goodbye. The durable base and
# candidate checkpoints are whatever the filesystem kept.
kill -9 "$LEARN_PID"
wait "$LEARN_PID" 2>/dev/null || true
LEARN_PID=""

# Restart over the same models dir and train to a fresh promotion.
start_learner "$WORK/learn2.log"
feed_until_gen 2
curl -sf "$LBASE/models/digits/learn" >"$WORK/learnstat2.json"
grep -q '"promotions":[1-9]' "$WORK/learnstat2.json" || { echo "psserve-chaos: FAIL: no promotion after restart: $(cat "$WORK/learnstat2.json")"; exit 1; }

kill -TERM "$LEARN_PID"
wait "$LEARN_PID" 2>/dev/null || { echo "psserve-chaos: FAIL: learn server exited non-zero"; cat "$WORK/learn2.log"; exit 1; }
LEARN_PID=""
if grep -q 'DATA RACE' "$WORK/learn.log" "$WORK/learn2.log"; then
	echo "psserve-chaos: FAIL: race detector fired in train-while-serve phase"
	cat "$WORK/learn.log" "$WORK/learn2.log"
	exit 1
fi

echo "psserve-chaos: PASS ($CYCLES reload cycles, final generation $(tail -1 "$WORK/published"); train-while-serve promoted, survived kill -9, promoted again)"
