#!/usr/bin/env bash
# Serve smoke, run via ctest (arpsec_serve_smoke) and the CI arpsec-serve
# job: a unix-socket round trip through arpsec-served must produce an alert
# file byte-identical to offline arpsec-replay, the snapshot -> freeze
# -> restore -> resume flow must reproduce the offline run as a set, and a
# ~100k-frame stream with live alerts must finish under a timeout.
#
# usage: serve_smoke.sh TRACE_TOOL REPLAY_TOOL SERVED_TOOL LOADGEN_TOOL WORK_DIR [FRAMES]
set -euo pipefail

TRACE_TOOL=$1
REPLAY_TOOL=$2
SERVED_TOOL=$3
LOADGEN_TOOL=$4
WORK_DIR=$5
FRAMES=${6:-5000}

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
cd "$WORK_DIR"

# sun_path caps unix socket paths at ~108 bytes; the build tree can be
# deeper than that, so the socket lives in a short-lived tmp dir.
SOCK_DIR=$(mktemp -d)
trap 'rm -rf "$SOCK_DIR"' EXIT
SOCK="$SOCK_DIR/s.sock"

"$TRACE_TOOL" --frames "$FRAMES" --jobs 2 --out trace.pcap > /dev/null

# Offline ground truth: same scheme, same (default) grace window.
"$REPLAY_TOOL" --pcap trace.pcap --schemes arpwatch --no-timing \
    --alerts replay_alerts.jsonl --out replay_artifact.json > /dev/null

wait_listen() { # pid logfile
    for _ in $(seq 1 100); do
        grep -q "listening on" "$2" 2> /dev/null && return 0
        kill -0 "$1" 2> /dev/null || { cat "$2" >&2; return 1; }
        sleep 0.1
    done
    echo "daemon never printed its listening line" >&2
    return 1
}

# --- leg 0: full stream over the socket; the equivalence gate -------------
"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch \
    --alerts served_alerts.jsonl --summary served_summary.json \
    > served.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" > loadgen.log 2>&1
wait "$SERVED_PID"
if ! cmp served_alerts.jsonl replay_alerts.jsonl; then
    echo "serve<->replay equivalence FAILED: alert files differ" >&2
    exit 1
fi
echo "serve smoke: socket alerts byte-identical to offline replay"

# --- snapshot -> freeze -> restore -> resume ------------------------------
# Leg 1 streams the first half and hangs up without END: the daemon freezes
# state (no grace window) and snapshots exactly what it saw. Leg 2 restores
# the snapshot and streams the rest to a clean END.
HALF=$((FRAMES / 2))
"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch \
    --alerts part1_alerts.jsonl --snapshot snap.json > served1.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served1.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" --count "$HALF" --no-end \
    > loadgen1.log 2>&1
wait "$SERVED_PID"

"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch --restore snap.json \
    --alerts part2_alerts.jsonl > served2.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served2.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" --skip "$HALF" \
    > loadgen2.log 2>&1
wait "$SERVED_PID"

# The two legs' alerts, as a set, are exactly the offline run's (drop the
# schema header line of each file before comparing).
tail -n +2 part1_alerts.jsonl > union.jsonl
tail -n +2 part2_alerts.jsonl >> union.jsonl
sort union.jsonl > union_sorted.jsonl
tail -n +2 replay_alerts.jsonl | sort > offline_sorted.jsonl
if ! cmp union_sorted.jsonl offline_sorted.jsonl; then
    echo "snapshot/restore resume FAILED: alert union differs from offline run" >&2
    exit 1
fi
echo "serve smoke: snapshot/restore resume matches the offline run"

# --- live alerts under load -----------------------------------------------
# A client that writes its whole stream before reading anything stalls once
# about 10k kAlert records are in flight: the daemon's alert drain blocks on
# the client's full receive buffer, the shards and the intake back up behind
# it, and the client blocks writing frames. arpsec-loadgen reads alerts on a
# second thread while it writes, so ~100k frames (the trace, lapped) must
# finish well inside the timeout, with every alert delivered.
LAPS=$(( (100000 + FRAMES - 1) / FRAMES ))
"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch --alerts soak_alerts.jsonl \
    > served3.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served3.log
if ! timeout 60 "$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" --repeat "$LAPS" \
        > loadgen3.log 2>&1; then
    # The stalled daemon may ignore SIGTERM while it blocks on the client.
    kill -9 "$SERVED_PID" 2> /dev/null || true
    cat loadgen3.log >&2
    echo "live-alert stream FAILED: arpsec-loadgen did not finish within 60 s" >&2
    exit 1
fi
wait "$SERVED_PID"
SERVED_ALERTS=$(( $(wc -l < soak_alerts.jsonl) - 1 ))
if ! grep -q "received $SERVED_ALERTS alert records" loadgen3.log; then
    cat loadgen3.log >&2
    echo "live-alert stream FAILED: client did not receive all $SERVED_ALERTS alerts" >&2
    exit 1
fi
echo "serve smoke: $LAPS laps with live alerts finished; $SERVED_ALERTS alerts delivered"
