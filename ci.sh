#!/bin/sh
# ci.sh - the repository's check gauntlet. Run before sending a PR.
#
#   ./ci.sh          vet + gofmt + build + full tests (the allocs/op guard,
#                    TestKernelAllocs, included) + race-detector pass over
#                    the concurrent packages (core, trace, conc, pt, source,
#                    etrace, ingest, fleet) and the root streaming and
#                    kill-and-resume tests +
#                    end-to-end smokes (PT, JIT-heavy PT, lossy PT,
#                    heavy-loss PT, many-segment PT, four-thread PT,
#                    E-Trace and the in-process run/analyze/report
#                    verbs) + a vet/test pass over the benchmark/
#                    module, which builds against the root package
#
# The race pass covers the offline-phase parallelism introduced with the
# worker pool — the read-only Matcher contract, the per-core trace carve and
# the pool primitives themselves (conc.Pool's property tests) — plus the
# streaming pipeline: the chunked collector export, the incremental
# stitcher, and the staged Session, which stitches on the caller's
# goroutine while its worker pool decodes (the full root suite under -race
# is too slow for CI, so the race pass runs the streaming-specific tests).
set -eu

cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race (concurrent packages)"
go test -race ./internal/core/... ./internal/trace/... ./internal/conc/... ./internal/pt/... ./internal/source/... ./internal/etrace/...

echo "==> go test -race (root streaming tests + kill-and-resume)"
# TestKillAndResume restores checkpointed tokenizer state (tokens and
# their clock, adopted into the arenas) under the concurrent Session; the
# TestResume tests export and restore checkpoints, reading and replacing
# the stitcher on the caller's goroutine while the workers run; the
# TestSession*WithSegmentJobsInFlight tests checkpoint and cancel sessions
# while segment tasks run on the pool, and TestSessionBackPressure holds
# every worker while deltas are routed.
go test -race -run 'TestStream|TestAnalyzeStreamed|TestSession|TestAnalyzeDeterministicAcrossWorkers|TestDeadline|TestKillAndResume|TestResume' .

echo "==> go test -race (ingest service + fleet + netfault + iofault + scrub)"
go test -race ./internal/ingest/... ./internal/fleet/... ./internal/netfault/... ./internal/iofault/... ./internal/scrub/...

echo "==> go test -race (root ingest + fleet + scrub e2e)"
go test -race -run 'TestIngest|TestFleet|TestScrub' .

echo "==> serve/push loopback smoke"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/jportal" ./cmd/jportal
"$SMOKE/jportal" collect -scale 0.5 -out "$SMOKE/local" fop >/dev/null
# A lossy E-Trace archive (16M-label buffers), so the second backend's
# resync path reaches the archive, the replay and the ingest path too.
"$SMOKE/jportal" collect -source riscv-etrace -scale 0.3 -buf 16 -out "$SMOKE/etrace" fop >/dev/null
"$SMOKE/jportal" serve -listen 127.0.0.1:7901 -data "$SMOKE/ingest" >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/serve.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7901 -id smoke "$SMOKE/local" >/dev/null
"$SMOKE/jportal" push -addr 127.0.0.1:7901 -id etrace "$SMOKE/etrace" >/dev/null
# The same E-Trace run again, streamed live as it executes instead of
# replayed from disk: the server-side archive must match the local one.
"$SMOKE/jportal" push -addr 127.0.0.1:7901 -id etrace-live -live -source riscv-etrace -scale 0.3 -buf 16 fop >/dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
for pair in local:smoke etrace:etrace etrace:etrace-live; do
    for f in archive.meta program.gob stream.jpt; do
        cmp "$SMOKE/${pair%%:*}/$f" "$SMOKE/ingest/${pair#*:}/$f"
    done
done
echo "    loopback archives (PT, E-Trace and live E-Trace) byte-identical"

echo "==> E-Trace smoke (lossy archive: stream, stream -workers 1 and decode agree)"
# decode prints the same thread lines as stream plus its wall-clock
# decode=/recover= times, which are stripped before the comparison.
"$SMOKE/jportal" stream "$SMOKE/etrace" >"$SMOKE/etrace-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/etrace" >"$SMOKE/etrace-stream1.txt"
cmp "$SMOKE/etrace-stream.txt" "$SMOKE/etrace-stream1.txt"
"$SMOKE/jportal" decode "$SMOKE/etrace" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/etrace-decode.txt"
cmp "$SMOKE/etrace-stream.txt" "$SMOKE/etrace-decode.txt"
grep -q 'recovered [1-9]' "$SMOKE/etrace-stream.txt"
grep -qx 'thread 0: segments=2 tokens=70633 steps=112699 (recovered 42066)' "$SMOKE/etrace-stream.txt"
echo "    E-Trace replay identical across workers and against decode"

echo "==> JIT-heavy PT smoke (fop archive: stream, stream -workers 1 and decode agree)"
# fop at -scale 0.5 runs 99.8% of its bytecodes in JIT code, so nearly
# every token is lowered from a blob's pre-lowered run and matched by the
# NFA's one-state located step; 24% of its trace is lost, so its holes
# are recovered too.
"$SMOKE/jportal" stream "$SMOKE/local" >"$SMOKE/local-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/local" >"$SMOKE/local-stream1.txt"
cmp "$SMOKE/local-stream.txt" "$SMOKE/local-stream1.txt"
"$SMOKE/jportal" decode "$SMOKE/local" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/local-decode.txt"
cmp "$SMOKE/local-stream.txt" "$SMOKE/local-decode.txt"
grep -qx 'thread 0: segments=3 tokens=674482 steps=730669 (recovered 56187)' "$SMOKE/local-stream.txt"
echo "    JIT-heavy PT replay identical across workers and against decode"

echo "==> lossy PT recovery smoke (stream, stream -workers 1 and decode agree)"
# batik at 16M-label buffers: one thread whose 9 segments leave 8 holes, so
# every replay runs the §5 recoverer's candidate search and chained fills.
"$SMOKE/jportal" collect -scale 0.3 -buf 16 -out "$SMOKE/lossy" batik >/dev/null
"$SMOKE/jportal" stream "$SMOKE/lossy" >"$SMOKE/lossy-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/lossy" >"$SMOKE/lossy-stream1.txt"
cmp "$SMOKE/lossy-stream.txt" "$SMOKE/lossy-stream1.txt"
"$SMOKE/jportal" decode "$SMOKE/lossy" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/lossy-decode.txt"
cmp "$SMOKE/lossy-stream.txt" "$SMOKE/lossy-decode.txt"
grep -q 'recovered [1-9]' "$SMOKE/lossy-stream.txt"
grep -qx 'thread 0: segments=9 tokens=74070 steps=130239 (recovered 56169)' "$SMOKE/lossy-stream.txt"
echo "    lossy PT replay identical across workers and against decode"

echo "==> heavy-loss PT smoke (segments analyzed as they close: stream, stream -workers 1 and decode agree)"
# batik at 8M-label buffers: one thread split into 18 segments. Each
# segment is reconstructed and prepared for recovery by whichever analyzer
# worker is free as soon as the tokenizer closes it, while the archive is
# still being read; only the last one waits for Close.
"$SMOKE/jportal" collect -scale 0.5 -buf 8 -out "$SMOKE/heavy" batik >/dev/null
"$SMOKE/jportal" stream "$SMOKE/heavy" >"$SMOKE/heavy-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/heavy" >"$SMOKE/heavy-stream1.txt"
cmp "$SMOKE/heavy-stream.txt" "$SMOKE/heavy-stream1.txt"
"$SMOKE/jportal" decode "$SMOKE/heavy" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/heavy-decode.txt"
cmp "$SMOKE/heavy-stream.txt" "$SMOKE/heavy-decode.txt"
grep -qx 'thread 0: segments=18 tokens=81340 steps=180349 (recovered 99009)' "$SMOKE/heavy-stream.txt"
echo "    heavy-loss PT replay identical across workers and against decode"

echo "==> many-segment lossy PT smoke (per-segment anchor indexes: stream, stream -workers 1 and decode agree)"
# batik at 4M-label buffers: one thread split into 27 segments. Each
# segment's recovery prep indexes its own anchors, and every candidate
# lookup walks the 27 indexes in segment order.
"$SMOKE/jportal" collect -scale 0.5 -buf 4 -out "$SMOKE/many" batik >/dev/null
"$SMOKE/jportal" stream "$SMOKE/many" >"$SMOKE/many-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/many" >"$SMOKE/many-stream1.txt"
cmp "$SMOKE/many-stream.txt" "$SMOKE/many-stream1.txt"
"$SMOKE/jportal" decode "$SMOKE/many" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/many-decode.txt"
cmp "$SMOKE/many-stream.txt" "$SMOKE/many-decode.txt"
grep -qx 'thread 0: segments=27 tokens=58406 steps=154634 (recovered 96228)' "$SMOKE/many-stream.txt"
echo "    many-segment PT replay identical across workers and against decode"

echo "==> four-thread lossy PT smoke (thread strands: stream at 1, default and 8 workers and decode agree)"
# h2 at 16M-label buffers: four threads of 4 to 8 segments each, with holes
# recovered in every thread, so the pool interleaves four strands of deltas
# with their segment, hole and merge tasks.
"$SMOKE/jportal" collect -scale 0.5 -buf 16 -out "$SMOKE/threads" h2 >/dev/null
"$SMOKE/jportal" stream "$SMOKE/threads" >"$SMOKE/threads-stream.txt"
"$SMOKE/jportal" stream -workers 1 "$SMOKE/threads" >"$SMOKE/threads-stream1.txt"
"$SMOKE/jportal" stream -workers 8 "$SMOKE/threads" >"$SMOKE/threads-stream8.txt"
cmp "$SMOKE/threads-stream.txt" "$SMOKE/threads-stream1.txt"
cmp "$SMOKE/threads-stream.txt" "$SMOKE/threads-stream8.txt"
"$SMOKE/jportal" decode "$SMOKE/threads" | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/threads-decode.txt"
cmp "$SMOKE/threads-stream.txt" "$SMOKE/threads-decode.txt"
grep -qx 'thread 0: segments=8 tokens=22623 steps=84975 (recovered 62352)' "$SMOKE/threads-stream.txt"
grep -qx 'thread 1: segments=6 tokens=63390 steps=107227 (recovered 43837)' "$SMOKE/threads-stream.txt"
grep -qx 'thread 2: segments=4 tokens=67074 steps=100375 (recovered 33301)' "$SMOKE/threads-stream.txt"
grep -qx 'thread 3: segments=4 tokens=59992 steps=105468 (recovered 45476)' "$SMOKE/threads-stream.txt"
echo "    four-thread PT replay identical across workers and against decode"

echo "==> run/analyze/report smoke (in-process phases, per-thread call tree)"
# report h2 profiles four threads. Its call tree starts every thread at the
# root; joined into one stream, each thread's calls would nest under the
# frames the previous thread left open (max depth 204). A step outside the
# top frame's method pops to that method's frame, so a frame left open
# (by a throw, or a reconstructed step that changes method) does not
# parent later calls.
"$SMOKE/jportal" report h2 >"$SMOKE/report1.txt"
"$SMOKE/jportal" report h2 >"$SMOKE/report2.txt"
cmp "$SMOKE/report1.txt" "$SMOKE/report2.txt"
grep -qx 'call tree: 23839 total calls, max depth 4' "$SMOKE/report1.txt"
# report pmd recurses: Ast.visit calls itself and throws to the catch in
# Ast.analyze. Every self-call pushes a frame, and the catch pops the
# unwound visit frames, so the depth stays that of the recursion.
"$SMOKE/jportal" report pmd | grep -qx 'call tree: 39923 total calls, max depth 11'
# analyze runs both phases in one process. On the lossy batik run it must
# reconstruct what the archive replay above pinned, and score it against
# the oracle; its wall-clock decode=/recover= times are stripped.
"$SMOKE/jportal" analyze -scale 0.3 -buf 16 batik | sed 's/ decode=[^ ]* recover=[^ ]*//' >"$SMOKE/analyze.txt"
grep -qx '  thread 0: segments=9 tokens=74070 steps=130239 (recovered 56169) similarity=67.3%' "$SMOKE/analyze.txt"
"$SMOKE/jportal" run -scale 0.3 batik | grep -qx 'trace: generated=101KB exported=72KB lost=29KB (29.0%)'
echo "    report deterministic, call tree per thread, analyze matches the archive replay"

echo "==> damaged-push smoke (one byte flipped, refused before upload)"
# Any single-byte flip past the header breaks record framing or the seal
# CRC, so the exact offset does not matter. push verifies the seal before
# it dials: it must exit nonzero and the server must never see the session.
# The deterministic variant is pinned by TestIngestPushRefusesDamagedArchive.
cp -r "$SMOKE/local" "$SMOKE/damaged"
DMG="$SMOKE/damaged/stream.jpt"
DMG_OFF=$(( $(wc -c <"$DMG") / 2 ))
DMG_BYTE=$(od -An -tu1 -j "$DMG_OFF" -N1 "$DMG" | tr -d ' ')
printf "\\$(printf '%03o' $((DMG_BYTE ^ 255)))" | dd of="$DMG" bs=1 seek="$DMG_OFF" conv=notrunc 2>/dev/null
cmp -s "$SMOKE/local/stream.jpt" "$DMG" && { echo "byte flip did not land"; exit 1; }
"$SMOKE/jportal" serve -listen 127.0.0.1:7903 -data "$SMOKE/dmg-ingest" >"$SMOKE/dmg-serve.log" 2>&1 &
DMG_SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/dmg-serve.log" && break
    sleep 0.1
done
if "$SMOKE/jportal" push -addr 127.0.0.1:7903 -id damaged "$SMOKE/damaged" >/dev/null 2>&1; then
    echo "push of a damaged archive succeeded"
    exit 1
fi
kill -TERM "$DMG_SERVE_PID"
wait "$DMG_SERVE_PID"
test ! -e "$SMOKE/dmg-ingest/damaged"
echo "    damaged archive refused, no server session"

echo "==> fleet smoke (primary+standby coordinators, SIGKILL node and primary mid-fleet)"
# A real multi-process fleet over one shared data dir, with a durable
# control plane: a primary and a standby coordinator share a state dir and
# a leadership lease. Two sessions are pushed through the coordinators;
# one node is SIGKILLed while the fleet is live, then the PRIMARY
# COORDINATOR is SIGKILLed mid-push. The standby must assume leadership
# within one leader lease, rehydrate the membership its predecessor
# persisted, and route the resumed sessions — both archives must still
# come out byte-identical. The deterministic mid-CHUNK variants are pinned
# by TestFleetNodeLossResume and TestFleetCoordinatorFailoverMidPush.
COORDS=http://127.0.0.1:7912,http://127.0.0.1:7916
"$SMOKE/jportal" coordinate -listen 127.0.0.1:7911 -http 127.0.0.1:7912 -lease 1s \
    -data "$SMOKE/ctrl" -name primary -leader-lease 1s >"$SMOKE/coord.log" 2>&1 &
COORD_PID=$!
for i in $(seq 1 50); do
    grep -q 'control plane' "$SMOKE/coord.log" && break
    sleep 0.1
done
"$SMOKE/jportal" coordinate -listen 127.0.0.1:7915 -http 127.0.0.1:7916 -lease 1s \
    -data "$SMOKE/ctrl" -name standby -leader-lease 1s >"$SMOKE/standby.log" 2>&1 &
STANDBY_PID=$!
for i in $(seq 1 50); do
    grep -q 'control plane' "$SMOKE/standby.log" && break
    sleep 0.1
done
"$SMOKE/jportal" serve -listen 127.0.0.1:7913 -data "$SMOKE/fleet" \
    -coordinator "$COORDS" -node fleet-a >"$SMOKE/node-a.log" 2>&1 &
NODE_A_PID=$!
"$SMOKE/jportal" serve -listen 127.0.0.1:7914 -data "$SMOKE/fleet" \
    -coordinator "$COORDS" -node fleet-b >"$SMOKE/node-b.log" 2>&1 &
NODE_B_PID=$!
for i in $(seq 1 50); do
    grep -q 'joined fleet' "$SMOKE/node-a.log" && grep -q 'joined fleet' "$SMOKE/node-b.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7911,127.0.0.1:7915 -id fleet-s1 "$SMOKE/local" >/dev/null &
PUSH1_PID=$!
"$SMOKE/jportal" push -addr 127.0.0.1:7911,127.0.0.1:7915 -id fleet-s2 "$SMOKE/local" >/dev/null &
PUSH2_PID=$!
kill -9 "$NODE_A_PID"
wait "$NODE_A_PID" 2>/dev/null || true
kill -9 "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
wait "$PUSH1_PID"
wait "$PUSH2_PID"
for i in $(seq 1 100); do
    grep -q 'assumed leadership' "$SMOKE/standby.log" && break
    sleep 0.1
done
# Queries rotate past the dead primary to the standby leader.
"$SMOKE/jportal" fleet -coordinator "$COORDS" nodes >"$SMOKE/fleet-nodes.txt"
"$SMOKE/jportal" fleet -coordinator "$COORDS" metrics >"$SMOKE/fleet-metrics.json"
grep -q '"fleet_nodes"' "$SMOKE/fleet-metrics.json"
grep -Eq '"coordinator_failovers": [1-9]' "$SMOKE/fleet-metrics.json"
kill -TERM "$NODE_B_PID"
wait "$NODE_B_PID"
kill -TERM "$STANDBY_PID"
wait "$STANDBY_PID"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/fleet/fleet-s1/stream.jpt"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/fleet/fleet-s2/stream.jpt"
cmp "$SMOKE/local/program.gob" "$SMOKE/fleet/fleet-s1/program.gob"
cmp "$SMOKE/local/program.gob" "$SMOKE/fleet/fleet-s2/program.gob"
"$SMOKE/jportal" fleet -data "$SMOKE/fleet" report | grep -q 'fleet report: 2 session(s), 0 skipped'
echo "    both sessions survived the node + primary-coordinator kills, archives byte-identical"

echo "==> chaos smoke (fixed seed, deterministic report, nonzero coverage)"
# The chaos command exits nonzero if any rate's coverage collapses to zero,
# and a panic anywhere in the hardened pipeline fails the run outright; the
# cmp asserts the whole report is reproducible for a fixed seed.
"$SMOKE/jportal" chaos -subjects fop,avrora -scale 0.2 -seed 42 -rates 0,1,2 >"$SMOKE/chaos1.txt"
"$SMOKE/jportal" chaos -subjects fop,avrora -scale 0.2 -seed 42 -rates 0,1,2 >"$SMOKE/chaos2.txt"
cmp "$SMOKE/chaos1.txt" "$SMOKE/chaos2.txt"
echo "    chaos report deterministic"

echo "==> chaos -fleet smoke (network faults, fixed seed, archives identical)"
# The network-fault counterpart: archives pushed through an in-process
# fleet whose every edge runs behind the seeded netfault injector. The
# command exits nonzero if any session's archive diverges (rate 0 pins the
# injector's passthrough: byte-identical to the no-netfault path), and the
# cmp asserts the sweep table is reproducible for a fixed seed.
"$SMOKE/jportal" chaos -fleet -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosf1.txt"
"$SMOKE/jportal" chaos -fleet -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosf2.txt"
cmp "$SMOKE/chaosf1.txt" "$SMOKE/chaosf2.txt"
echo "    chaos -fleet sweep deterministic, no data lost under faults"

echo "==> chaos -disk smoke (storage faults, scrub-and-repair, fixed seed)"
# The storage-fault counterpart: uploads run against an ingest server whose
# filesystem is behind the seeded iofault injector (ENOSPC, EIO, torn
# writes), then a planted torn-tail victim and a corrupt sealed casualty
# are scrubbed — the victim repaired and resumed, the casualty
# quarantined. The command exits nonzero on silent corruption (a completed
# upload whose archive diverges), and the cmp pins the sweep table's
# determinism for a fixed seed.
"$SMOKE/jportal" chaos -disk -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosd1.txt" 2>/dev/null
"$SMOKE/jportal" chaos -disk -subjects fop -scale 0.2 -seed 7 -rates 0,1,2 >"$SMOKE/chaosd2.txt" 2>/dev/null
cmp "$SMOKE/chaosd1.txt" "$SMOKE/chaosd2.txt"
echo "    chaos -disk sweep deterministic, completed uploads byte-identical"

echo "==> scrub smoke (torn tail planted, repaired, resumed push identical)"
# The storage-durability loop end to end, with real processes: interrupt a
# push mid-upload (SIGKILL, as in the fleet smoke), corrupt the tail the
# way a torn write would, `scrub -repair`, re-push, and require the final
# archive byte-identical. The deterministic variant is pinned by
# TestScrubRepairTornTailThenResume.
"$SMOKE/jportal" serve -listen 127.0.0.1:7921 -data "$SMOKE/scrub" >"$SMOKE/scrub-serve.log" 2>&1 &
SCRUB_SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/scrub-serve.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7921 -id scrub-smoke "$SMOKE/local" >/dev/null &
SCRUB_PUSH_PID=$!
sleep 0.05
kill -9 "$SCRUB_PUSH_PID" 2>/dev/null || true
wait "$SCRUB_PUSH_PID" 2>/dev/null || true
kill -TERM "$SCRUB_SERVE_PID"
wait "$SCRUB_SERVE_PID"
# Plant a torn tail if the upload was interrupted mid-flight (a push that
# managed to finish leaves a sealed archive, which scrub must leave alone).
if [ -f "$SMOKE/scrub/scrub-smoke/ingest.state" ] && ! grep -q 'sealed: true' "$SMOKE/scrub/scrub-smoke/ingest.state"; then
    printf '\004\000\000\000\000\001' >>"$SMOKE/scrub/scrub-smoke/stream.jpt"
fi
"$SMOKE/jportal" scrub -data "$SMOKE/scrub" -repair >"$SMOKE/scrub-report.txt"
"$SMOKE/jportal" serve -listen 127.0.0.1:7921 -data "$SMOKE/scrub" >"$SMOKE/scrub-serve2.log" 2>&1 &
SCRUB_SERVE_PID=$!
for i in $(seq 1 50); do
    grep -q 'listening on' "$SMOKE/scrub-serve2.log" && break
    sleep 0.1
done
"$SMOKE/jportal" push -addr 127.0.0.1:7921 -id scrub-smoke "$SMOKE/local" >/dev/null
kill -TERM "$SCRUB_SERVE_PID"
wait "$SCRUB_SERVE_PID"
cmp "$SMOKE/local/stream.jpt" "$SMOKE/scrub/scrub-smoke/stream.jpt"
cmp "$SMOKE/local/program.gob" "$SMOKE/scrub/scrub-smoke/program.gob"
"$SMOKE/jportal" scrub -data "$SMOKE/scrub" >/dev/null
echo "    torn upload repaired, resumed push byte-identical, final scrub clean"

echo "==> kill-and-resume smoke (SIGKILL mid-replay, resumed output identical)"
# The golden property (DESIGN.md §11): a replay killed with SIGKILL and
# resumed from its checkpoint prints exactly what an uninterrupted replay
# prints. Completed runs delete session.ckpt, so the cmp holds regardless
# of whether the kill landed mid-run or after completion — the mid-run
# case is pinned deterministically by TestKillAndResumeGoldenAllSubjects.
"$SMOKE/jportal" stream "$SMOKE/local" >"$SMOKE/golden.txt"
"$SMOKE/jportal" stream -ckpt-every 2 "$SMOKE/local" >/dev/null 2>&1 &
STREAM_PID=$!
sleep 0.1
kill -9 "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
"$SMOKE/jportal" stream -resume "$SMOKE/local" >"$SMOKE/resumed.txt" 2>"$SMOKE/resume.log"
cmp "$SMOKE/golden.txt" "$SMOKE/resumed.txt"
test ! -e "$SMOKE/local/session.ckpt"
echo "    resumed replay byte-identical, checkpoint cleaned up"

echo "==> checkpoint fuzz corpus (seed corpus replay)"
go test -run 'Fuzz' ./internal/ckpt/

echo "==> BenchmarkStreamingMemory smoke (one iteration)"
go test -bench BenchmarkStreamingMemory -benchtime=1x -run '^$' .

echo "==> benchmark module (vet + tests)"
# benchmark/ is its own module that builds the repository from source
# (DESIGN.md §12); vetting and testing it here catches root API changes
# that would break the benchmark before it is ever run.
(cd benchmark && go vet ./... && go test ./...)

echo "ci.sh: all checks passed"
