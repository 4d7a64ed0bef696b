#!/usr/bin/env bash
# Smoke-test the sweep coordinator end to end: run a coordinated
# 4-worker n=7 sweep with shard 0's first worker interrupted (the
# --inject-kill fault hook), assert supervision restarted it exactly
# once, and require the merged report to be byte-identical (cmp) to the
# unsharded checkpointed run's. Then check the class listing the
# workers read: it is in the checkpoint dir, and a worker handed a
# truncated copy exits 2 without touching its checkpoint. Leaves the coordinator metrics
# snapshot in coord-metrics.json for the CI artifact.
#
# Usage: bash scripts/coord_smoke.sh  (after `dune build`)
#   LCP=...  override the lcp binary (default ./_build/default/bin/main.exe)
#   N=...    sweep order              (default 7)
#   OUT=...  metrics artifact path    (default coord-metrics.json)
set -euo pipefail

LCP="${LCP:-./_build/default/bin/main.exe}"
N="${N:-7}"
OUT="${OUT:-coord-metrics.json}"
WORK="$(mktemp -d /tmp/lcp-coord-smoke-XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# the coordinated run: 4 supervised workers reading one class listing
# (DIR/classes.json, written by the coordinator); shard 0's first worker
# stops after one chunk (--max-chunks 1), or is killed first if a poll
# finds it running with a checkpoint on disk
"$LCP" sweep degree-one -n "$N" --workers 4 --inject-kill 0 \
  --checkpoint-dir "$WORK/shards" \
  --merge-out "$WORK/coordinated.json" \
  --metrics-out "$OUT"
echo "coordinated run ok"

# supervision must have restarted the interrupted worker, exactly once
python3 - "$OUT" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
counters = m["counters"]
launched = counters["coord/shards_launched"]
restarts = counters["coord/restarts"]
print(f"coord/shards_launched={launched} coord/restarts={restarts}")
assert restarts == 1, "the injected fault must cause exactly one restart"
assert launched == 5, "expected the 4 shard launches plus the restart"
EOF

# the unsharded reference: one checkpointed run, rendered via --merge
"$LCP" sweep degree-one -n "$N" --checkpoint "$WORK/ref.ck.json" >/dev/null
"$LCP" sweep --merge "$WORK/ref.ck.json" --merge-out "$WORK/unsharded.json" \
  >/dev/null

# the gate: byte-identical despite the kill and restart
cmp "$WORK/coordinated.json" "$WORK/unsharded.json"
echo "coordinated report is byte-identical to the unsharded run"

# the coordinator enumerated once and left the listing beside the shards
test -s "$WORK/shards/classes.json" || {
  echo "FAIL: no classes.json in the checkpoint dir after the coordinated run"
  exit 1
}

# shard 0's worker on a listing cut in half must refuse it with a usage
# error (exit 2) and leave its checkpoint byte-for-byte as it was
SIZE=$(wc -c <"$WORK/shards/classes.json")
head -c $((SIZE / 2)) "$WORK/shards/classes.json" >"$WORK/half.json"
cp "$WORK/shards/shard-0.json" "$WORK/shard-0.before.json"
set +e
"$LCP" sweep degree-one -n "$N" -j 1 --shards 4 --shard 0 \
  --checkpoint "$WORK/shards/shard-0.json" --resume \
  --classes "$WORK/half.json" >"$WORK/half.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -ne 2 ]; then
  echo "FAIL: a worker on a truncated listing exited $CODE, want 2"
  cat "$WORK/half.out"
  exit 1
fi
grep -q "half.json" "$WORK/half.out"
cmp "$WORK/shards/shard-0.json" "$WORK/shard-0.before.json"
echo "truncated listing refused with exit 2, shard checkpoint unchanged"

# merging the incomplete state of a preempted shard must refuse with a
# usage error (exit 2) that names the shard and its heartbeat
"$LCP" sweep degree-one -n "$N" --checkpoint "$WORK/partial.json" \
  --max-chunks 1 >/dev/null
set +e
"$LCP" sweep --merge "$WORK/partial.json" >"$WORK/merge.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -ne 2 ]; then
  echo "FAIL: merging an incomplete shard exited $CODE, want 2"
  cat "$WORK/merge.out"
  exit 1
fi
grep -q "incomplete" "$WORK/merge.out"
grep -q "last checkpoint" "$WORK/merge.out"
echo "incomplete-shard merge refused with exit 2 and a heartbeat"

echo "coord smoke ok; coordinator metrics in $OUT"
