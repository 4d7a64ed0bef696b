#!/usr/bin/env bash
# Smoke-test the lcp serve daemon end to end: start it with two worker
# domains, drive a scripted client batch (check / prove / lint /
# metrics), assert the warm-cache hit counter strictly increases
# across a repeated sweep while the sweep's verdict and deterministic
# work counters stay bit-identical, run two client batches at once and
# assert their sweeps report the same counters as the sequential
# repeat, shut the daemon down cleanly, and leave the final metrics
# snapshot in serve-metrics.json for the CI artifact.
#
# Usage: bash scripts/serve_smoke.sh  (after `dune build`)
#   LCP=...  override the lcp binary (default ./_build/default/bin/main.exe)
#   OUT=...  metrics artifact path    (default serve-metrics.json)
set -euo pipefail

LCP="${LCP:-./_build/default/bin/main.exe}"
SOCK="${SOCK:-/tmp/lcp-smoke-$$.sock}"
OUT="${OUT:-serve-metrics.json}"

"$LCP" serve --socket "$SOCK" --capacity 8 --workers 2 &
SERVE_PID=$!
SCRATCH="sweep1.json sweep2.json batch-a.jsonl batch-b.jsonl"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SOCK" $SCRATCH' EXIT

for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK"; exit 1; }

"$LCP" client --socket "$SOCK" ping >/dev/null
echo "ping ok"

# a scripted batch on one connection, the way CI tooling would use it
"$LCP" client --socket "$SOCK" --stdin >/dev/null <<'EOF'
{"kind":"check","decoder":"degree-one","graph":"cycle:5"}
{"kind":"prove","decoder":"spanning","graph":"path:4"}
{"kind":"lint","decoders":["trivial2"],"max_n":3,"samples":2}
{"kind":"metrics"}
EOF
echo "scripted batch ok"

warm_hits() {
  "$LCP" client --socket "$SOCK" metrics |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["result"]["counters"]["serve/cache_warm_hits"])'
}

"$LCP" client --socket "$SOCK" sweep degree-one -n 5 >/dev/null
H1=$(warm_hits)
"$LCP" client --socket "$SOCK" sweep degree-one -n 5 >sweep1.json
H2=$(warm_hits)
"$LCP" client --socket "$SOCK" sweep degree-one -n 5 >sweep2.json
H3=$(warm_hits)
echo "serve/cache_warm_hits: $H1 -> $H2 -> $H3"
if [ "$H2" -le "$H1" ] || [ "$H3" -le "$H2" ]; then
  echo "FAIL: warm-cache hits did not strictly increase on the repeated sweep"
  exit 1
fi

# warm repeats must agree with each other bit-for-bit on the verdict
# and the deterministic work counters
python3 - <<'EOF'
import json
a = json.load(open("sweep1.json"))["result"]
b = json.load(open("sweep2.json"))["result"]
assert a["ok"] == b["ok"], (a["ok"], b["ok"])
assert a["counters"] == b["counters"], (a["counters"], b["counters"])
print("repeated sweep: verdict and work counters identical")
EOF

# two batches on two connections at once, so both workers run jobs in
# parallel; each batch repeats the sweep above among other requests
batch() {
  "$LCP" client --socket "$SOCK" --stdin >"$1" <<'EOF'
{"kind":"sweep","decoder":"degree-one","n":5}
{"kind":"check","decoder":"degree-one","graph":"cycle:5"}
{"kind":"sweep","decoder":"edge-bit","n":5}
{"kind":"sweep","decoder":"degree-one","n":5,"jobs":1}
{"kind":"check","decoder":"union","graph":"complete:4"}
{"kind":"sweep","decoder":"degree-one","n":5}
EOF
}
batch batch-a.jsonl &
A_PID=$!
batch batch-b.jsonl &
B_PID=$!
wait "$A_PID" || { echo "FAIL: concurrent batch a exited nonzero"; exit 1; }
wait "$B_PID" || { echo "FAIL: concurrent batch b exited nonzero"; exit 1; }

python3 - <<'EOF'
import json
want = json.load(open("sweep1.json"))["result"]["counters"]
edge_bit = []
for path in ("batch-a.jsonl", "batch-b.jsonl"):
    replies = [json.loads(line) for line in open(path)]
    assert len(replies) == 6, (path, len(replies))
    for r in replies:
        assert r["status"] == "ok", (path, r)
    for i in (0, 3, 5):
        got = replies[i]["result"]["counters"]
        assert got == want, (path, i, got, want)
    edge_bit.append(replies[2]["result"]["counters"])
assert edge_bit[0] == edge_bit[1], edge_bit
print("concurrent batches: sweep counters equal the sequential repeat")
EOF

"$LCP" client --socket "$SOCK" metrics |
  python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["result"], indent=2))' >"$OUT"

"$LCP" client --socket "$SOCK" shutdown >/dev/null
wait "$SERVE_PID"
trap - EXIT
rm -f $SCRATCH
if [ -S "$SOCK" ]; then
  echo "FAIL: socket file survived shutdown"
  exit 1
fi
echo "serve smoke ok; metrics snapshot in $OUT"
