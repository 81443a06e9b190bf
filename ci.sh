#!/usr/bin/env sh
# The CI gate: .github/workflows/ci.yml runs exactly this script, so a
# local run and a hosted run check the same things.
# Usage: ./ci.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "==> cargo test (workspace)"
cargo test --workspace -q

# --test-threads=1: the counting allocator is process-global, so libtest's
# own worker threads would bleed allocations into a measured window.
echo "==> zero-allocation steady state while tracing, with and without landmarks and a target row, and on a tie-heavy small world (count-alloc feature)"
cargo test -q -p kpj-core --features count-alloc --test alloc_count -- --test-threads=1

echo "==> metrics exposition smoke (serve -> {\"cmd\":\"metrics\"} -> Prometheus lines)"
cargo test -q -p kpj-service --test metrics_smoke

echo "==> slow-query flight recorder round trip (record -> kpj-fuzz replay)"
cargo test -q -p kpj-oracle --test flight_recorder

echo "==> release build (binaries: kpj-cli, kpj-serve, kpj-loadgen, gen-huge, kpj-fuzz, repro, bench-kpj)"
cargo build --release -q --workspace

# Paper-figure smoke: repro is the one ruler for Table 1, Figs. 6a-13
# and the ablation. At the default (reduced) scale every experiment runs
# end to end in seconds; a panic or a failed query fails the gate.
echo "==> paper figures smoke (repro all ablation, default scale)"
./target/release/repro all ablation

# Continental-scale storage smoke: stream a ~1M-node road-like graph to
# a page-aligned v2 file in O(1) writer memory, open it zero-copy via
# mmap, and answer k=20 queries cold — first through kpj-cli, then
# through a kpj-serve --graph-bin / kpj-loadgen round over TCP.
# SCALE_NODES shrinks or grows the box (keep it >= 1000).
SCALE_NODES="${SCALE_NODES:-1000000}"
echo "==> storage scale smoke (gen-huge ${SCALE_NODES} nodes -> v2 mmap -> k=20)"
SCALE_DIR="$(mktemp -d)"
SCALE_SERVE_PID=""
trap 'if [ -n "$SCALE_SERVE_PID" ]; then kill "$SCALE_SERVE_PID" 2>/dev/null || true; fi; rm -rf "$SCALE_DIR"' EXIT
./target/release/gen-huge --nodes "$SCALE_NODES" --seed 42 --out "$SCALE_DIR/huge.kpj2"
./target/release/kpj-cli info --graph "$SCALE_DIR/huge.kpj2"
./target/release/kpj-cli query --graph "$SCALE_DIR/huge.kpj2" \
  --source 17 --targets "$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))" \
  -k 20 --algorithm iterboundi > "$SCALE_DIR/plain.out"

# Reduction at scale: contract the same file around the query endpoints,
# fold in the BFS reorder, cold-load the reduced mmap file, and demand
# the re-expanded k=20 answer is byte-identical to the unreduced one.
echo "==> reduction scale smoke (convert --reduce --reorder -> cold mmap -> k=20 diff)"
./target/release/kpj-cli convert --graph "$SCALE_DIR/huge.kpj2" \
  --out "$SCALE_DIR/huge-red.kpj2" --reorder --reduce \
  --keep "17,$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))"
./target/release/kpj-cli info --graph "$SCALE_DIR/huge-red.kpj2"
./target/release/kpj-cli query --graph "$SCALE_DIR/huge-red.kpj2" \
  --source 17 --targets "$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))" \
  -k 20 --algorithm iterboundi > "$SCALE_DIR/reduced.out"
diff "$SCALE_DIR/plain.out" "$SCALE_DIR/reduced.out"

./target/release/kpj-serve --graph-bin "$SCALE_DIR/huge.kpj2" --landmarks 0 \
  --addr 127.0.0.1:7841 &
SCALE_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7841 --node-count "$SCALE_NODES" \
  --requests 24 --connections 4 --k 20 --unique
kill "$SCALE_SERVE_PID" 2>/dev/null || true
wait "$SCALE_SERVE_PID" 2>/dev/null || true
SCALE_SERVE_PID=""
rm -rf "$SCALE_DIR"
trap - EXIT

# Bounded oracle sweep: fixed seed so the gate is deterministic; set
# FUZZ_SECONDS to lengthen the box (e.g. FUZZ_SECONDS=300 for a soak).
echo "==> oracle sweep (seed 0xC0FFEE, <= ${FUZZ_SECONDS:-45}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 12648430 --max-seconds "${FUZZ_SECONDS:-45}"

# Second-seed oracle sweep: the full checker (every stage, the
# warm-repeat bit-identity stage included) on a second fixed seed, so
# the gate covers twice the case space. FUZZ_SECONDS lengthens both.
echo "==> second-seed oracle sweep (seed 0xDECAF, <= ${FUZZ_SECONDS:-45}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 912559 --max-seconds "${FUZZ_SECONDS:-45}"

# Reduction differential: a third bounded sweep on its own fixed seed.
# Every case's check_reduce stage runs all algorithms on the reduced and
# reduced+reordered graphs (fresh landmarks and none) and demands the
# re-expanded answers match the original graph's bit-for-bit; the
# chain-heavy generator family keeps contraction coverage dense.
echo "==> reduction differential (seed 0x5EDD, <= ${REDUCE_DIFF_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 24285 --max-seconds "${REDUCE_DIFF_SECONDS:-30}"

# Sidetrack differential: a dedicated bounded sweep on its own fixed
# seed. The sidetrack engine answers from the reverse SPT + sidetrack
# splices rather than per-subspace searches, so this box concentrates
# coverage on the agreement between that representation and the
# deviation family (invariant 1), the brute-force oracle, and the
# reduced-graph re-expansion. SIDETRACK_DIFF_SECONDS lengthens it.
echo "==> sidetrack differential (seed 0x51DE, <= ${SIDETRACK_DIFF_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 20958 --max-seconds "${SIDETRACK_DIFF_SECONDS:-30}"

# Target-row differential: a bounded sweep on its own fixed seed. Per
# case, every algorithm that reads target bounds answers with an exact
# target row and without and must return the same lengths; a row for
# another target set must change nothing; and a live service must build
# the row on the set's second sighting, read it, and repair it exactly.
# ROWS_DIFF_SECONDS lengthens the box.
echo "==> target-row differential (seed 0x7A6E, <= ${ROWS_DIFF_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --rows --seed 31342 --max-seconds "${ROWS_DIFF_SECONDS:-30}"

# Live-update oracle: interleave weight-update batches with queries on a
# running KpjService; after every batch, all algorithms × {landmarks,
# none} must be bit-identical to a fresh engine built from the updated
# graph (given the from-scratch target row wherever the live answer
# read one), the incrementally repaired landmark tables must equal a
# full rebuild, and every repaired target row must equal a from-scratch
# row. A cached answer the service revalidated across the batch must
# match the fresh engine's lengths with valid paths instead. Seeded
# rounds pin the old epoch, so both ways of writing a new epoch (into
# the retired previous one, or into a full copy) are checked; the
# summary counts them, and the stage fails if no epoch was written into
# a retired one, no target row was compared, or the cache never both
# kept and rejected an answer across a batch.
# INTERLEAVE_SECONDS lengthens the box.
echo "==> live-update interleaving oracle (seed 0xBEEF, <= ${INTERLEAVE_SECONDS:-30}s)"
INTERLEAVE_OUT=$(cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --interleave --seed 48879 --max-seconds "${INTERLEAVE_SECONDS:-30}")
echo "$INTERLEAVE_OUT"
echo "$INTERLEAVE_OUT" | grep -Eq 'reused=[1-9][0-9]* copied=[1-9]' || {
  echo "interleave oracle did not exercise both epoch buffer paths" >&2
  exit 1
}
echo "$INTERLEAVE_OUT" | grep -Eq 'target rows repaired=[1-9]' || {
  echo "interleave oracle compared no repaired target row" >&2
  exit 1
}
echo "$INTERLEAVE_OUT" | grep -Eq 'cache revalidations: kept=[1-9][0-9]* rejected=[1-9]' || {
  echo "interleave oracle did not see the cache both keep and reject an answer across a batch" >&2
  exit 1
}

# Live-update serving smoke: 10% of the loadgen stream re-weights edges
# (epoch swap + landmark repair) while queries keep completing on their
# pinned epochs — any error spike or malformed line fails the run.
echo "==> update-load smoke (kpj-serve <- kpj-loadgen --update-rate 10)"
UPD_SERVE_PID=""
trap 'if [ -n "$UPD_SERVE_PID" ]; then kill "$UPD_SERVE_PID" 2>/dev/null || true; fi' EXIT
./target/release/kpj-serve --nodes 3000 --arcs 8000 --seed 7 --landmarks 4 \
  --addr 127.0.0.1:7842 &
UPD_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7842 --nodes 3000 --arcs 8000 \
  --seed 7 --requests 400 --connections 4 --k 8 --update-rate 10
./target/release/kpj-cli update --addr 127.0.0.1:7842 --edge 0,1,50
kill "$UPD_SERVE_PID" 2>/dev/null || true
wait "$UPD_SERVE_PID" 2>/dev/null || true
UPD_SERVE_PID=""
trap - EXIT

# Introspection smoke: boot a server, put mixed query/update load on it
# with a machine-readable loadgen report, then assert the live system
# state over the status verb — at least one live epoch, a drained
# admission queue — via a single kpj-cli top frame.
echo "==> introspection smoke (status verb + kpj-cli top --once + loadgen --out)"
OBS_DIR="$(mktemp -d)"
OBS_SERVE_PID=""
trap 'if [ -n "$OBS_SERVE_PID" ]; then kill "$OBS_SERVE_PID" 2>/dev/null || true; fi; rm -rf "$OBS_DIR"' EXIT
./target/release/kpj-serve --nodes 3000 --arcs 8000 --seed 7 --landmarks 4 \
  --addr 127.0.0.1:7843 &
OBS_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7843 --nodes 3000 --arcs 8000 \
  --seed 7 --requests 400 --connections 4 --k 8 --update-rate 10 \
  --out "$OBS_DIR/report.json"
grep -q '"throughput_rps"' "$OBS_DIR/report.json"
grep -q '"malformed":0' "$OBS_DIR/report.json"
./target/release/kpj-cli top --addr 127.0.0.1:7843 --once | tee "$OBS_DIR/top.out"
grep -Eq 'live=[1-9]' "$OBS_DIR/top.out"     # at least the current epoch is live
grep -q 'queue=0' "$OBS_DIR/top.out"         # load fully drained at snapshot time
grep -q 'epoch_published' "$OBS_DIR/top.out" # the update stream reached the journal
kill "$OBS_SERVE_PID" 2>/dev/null || true
wait "$OBS_SERVE_PID" 2>/dev/null || true
OBS_SERVE_PID=""
rm -rf "$OBS_DIR"
trap - EXIT

# Per-algorithm latency + allocation profile (fixed seeds, small query
# count so the gate stays quick). BENCH_QUERIES=24 for a fuller run.
# The committed BENCH_baseline.json turns the run into a perf-regression
# diff — a delta table per workload × algorithm cell plus the k-sweep,
# non-zero exit beyond BENCH_REGRESS_PCT percent (default 25). Warn-only
# here: shared CI boxes jitter well past any honest threshold; run
# `bench-kpj --compare BENCH_baseline.json` directly for the hard gate.
echo "==> bench-kpj (writes BENCH_kpj.json incl. the dense_dijkstra kernel cells, diffs vs BENCH_baseline.json)"
cargo run --release -q -p kpj-bench --bin bench-kpj -- \
  --queries "${BENCH_QUERIES:-6}" --out BENCH_kpj.json \
  --compare BENCH_baseline.json \
  || echo "WARN: perf cells regressed vs BENCH_baseline.json (non-fatal; see table above)"

echo "CI OK"
