#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
#
# The workspace has no registry dependencies (everything external is a
# path dependency or shimmed under compat/), so every cargo invocation
# runs --offline, once: a flaky test fails the gate instead of passing
# on a retry.
set -uo pipefail

cd "$(dirname "$0")/.."

run_cargo() {
  cargo --offline "$@"
}

set -e
run_cargo build --workspace --release
run_cargo test --workspace -q
# The CLI's exit-code contract (0/1/2/70) is enforced by its integration
# tests; run them by name so a workspace filter can't silently skip them.
run_cargo test -p prio-cli --test cli -q
# Golden-output gate for `prio report`: a fixed-seed trace must summarize
# to byte-stable simulator telemetry (tests/golden/report_telemetry.json).
run_cargo test -p prio-cli --test report_golden -q
# Golden-output gate for `prio trace`: the fixed-seed lifecycle analyses
# (timeline/diff JSON) are pinned and thread-count invariant.
run_cargo test -p prio-cli --test trace_golden -q
# End-to-end trace smoke: simulate a fixed-seed run, then drive every
# `prio trace` analysis over it. The artifacts land in target/trace-smoke
# (uploaded by CI) so a failing analysis can be reproduced offline.
run_cargo build --release -p prio-cli
mkdir -p target/trace-smoke
./target/release/prio simulate --workload airsn --mu-bit 0.7 --mu-bs 3 \
  --p 4 --q 4 --seed 7 --trace-out target/trace-smoke/airsn.jsonl \
  --profile-alloc > /dev/null
./target/release/prio trace timeline target/trace-smoke/airsn.jsonl --json \
  > target/trace-smoke/timeline.json
./target/release/prio trace critical-path target/trace-smoke/airsn.jsonl --json \
  > target/trace-smoke/critical_path.json
./target/release/prio trace curve target/trace-smoke/airsn.jsonl \
  --out target/trace-smoke/curve.tsv
./target/release/prio trace diff target/trace-smoke/airsn.jsonl \
  target/trace-smoke/airsn.jsonl --policy-a prio --policy-b fifo --json \
  > target/trace-smoke/diff.json
./target/release/prio report target/trace-smoke/airsn.jsonl > /dev/null
# The same analyses over a faulty run (transient faults, pool churn and a
# fixed backoff put job_retried/worker_down/worker_up records in the
# trace).
./target/release/prio simulate --workload airsn --fault-rate 0.2 \
  --worker-mttf 5 --worker-mttr 1 --backoff fixed:0.5 --seed 7 \
  --trace-out target/trace-smoke/faulty.jsonl > /dev/null
./target/release/prio report target/trace-smoke/faulty.jsonl \
  > target/trace-smoke/faulty_report.txt
./target/release/prio trace timeline target/trace-smoke/faulty.jsonl --json \
  > target/trace-smoke/faulty_timeline.json
./target/release/prio trace critical-path target/trace-smoke/faulty.jsonl --json \
  > target/trace-smoke/faulty_critical_path.json
./target/release/prio trace curve target/trace-smoke/faulty.jsonl \
  --out target/trace-smoke/faulty_curve.tsv
./target/release/prio trace diff target/trace-smoke/faulty.jsonl \
  target/trace-smoke/faulty.jsonl --policy-a prio --policy-b fifo --json \
  > target/trace-smoke/faulty_diff.json
# Old-schema smoke: readers accept only schema v3, so a v2-tagged file
# must be rejected as an input error (exit 1), not summarized.
printf '%s\n' \
  '{"type":"meta","v":2,"command":"trace","detail":"policy=prio seed=1"}' \
  '{"type":"job_completed","v":2,"time":1,"job":0}' \
  > target/trace-smoke/v2.jsonl
set +e
./target/release/prio report target/trace-smoke/v2.jsonl > /dev/null \
  2> target/trace-smoke/v2_report.stderr
v2_status=$?
set -e
if [ "$v2_status" -ne 1 ]; then
  echo "check.sh: prio report accepted a v2 trace (exit $v2_status)" >&2; exit 1
fi
# Observability-runtime smoke (the bounded async trace pipeline's two
# contractual endpoints, plus the Prometheus snapshot):
#  1. a full-rate trace must account for every event — the trailing
#     trace_pipeline record reports dropped:0 and prio report stays
#     quiet;
#  2. a deliberately tiny ring (--trace-ring 2) must record a nonzero
#     drop count that survives the file round-trip into a loud
#     prio report warning;
#  3. --metrics-out writes the end-of-run Prometheus snapshot.
# Artifacts land in target/trace-smoke (uploaded by CI).
./target/release/prio simulate --workload airsn --scale 0.3 --mu-bit 0.3 \
  --mu-bs 8 --p 2 --q 1 --seed 7 \
  --trace-out target/trace-smoke/full_rate.jsonl \
  --metrics-out target/trace-smoke/metrics.prom > /dev/null
grep '"command":"trace_pipeline"' target/trace-smoke/full_rate.jsonl \
  | grep -q '"dropped":0' \
  || { echo "check.sh: full-rate trace dropped events" >&2; exit 1; }
./target/release/prio report target/trace-smoke/full_rate.jsonl \
  2> target/trace-smoke/full_rate_report.stderr > /dev/null
if grep -q "lossy" target/trace-smoke/full_rate_report.stderr; then
  echo "check.sh: report flagged a complete trace as lossy" >&2; exit 1
fi
grep -q '^prio_' target/trace-smoke/metrics.prom \
  || { echo "check.sh: Prometheus snapshot is empty" >&2; exit 1; }
# The 2-slot ring drops depend on writer-thread scheduling; retry a few
# seeds so a lucky scheduler cannot flake the gate (mirrors the
# obs_pipeline e2e test).
lossy_ok=0
for seed in 1 2 3 4 5; do
  ./target/release/prio simulate --workload airsn --scale 0.3 --mu-bit 0.3 \
    --mu-bs 8 --p 2 --q 1 --seed "$seed" --trace-ring 2 \
    --trace-out target/trace-smoke/lossy.jsonl \
    > /dev/null 2> target/trace-smoke/lossy_simulate.stderr
  if grep '"command":"trace_pipeline"' target/trace-smoke/lossy.jsonl \
    | grep -q '"dropped":0'; then
    continue
  fi
  ./target/release/prio report target/trace-smoke/lossy.jsonl --json \
    > target/trace-smoke/lossy_report.json \
    2> target/trace-smoke/lossy_report.stderr
  grep -q "lossy" target/trace-smoke/lossy_report.stderr \
    || { echo "check.sh: report did not warn about a lossy trace" >&2; exit 1; }
  grep -q '"lossy":true' target/trace-smoke/lossy_report.json \
    || { echo "check.sh: lossy flag missing from report --json" >&2; exit 1; }
  lossy_ok=1
  break
done
[ "$lossy_ok" = "1" ] \
  || { echo "check.sh: a 2-slot ring never dropped an event across 5 seeds" >&2; exit 1; }
echo "check.sh: observability runtime smoke ok (full-rate lossless, tiny ring lossy, metrics snapshot)"
# Format-matrix smoke: generate the Montage example, convert it through
# every frontend pair, re-prioritize each conversion, and assert every
# format yields the identical schedule (and therefore identical
# priorities). Artifacts land in target/format-matrix (uploaded by CI).
mkdir -p target/format-matrix
./target/release/prio generate montage --scale 0.13 \
  --output target/format-matrix/montage.dag
./target/release/prio schedule target/format-matrix/montage.dag \
  > target/format-matrix/schedule.reference.tsv
for src in dagman json edges; do
  for dst in dagman json edges; do
    out="target/format-matrix/montage.$src.to.$dst"
    ./target/release/prio convert target/format-matrix/montage.dag \
      "target/format-matrix/montage.$src" --to "$src"
    ./target/release/prio convert "target/format-matrix/montage.$src" \
      "$out" --from "$src" --to "$dst"
    ./target/release/prio schedule "$out" --format "$dst" \
      > "target/format-matrix/schedule.$src.$dst.tsv"
    cmp target/format-matrix/schedule.reference.tsv \
      "target/format-matrix/schedule.$src.$dst.tsv" \
      || { echo "check.sh: format matrix $src->$dst diverged" >&2; exit 1; }
  done
done
# `prio run --format` assigns the same priorities through every frontend:
# prioritize each single-format copy, convert the result to the edge-list
# format (whose @priority lines are emitted in node-index order), compare.
for fmt in dagman json edges; do
  ./target/release/prio run "target/format-matrix/montage.$fmt" \
    --format "$fmt" --output "target/format-matrix/montage.$fmt.prio"
  ./target/release/prio convert "target/format-matrix/montage.$fmt.prio" \
    "target/format-matrix/priorities.$fmt.edges" --from "$fmt" --to edges
  grep '^@priority' "target/format-matrix/priorities.$fmt.edges" \
    > "target/format-matrix/priorities.$fmt.tsv"
done
cmp target/format-matrix/priorities.dagman.tsv target/format-matrix/priorities.json.tsv \
  || { echo "check.sh: dagman/json priorities diverged" >&2; exit 1; }
cmp target/format-matrix/priorities.dagman.tsv target/format-matrix/priorities.edges.tsv \
  || { echo "check.sh: dagman/edges priorities diverged" >&2; exit 1; }
echo "check.sh: format matrix ok (9 conversions, 3 prioritized formats agree)"
# Paper-size SDSS smoke: `prio run` on the 48,013-job DAGMan file must
# instrument every job and finish inside 30 s. It takes well under a
# second; quadratic instrument, submit-file or peel loops take ~25 s.
# Artifacts land in target/sdss-smoke.
mkdir -p target/sdss-smoke
./target/release/prio generate sdss --output target/sdss-smoke/sdss.dag
timeout 30 ./target/release/prio run target/sdss-smoke/sdss.dag \
  --output target/sdss-smoke/sdss.prio.dag 2> target/sdss-smoke/run.stderr \
  || { echo "check.sh: paper-size SDSS run failed or took over 30 s" >&2; exit 1; }
sdss_vars=$(grep -c '^VARS .* jobpriority=' target/sdss-smoke/sdss.prio.dag || true)
[ "$sdss_vars" = "48013" ] \
  || { echo "check.sh: paper-size SDSS has $sdss_vars jobpriority VARS lines, want 48013" >&2; exit 1; }
echo "check.sh: paper-size SDSS run ok (48,013 jobs instrumented)"
# JSON smoke at the same size: convert the SDSS file to prio-workflow-v1,
# convert that JSON to JSON again (the canonical export is a fixed point,
# so the two files must be identical), then `prio run` the JSON file and
# count one "priority" field per job. The import and export are linear;
# a quadratic one takes far longer than 30 s here. Artifacts land in
# target/json-smoke.
mkdir -p target/json-smoke
./target/release/prio convert target/sdss-smoke/sdss.dag target/json-smoke/sdss.json --to json
./target/release/prio convert target/json-smoke/sdss.json target/json-smoke/sdss.again.json \
  --from json --to json
cmp target/json-smoke/sdss.json target/json-smoke/sdss.again.json \
  || { echo "check.sh: JSON export is not a fixed point of JSON import" >&2; exit 1; }
timeout 30 ./target/release/prio run target/json-smoke/sdss.json \
  --output target/json-smoke/sdss.prio.json 2> target/json-smoke/run.stderr \
  || { echo "check.sh: paper-size SDSS JSON run failed or took over 30 s" >&2; exit 1; }
json_prios=$(grep -o '"priority":' target/json-smoke/sdss.prio.json | wc -l)
[ "$json_prios" -eq 48013 ] \
  || { echo "check.sh: paper-size SDSS JSON has $json_prios priorities, want 48013" >&2; exit 1; }
echo "check.sh: paper-size SDSS JSON ok (fixed-point convert, 48,013 priorities)"
# Serve daemon smoke: start `prio serve` on an ephemeral port, drive one
# prioritize request per frontend format plus the stats verb through
# bash's /dev/tcp, and shut down gracefully with the shutdown verb. The
# request/response transcript lands in target/serve-smoke (uploaded by
# CI) so a protocol regression can be replayed offline.
mkdir -p target/serve-smoke
: > target/serve-smoke/daemon.stderr
./target/release/prio serve --listen 127.0.0.1:0 --serve-threads 2 \
  2> target/serve-smoke/daemon.stderr &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr=$(sed -n 's/^prio: serving on //p' target/serve-smoke/daemon.stderr | head -1)
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] \
  || { echo "check.sh: serve daemon did not start" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
serve_port=${serve_addr##*:}
cat > target/serve-smoke/requests.jsonl <<'EOF'
{"type":"request","id":"dagman","format":"dagman","workflow":"JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a CHILD b c\n"}
{"type":"request","id":"json","format":"json","workflow":"{\"jobs\": [\"a\", \"b\", \"c\"], \"arcs\": [[\"a\", \"b\"], [\"a\", \"c\"]]}"}
{"type":"request","id":"edges","format":"edges","workflow":"a\tb\na\tc\n"}
{"type":"request","id":"stats","verb":"stats"}
{"type":"request","id":"bye","verb":"shutdown"}
EOF
exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
cat target/serve-smoke/requests.jsonl >&3
: > target/serve-smoke/responses.jsonl
for _ in 1 2 3 4 5; do
  IFS= read -r -t 30 line <&3 \
    || { echo "check.sh: serve smoke: daemon stopped responding" >&2; exit 1; }
  printf '%s\n' "$line" >> target/serve-smoke/responses.jsonl
done
exec 3<&- 3>&-
for id in dagman json edges; do
  grep "\"id\":\"$id\"" target/serve-smoke/responses.jsonl | grep -q '"status":"ok"' \
    || { echo "check.sh: serve smoke: $id request did not succeed" >&2; exit 1; }
done
grep '"id":"stats"' target/serve-smoke/responses.jsonl | grep -q '"cache_hits":' \
  || { echo "check.sh: serve smoke: stats verb missing cache counters" >&2; exit 1; }
grep '"id":"bye"' target/serve-smoke/responses.jsonl | grep -q '"shutdown":true' \
  || { echo "check.sh: serve smoke: shutdown verb not acknowledged" >&2; exit 1; }
wait "$serve_pid" \
  || { echo "check.sh: serve daemon exited non-zero" >&2; exit 1; }
grep -q "serve exiting" target/serve-smoke/daemon.stderr \
  || { echo "check.sh: serve daemon exit summary missing" >&2; exit 1; }
echo "check.sh: serve smoke ok (3-format matrix, stats verb, graceful shutdown)"
run_cargo bench --no-run
# The end-to-end benchmark runner (benchmark/, declared in BENCHMARK.json)
# is a workspace of its own; run its unit tests against this checkout.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
if [ "${PRIO_BENCH_CHECK:-0}" = "1" ]; then
  # Concurrency soak: duplicate-heavy multi-client TCP mix; exactly one
  # response per id, a >=0.90 cache hit ratio, and a drained shutdown.
  run_cargo test --release -q -p dagprio --test serve_soak -- --ignored
fi
run_cargo fmt --all -- --check
run_cargo clippy --workspace --all-targets -- -D warnings
# Per-crate line coverage (cargo-llvm-cov). Optional: prints coverage
# where the tool is installed, skips with a note where it is not.
bash scripts/coverage.sh
echo "check.sh: all checks passed"
