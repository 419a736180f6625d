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
# Observability-runtime smoke:
#  1. a full-rate trace must account for every event — the trailing
#     trace_pipeline record reports dropped:0 and prio report stays
#     quiet;
#  2. --metrics-out writes the end-of-run Prometheus snapshot.
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
echo "check.sh: observability runtime smoke ok (full-rate lossless, metrics snapshot)"
# Fault-experiment regeneration: `robustness 250` and `fault_sweep 100`
# each write results/<name>.txt under their working directory, so they
# run in a temp dir (the committed tables are never touched) and must
# write exactly the committed bytes.
regen_dir=$(mktemp -d)
repo_root=$(pwd)
(cd "$regen_dir" && "$repo_root/target/release/robustness" 250 > /dev/null   && "$repo_root/target/release/fault_sweep" 100 > /dev/null)   || { echo "check.sh: a fault experiment failed to run" >&2; rm -rf "$regen_dir"; exit 1; }
regen_ok=1
for table in robustness fault_sweep; do
  cmp "results/$table.txt" "$regen_dir/results/$table.txt" || regen_ok=0
done
rm -rf "$regen_dir"
[ "$regen_ok" = 1 ] \
  || { echo "check.sh: a committed fault-experiment table does not regenerate" >&2; exit 1; }
echo "check.sh: fault experiments regenerate (robustness 250, fault_sweep 100)"
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
# None of the 48,013 submit files exists, so stderr is one summary note
# and the `wrote` line, not one note per file.
sdss_err_lines=$(wc -l < target/sdss-smoke/run.stderr)
[ "$sdss_err_lines" -le 5 ] \
  || { echo "check.sh: paper-size SDSS run wrote $sdss_err_lines stderr lines, want at most 5" >&2; exit 1; }
sdss_vars=$(grep -c '^VARS .* jobpriority=' target/sdss-smoke/sdss.prio.dag || true)
[ "$sdss_vars" = "48013" ] \
  || { echo "check.sh: paper-size SDSS has $sdss_vars jobpriority VARS lines, want 48013" >&2; exit 1; }
# Byte identity at full size: the instrumented file must keep the
# checksum it had before the DAGMan parser became a line index, so any
# changed byte fails here, not only a wrong VARS count.
sdss_sum=$(cksum < target/sdss-smoke/sdss.prio.dag)
[ "$sdss_sum" = "2935640502 5643098" ] \
  || { echo "check.sh: paper-size SDSS output cksum is '$sdss_sum', want '2935640502 5643098'" >&2; exit 1; }
echo "check.sh: paper-size SDSS run ok (48,013 jobs instrumented, bytes unchanged)"
# The same run with per-span allocation counts: Steps 2–3 keep every
# per-component list in flat buffers, so `decompose` and `schedule` make a
# few hundred allocations on SDSS's 21,610 components, and one allocation
# per component anywhere in either stage breaks the bound. Counting must
# not change the output bytes.
timeout 30 ./target/release/prio run target/sdss-smoke/sdss.dag --profile-alloc \
  --trace-out target/sdss-smoke/spans.jsonl \
  --output target/sdss-smoke/sdss.profiled.prio.dag 2> target/sdss-smoke/profiled.stderr \
  || { echo "check.sh: profiled paper-size SDSS run failed or took over 30 s" >&2; exit 1; }
cmp target/sdss-smoke/sdss.prio.dag target/sdss-smoke/sdss.profiled.prio.dag \
  || { echo "check.sh: --profile-alloc changed the SDSS output" >&2; exit 1; }
for stage in decompose schedule; do
  allocs=$(grep "\"path\":\"$stage\"," target/sdss-smoke/spans.jsonl \
    | sed -n 's/.*"alloc_count":\([0-9]*\).*/\1/p')
  [ -n "$allocs" ] && [ "$allocs" -le 1000 ] \
    || { echo "check.sh: paper-size SDSS $stage made '$allocs' allocations, want at most 1000" >&2; exit 1; }
done
echo "check.sh: paper-size SDSS steps 2-3 allocations ok (decompose and schedule at most 1000 each)"
# Writing priorities into the file is `apply`; the `write` span is only
# the export, which streams through one 64 KiB chunk, so its heap peak is
# that chunk (the JSON step below holds the same bound). Recording the
# per-node priority table under `write` again (16 MiB at a million jobs)
# breaks the bound.
write_peak=$(grep '"path":"write",' target/sdss-smoke/spans.jsonl \
  | sed -n 's/.*"peak_bytes":\([0-9]*\).*/\1/p')
[ -n "$write_peak" ] && [ "$write_peak" -le 262144 ] \
  || { echo "check.sh: paper-size SDSS DAGMan write span peaked at '$write_peak' bytes, want at most 262144" >&2; exit 1; }
echo "check.sh: paper-size SDSS DAGMan write peak ok ($write_peak bytes, at most 262144)"
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
# The JSON run again with per-span allocation counts: the import copies
# every job name into one name buffer and sizes its tables up front, so
# `parse` makes a constant few dozen allocations, and one allocation per
# job breaks the bound. Counting must not change the output bytes.
timeout 30 ./target/release/prio run target/json-smoke/sdss.again.json --profile-alloc \
  --trace-out target/json-smoke/spans.jsonl \
  --output target/json-smoke/sdss.profiled.prio.json 2> target/json-smoke/profiled.stderr \
  || { echo "check.sh: profiled paper-size SDSS JSON run failed or took over 30 s" >&2; exit 1; }
cmp target/json-smoke/sdss.prio.json target/json-smoke/sdss.profiled.prio.json \
  || { echo "check.sh: --profile-alloc changed the SDSS JSON output" >&2; exit 1; }
allocs=$(grep '"path":"parse",' target/json-smoke/spans.jsonl \
  | sed -n 's/.*"alloc_count":\([0-9]*\).*/\1/p')
[ -n "$allocs" ] && [ "$allocs" -le 1000 ] \
  || { echo "check.sh: paper-size SDSS JSON parse made '$allocs' allocations, want at most 1000" >&2; exit 1; }
echo "check.sh: paper-size SDSS JSON parse allocations ok ($allocs, at most 1000)"
# The export streams into the output file through one 64 KiB chunk, so
# the `write` span's heap peak is that chunk whatever the output's size
# (4.66 MB here). Buffering the whole output again (a 5.4 MB peak)
# breaks the bound.
write_peak=$(grep '"path":"write",' target/json-smoke/spans.jsonl \
  | sed -n 's/.*"peak_bytes":\([0-9]*\).*/\1/p')
[ -n "$write_peak" ] && [ "$write_peak" -le 262144 ] \
  || { echo "check.sh: paper-size SDSS JSON write span peaked at '$write_peak' bytes, want at most 262144" >&2; exit 1; }
echo "check.sh: paper-size SDSS JSON write peak ok ($write_peak bytes, at most 262144)"
# Scaled Inspiral smoke: `prio generate inspiral --scale 8` and
# `--workload inspiral --scale 8` must build the same dag (one scale
# path), so their schedules must be identical. `prio run` on the file
# needs the general decomposition search exactly once (the entangled
# ring), and the metrics snapshot reports that search's closure-graph
# visits. Artifacts land in target/scale-smoke.
mkdir -p target/scale-smoke
./target/release/prio generate inspiral --scale 8 \
  --output target/scale-smoke/inspiral8.dag
./target/release/prio schedule target/scale-smoke/inspiral8.dag \
  > target/scale-smoke/schedule.file.txt
./target/release/prio schedule --workload inspiral --scale 8 \
  > target/scale-smoke/schedule.workload.txt
cmp target/scale-smoke/schedule.file.txt target/scale-smoke/schedule.workload.txt \
  || { echo "check.sh: generate --scale 8 and --workload --scale 8 differ" >&2; exit 1; }
./target/release/prio run target/scale-smoke/inspiral8.dag \
  --output target/scale-smoke/inspiral8.prio.dag \
  --metrics-out target/scale-smoke/metrics.prom 2> target/scale-smoke/run.stderr \
  || { echo "check.sh: prio run on Inspiral x8 failed" >&2; exit 1; }
grep -qx 'prio_core_decompose_general_search_iterations 1' target/scale-smoke/metrics.prom \
  || { echo "check.sh: Inspiral x8 did not need exactly one general search" >&2; exit 1; }
grep -q '^prio_core_decompose_closure_visits [0-9]' target/scale-smoke/metrics.prom \
  || { echo "check.sh: metrics snapshot lacks closure_visits" >&2; exit 1; }
echo "check.sh: scaled Inspiral ok (one scale path, one general search)"
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
# Memo and escaping requests, sent once the first four answers are in:
# a verbatim resend of the edges request, and the same workflow spelled
# with a \u escape.
cat > target/serve-smoke/memo-requests.jsonl <<'EOF'
{"type":"request","id":"edges","format":"edges","workflow":"a\tb\na\tc\n"}
{"type":"request","id":"edges-escaped","format":"edges","workflow":"a\u0009b\na\tc\n"}
EOF
# A \u escape with a sign in place of a hex digit: a protocol-level
# rejection. And one request line longer than the daemon's 64 KiB read
# buffer, so its bytes are gathered across buffer fills: paper-size
# Montage as an edge list, tabs and newlines escaped.
cat > target/serve-smoke/bad-escape-request.jsonl <<'EOF'
{"type":"request","id":"bad-escape","format":"edges","workflow":"a\u+041b\n"}
EOF
./target/release/prio generate montage --format edges --output target/serve-smoke/montage.edges \
  || { echo "check.sh: prio generate montage --format edges failed" >&2; exit 1; }
awk 'BEGIN { printf "{\"type\":\"request\",\"id\":\"large\",\"format\":\"edges\",\"workflow\":\"" }
     { n = split($0, f, "\t"); for (i = 1; i <= n; i++) printf "%s%s", f[i], (i < n ? "\\t" : "\\n") }
     END { printf "\"}\n" }' target/serve-smoke/montage.edges > target/serve-smoke/large-request.jsonl
[ "$(wc -c < target/serve-smoke/large-request.jsonl)" -gt 65536 ] \
  || { echo "check.sh: serve smoke: large request is not over 64 KiB" >&2; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$serve_port"
: > target/serve-smoke/responses.jsonl
read_responses() {
  for _ in $(seq 1 "$1"); do
    IFS= read -r -t 30 line <&3 \
      || { echo "check.sh: serve smoke: daemon stopped responding" >&2; exit 1; }
    printf '%s\n' "$line" >> target/serve-smoke/responses.jsonl
  done
}
head -n 4 target/serve-smoke/requests.jsonl >&3
read_responses 4
cat target/serve-smoke/memo-requests.jsonl >&3
read_responses 2
cat target/serve-smoke/bad-escape-request.jsonl >&3
read_responses 1
cat target/serve-smoke/large-request.jsonl >&3
read_responses 1
tail -n 1 target/serve-smoke/requests.jsonl >&3
read_responses 1
exec 3<&- 3>&-
for id in dagman json edges; do
  grep "\"id\":\"$id\"" target/serve-smoke/responses.jsonl | grep -q '"status":"ok"' \
    || { echo "check.sh: serve smoke: $id request did not succeed" >&2; exit 1; }
done
grep '"id":"stats"' target/serve-smoke/responses.jsonl | grep -q '"cache_hits":' \
  || { echo "check.sh: serve smoke: stats verb missing cache counters" >&2; exit 1; }
grep '"id":"bye"' target/serve-smoke/responses.jsonl | grep -q '"shutdown":true' \
  || { echo "check.sh: serve smoke: shutdown verb not acknowledged" >&2; exit 1; }
sed -n '5,6p' target/serve-smoke/responses.jsonl | grep '"id":"edges",' | grep -q '"cached":true' \
  || { echo "check.sh: serve smoke: verbatim resend was not a cache hit" >&2; exit 1; }
sed -n '7p' target/serve-smoke/responses.jsonl | grep '"status":"error"' | grep '"stage":"request"' \
  | grep -q '"id":"bad-escape"' \
  || { echo "check.sh: serve smoke: a \\u escape with a sign was not a request error naming its id" >&2; exit 1; }
sed -n '8p' target/serve-smoke/responses.jsonl | grep '"id":"large",' | grep -q '"status":"ok"' \
  || { echo "check.sh: serve smoke: the request over 64 KiB did not succeed" >&2; exit 1; }
edges_outputs=$(grep -E '"id":"edges(-escaped)?",' target/serve-smoke/responses.jsonl \
  | sed 's/.*"output"://')
[ "$(printf '%s\n' "$edges_outputs" | wc -l)" -eq 3 ] \
  && [ "$(printf '%s\n' "$edges_outputs" | sort -u | wc -l)" -eq 1 ] \
  || { echo "check.sh: serve smoke: edges resend or escaped variant changed the output" >&2; exit 1; }
wait "$serve_pid" \
  || { echo "check.sh: serve daemon exited non-zero" >&2; exit 1; }
grep -q "serve exiting" target/serve-smoke/daemon.stderr \
  || { echo "check.sh: serve daemon exit summary missing" >&2; exit 1; }
echo "check.sh: serve smoke ok (3-format matrix, memo resend, escaped variant, signed \\u escape, request over 64 KiB, stats verb, graceful shutdown)"
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
