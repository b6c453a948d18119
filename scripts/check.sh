#!/bin/sh
# Full verification: configure (warnings-as-errors for library code), build,
# run the test suite, then every figure-reproduction harness (each exits
# nonzero if a paper value drifts out of its tolerance band), a pvserve
# smoke with concurrent clients, a fault-injection matrix (kill-mid-write,
# torn write, measurement salvage), the test suite again under ASan+UBSan,
# and the concurrent pipeline/serve/fault tests + both smokes under TSan.
#
#   scripts/check.sh          full run
#   scripts/check.sh --quick  build + tests only (no benches, no sanitizers)
#
# Set PATHVIEW_SKIP_SANITIZE=1 to skip both sanitizer passes.
set -eu

cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

# Serve smoke against the tools of one build dir: daemon on an ephemeral
# port with metrics exposition on, three concurrent clients each scripting
# open -> expand -> close, one pvtop dashboard frame, then SIGTERM; the
# daemon must shut down reporting zero orphaned sessions and leave behind a
# well-formed Prometheus text snapshot carrying the serving RED metrics.
serve_smoke() {
  sdir=$1
  sdb=$sdir/serve_check.pvdb
  slog=$sdir/serve_check.log
  sprom=$sdir/serve_check.prom
  rm -f "$sprom"
  "$sdir/tools/pvprof" subsurface -o "$sdb" --ranks 4 > /dev/null
  "$sdir/tools/pvserve" --port 0 --metrics-file "$sprom" \
    --metrics-interval-ms 200 > "$slog" 2>&1 &
  spid=$!
  for _ in $(seq 100); do
    grep -q 'listening on' "$slog" && break
    sleep 0.1
  done
  sport=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$slog")
  cpids=""
  for _ in 1 2 3; do
    (
      sid=$("$sdir/tools/pvserve" --client --port "$sport" \
              --request "{\"v\":1,\"id\":1,\"op\":\"open\",\"path\":\"$sdb\"}" |
            sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
      [ -n "$sid" ]
      "$sdir/tools/pvserve" --client --port "$sport" --request \
        "{\"v\":1,\"id\":2,\"op\":\"expand\",\"session\":\"$sid\",\"node\":1}" \
        > /dev/null
      "$sdir/tools/pvserve" --client --port "$sport" --request \
        "{\"v\":1,\"id\":3,\"op\":\"close\",\"session\":\"$sid\"}" > /dev/null
    ) &
    cpids="$cpids $!"
  done
  for cpid in $cpids; do wait "$cpid"; done
  # One live dashboard frame over the same daemon (plain mode, no escapes).
  "$sdir/tools/pvtop" --port "$sport" --once | grep -q 'pvtop'
  kill -TERM "$spid"
  wait "$spid"
  grep -q '0 session(s) open' "$slog"
  # Scrape validation: the shutdown path writes a final snapshot; it must
  # expose the per-op RED families and the serving gauges, every sample line
  # must parse as `name{labels} value`, and each family is TYPEd once.
  [ -s "$sprom" ]
  grep -q '^# TYPE pathview_serve_requests_total counter' "$sprom"
  grep -q '^pathview_serve_requests_total{op="open"} 3' "$sprom"
  grep -q '^pathview_serve_request_latency_us_bucket{op="expand",le="+Inf"} 3' \
    "$sprom"
  grep -q '^pathview_serve_sessions_open 0' "$sprom"
  grep -q '^pathview_serve_uptime_seconds ' "$sprom"
  if grep -v '^#' "$sprom" | grep -vq \
      '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} -\{0,1\}[0-9]'; then
    echo "serve_smoke: malformed Prometheus sample line in $sprom" >&2
    grep -v '^#' "$sprom" | grep -v \
      '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\{0,1\} -\{0,1\}[0-9]' >&2
    return 1
  fi
  dup=$(grep '^# TYPE ' "$sprom" | sort | uniq -d)
  if [ -n "$dup" ]; then
    echo "serve_smoke: duplicate TYPE lines in $sprom:" >&2
    echo "$dup" >&2
    return 1
  fi
}

# Continuous-profiling smoke against the tools of one build dir: a daemon
# with a fast window cadence profiles itself into a retention ring while
# clients generate load; the self_profile/profile_windows ops must answer,
# a window file must appear in the ring (bounded by the retain count), and
# pvquery must answer a serve.* hot-path query over it with real rows.
profile_smoke() {
  pdir=$1
  pring=$pdir/profile_check_ring
  plog=$pdir/profile_check.log
  rm -rf "$pring"
  "$pdir/tools/pvserve" --port 0 --self-profile-hz 199 \
    --self-profile-interval-ms 200 --self-profile-dir "$pring" \
    --self-profile-retain 4 > "$plog" 2>&1 &
  ppid=$!
  for _ in $(seq 100); do
    grep -q 'listening on' "$plog" && break
    sleep 0.1
  done
  pport=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$plog")
  # Some request load while the sampler rotates windows underneath it.
  for _ in $(seq 20); do
    printf '{"v":1,"id":1,"op":"ping"}\n'
  done | "$pdir/tools/pvserve" --client --port "$pport" > /dev/null
  for _ in $(seq 100); do
    ls "$pring"/window-*.pvdb > /dev/null 2>&1 && break
    sleep 0.1
  done
  "$pdir/tools/pvserve" --client --port "$pport" \
    --request '{"v":1,"id":2,"op":"self_profile"}' |
    grep -q '"enabled":true'
  "$pdir/tools/pvserve" --client --port "$pport" \
    --request '{"v":1,"id":3,"op":"profile_windows"}' |
    grep -q '"windows":\['
  kill -TERM "$ppid"
  wait "$ppid"
  pwin=$(ls "$pring"/window-*.pvdb 2>/dev/null | head -1)
  [ -n "$pwin" ]
  [ "$(ls "$pring"/window-*.pvdb | wc -l)" -le 4 ]
  # Each window is an ordinary experiment database: a hot-path query over
  # the server's own spans returns at least one serve.* row.
  "$pdir/tools/pvquery" "$pwin" \
    "match '**/serve.*' order by PAPI_TOT_INS.excl desc limit 5" |
    grep -q '^[[:space:]]*[0-9][0-9]*[[:space:]][[:space:]]*serve\.'
  rm -rf "$pring"
}

# Query smoke against the tools of one build dir: pvquery end to end (the
# full grammar, the explain fast path, JSON output) and the pvserve query op
# answering with the byte-identical "result" encoding for the same query.
query_smoke() {
  qdir=$1
  qdb=$qdir/query_check.pvdb
  qlog=$qdir/query_check.log
  "$qdir/tools/pvprof" subsurface -o "$qdb" --ranks 2 > /dev/null
  "$qdir/tools/pvquery" "$qdb" \
    "match '**' where cycles.incl > 0.05*total order by cycles.excl desc limit 10" |
    grep -q 'row(s)'
  "$qdir/tools/pvquery" "$qdb" "where cycles.incl > 0.1*total" --explain |
    grep -q 'columnar scan'
  qtext="where cycles.incl > 0.1*total order by cycles.incl desc limit 5"
  qjson=$("$qdir/tools/pvquery" "$qdb" "$qtext" --json)
  [ -n "$qjson" ]
  "$qdir/tools/pvserve" --port 0 > "$qlog" 2>&1 &
  qpid=$!
  for _ in $(seq 100); do
    grep -q 'listening on' "$qlog" && break
    sleep 0.1
  done
  qport=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$qlog")
  sid=$("$qdir/tools/pvserve" --client --port "$qport" \
          --request "{\"v\":1,\"id\":1,\"op\":\"open\",\"path\":\"$qdb\"}" |
        sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
  [ -n "$sid" ]
  "$qdir/tools/pvserve" --client --port "$qport" --request \
    "{\"v\":1,\"id\":2,\"op\":\"query\",\"session\":\"$sid\",\"q\":\"$qtext\"}" |
    grep -qF "\"result\":$qjson"
  "$qdir/tools/pvserve" --client --port "$qport" --request \
    "{\"v\":1,\"id\":3,\"op\":\"explain\",\"session\":\"$sid\",\"q\":\"$qtext\"}" |
    grep -q 'columnar scan'
  kill -TERM "$qpid"
  wait "$qpid"
}

# Ensemble smoke against the tools of one build dir: an 8-window ring of
# databases (same workload, per-window sample seeds), pvdiff aligning the
# ring directory into a supergraph, and the pvserve open_ensemble + query
# ops answering with the byte-identical "result" encoding pvdiff --json
# prints for the same query text.
ensemble_smoke() {
  edir=$1
  ering=$edir/ensemble_check_ring
  elog=$edir/ensemble_check.log
  rm -rf "$ering"
  mkdir -p "$ering"
  for i in 0 1 2 3 4 5 6 7; do
    "$edir/tools/pvprof" combustion -o "$ering/window-0$i.pvdb" \
      --seed $((100 + i)) > /dev/null
  done
  # A directory input is the window ring, expanded in window order.
  "$edir/tools/pvdiff" "$ering" --baseline 0 --top 5 |
    grep -q 'ensemble of 8 runs'
  etext="match '**' where cycles.incl.delta >= 0 select cycles.incl.mean, cycles.incl.stddev order by cycles.incl.mean desc limit 5"
  ejson=$("$edir/tools/pvdiff" "$ering" --query "$etext" --json)
  [ -n "$ejson" ]
  "$edir/tools/pvserve" --port 0 > "$elog" 2>&1 &
  epid=$!
  for _ in $(seq 100); do
    grep -q 'listening on' "$elog" && break
    sleep 0.1
  done
  eport=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$elog")
  esid=$("$edir/tools/pvserve" --client --port "$eport" --request \
           "{\"v\":1,\"id\":1,\"op\":\"open_ensemble\",\"dir\":\"$ering\"}" |
         sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
  [ -n "$esid" ]
  "$edir/tools/pvserve" --client --port "$eport" --request \
    "{\"v\":1,\"id\":2,\"op\":\"query\",\"session\":\"$esid\",\"q\":\"$etext\"}" |
    grep -qF "\"result\":$ejson"
  kill -TERM "$epid"
  wait "$epid"
  rm -rf "$ering"
}

# Fault-injection matrix against the tools of one build dir: three canned
# specs prove the durability story end to end — (1) kill -9 at the atomic
# rename leaves the old database byte-identical, (2) a torn write fails
# cleanly without touching the destination, (3) a truncated measurement
# rank is refused strictly and recovered (loudly) by --salvage.
fault_matrix() {
  fdir=$1
  fdb=$fdir/fault_check.pvdb
  "$fdir/tools/pvprof" paper -o "$fdb" > /dev/null
  cp "$fdb" "$fdb.orig"

  rc=0
  "$fdir/tools/pvprof" paper -o "$fdb" \
    --fault-spec 'db.experiment.save.rename:crash' > /dev/null 2>&1 || rc=$?
  [ "$rc" = 137 ]
  cmp -s "$fdb" "$fdb.orig"

  rc=0
  "$fdir/tools/pvprof" paper -o "$fdb" \
    --fault-spec 'db.experiment.save.write:short=9' > /dev/null 2>&1 || rc=$?
  [ "$rc" = 1 ]
  cmp -s "$fdb" "$fdb.orig"

  fmeas=$fdir/fault_check_meas
  rm -rf "$fmeas"
  "$fdir/tools/pvrun" subsurface --ranks 4 -o "$fmeas" > /dev/null
  head -c 40 "$fmeas/rank-00002.pvms" > "$fmeas/rank-00002.pvms.t"
  mv "$fmeas/rank-00002.pvms.t" "$fmeas/rank-00002.pvms"
  rc=0
  "$fdir/tools/pvprof" subsurface --ranks 4 --measurements "$fmeas" \
    -o "$fdb.s" > /dev/null 2>&1 || rc=$?
  [ "$rc" = 1 ]
  "$fdir/tools/pvprof" subsurface --ranks 4 --measurements "$fmeas" \
    -o "$fdb.s" --salvage > "$fdir/fault_salvage.log" 2>&1
  grep -q 'DEGRADED DATA' "$fdir/fault_salvage.log"
}

# Chaos matrix against the tools of one build dir: a supervised daemon with
# a health file and a session journal, one session opened and navigated,
# then the worker killed with SIGKILL. The supervisor must respawn it on the
# same port (health passes through "starting" and returns to "serving" under
# a fresh pid with restarts recorded), resume_session must resurrect the
# journaled session, and the resurrected cursor must keep answering. A
# final SIGTERM drains the worker and ends supervision cleanly.
chaos_smoke() {
  xdir=$1
  xdb=$xdir/chaos_check.pvdb
  xlog=$xdir/chaos_check.log
  xhealth=$xdir/chaos_check.health
  xjournal=$xdir/chaos_check_journal
  rm -rf "$xjournal" "$xhealth"
  "$xdir/tools/pvprof" subsurface -o "$xdb" --ranks 4 > /dev/null
  "$xdir/tools/pvserve" --supervise --port 0 --health-file "$xhealth" \
    --session-dir "$xjournal" --health-interval-ms 100 \
    --restart-backoff-ms 50 > "$xlog" 2>&1 &
  xpid=$!
  for _ in $(seq 100); do
    grep -q 'listening on' "$xlog" && break
    sleep 0.1
  done
  xport=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$xlog" |
          head -1)
  sid=$("$xdir/tools/pvserve" --client --port "$xport" \
          --request "{\"v\":1,\"id\":1,\"op\":\"open\",\"path\":\"$xdb\"}" |
        sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
  [ -n "$sid" ]
  "$xdir/tools/pvserve" --client --port "$xport" --request \
    "{\"v\":1,\"id\":2,\"op\":\"expand\",\"session\":\"$sid\",\"node\":1}" \
    > /dev/null
  # The worker's pid is in the health snapshot (the supervisor is $xpid).
  wpid=$(sed -n 's/.*"pid":\([0-9]*\).*/\1/p' "$xhealth")
  [ -n "$wpid" ]
  [ "$wpid" != "$xpid" ]
  kill -9 "$wpid"
  # Wait out the respawn: "serving" again, under a fresh worker pid.
  for _ in $(seq 100); do
    if grep -q '"state":"serving"' "$xhealth" 2>/dev/null; then
      npid=$(sed -n 's/.*"pid":\([0-9]*\).*/\1/p' "$xhealth")
      [ "$npid" != "$wpid" ] && break
    fi
    sleep 0.1
  done
  grep -q '"restarts":1' "$xhealth"
  "$xdir/tools/pvserve" --client --port "$xport" --request \
    "{\"v\":1,\"id\":3,\"op\":\"resume_session\",\"token\":\"$sid\"}" |
    grep -q '"resumed":true'
  "$xdir/tools/pvserve" --client --port "$xport" --request \
    "{\"v\":1,\"id\":4,\"op\":\"expand\",\"session\":\"$sid\",\"node\":1}" |
    grep -q '"ok":true'
  kill -TERM "$xpid"
  wait "$xpid"
  rm -rf "$xjournal" "$xhealth"
}

cmake -B build -DPATHVIEW_WERROR=ON
cmake --build build -j "$(nproc)"
# Per-test timeout so one hung test fails instead of wedging the whole run.
ctest --test-dir build --output-on-failure --timeout 120

if [ "$quick" = "1" ]; then
  echo "QUICK CHECKS PASSED"
  exit 0
fi

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "== $b"
  case "$b" in
    *scalability) "$b" --benchmark_min_time=0.05 ;;
    *) "$b" ;;
  esac
done

echo "== serve smoke (3 concurrent clients)"
serve_smoke build
echo "== continuous-profiling smoke (windowed self-profile ring)"
profile_smoke build
echo "== query smoke (pvquery + serve query op)"
query_smoke build
echo "== ensemble smoke (pvdiff + serve open_ensemble op)"
ensemble_smoke build
echo "== fault-injection matrix"
fault_matrix build
echo "== chaos matrix (SIGKILL the supervised worker)"
chaos_smoke build

if [ "${PATHVIEW_SKIP_SANITIZE:-0}" != "1" ]; then
  echo "== sanitizer pass (ASan+UBSan)"
  # UBSan reports are recoverable by default; halting makes any new report
  # fail the pass instead of scrolling by.
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  cmake -B build-asan -DPATHVIEW_SANITIZE=ON
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure --timeout 300
  echo "== serve smoke under ASan"
  serve_smoke build-asan
  echo "== continuous-profiling smoke under ASan"
  profile_smoke build-asan
  echo "== query smoke under ASan"
  query_smoke build-asan
  echo "== ensemble smoke under ASan"
  ensemble_smoke build-asan
  echo "== fault-injection matrix under ASan"
  fault_matrix build-asan
  echo "== chaos matrix under ASan"
  chaos_smoke build-asan

  echo "== sanitizer pass (TSan: worker pools + obs + serve + faults)"
  cmake -B build-tsan -DPATHVIEW_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" \
    --target prof_test pipeline_test obs_test serve_test fault_test \
    query_test ensemble_test sim_test tools_test db_test pvserve pvprof pvrun \
    pvtop pvquery pvdiff pvstruct pvtrace pvviewer
  build-tsan/tests/prof_test
  build-tsan/tests/pipeline_test
  build-tsan/tests/obs_test
  build-tsan/tests/serve_test
  build-tsan/tests/fault_test
  build-tsan/tests/query_test
  build-tsan/tests/ensemble_test
  build-tsan/tests/sim_test
  build-tsan/tests/tools_test
  build-tsan/tests/db_test
  echo "== serve smoke under TSan"
  serve_smoke build-tsan
  echo "== continuous-profiling smoke under TSan"
  profile_smoke build-tsan
  echo "== query smoke under TSan"
  query_smoke build-tsan
  echo "== ensemble smoke under TSan"
  ensemble_smoke build-tsan
  echo "== fault-injection matrix under TSan"
  fault_matrix build-tsan
  echo "== chaos matrix under TSan"
  chaos_smoke build-tsan
fi

echo "ALL CHECKS PASSED"
