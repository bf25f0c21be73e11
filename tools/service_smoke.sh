#!/usr/bin/env bash
# End-to-end smoke test of the campaign service (src/serve), run by the
# `service` CI job:
#
#   1. start slipflow_served on a fresh socket + work dir, and check that
#      a spec the worker could not run ({"phases":4294967301}) is refused
#      by name at the door: by slipflow_submit --direct (exit 2) and by
#      the daemon (an error reply, no job queued);
#   2. submit three concurrent jobs from two tenants — a two-job gravity
#      sweep plus a chaos job whose rank 1 is killed mid-run by fault
#      injection;
#   3. assert the killed job recovers from its checkpoint (attempt 2,
#      guilty rank named in the event stream, resumed at phase 10) and
#      completes;
#   4. assert every served result is byte-identical to a direct
#      standalone run of the same spec (slipflow_submit --direct — the
#      same argv builder, so a diff means the service moved the physics);
#   5. assert the warm-state cache measurably skips equilibration: the
#      second submission of the same physics reports a warm hit and
#      executes only phases - warm_phases;
#   6. shut the daemon down cleanly via SIGTERM.
#
# Usage: tools/service_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
SERVED=$BUILD_DIR/src/serve/slipflow_served
SUBMIT=$BUILD_DIR/src/serve/slipflow_submit
for exe in "$SERVED" "$SUBMIT"; do
  [ -x "$exe" ] || { echo "missing $exe (build slipflow_served + slipflow_submit first)" >&2; exit 1; }
done

WORK=$(mktemp -d /tmp/sf_smoke.XXXXXX)
SOCK=$WORK/ctl.sock
DAEMON_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "service_smoke: FAIL: $*" >&2; exit 1; }

# --- specs -------------------------------------------------------------
# All on the tiny CI grid; wall_clock_budget bounds every launch so a
# hang fails the job (and this script) instead of stalling CI.
cat > "$WORK/spec_clean.json" <<'EOF'
{"geometry":{"nx":16,"ny":6,"nz":4},"phases":20,"ranks":2,
 "wall_clock_budget":60}
EOF
cat > "$WORK/spec_fault.json" <<'EOF'
{"geometry":{"nx":16,"ny":6,"nz":4},"phases":20,"ranks":2,
 "wall_clock_budget":60,"params":{"gravity":4e-05},
 "checkpoint_every":5,"fault":{"kill_rank":1,"kill_phase":12}}
EOF
# The fault job's physics without the fault or checkpoints: the direct
# reference the recovered result must match byte for byte.
cat > "$WORK/spec_fault_clean.json" <<'EOF'
{"geometry":{"nx":16,"ny":6,"nz":4},"phases":20,"ranks":2,
 "wall_clock_budget":60,"params":{"gravity":4e-05}}
EOF
cat > "$WORK/spec_warm.json" <<'EOF'
{"geometry":{"nx":16,"ny":6,"nz":4},"phases":20,"ranks":2,
 "wall_clock_budget":60,"params":{"gravity":5e-05},"warm_phases":10}
EOF

# --- 1. daemon ---------------------------------------------------------
"$SERVED" --socket="$SOCK" --work-dir="$WORK/srv" --slots=8 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.log" >&2; fail "daemon died on startup"; }
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never bound $SOCK"

# A phase count beyond the worker's int once ran as 5 phases; admission
# must refuse it and name the field.
echo '{"phases":4294967301}' > "$WORK/spec_hostile.json"
rc=0
"$SUBMIT" --direct --spec="$WORK/spec_hostile.json" --out-dir="$WORK/hostile" \
  > "$WORK/hostile_direct.log" 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { cat "$WORK/hostile_direct.log" >&2; fail "--direct on a hostile spec exited $rc, not 2"; }
grep -q phases "$WORK/hostile_direct.log" || fail "--direct rejection did not name phases"
# slipflow_submit checks specs before sending them, so talk to the daemon
# directly: one raw submit line, then the stats line.
python3 - "$SOCK" "$WORK/spec_hostile.json" > "$WORK/hostile_served.log" 2>&1 <<'PY' \
  || { cat "$WORK/hostile_served.log" >&2; fail "daemon did not refuse the hostile spec by name"; }
import json, socket, sys
def ask(request):
    with socket.socket(socket.AF_UNIX) as s:
        s.connect(sys.argv[1])
        s.sendall((json.dumps(request) + "\n").encode())
        return json.loads(s.makefile().readline())
reply = ask({"cmd": "submit", "tenant": "hostile",
             "spec": json.load(open(sys.argv[2]))})
stats = ask({"cmd": "stats"})
print(reply, stats)
sys.exit(0 if reply.get("ok") is False and "phases" in reply.get("error", "")
         and stats["jobs"] == 0 else 1)
PY

# --- 2. three concurrent jobs, one killed ------------------------------
mkdir -p "$WORK/out_sweep" "$WORK/out_fault"
"$SUBMIT" --socket="$SOCK" --spec="$WORK/spec_clean.json" --tenant=sweep \
  --sweep=params.gravity=2e-05,3e-05 --out-dir="$WORK/out_sweep" --quiet \
  > "$WORK/sweep.log" 2>&1 &
SWEEP_PID=$!
"$SUBMIT" --socket="$SOCK" --spec="$WORK/spec_fault.json" --tenant=chaos \
  --out-dir="$WORK/out_fault" \
  > "$WORK/fault.log" 2>&1 &
FAULT_PID=$!
wait "$SWEEP_PID" || { cat "$WORK/sweep.log" >&2; fail "sweep jobs failed"; }
wait "$FAULT_PID" || { cat "$WORK/fault.log" >&2; fail "fault job failed to recover"; }

# --- 3. recovery happened and named the guilty rank --------------------
grep -q '"event":"failure"' "$WORK/fault.log" || fail "no failure event streamed"
grep -q '"failed_rank":1' "$WORK/fault.log" || fail "failure event did not name rank 1"
grep -q '"event":"recovery"' "$WORK/fault.log" || fail "no recovery event streamed"
grep -q 'attempts 2' "$WORK/fault.log" || fail "recovered job should report attempts 2"
# Checkpoints every 5 phases, rank killed at phase 12: recovery must seed
# from the phase-10 checkpoint. A silent restart from phase 0 gives the
# same bytes, so only the event stream can tell the two apart.
grep -q '"resume_phase":10' "$WORK/fault.log" || fail "recovery did not resume from the phase-10 checkpoint"

# --- 4. byte-identity against direct standalone runs -------------------
# direct/ is not created first: --out-dir must make it, as the README's
# `--out-dir=ref` relies on.
mkdir -p "$WORK/direct_fault"
"$SUBMIT" --direct --spec="$WORK/spec_clean.json" \
  --sweep=params.gravity=2e-05,3e-05 --out-dir="$WORK/direct" \
  > "$WORK/direct.log" 2>&1 || { cat "$WORK/direct.log" >&2; fail "direct sweep failed"; }
"$SUBMIT" --direct --spec="$WORK/spec_fault_clean.json" \
  --out-dir="$WORK/direct_fault" > /dev/null 2>&1 \
  && mv "$WORK/direct_fault/obs_direct1.txt" "$WORK/direct/obs_fault_ref.txt" \
  || fail "direct fault reference failed"

# Waits are in submission order, so ascending job ids pair with the
# sweep values in order.
mapfile -t SWEEP_OBS < <(ls "$WORK"/out_sweep/obs_job*.txt | sort -V)
[ "${#SWEEP_OBS[@]}" -eq 2 ] || fail "expected 2 sweep results, got ${#SWEEP_OBS[@]}"
cmp "${SWEEP_OBS[0]}" "$WORK/direct/obs_direct1.txt" || fail "sweep job 1 diverged from direct run"
cmp "${SWEEP_OBS[1]}" "$WORK/direct/obs_direct2.txt" || fail "sweep job 2 diverged from direct run"
mapfile -t FAULT_OBS < <(ls "$WORK"/out_fault/obs_job*.txt)
[ "${#FAULT_OBS[@]}" -eq 1 ] || fail "expected 1 fault-job result"
cmp "${FAULT_OBS[0]}" "$WORK/direct/obs_fault_ref.txt" \
  || fail "recovered job diverged from the clean direct run"

# --- 5. warm cache skips equilibration ---------------------------------
"$SUBMIT" --socket="$SOCK" --spec="$WORK/spec_warm.json" --tenant=sweep \
  --quiet > "$WORK/warm1.log" 2>&1 || { cat "$WORK/warm1.log" >&2; fail "warm producer failed"; }
grep -q 'phases executed 20' "$WORK/warm1.log" || fail "warm producer should execute all 20 phases"
"$SUBMIT" --socket="$SOCK" --spec="$WORK/spec_warm.json" --tenant=sweep \
  --quiet > "$WORK/warm2.log" 2>&1 || { cat "$WORK/warm2.log" >&2; fail "warm consumer failed"; }
grep -q 'warm cache hit' "$WORK/warm2.log" || fail "second submission should hit the warm cache"
grep -q 'phases executed 10' "$WORK/warm2.log" || fail "warm hit should execute only 10 of 20 phases"

# --- 6. clean shutdown -------------------------------------------------
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited non-zero on SIGTERM"
DAEMON_PID=

echo "service_smoke: PASS"
