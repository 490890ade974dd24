#!/usr/bin/env bash
# Crash matrix: shell-level acceptance for crash-safe checkpointing.
#
# Phase `faults` runs `acbm fit` under every durable-I/O fault point at 1
# and 8 threads, resumes each crashed run, and requires the resumed model
# to be byte-identical to an uninterrupted run's (ctest label `durable`).
#
# Phase `workers` sweeps the sharded multi-process fit: every worker/lease
# fault point, real SIGKILLs of worker processes mid-stage, a SIGKILLed
# coordinator followed by --resume, and the --worker-timeout exit code —
# each case must still end with a model byte-identical to the
# single-process fit (ctest label `distributed`).
#
# Phase `ingest` drives the streaming-ingestion loop under each of its
# fault points ({ingest.append, ingest.torn_tail, io.dirsync, refit.fail}
# x {1, 8} threads): every crashed-and-restarted `acbm ingest` run must
# converge to a model byte-identical to a clean full `acbm fit` on the
# exported cumulative dataset, and the previously published generation
# must stay loadable at every intermediate instant. It also covers the
# ACBM_FAULTS `#<limit>` budget suffix interacting with `lease.expire`
# on the coordinator's worker-respawn path (ctest label `ingest`).
#
# Phase `serve` covers the forecast daemon: kill -9 mid-response stream
# (a seeded loadgen mix in flight) and mid-generation-swap (artifacts
# being renamed over in a loop), then restart on the same socket — the
# daemon must come back serving the previous generation with output
# byte-identical to `acbm predict` on the same artifact (ctest label
# `serve`).
#
# Usage: scripts/crash_matrix.sh <acbm-binary> [faults|workers|ingest|serve|all] [work-dir]
set -euo pipefail

acbm="${1:?usage: crash_matrix.sh <acbm-binary> [faults|workers|ingest|serve|all] [work-dir]}"
phase="${2:-faults}"
work="${3:-$(mktemp -d /tmp/acbm_crash_matrix.XXXXXX)}"
mkdir -p "$work"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
echo "crash_matrix.sh phase=$phase @ $(git -C "$repo_root" describe --always --dirty 2>/dev/null || echo unknown)"
trap 'rm -rf "$work"' EXIT

dataset="$work/trace.csv"
ipmap="$work/ipmap.txt"
"$acbm" generate --seed 5 --days 20 --dataset "$dataset" --ipmap "$ipmap" \
  >/dev/null

clean="$work/clean.model"
"$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$clean" >/dev/null

failures=0

run_faults_phase() {
  # Each entry is an ACBM_FAULTS spec that must abort the fit mid-run.
  # Filters pick stages that exist in every fit: a temporal family artifact,
  # the spatial stage, the tree stage, and fsync on any checkpoint write.
  local faults=(
    "io.write:spatial"
    "io.write:tree"
    "io.fsync:spatial"
    "checkpoint.stage:spatial"
    "checkpoint.stage:tree"
  )

  local threads i fault tag model ckpt code
  for threads in 1 8; do
    for i in "${!faults[@]}"; do
      fault="${faults[$i]}"
      # Numeric tags keep stage names out of the work paths — io.* filters
      # match on path substrings, and a directory named after the fault
      # would make every write in it match instead of only the targeted
      # stage.
      tag="case${i}_t${threads}"
      model="$work/$tag.model"
      ckpt="$work/$tag.ckpt"

      # The faulted run must fail with the corruption exit code (3) and
      # must not publish a model artifact.
      set +e
      ACBM_FAULTS="$fault" ACBM_THREADS="$threads" \
        "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" \
        --model "$model" --checkpoint-dir "$ckpt" >/dev/null 2>"$work/$tag.err"
      code=$?
      set -e
      if [[ $code -ne 3 ]]; then
        echo "FAIL [$fault t=$threads]: crashed run exited $code, expected 3" >&2
        failures=$((failures + 1))
        continue
      fi
      if [[ -e $model ]]; then
        echo "FAIL [$fault t=$threads]: crashed run published a model" >&2
        failures=$((failures + 1))
        continue
      fi

      # Resume with injection off: must succeed and reproduce the clean
      # model byte for byte.
      if ! ACBM_THREADS="$threads" "$acbm" fit --dataset "$dataset" \
          --ipmap "$ipmap" --model "$model" --checkpoint-dir "$ckpt" \
          --resume >/dev/null 2>>"$work/$tag.err"; then
        echo "FAIL [$fault t=$threads]: resume did not complete" >&2
        failures=$((failures + 1))
        continue
      fi
      if ! cmp -s "$model" "$clean"; then
        echo "FAIL [$fault t=$threads]: resumed model differs from clean" >&2
        failures=$((failures + 1))
        continue
      fi
      echo "ok   [$fault t=$threads]: crash -> resume -> byte-identical"
    done
  done
}

# One sharded fit that must exit 0 and reproduce the clean model exactly.
# Args: tag, workers, faults-spec (may be empty), extra fit args...
worker_case() {
  local tag="$1" workers="$2" fault="$3"
  shift 3
  local model="$work/$tag.model"
  local ckpt="$work/$tag.ckpt"
  set +e
  ACBM_FAULTS="$fault" "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" \
    --model "$model" --checkpoint-dir "$ckpt" --workers "$workers" "$@" \
    >/dev/null 2>"$work/$tag.err"
  local code=$?
  set -e
  if [[ $code -ne 0 ]]; then
    echo "FAIL [$tag]: sharded fit exited $code (see $tag.err)" >&2
    failures=$((failures + 1))
    return
  fi
  if ! cmp -s "$model" "$clean"; then
    echo "FAIL [$tag]: sharded model differs from single-process fit" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   [$tag]: byte-identical to single-process fit"
}

run_workers_phase() {
  # Plain sharded fits at both acceptance worker counts.
  worker_case "w2_plain" 2 ""
  worker_case "w4_plain" 4 ""

  # Every worker/lease fault point. Short lease ttls keep crashed workers'
  # shards re-assignable within the test's patience.
  worker_case "w2_exit_first"   2 "worker.exit:worker=0#1" --lease-ttl-ms 300
  worker_case "w2_exit_spatial" 2 "worker.exit:shard=spatial" --lease-ttl-ms 200
  worker_case "w2_exit_tree"    2 "worker.exit:shard=tree#1" --lease-ttl-ms 300
  worker_case "w2_lease_expire" 2 "lease.expire" --lease-ttl-ms 300
  worker_case "w2_hb_drop"      2 "heartbeat.drop:worker=1" --lease-ttl-ms 200
  worker_case "w2_spawn_fail"   2 "worker.spawn:worker=0#1"

  # Real kill -9: SIGKILL the coordinator's children from outside while
  # they are mid-stage; the coordinator must respawn and still converge.
  local tag="w2_pkill" model="$work/w2_pkill.model" ckpt="$work/w2_pkill.ckpt"
  "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$model" \
    --checkpoint-dir "$ckpt" --workers 2 --lease-ttl-ms 300 \
    >/dev/null 2>"$work/$tag.err" &
  local coord=$!
  sleep 0.4
  pkill -9 -P "$coord" 2>/dev/null || true
  sleep 0.4
  pkill -9 -P "$coord" 2>/dev/null || true
  if ! wait "$coord"; then
    echo "FAIL [$tag]: coordinator did not survive killed workers" >&2
    failures=$((failures + 1))
  elif ! cmp -s "$model" "$clean"; then
    echo "FAIL [$tag]: model differs after real worker kills" >&2
    failures=$((failures + 1))
  else
    echo "ok   [$tag]: byte-identical after kill -9 of workers"
  fi

  # SIGKILL the coordinator itself mid-run, then finish with --resume.
  tag="w2_coord_kill"; model="$work/$tag.model"; ckpt="$work/$tag.ckpt"
  "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$model" \
    --checkpoint-dir "$ckpt" --workers 2 >/dev/null 2>"$work/$tag.err" &
  coord=$!
  sleep 0.6
  kill -9 "$coord" 2>/dev/null || true
  wait "$coord" 2>/dev/null || true
  if ! "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$model" \
      --checkpoint-dir "$ckpt" --workers 2 --resume \
      >/dev/null 2>>"$work/$tag.err"; then
    echo "FAIL [$tag]: resume after coordinator kill did not complete" >&2
    failures=$((failures + 1))
  elif ! cmp -s "$model" "$clean"; then
    echo "FAIL [$tag]: model differs after coordinator kill + resume" >&2
    failures=$((failures + 1))
  else
    echo "ok   [$tag]: byte-identical after coordinator kill -9 + --resume"
  fi

  # --worker-timeout: the deadline must kill the workers and exit 5; a
  # resume without the deadline completes the plan byte-identically.
  tag="w2_timeout"; model="$work/$tag.model"; ckpt="$work/$tag.ckpt"
  set +e
  "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$model" \
    --checkpoint-dir "$ckpt" --workers 2 --worker-timeout 1 \
    >/dev/null 2>"$work/$tag.err"
  local code=$?
  set -e
  if [[ $code -ne 5 ]]; then
    echo "FAIL [$tag]: timed-out run exited $code, expected 5" >&2
    failures=$((failures + 1))
  elif [[ -e $model ]]; then
    echo "FAIL [$tag]: timed-out run published a model" >&2
    failures=$((failures + 1))
  elif ! "$acbm" fit --dataset "$dataset" --ipmap "$ipmap" --model "$model" \
      --checkpoint-dir "$ckpt" --workers 2 --resume \
      >/dev/null 2>>"$work/$tag.err" || ! cmp -s "$model" "$clean"; then
    echo "FAIL [$tag]: resume after timeout not byte-identical" >&2
    failures=$((failures + 1))
  else
    echo "ok   [$tag]: timeout exits 5, resume byte-identical"
  fi
}

# Requires that the model artifact at $1 still loads (the "never serve
# nothing" invariant, probed at an intermediate instant of a faulted run).
require_loadable() {
  local model="$1" tag="$2" when="$3"
  if ! "$acbm" predict --model "$model" >/dev/null 2>&1; then
    echo "FAIL [$tag]: $model not loadable $when" >&2
    failures=$((failures + 1))
    return 1
  fi
}

run_ingest_phase() {
  # Snapshot CSVs reuse the generated dataset's header verbatim; one
  # family-0 attack per hour just past the base window (20 days = hour 479).
  local ws fams
  ws="$(grep -m1 '^#window_start=' "$dataset" | cut -d= -f2)"
  fams="$(grep -m1 '^#families=' "$dataset" | cut -d= -f2)"
  local columns="id,family,target_ip,target_asn,start,duration_s,bots"
  local hour
  for hour in 481 482; do
    {
      echo "#window_start=$ws"
      echo "#families=$fams"
      echo "$columns"
      echo "99$hour,0,10.0.0.1,3,$((ws + hour * 3600 + 60)),600,10.9.0.1;10.9.0.2;10.9.0.3"
    } > "$work/snap$hour.csv"
  done

  # One clean inited stream dir, copied per case (byte-determinism makes
  # the copy equivalent to re-running --init), and one clean end-state
  # reference: full lifecycle, export, cold fit.
  local seed_dir="$work/ing_seed"
  "$acbm" ingest --dir "$seed_dir" --init --dataset "$dataset" \
    --ipmap "$ipmap" >/dev/null
  local ref_dir="$work/ing_ref"
  cp -r "$seed_dir" "$ref_dir"
  "$acbm" ingest --dir "$ref_dir" --snapshot "$work/snap481.csv" \
    --hour 481 --no-refit >/dev/null
  "$acbm" ingest --dir "$ref_dir" --snapshot "$work/snap482.csv" \
    --hour 482 --no-refit >/dev/null
  "$acbm" ingest --dir "$ref_dir" --refit >/dev/null
  "$acbm" ingest --dir "$ref_dir" --export-dataset "$work/cumulative.art" \
    >/dev/null
  local ingest_clean="$work/ingest_clean.model"
  "$acbm" fit --dataset "$work/cumulative.art" --ipmap "$ipmap" \
    --model "$ingest_clean" >/dev/null
  if ! cmp -s "$ref_dir/model.art" "$ingest_clean"; then
    echo "FAIL [ref]: clean incremental refit differs from cold full fit" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   [ref]: clean incremental refit byte-identical to cold full fit"

  local faults=(
    "ingest.append"
    "ingest.torn_tail"
    "io.dirsync"
    "refit.fail"
  )
  local threads i fault tag dir code want
  for threads in 1 8; do
    for i in "${!faults[@]}"; do
      fault="${faults[$i]}"
      tag="ing${i}_t${threads}"
      dir="$work/$tag"
      cp -r "$seed_dir" "$dir"

      if [[ $fault == ingest.* ]]; then
        # Append-path faults crash the snapshot ingestion before any byte
        # is durably appended (exit 3); the restart retries the same hour.
        set +e
        ACBM_FAULTS="$fault" ACBM_THREADS="$threads" \
          "$acbm" ingest --dir "$dir" --snapshot "$work/snap481.csv" \
          --hour 481 >/dev/null 2>"$work/$tag.err"
        code=$?
        set -e
        want=3
      else
        # Refit-path faults: the snapshot lands, every refit attempt fails,
        # and the loop falls back to the previous generation (exit 6).
        ACBM_THREADS="$threads" "$acbm" ingest --dir "$dir" \
          --snapshot "$work/snap481.csv" --hour 481 --no-refit \
          >/dev/null 2>"$work/$tag.err"
        set +e
        ACBM_FAULTS="$fault" ACBM_THREADS="$threads" \
          "$acbm" ingest --dir "$dir" --refit --refit-retries 1 \
          --refit-backoff-ms 0 >/dev/null 2>>"$work/$tag.err"
        code=$?
        set -e
        want=6
      fi
      if [[ $code -ne $want ]]; then
        echo "FAIL [$fault t=$threads]: faulted run exited $code, expected $want" >&2
        failures=$((failures + 1))
        continue
      fi
      # The previous generation must be serving at this intermediate
      # instant, byte-untouched by the crash.
      require_loadable "$dir/model.art" "$tag" "after the faulted run" || continue
      if ! cmp -s "$dir/model.art" "$seed_dir/model.art"; then
        echo "FAIL [$fault t=$threads]: faulted run altered the live model" >&2
        failures=$((failures + 1))
        continue
      fi

      # Restart with injection off: replay the hour (idempotent when the
      # append already landed), refit, append the next hour, refit again.
      if ! { ACBM_THREADS="$threads" "$acbm" ingest --dir "$dir" \
               --snapshot "$work/snap481.csv" --hour 481 --no-refit && \
             ACBM_THREADS="$threads" "$acbm" ingest --dir "$dir" --refit && \
             ACBM_THREADS="$threads" "$acbm" ingest --dir "$dir" \
               --snapshot "$work/snap482.csv" --hour 482 --no-refit && \
             ACBM_THREADS="$threads" "$acbm" ingest --dir "$dir" --refit; \
           } >/dev/null 2>>"$work/$tag.err"; then
        echo "FAIL [$fault t=$threads]: restarted ingest loop did not complete" >&2
        failures=$((failures + 1))
        continue
      fi
      if ! cmp -s "$dir/model.art" "$ingest_clean"; then
        echo "FAIL [$fault t=$threads]: converged model differs from clean full fit" >&2
        failures=$((failures + 1))
        continue
      fi
      # The rotated previous generation must load too.
      require_loadable "$dir/model.art.g1" "$tag" "as generation g1" || continue
      echo "ok   [$fault t=$threads]: crash -> restart -> byte-identical"
    done
  done

  # ACBM_FAULTS budget suffix (#<limit>) interacting with lease.expire on
  # the coordinator's respawn path: worker 0 exits once (forcing a respawn)
  # while the first two lease checks expire; the budget must run dry and
  # the sharded fit still converge byte-identically.
  worker_case "lease_budget_respawn" 2 \
    "worker.exit:worker=0#1;lease.expire#2" --lease-ttl-ms 300
}

# --- serve phase -------------------------------------------------------------

serve_pid=""

start_daemon() {
  # Args: log-file, extra serve args... Sets serve_pid; waits for LISTENING.
  local log="$1"
  shift
  "$acbm" serve --socket "$serve_sock" --watch-interval 50 "$@" \
    >"$log" 2>&1 &
  serve_pid=$!
  disown "$serve_pid"  # Keep bash quiet about the later kill -9.
  local i
  for i in $(seq 1 200); do
    if grep -q LISTENING "$log" 2>/dev/null; then return 0; fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then
      echo "FAIL [serve]: daemon died at startup (see $log)" >&2
      return 1
    fi
    sleep 0.05
  done
  echo "FAIL [serve]: daemon never reported LISTENING (see $log)" >&2
  return 1
}

stop_daemon() {
  if [[ -n $serve_pid ]] && kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
  fi
  serve_pid=""
}

run_serve_phase() {
  local art="$work/serve.art"
  cp "$clean" "$art"
  serve_sock="$work/serve.sock"

  # Reference: the batch predict CLI on the same artifact, over the 8
  # busiest targets. The daemon's f64 answers must match byte for byte.
  local targets target_args=() t
  targets="$("$acbm" predict --model "$clean" --top 8 \
    | awk 'NR>1 && /^AS/ {sub(/^AS/,""); print $1}')"
  for t in $targets; do target_args+=(--target "$t"); done
  "$acbm" predict --model "$clean" "${target_args[@]}" > "$work/serve_ref.txt"

  # Sanity: a clean daemon serves the reference byte-identically.
  start_daemon "$work/serve0.log" --model "m=$art" || {
    failures=$((failures + 1)); return;
  }
  "$acbm" query --socket "$serve_sock" --model m "${target_args[@]}" \
    > "$work/serve0.txt"
  if ! cmp -s "$work/serve0.txt" "$work/serve_ref.txt"; then
    echo "FAIL [serve clean]: daemon output differs from acbm predict" >&2
    failures=$((failures + 1))
    stop_daemon
    return
  fi
  echo "ok   [serve clean]: daemon output byte-identical to acbm predict"

  # Case 1: kill -9 mid-response stream. A seeded loadgen mix is in
  # flight when the daemon dies; the restart (same socket path) must
  # serve the same generation byte-identically.
  bash "$repo_root/scripts/loadgen.sh" "$acbm" "$serve_sock" m 100000 7 \
    $targets >/dev/null 2>&1 &
  local load_pid=$!
  sleep 0.4
  kill -9 "$serve_pid"
  serve_pid=""
  wait "$load_pid" 2>/dev/null || true  # The client loses its connection.
  if ! start_daemon "$work/serve1.log" --model "m=$art"; then
    failures=$((failures + 1)); return
  fi
  "$acbm" query --socket "$serve_sock" --model m "${target_args[@]}" \
    > "$work/serve1.txt"
  if cmp -s "$work/serve1.txt" "$work/serve_ref.txt"; then
    echo "ok   [serve kill mid-response]: restart serves byte-identically"
  else
    echo "FAIL [serve kill mid-response]: restarted output differs" >&2
    failures=$((failures + 1))
  fi

  # Case 2: kill -9 mid-generation-swap. Rotate the artifact in a tight
  # loop (copy to a temp file, then atomic rename-over: same bytes, new
  # inode) under load, kill the daemon while swaps are landing, restart,
  # compare.
  bash "$repo_root/scripts/loadgen.sh" "$acbm" "$serve_sock" m 100000 11 \
    $targets >/dev/null 2>&1 &
  load_pid=$!
  touch "$work/rotate.flag"
  ( while [[ -e "$work/rotate.flag" ]]; do
      cp "$clean" "$art.tmp" && mv -f "$art.tmp" "$art"
    done ) &
  local rotate_pid=$!
  sleep 0.6
  kill -9 "$serve_pid"
  serve_pid=""
  rm -f "$work/rotate.flag"  # Let the in-flight rotation finish, then stop.
  wait "$rotate_pid" 2>/dev/null || true
  wait "$load_pid" 2>/dev/null || true
  if ! start_daemon "$work/serve2.log" --model "m=$art"; then
    failures=$((failures + 1)); return
  fi
  "$acbm" query --socket "$serve_sock" --model m "${target_args[@]}" \
    > "$work/serve2.txt"
  if cmp -s "$work/serve2.txt" "$work/serve_ref.txt"; then
    echo "ok   [serve kill mid-swap]: restart serves byte-identically"
  else
    echo "FAIL [serve kill mid-swap]: restarted output differs" >&2
    failures=$((failures + 1))
  fi

  # The deterministic mix itself replays identically across restarts.
  bash "$repo_root/scripts/loadgen.sh" "$acbm" "$serve_sock" m 50 3 \
    $targets > "$work/serve_mix_a.txt"
  bash "$repo_root/scripts/loadgen.sh" "$acbm" "$serve_sock" m 50 3 \
    $targets > "$work/serve_mix_b.txt"
  if cmp -s "$work/serve_mix_a.txt" "$work/serve_mix_b.txt"; then
    echo "ok   [serve loadgen]: seeded mix is deterministic"
  else
    echo "FAIL [serve loadgen]: seeded mix diverged between runs" >&2
    failures=$((failures + 1))
  fi
  stop_daemon
}

case "$phase" in
  faults) run_faults_phase ;;
  workers) run_workers_phase ;;
  ingest) run_ingest_phase ;;
  serve) run_serve_phase ;;
  all)
    run_faults_phase
    run_workers_phase
    run_ingest_phase
    run_serve_phase
    ;;
  *)
    echo "crash_matrix.sh: unknown phase '$phase' (want faults|workers|ingest|serve|all)" >&2
    exit 2
    ;;
esac

if [[ $failures -gt 0 ]]; then
  echo "crash matrix ($phase): $failures case(s) failed" >&2
  exit 1
fi
echo "crash matrix ($phase): all cases byte-identical"
