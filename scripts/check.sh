#!/usr/bin/env bash
# One-command verify: docs link/coverage check, tier-1 build + full
# test suite, then the sharded
# runtime's test binaries under ThreadSanitizer (race detection for the
# worker pool / shard tick path / per-shard trace sinks), then the
# protocol + observability + serving + batched-fleet + adaptive-servo
# + fusion tests under ASan+UBSan, then a gcov coverage build gating
# line coverage of src/obs/, src/dsms/, src/serve/, src/fleet/,
# src/governor/, src/filter/, and src/fusion/, then Release-mode
# builds of the filter hot-loop and adaptive-servo benchmarks,
# refreshing BENCH_filter_hotpath.json and BENCH_adaptive.json at the
# repo root, then the end-to-end benchmark's own tests (every workload
# at tiny size; see e2ebench/README.md). See docs/runtime.md,
# docs/perf.md, docs/observability.md, docs/adaptive.md, and
# docs/fusion.md.
#
# Env knobs:
#   JOBS            parallel build jobs (default: nproc)
#   DKF_TSAN=0      skip the thread-sanitizer stage
#   DKF_SANITIZE    sanitizer list for the TSan stage (default: thread)
#   DKF_ASAN=0      skip the address+UB sanitizer stage
#   DKF_COVERAGE=0  skip the coverage-gate stage
#   DKF_BENCH=0     skip the Release benchmark stage
#   DKF_E2E=0       skip the end-to-end benchmark test stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SANITIZE="${DKF_SANITIZE:-thread}"

echo "== docs: intra-repo links + architecture coverage =="
python3 scripts/check_docs.py

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${DKF_TSAN:-1}" == "0" ]]; then
  echo "== sanitizer stage skipped (DKF_TSAN=0) =="
else
  echo "== sanitizer (${SANITIZE}): runtime tests =="
  cmake -B "build-${SANITIZE//,/-}" -S . -DDKF_SANITIZE="$SANITIZE" >/dev/null
  # golden_trace_test drives the per-shard trace sinks through the
  # worker pool, so it races exactly the code the obs layer added;
  # serve_golden_test does the same for the per-shard subscription
  # engines (EndTick runs on shard workers, Drain on the driver);
  # the fleet tests run the batched SoA engine inside shard workers at
  # several shard counts (docs/fleet.md); the governor tests drive
  # epoch planning + batched reconfiguration from the tick driver while
  # shard workers run (docs/governor.md); the adaptive scenario battery
  # runs the noise servo inside shard workers at 1/2/4/8 shards
  # (docs/adaptive.md); the fusion chaos test ticks group-pinned
  # FusionEngines inside shard workers and diffs merged state across
  # shard counts (docs/fusion.md). StreamManager is a one-shard engine,
  # so its tests and the checkpoint harness (manager and engine restores
  # at several shard counts) drive the same pool.
  cmake --build "build-${SANITIZE//,/-}" -j "$JOBS" \
    --target worker_pool_test sharded_engine_test golden_trace_test \
             subscription_engine_test serve_golden_test \
             fleet_equivalence_test fleet_churn_test fleet_answer_test \
             fleet_kernel_test half_tick_test \
             governor_test governor_chaos_test adaptive_scenarios_test \
             fusion_chaos_test stream_manager_test checkpoint_chaos_test
  "./build-${SANITIZE//,/-}/tests/worker_pool_test"
  "./build-${SANITIZE//,/-}/tests/sharded_engine_test"
  "./build-${SANITIZE//,/-}/tests/golden_trace_test"
  "./build-${SANITIZE//,/-}/tests/subscription_engine_test"
  "./build-${SANITIZE//,/-}/tests/serve_golden_test"
  "./build-${SANITIZE//,/-}/tests/fleet_equivalence_test"
  "./build-${SANITIZE//,/-}/tests/fleet_churn_test"
  "./build-${SANITIZE//,/-}/tests/fleet_answer_test"
  # The lane kernels' differential test, and the cross-shard rejection
  # test: every shard resolves on the driver before the pool runs any.
  "./build-${SANITIZE//,/-}/tests/fleet_kernel_test"
  "./build-${SANITIZE//,/-}/tests/half_tick_test"
  "./build-${SANITIZE//,/-}/tests/governor_test"
  "./build-${SANITIZE//,/-}/tests/governor_chaos_test"
  "./build-${SANITIZE//,/-}/tests/adaptive_scenarios_test"
  "./build-${SANITIZE//,/-}/tests/fusion_chaos_test"
  "./build-${SANITIZE//,/-}/tests/stream_manager_test"
  "./build-${SANITIZE//,/-}/tests/checkpoint_chaos_test"
fi

if [[ "${DKF_ASAN:-1}" == "0" ]]; then
  echo "== asan/ubsan stage skipped (DKF_ASAN=0) =="
else
  echo "== asan+ubsan: fault-injection / protocol tests =="
  # The chaos harness drives the fault-injected channel, the resync
  # state machine, and the sharded runtime end to end — exactly the new
  # allocation patterns (in-flight queue, deferred ACKs, resync
  # snapshots) ASan+UBSan should chew on.
  cmake -B build-asan -S . -DDKF_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target chaos_test channel_test stream_manager_test source_server_test \
             metrics_registry_test trace_sink_test golden_trace_test \
             obs_property_test corruption_fuzz_test \
             subscription_engine_test serve_golden_test \
             fleet_equivalence_test fleet_churn_test fleet_answer_test \
             fleet_kernel_test half_tick_test \
             governor_test governor_chaos_test \
             adaptive_property_test adaptive_scenarios_test \
             fusion_engine_test fusion_chaos_test fusion_checkpoint_test \
             checkpoint_chaos_test snapshot_io_test snapshot_mutation_test
  ./build-asan/tests/chaos_test
  ./build-asan/tests/channel_test
  ./build-asan/tests/stream_manager_test
  ./build-asan/tests/source_server_test
  ./build-asan/tests/metrics_registry_test
  ./build-asan/tests/trace_sink_test
  ./build-asan/tests/golden_trace_test
  ./build-asan/tests/obs_property_test
  ./build-asan/tests/corruption_fuzz_test
  ./build-asan/tests/subscription_engine_test
  ./build-asan/tests/serve_golden_test
  # The batched fleet's SoA lanes, spill/absorb path, and resident
  # bookkeeping are exactly the new pointer/vector churn to chew on.
  ./build-asan/tests/fleet_equivalence_test
  ./build-asan/tests/fleet_churn_test
  ./build-asan/tests/fleet_answer_test
  # The dimension-templated lane kernels index fixed-size stack scratch
  # and the flat cold record; the rejected-tick test re-stages readings.
  ./build-asan/tests/fleet_kernel_test
  ./build-asan/tests/half_tick_test
  # The governor's per-epoch allocation scratch and the mid-stream
  # reconfigure spills are fresh allocation churn for ASan.
  ./build-asan/tests/governor_test
  ./build-asan/tests/governor_chaos_test
  # The noise servo's resync_adapt payload (export/import, corrupted
  # frames, holdover resets) is new parsing surface for ASan+UBSan.
  ./build-asan/tests/adaptive_property_test
  ./build-asan/tests/adaptive_scenarios_test
  # The fusion engine's per-group member maps, deferred-ACK queues, and
  # broadcast fan-out buffers are new allocation surface; the resync
  # path parses member-shipped frames it then deliberately discards.
  ./build-asan/tests/fusion_engine_test
  ./build-asan/tests/fusion_chaos_test
  ./build-asan/tests/fusion_checkpoint_test
  # Snapshot capture/restore through the one checkpoint path, including
  # the shared-RNG stream a StreamManager may keep.
  ./build-asan/tests/checkpoint_chaos_test
  # The snapshot decoder parses untrusted bytes: the golden layout, plus
  # every single-bit and whole-byte flip and every truncation of it.
  ./build-asan/tests/snapshot_io_test
  ./build-asan/tests/snapshot_mutation_test
fi

if [[ "${DKF_COVERAGE:-1}" == "0" ]]; then
  echo "== coverage stage skipped (DKF_COVERAGE=0) =="
else
  echo "== coverage: src/obs + src/dsms + src/serve + src/fleet + src/governor + src/filter + src/fusion line-coverage floors =="
  cmake -B build-coverage -S . -DDKF_COVERAGE=ON >/dev/null
  cmake --build build-coverage -j "$JOBS" \
    --target metrics_registry_test trace_sink_test golden_trace_test \
             obs_property_test corruption_fuzz_test chaos_test channel_test \
             stream_manager_test source_server_test simulation_test \
             confidence_test energy_model_test \
             subscription_engine_test serve_golden_test \
             fleet_equivalence_test fleet_churn_test fleet_answer_test \
             fleet_kernel_test half_tick_test \
             governor_test governor_chaos_test \
             kalman_filter_test fast_path_test extended_kalman_filter_test \
             steady_state_test recursive_least_squares_test \
             rts_smoother_test \
             unscented_kalman_filter_test \
             adaptive_property_test adaptive_scenarios_test \
             fusion_engine_test fusion_chaos_test fusion_checkpoint_test
  # Fresh counters each run: .gcda files accumulate across executions.
  find build-coverage -name '*.gcda' -delete
  for t in metrics_registry_test trace_sink_test golden_trace_test \
           obs_property_test corruption_fuzz_test chaos_test channel_test \
           stream_manager_test source_server_test simulation_test \
           confidence_test energy_model_test \
           subscription_engine_test serve_golden_test \
           fleet_equivalence_test fleet_churn_test fleet_answer_test \
           fleet_kernel_test half_tick_test \
           governor_test governor_chaos_test \
           kalman_filter_test fast_path_test extended_kalman_filter_test \
           steady_state_test recursive_least_squares_test \
           rts_smoother_test \
           unscented_kalman_filter_test \
           adaptive_property_test adaptive_scenarios_test \
           fusion_engine_test fusion_chaos_test fusion_checkpoint_test; do
    "./build-coverage/tests/$t" > /dev/null
  done
  python3 scripts/coverage_gate.py build-coverage --root=. \
    --gate=src/obs=0.90 --gate=src/dsms=0.80 --gate=src/serve=0.85 \
    --gate=src/fleet=0.85 --gate=src/governor=0.85 --gate=src/filter=0.90 \
    --gate=src/fusion=0.85
fi

if [[ "${DKF_BENCH:-1}" == "0" ]]; then
  echo "== benchmark stage skipped (DKF_BENCH=0) =="
else
  echo "== release bench: filter hot path + adaptive servo =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$JOBS" \
    --target bench_filter_hotpath bench_adaptive
  ./build-release/bench/bench_filter_hotpath > BENCH_filter_hotpath.json
  ./build-release/bench/bench_adaptive > BENCH_adaptive.json
  # Surface the numbers; compare against the committed snapshot with
  #   git stash -- BENCH_filter_hotpath.json  (or git show HEAD:...)
  #   scripts/bench_compare.py <old> BENCH_filter_hotpath.json
  cat BENCH_filter_hotpath.json
  cat BENCH_adaptive.json
fi

if [[ "${DKF_E2E:-1}" == "0" ]]; then
  echo "== e2ebench stage skipped (DKF_E2E=0) =="
else
  echo "== e2ebench: the end-to-end benchmark's own tests =="
  # Builds the benchmark (Release) into $CARGO_TARGET_DIR/e2ebench, or
  # .bench_build/e2ebench, and runs every workload at tiny size,
  # untraced and traced, plus a corrupted-answer run that must fail.
  python3 e2ebench/test_e2ebench.py
fi

echo "== all checks passed =="
