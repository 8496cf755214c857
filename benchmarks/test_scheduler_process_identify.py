"""ProcessExecutor vs ThreadExecutor on an identify-heavy multi-model sweep.

Candidate enumeration (Algorithm 1's combinatorial half) is pure Python:
under a thread executor the GIL serializes it no matter how many workers the
engine holds, which is exactly the serial bottleneck the scheduler's process
executor exists to break.  This benchmark builds a sweep of branchy models
whose enumeration dominates end-to-end time (greedy solver, capped
candidates), runs the same sweep through both executors, verifies the
results are bit-identical, and records the wall-clock comparison.

On a multi-core host the process sweep must win outright; on a single-CPU
host no parallel speedup is physically possible, so the comparison is
recorded but the win is not asserted.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import KorchConfig, KorchEngine, KorchEngineConfig
from repro.ir import GraphBuilder
from repro.partition import PartitionConfig

#: Models in the sweep (each distinct in structure, so no partition reuses
#: another's plan and both executors do the full enumeration work).
NUM_MODELS = 3
CPUS = os.cpu_count() or 1
WORKERS = min(CPUS, NUM_MODELS)


def branchy_model(name: str, branches: int, depth: int):
    """Wide parallel elementwise branches: execution-state enumeration is
    exponential in the antichain width, making identify the dominant stage."""
    b = GraphBuilder(name)
    x = b.input("x", (8, 64))
    outs = []
    for _ in range(branches):
        y = x
        for j in range(depth):
            y = b.relu(b.add(y, x)) if j % 2 == 0 else b.sigmoid(y)
        outs.append(y)
    acc = outs[0]
    for y in outs[1:]:
        acc = b.add(acc, y)
    b.output(acc)
    return b.build()


def sweep_models():
    # Distinct (branches, depth) per model => distinct pg structures.
    shapes = [(4, 3), (4, 4), (3, 5)][:NUM_MODELS]
    return [
        branchy_model(f"sweep_{i}_b{br}d{d}", br, d)
        for i, (br, d) in enumerate(shapes)
    ]


def tiny_model(name: str):
    b = GraphBuilder(name)
    x = b.input("x", (4, 4))
    b.output(b.relu(x))
    return b.build()


def sweep_config(executor: str) -> KorchConfig:
    config = KorchConfig(
        gpu="V100",
        # One big partition per model keeps the branchy antichain intact.
        partition=PartitionConfig(max_operators=64, lookback_window=2, hard_limit=80),
        solver_method="greedy",
        num_workers=WORKERS,
        engine=KorchEngineConfig(executor=executor, process_workers=WORKERS),
    )
    config.identifier.max_states = 100_000
    config.identifier.max_candidates = 400
    return config


def strategy_fingerprint(result):
    return [
        [
            (sorted(k.node_names), list(k.external_inputs), list(k.outputs),
             k.latency_s, k.backend)
            for k in part.orchestration.strategy.kernels
        ]
        for part in result.partitions
    ]


def run_sweep(executor: str) -> tuple[float, list, float]:
    """Cold sweep wall-clock, fingerprints, and summed identify seconds."""
    with KorchEngine(sweep_config(executor)) as engine:
        # Pay worker spawn + first-import cost off the clock: a serving
        # engine is long-lived, and the benchmark measures steady state.
        engine.warm_up()
        engine.optimize(tiny_model(f"warm_{executor}"))
        started = time.perf_counter()
        results = engine.optimize_many(sweep_models())
        elapsed = time.perf_counter() - started
    fingerprints = [strategy_fingerprint(result) for result in results]
    identify_s = sum(result.stage_seconds.get("identify", 0.0) for result in results)
    return elapsed, fingerprints, identify_s


def test_process_executor_beats_thread_on_identify_heavy_sweep():
    thread_s, thread_fp, thread_identify_s = run_sweep("thread")
    process_s, process_fp, process_identify_s = run_sweep("process")

    # Results must be bit-identical: the executor changes wall-clock, never
    # the solved strategies.
    assert process_fp == thread_fp

    speedup = thread_s / process_s if process_s > 0 else float("inf")
    record = (
        f"identify-heavy sweep ({NUM_MODELS} models, {WORKERS} workers, {CPUS} CPUs): "
        f"thread={thread_s:.2f}s (identify {thread_identify_s:.2f}s) "
        f"process={process_s:.2f}s (identify {process_identify_s:.2f}s) "
        f"speedup={speedup:.2f}x"
    )
    print(f"\n{record}")

    # The sweep must actually be identify-bound, or the comparison says
    # nothing about the process executor.
    assert thread_identify_s > 0.5 * thread_s, record

    if CPUS < 2:
        pytest.skip(f"single-CPU host, parallel win impossible — {record}")
    assert process_s < thread_s, f"ProcessExecutor failed to win: {record}"


# --------------------------------------------------------------- snapshots
def snapshot_config(executor: str, cache_dir, snapshot_entries: int) -> KorchConfig:
    """Sweep config wired to a persistent profile store, plan cache off.

    The plan cache would let a warm engine replay whole partitions and skip
    the very stages under test; disabling it makes every run below a *cold*
    run whose only warmth is the profile store (and, in process mode, the
    snapshot of it shipped into the workers at ``warm_up``).
    """
    config = sweep_config(executor)
    config.cache_dir = str(cache_dir)
    config.enable_plan_cache = False
    config.engine.worker_snapshot_entries = snapshot_entries
    return config


def test_warm_snapshot_process_run_is_identical_and_faster(tmp_path):
    """Worker profile snapshots: bit-identical to serial, and on multi-core
    hosts a snapshot-warmed cold run beats the snapshot-less baseline.

    A serial run populates the persistent profile store; two process-mode
    engines then run the same sweep cold, one broadcasting the store
    snapshot into its workers at ``warm_up`` and one with snapshots
    disabled (the pre-snapshot baseline).  Snapshot hits answer worker-side
    profile reads locally instead of re-estimating, and produce no writes —
    which is why the parent's results cannot change.
    """
    with KorchEngine(snapshot_config("serial", tmp_path, 0)) as engine:
        serial_fp = [
            strategy_fingerprint(r) for r in engine.optimize_many(sweep_models())
        ]

    timings: dict[str, float] = {}
    fingerprints: dict[str, list] = {}
    for label, entries in (("snapshot", 4096), ("baseline", 0)):
        with KorchEngine(snapshot_config("process", tmp_path, entries)) as engine:
            engine.warm_up()  # broadcasts the snapshot (when enabled)
            engine.optimize(tiny_model(f"warm_snap_{label}"))
            started = time.perf_counter()
            results = engine.optimize_many(sweep_models())
            timings[label] = time.perf_counter() - started
        fingerprints[label] = [strategy_fingerprint(r) for r in results]

    assert fingerprints["snapshot"] == serial_fp
    assert fingerprints["baseline"] == serial_fp

    record = (
        f"warm-snapshot cold sweep ({NUM_MODELS} models, {WORKERS} workers, "
        f"{CPUS} CPUs): snapshot={timings['snapshot']:.2f}s "
        f"baseline={timings['baseline']:.2f}s"
    )
    print(f"\n{record}")
    if CPUS < 2:
        pytest.skip(f"single-CPU host, timing recorded not gated — {record}")
    assert timings["snapshot"] < timings["baseline"], record
