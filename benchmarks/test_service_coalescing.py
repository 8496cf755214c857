"""Service-tier coalescing: near-1/k work on duplicate-heavy traffic.

The serving claim of the coalescing layer, held to numbers: N distinct
models, each submitted k times (duplication factor k), must cost the
engine close to N optimizations — not N×k — while every one of the N×k
futures resolves to a result bit-identical to uncoalesced serial
submission of the same workload.

Both arms run with the plan cache disabled: with it on, the uncoalesced
arm would answer repeats from the memory tier and the comparison would
measure the cache, not the coalescer.  "Work" is the summed wall-clock of
``engine.optimize`` calls (counted by a proxy), which is what coalescing
actually removes; the ratio is asserted ``< 2/k`` on multi-core hosts and
skipped on single-CPU runners.  Numbers land in ``BENCH_service.json``
only once every assertion has passed; a skipped timing gate leaves the
recorded file as it is.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import KorchConfig, KorchService
from repro.ir import GraphBuilder

CPUS = os.cpu_count() or 1

#: Where the coalescing benchmark records its numbers (repo root).
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Distinct models per workload and the duplication factor.
UNIQUE_MODELS = 3
DUPLICATION = 4


def _model(name: str, heads: int):
    b = GraphBuilder(name)
    x = b.input("x", (1, heads, 32, 16))
    w = b.param("w", (1, heads, 16, 32))
    v = b.param("v", (1, heads, 32, 16))
    b.output(b.matmul(b.softmax(b.matmul(x, w), axis=-1), v))
    return b.build()


def workload():
    """N unique graphs × k duplicates, interleaved like real traffic."""
    uniques = [_model(f"svc_{i}", heads=2 + i) for i in range(UNIQUE_MODELS)]
    return [uniques[i % UNIQUE_MODELS] for i in range(UNIQUE_MODELS * DUPLICATION)]


class _CountingEngineProxy:
    """Counts and times ``optimize`` calls; everything else passes through
    (``request_key`` included, so coalescing uses the canonical keys)."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0
        self.work_s = 0.0

    def optimize(self, graph):
        self.calls += 1
        started = time.perf_counter()
        try:
            return self._engine.optimize(graph)
        finally:
            self.work_s += time.perf_counter() - started

    def __getattr__(self, name):
        return getattr(self._engine, name)


def strategy_fingerprint(result):
    return [
        [
            (sorted(k.node_names), list(k.external_inputs), list(k.outputs),
             k.latency_s, k.backend)
            for k in part.orchestration.strategy.kernels
        ]
        for part in result.partitions
    ]


def _run_arm(coalesce: bool) -> tuple[_CountingEngineProxy, list]:
    """One arm of the comparison: a fresh engine behind a service."""
    from repro.engine import KorchEngine

    config = KorchConfig(gpu="V100", enable_plan_cache=False)
    engine = KorchEngine(config)
    proxy = _CountingEngineProxy(engine)
    service = KorchService(engine=proxy, workers=2, coalesce=coalesce)
    try:
        if coalesce:
            # One duplicate-heavy batch: intra-batch pre-grouping plus
            # in-flight coalescing do the sharing.
            requests = service.submit_many(workload())
        else:
            # Uncoalesced serial reference: every submission is real work.
            # (submit one by one and wait — submit_many always pre-groups.)
            requests = []
            for graph in workload():
                request = service.submit(graph)
                request.result(timeout=600)
                requests.append(request)
        fingerprints = [
            strategy_fingerprint(request.result(timeout=600)) for request in requests
        ]
        assert service.drain(timeout=60)
    finally:
        service.close()
        engine.close()
    return proxy, fingerprints


def test_duplicate_heavy_workload_does_near_one_over_k_work():
    total = UNIQUE_MODELS * DUPLICATION
    uncoalesced, serial_fingerprints = _run_arm(coalesce=False)
    coalesced, coalesced_fingerprints = _run_arm(coalesce=True)

    # Bit-identity is unconditional: every coalesced future must resolve to
    # exactly what uncoalesced serial submission would have produced.
    assert coalesced_fingerprints == serial_fingerprints
    assert uncoalesced.calls == total

    # The call count is deterministic: one optimization per unique model.
    assert coalesced.calls == UNIQUE_MODELS

    work_ratio = coalesced.work_s / uncoalesced.work_s if uncoalesced.work_s else 0.0
    bound = 2.0 / DUPLICATION
    record = {
        "workload": (
            f"{UNIQUE_MODELS} unique attention models x {DUPLICATION} duplicates "
            f"({total} requests), plan cache disabled, 2 service workers"
        ),
        "duplication_factor": DUPLICATION,
        "cpus": CPUS,
        "uncoalesced": {
            "optimize_calls": uncoalesced.calls,
            "work_s": round(uncoalesced.work_s, 4),
        },
        "coalesced": {
            "optimize_calls": coalesced.calls,
            "work_s": round(coalesced.work_s, 4),
        },
        "call_ratio": round(coalesced.calls / total, 4),
        "work_ratio": round(work_ratio, 4),
        "bound_2_over_k": round(bound, 4),
        "bit_identical": True,
    }
    summary = (
        f"coalesced {coalesced.calls}/{total} optimizations, "
        f"work ratio {work_ratio:.3f} (bound {bound:.3f})"
    )
    print(f"\n{summary}")
    if CPUS < 2:
        pytest.skip(f"single-CPU host, timing not gated or recorded — {summary}")
    assert work_ratio < bound, summary
    BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
