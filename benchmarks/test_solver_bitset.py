"""Bitset solver core vs the dict-of-sets reference: identity and raw speed.

The bitset core (``repro.solver.bitset``) and the bitset-native enumeration
(``repro.orchestration.bitgraph``) are pure speed work: same algorithms, same
scan orders, same tie-breaks, packed into machine integers.  This benchmark
holds them to that claim on the real workload:

* **Bit-identity** — on every zoo model of the Figure 6 sweep and on the four
  case-study blocks, the bitset enumeration must emit the same candidate
  specs in the same order as the reference, and greedy/branch-and-bound must
  return the same status, selection vector, and objective (exact ``==``, not
  approximate).
* **Speed** — across the fig6 sweep the bitset identify+solve phase must be
  at least 2x faster than the reference.  Profiling is excluded from the
  timed phase: it is shared by both cores (same cache, same backends) and
  unchanged by this optimisation.  The win is asserted on multi-core hosts
  and skipped on single-CPU runners, where shared-host noise drowns
  single-thread timing; numbers land in ``BENCH_solver.json`` only once the
  gate has passed, so a skipped gate leaves the recorded file as it is.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.fission import FissionEngine
from repro.gpu import get_gpu
from repro.models import (
    build_candy_block,
    build_efficientvit_attention_block,
    build_model,
    build_segformer_attention_block,
    build_segformer_decoder_subgraph,
)
from repro.orchestration import (
    KernelIdentifier,
    KernelIdentifierReport,
    build_orchestration_blp,
)
from repro.orchestration.identifier import (
    enumerate_candidate_specs,
    enumerate_candidate_specs_reference,
    spec_key,
)
from repro.partition import GraphPartitioner
from repro.solver import SolverConfig, solve_blp

from .conftest import MODELS, benchmark_config, case_study_config

BITSET = SolverConfig(core="bitset")
REFERENCE = SolverConfig(core="reference")
CPUS = os.cpu_count() or 1

#: Where the speedup sweep records its numbers (repo root).
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_solver.json"

CASE_STUDIES = {
    "candy_block": build_candy_block,
    "efficientvit_attention": build_efficientvit_attention_block,
    "segformer_attention": build_segformer_attention_block,
    "segformer_decoder": build_segformer_decoder_subgraph,
}

#: Branch and bound explores an exponential tree; compare it only on
#: partitions whose BLP stays small enough to finish in benchmark time.
#: All four case-study blocks fit (largest: segformer_decoder, 536 vars,
#: ~7s per core on a shared 1-CPU runner); the cap is a safety valve.
BNB_MAX_VARIABLES = 600


def partition_pgs(graph, config):
    """The per-partition primitive graphs the engine would optimize."""
    fission = FissionEngine()
    return [
        fission.run(part.graph)[0]
        for part in GraphPartitioner(config.partition).partition(graph)
    ]


def solve_result_key(result):
    return (result.status, tuple(result.values), result.objective)


def check_partition(pg, config, identifier, timings=None):
    """Enumerate both ways, profile once, solve greedy with both cores.

    Asserts bit-identity at every step; when ``timings`` is given, the
    reference and bitset identify+solve wall-clocks are accumulated into it.
    Returns the profiled candidates for optional further comparison.
    """
    started = time.perf_counter()
    fast_report = KernelIdentifierReport()
    fast_specs = enumerate_candidate_specs(pg, config.identifier, fast_report)
    fast_enum_s = time.perf_counter() - started

    started = time.perf_counter()
    slow_report = KernelIdentifierReport()
    slow_specs = enumerate_candidate_specs_reference(pg, config.identifier, slow_report)
    slow_enum_s = time.perf_counter() - started

    assert [spec_key(s) for s in fast_specs] == [spec_key(s) for s in slow_specs]
    assert [s.outputs for s in fast_specs] == [s.outputs for s in slow_specs]
    assert fast_report.num_execution_states == slow_report.num_execution_states
    assert fast_report.num_convex_sets == slow_report.num_convex_sets

    # Price once — profiling is shared by both cores and out of scope here.
    candidates = identifier.profile_specs(pg, fast_specs, fast_report)
    if not candidates:
        return []
    blp = build_orchestration_blp(pg, candidates)

    started = time.perf_counter()
    fast = solve_blp(blp.problem, method="greedy", config=BITSET)
    fast_solve_s = time.perf_counter() - started

    started = time.perf_counter()
    slow = solve_blp(blp.problem, method="greedy", config=REFERENCE)
    slow_solve_s = time.perf_counter() - started

    assert solve_result_key(fast) == solve_result_key(slow)

    if timings is not None:
        timings["bitset_s"] += fast_enum_s + fast_solve_s
        timings["reference_s"] += slow_enum_s + slow_solve_s
    return candidates


@pytest.mark.parametrize("model", MODELS)
def test_zoo_model_bit_identity(model, sweep_timings):
    """Figure 6 sweep models: enumeration + greedy solve, both cores."""
    config = benchmark_config("V100")
    identifier = KernelIdentifier(get_gpu("V100"), config=config.identifier)
    timings = sweep_timings.setdefault(
        model, {"bitset_s": 0.0, "reference_s": 0.0}
    )
    for pg in partition_pgs(build_model(model), config):
        check_partition(pg, config, identifier, timings)
    assert timings["bitset_s"] > 0 and timings["reference_s"] > 0


@pytest.mark.parametrize("block", sorted(CASE_STUDIES))
def test_case_study_block_bit_identity(block):
    """Case-study blocks (§7): enumeration, greedy, and B&B where tractable."""
    config = case_study_config("V100")
    identifier = KernelIdentifier(get_gpu("V100"), config=config.identifier)
    compared_bnb = 0
    for pg in partition_pgs(CASE_STUDIES[block](), config):
        candidates = check_partition(pg, config, identifier)
        if not candidates or len(candidates) > BNB_MAX_VARIABLES:
            continue
        blp = build_orchestration_blp(pg, candidates)
        fast = solve_blp(blp.problem, method="branch-and-bound", config=BITSET)
        slow = solve_blp(blp.problem, method="branch-and-bound", config=REFERENCE)
        assert solve_result_key(fast) == solve_result_key(slow)
        compared_bnb += 1
    assert compared_bnb > 0, f"no tractable B&B partition in {block}"


@pytest.fixture(scope="module")
def sweep_timings():
    """Per-model identify+solve wall-clocks, filled by the zoo tests."""
    return {}


def test_bitset_speedup_on_fig6_identify_solve(sweep_timings):
    """Sweep-wide ≥2x: asserted and recorded multi-core, skipped single-CPU."""
    missing = [m for m in MODELS if m not in sweep_timings]
    assert not missing, f"zoo bit-identity tests did not run for {missing}"

    reference_s = sum(t["reference_s"] for t in sweep_timings.values())
    bitset_s = sum(t["bitset_s"] for t in sweep_timings.values())
    speedup = reference_s / bitset_s if bitset_s > 0 else float("inf")

    record = {
        "phase": "identify+solve (enumeration + greedy; profiling excluded)",
        "sweep": "fig6 zoo models, benchmark_config(V100)",
        "cpus": CPUS,
        "reference_s": round(reference_s, 4),
        "bitset_s": round(bitset_s, 4),
        "speedup": round(speedup, 2),
        "per_model": {
            model: {
                "reference_s": round(t["reference_s"], 4),
                "bitset_s": round(t["bitset_s"], 4),
                "speedup": round(t["reference_s"] / t["bitset_s"], 2)
                if t["bitset_s"] > 0
                else None,
            }
            for model, t in sweep_timings.items()
        },
    }
    summary = (
        f"fig6 identify+solve: reference={reference_s:.3f}s "
        f"bitset={bitset_s:.3f}s speedup={speedup:.2f}x ({CPUS} CPUs)"
    )
    print(f"\n{summary}")

    if CPUS < 2:
        pytest.skip(f"single-CPU host, timing not gated or recorded — {summary}")
    assert speedup >= 2.0, summary
    BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
