"""The Korch benchmark: one command per workload, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload once untraced and once with spans recorded
around the package's public entry points, and prints the per-layer metrics
of the traced round plus the tracing overhead (traced minus untraced, per
phase).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report with
host metadata, sample counts and per-model details is written to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_metadata() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
    }


def overhead(untraced: dict, traced: dict) -> dict:
    """Tracing overhead per phase: traced over untraced time, minus one."""
    out = {}
    for phase in ("cold", "execute", "warm"):
        base, with_spans = untraced.get(phase), traced.get(phase)
        value = 100.0 * (with_spans / base - 1.0) if base and with_spans else 0.0
        out[f"trace.overhead_{phase}_pct"] = (value, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import (
        WORKLOADS, end_to_end, per_layer, shares, structural_zeros, timing,
    )

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=outdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        setup_samples = workload.setup()
        details: dict = {}
        if args.trace:
            # Only the phase times of the untraced round are kept, so its
            # summaries and warm samples do not enlarge the traced round's heap.
            untraced = workload.measure(single_pass=True).seconds
            tracer = Tracer()
            with tracer:
                rnd = workload.measure(single_pass=True)
            metrics = per_layer(workload, rnd, tracer)
            metrics.update(overhead(untraced, rnd.seconds))
            counts = {"spans": len(tracer.spans)}
            details["structural_zeros"] = structural_zeros(workload)
        else:
            rnd = workload.measure()
            metrics, counts = end_to_end(workload, rnd, setup_samples)
            details["timings"] = {
                "setup_s": timing(setup_samples),
                "cold_optimize_s": timing([p.seconds for p in rnd.cold]),
                "warm_request_ms": timing([s * 1e3 for s in rnd.warm.latencies_s]),
                "warm_request_ms_by_model": {
                    name: timing([s * 1e3 for s in samples])
                    for name, samples in rnd.warm.by_model().items()
                },
            }
            if rnd.execute is not None:
                details["timings"]["execute_ms"] = {
                    name: timing([s * 1e3 for s in samples])
                    for name, samples in rnd.execute.run_s.items()
                }
                details["execute_ms"] = sum(
                    statistics.median(v) for v in rnd.execute.run_s.values() if v) * 1e3
        details["models"] = {
            name: {
                "plan_latency_ms": plan.latency_ms,
                "best_baseline_ms": workload.baseline_ms[name],
                "partitions": plan.partitions,
                "kernels": plan.kernels,
                "stage_seconds": plan.stage_seconds,
            }
            for name, plan in rnd.cold[-1].plans.items()
        }
        details["shares"] = shares(rnd)
        ledger = workload.ledger
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = {
            "workload": workload.name,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
            "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host_metadata(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "sample_counts": counts,
            "details": details,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failures": ledger.failures,
        }
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        (outdir / name).write_text(json.dumps(report, indent=2, default=str) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {key: unit for key, (_, unit) in metrics.items()}
    if emitted != declared:
        differing = sorted(set(emitted.items()) ^ set(declared.items()))
        print(f"error: metrics differ from BENCHMARK.json: {differing}", file=sys.stderr)
        return 1
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    for failure in ledger.failures:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
