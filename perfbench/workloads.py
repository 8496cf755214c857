"""The benchmark's workloads and the phases they are built from.

Every workload runs the same three phases over its own model set, so every
end-to-end metric exists on every workload; what differs is which phase
dominates and which layers do the work:

``cold``     a fresh ``KorchEngine`` with an empty cache directory optimizes
             each model once (fission, identify, profile, solve, cache
             writes); every plan is checked with ``verify_result``.
``execute``  assembled plans run through ``PlanExecutor`` (numpy library) and
             are verified against ``ReferenceExecutor`` (case blocks only;
             the full models take minutes per run).
``warm``     the cache store is closed and the cold results are dropped, as
             a restarted server would have them, and a
             ``KorchService(workers=2)`` serves a closed loop of two client
             threads, each submitting a seeded draw from the model set and
             waiting for its result.  Every result must equal the cold plan
             bit for bit.

Each failed operation is counted in the run's ledger instead of aborting.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.verify import verify_result
from repro.baselines import baseline_suite
from repro.diagnostics import errors
from repro.engine import KorchConfig, KorchEngine, KorchService, registry
from repro.fission import FissionEngine
from repro.gpu import get_gpu
from repro.models import (
    build_candy_block,
    build_efficientvit_attention_block,
    build_model,
    build_segformer_attention_block,
    build_segformer_decoder_subgraph,
)
from repro.orchestration import KernelIdentifierConfig
from repro.partition import PartitionConfig
from repro.runtime.executor import PlanExecutor

from tracing import Tracer, self_times

#: Equivalence tolerance of executed plans against the reference executor.
TOLERANCE = 1e-4
#: The warm-request tail is reported at a fixed percentile, so that a
#: faster commit (more requests in the same time) reports the same statistic.
TAIL_PERCENTILE = 95
#: Rounds of ``PlanExecutor.run`` per block.  Bounded on purpose: the
#: decoder leaks about 270 MB per run (see README.md) and the host's memory
#: is shared.
EXECUTE_ROUNDS = 3
#: One set-up takes ~0.2 s, short enough for the host's speed to swing
#: its time by a third; the median of many is steadier.
SETUP_REPEATS = 21
CLIENTS = 2
SERVICE_WORKERS = 2
STAGES = ("fission", "graph_opt", "identify", "profile", "solve", "assemble")


def benchmark_config(cache_dir: str) -> KorchConfig:
    """End-to-end sweep settings of the Figure 6 models (V100)."""
    return KorchConfig(
        gpu="V100",
        enable_graph_optimizer=False,
        partition=PartitionConfig(max_operators=10, hard_limit=14),
        identifier=KernelIdentifierConfig(max_kernel_size=8),
        solver_time_limit_s=2.0,
        solver_mip_rel_gap=0.10,
        cache_dir=cache_dir,
    )


def case_study_config(cache_dir: str) -> KorchConfig:
    """Case-study settings: graph optimizer on, no MILP time limit (V100)."""
    return KorchConfig(
        gpu="V100",
        partition=PartitionConfig(max_operators=24, hard_limit=28),
        identifier=KernelIdentifierConfig(max_kernel_size=20),
        cache_dir=cache_dir,
    )


CASE_BLOCKS = {
    "candy_block": build_candy_block,
    "efficientvit_attention_block": build_efficientvit_attention_block,
    "segformer_attention_block": build_segformer_attention_block,
    "segformer_decoder_subgraph": build_segformer_decoder_subgraph,
}


# ---------------------------------------------------------------- helpers
def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timing(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None}
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        out["p"] = q
        out["p_value"] = percentile(samples, q)
    return out


def plan_fingerprint(result) -> tuple:
    """Everything a served plan must repeat: kernels per partition and latency."""
    return (
        tuple(
            tuple(
                (tuple(sorted(k.node_names)), tuple(k.outputs))
                for k in part.orchestration.strategy.kernels
            )
            for part in result.partitions
        ),
        result.latency_ms,
    )


def partition_key(graph) -> tuple:
    """Name-free identity of a partition: tensors renamed by first use."""
    ids: dict[str, int] = {}

    def tid(name: str) -> tuple:
        if name not in ids:
            ids[name] = len(ids)
        ttype = graph.tensor_type(name)
        return (ids[name], ttype.shape, ttype.dtype.value)

    return tuple(
        (
            node.op_type,
            repr(sorted(node.attrs.items())),
            tuple(tid(t) for t in node.inputs),
            tuple(tid(t) for t in node.outputs),
        )
        for node in graph.topological_order()
    )


@dataclass
class Ledger:
    """Attempted and failed operations of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, what: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)


# ----------------------------------------------------------------- phases
@dataclass
class PlanSummary:
    """What the later steps need from one ``KorchResult``.

    Summaries let a cold pass drop its results, so the warm loop runs
    against the service's own heap only, as a restarted server would.
    """

    latency_ms: float
    fingerprint: tuple
    partitions: int
    kernels: int
    stage_seconds: dict
    candidates: int
    profile_requests: int
    profile_hits: int
    backend_estimate_calls: int
    #: Partitions solved (not replayed, not empty) and those whose shipped
    #: plan is the MILP's rather than the segment-cover DP's.
    milp_solves: int
    milp_kept: int
    partition_keys: list
    #: (id(partition), stage) -> ``PartitionResult.timings`` seconds.
    timings: dict


def summarize(result) -> PlanSummary:
    profiler = result.cache.profiler
    solved = [
        part for part in result.partitions
        if not part.replayed and part.orchestration.strategy.pg.nodes
    ]
    return PlanSummary(
        latency_ms=result.latency_ms,
        fingerprint=plan_fingerprint(result),
        partitions=len(result.partitions),
        kernels=result.num_kernels,
        stage_seconds=result.stage_seconds,
        candidates=result.num_candidate_kernels,
        profile_requests=profiler.requests,
        profile_hits=profiler.memory_hits + profiler.persistent_hits,
        backend_estimate_calls=profiler.backend_estimate_calls,
        milp_solves=len(solved),
        milp_kept=sum(
            not part.orchestration.strategy.metadata.get("segment_cover") for part in solved
        ),
        partition_keys=[partition_key(part.partition.graph) for part in result.partitions],
        timings={
            (id(part.partition), stage): part.timings.get(stage, 0.0)
            for part in result.partitions
            for stage in STAGES
        },
    )


@dataclass
class ColdPass:
    started: float  # perf_counter readings bounding the optimize calls
    ended: float
    cache_dir: str
    engine_stats: dict
    store_stats: dict
    plans: dict  # model -> PlanSummary

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def cold_pass(models: dict, order: list[str], make_config, workdir: str, ledger: Ledger):
    """Optimize every model once on a fresh engine with an empty cache.

    Returns the pass and its results; callers keep the results only as long
    as they need them.
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    engine = KorchEngine(make_config(cache_dir))
    results = {}
    started = time.perf_counter()
    try:
        for name in order:
            try:
                results[name] = engine.optimize(models[name])
                ledger.record(True, "optimize")
            except Exception as exc:  # counted, the run goes on
                ledger.record(False, f"optimize {name}: {exc!r}")
    finally:
        ended = time.perf_counter()
        store_stats = engine.store.stats.as_dict() if engine.store is not None else {}
        engine.close()
        registry.close_store(cache_dir)
    for name, result in results.items():
        found = errors(verify_result(result))
        ledger.record(not found, f"verify_result {name}: {found[:1]}")
    plans = {name: summarize(result) for name, result in results.items()}
    return (
        ColdPass(started, ended, cache_dir, engine.stats.as_dict(), store_stats, plans),
        results,
    )


@dataclass
class WarmPhase:
    #: (model, latency seconds, ServiceStats) of every completed request.
    samples: list[tuple]
    seconds: float
    engine_stats: dict
    store_stats: dict
    #: perf_counter reading when the loop began.
    started: float

    @property
    def latencies_s(self) -> list[float]:
        return [latency for _, latency, _ in self.samples]

    @property
    def stats(self) -> list:
        return [stats for _, _, stats in self.samples]

    def by_model(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, latency, _ in self.samples:
            out.setdefault(name, []).append(latency)
        return out

    @property
    def throughput_rps(self) -> float:
        return len(self.samples) / self.seconds


def warm_phase(
    models: dict,
    expected: dict,
    make_config,
    cache_dir: str,
    rng: random.Random,
    ledger: Ledger,
    seconds: float,
):
    """Closed loop of ``CLIENTS`` threads against a restarted service.

    ``expected`` maps each model to the fingerprint of its cold plan.  Each
    client draws models from a seeded shuffle of rounds that hold every
    model once, so the model mix (which sets the median when models differ
    in cost) is the same for every seed; the seed fixes the order.
    """
    registry.close_store(cache_dir)
    names = sorted(models)
    client_seeds = [rng.getrandbits(64) for _ in range(CLIENTS)]
    lock = threading.Lock()
    samples: list[tuple] = []
    service = KorchService(config=make_config(cache_dir), workers=SERVICE_WORKERS)
    started = time.perf_counter()
    deadline = started + seconds

    def client(seed: int) -> None:
        draws = random.Random(seed)
        queue: list[str] = []
        while time.perf_counter() < deadline:
            if not queue:
                queue = draws.sample(names, k=len(names))
            name = queue.pop()
            sent = time.perf_counter()
            try:
                request = service.submit(models[name])
                result = request.result(timeout=120)
            except Exception as exc:  # failed, rejected or cancelled
                ledger.record(False, f"warm {name}: {exc!r}")
                continue
            elapsed = time.perf_counter() - sent
            identical = plan_fingerprint(result) == expected.get(name)
            ledger.record(identical, f"warm {name}: plan differs from its cold plan")
            with lock:
                samples.append((name, elapsed, request.stats))

    threads = [threading.Thread(target=client, args=(s,)) for s in client_seeds]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        engine = service.engine
        service.close()
        store_stats = engine.store.stats.as_dict() if engine.store is not None else {}
        registry.close_store(cache_dir)
    if not samples:
        ledger.record(False, "warm: no request completed")
    return WarmPhase(samples, elapsed, engine.stats.as_dict(), store_stats, started)


@dataclass
class ExecutePhase:
    run_s: dict  # block -> wall seconds of each PlanExecutor.run
    kernels: dict
    peak_live_bytes: int
    rss_growth_mb_per_run: float


def execute_phase(results: dict, feeds: dict, order: list[str], ledger: Ledger):
    """``EXECUTE_ROUNDS`` runs of every plan, then one verification each."""
    run_s = {name: [] for name in order}
    kernels: dict = {}
    peak = 0
    executors = {
        name: PlanExecutor(results[name], library="numpy") for name in order if name in results
    }
    before = rss_mb()
    runs = 0
    for _ in range(EXECUTE_ROUNDS):
        for name, executor in executors.items():
            started = time.perf_counter()
            try:
                report = executor.run(feeds[name])
            except Exception as exc:
                ledger.record(False, f"execute {name}: {exc!r}")
                continue
            run_s[name].append(time.perf_counter() - started)
            runs += 1
            ledger.record(True, "execute")
            kernels[name] = report.num_kernels
            peak = max(peak, report.peak_live_bytes)
    growth = (rss_mb() - before) / runs if runs else 0.0
    for name, executor in executors.items():
        try:
            verdict = executor.verify(feeds[name], tolerance=TOLERANCE)
            ok, detail = verdict.equivalent, f"max abs error {verdict.max_abs_error:.3e}"
        except Exception as exc:
            ok, detail = False, repr(exc)
        ledger.record(ok, f"verify execution {name}: {detail}")
    return ExecutePhase(run_s, kernels, peak, growth)


def baseline_best_ms(graph, spec) -> float:
    """Best of the PyTorch, TVM and TensorRT fusion baselines (Figure 6)."""
    pg, _ = FissionEngine().run(graph)
    return min(baseline.run(graph, pg).total_latency_ms for baseline in baseline_suite(spec))


def seeded_feeds(graph, rng: np.random.Generator) -> dict:
    feeds = {}
    for name in graph.inputs:
        ttype = graph.tensor_type(name)
        data = rng.standard_normal(ttype.shape) * 0.1
        feeds[name] = data.astype(ttype.dtype.to_numpy())
    return feeds


# -------------------------------------------------------------- workloads
@dataclass
class Round:
    """The phases one measurement produced."""

    cold: list[ColdPass] = field(default_factory=list)
    warm: WarmPhase | None = None
    execute: ExecutePhase | None = None
    seconds: dict = field(default_factory=dict)  # phase -> wall seconds


class Workload:
    """One model set with its configuration and phase mix."""

    name = ""
    model_names: tuple[str, ...] = ()
    make_config = staticmethod(benchmark_config)
    executes = False

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ledger = Ledger()
        self.models: dict = {}
        self.order: list[str] = []
        self.baseline_ms: dict[str, float] = {}
        self.feeds: dict = {}

    def build(self) -> dict:
        return {name: build_model(name) for name in self.model_names}

    # ------------------------------------------------------------- set-up
    def setup_once(self) -> None:
        self.models = self.build()
        spec = get_gpu("V100")
        self.baseline_ms = {
            name: baseline_best_ms(graph, spec) for name, graph in self.models.items()
        }
        feed_rng = np.random.default_rng(self.seed)
        if self.executes:
            self.feeds = {
                name: seeded_feeds(self.models[name], feed_rng) for name in sorted(self.models)
            }

    def setup(self) -> list[float]:
        """Set up ``SETUP_REPEATS`` times; ``setup_s`` is the median."""
        self.order = self.rng.sample(sorted(self.model_names), k=len(self.model_names))
        samples = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.setup_once()
            samples.append(time.perf_counter() - started)
        return samples

    # ------------------------------------------------------------ measure
    def measure(self, single_pass: bool = False) -> Round:
        """Run the workload's phases once.

        Cold passes repeat while another pass, as long as the last one,
        still fits in ``seconds`` (one pass when ``single_pass``), so a run's
        length stays bounded when passes get faster; the warm closed loop
        lasts ``seconds``.  Only the newest pass's results are kept, and none
        once the warm loop starts.
        """
        out = Round()
        started = time.perf_counter()
        while True:
            results = None  # free the previous pass's results first
            cold, results = cold_pass(
                self.models, self.order, self.make_config, self.workdir, self.ledger
            )
            out.cold.append(cold)
            elapsed = time.perf_counter() - started
            if single_pass or elapsed + cold.seconds > self.seconds:
                break
        out.seconds["cold"] = statistics.median(p.seconds for p in out.cold)
        if self.executes:
            out.execute = execute_phase(results, self.feeds, self.order, self.ledger)
            out.seconds["execute"] = sum(
                statistics.median(v) for v in out.execute.run_s.values() if v
            )
        del results
        last = out.cold[-1]
        out.warm = warm_phase(
            self.models,
            {name: plan.fingerprint for name, plan in last.plans.items()},
            self.make_config, last.cache_dir, self.rng, self.ledger, self.seconds,
        )
        out.seconds["warm"] = 1.0 / out.warm.throughput_rps if out.warm.latencies_s else 0.0
        return out


class ZooCold(Workload):
    name = "zoo-cold"
    model_names = ("candy", "segformer")


class CaseBlocks(Workload):
    name = "case-blocks"
    model_names = tuple(CASE_BLOCKS)
    make_config = staticmethod(case_study_config)
    executes = True

    def build(self) -> dict:
        return {name: builder() for name, builder in CASE_BLOCKS.items()}


WORKLOADS = {cls.name: cls for cls in (ZooCold, CaseBlocks)}


# ---------------------------------------------------------------- metrics
def end_to_end(workload: Workload, rnd: Round, setup_samples: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics (name -> (value, unit)) and their sample counts."""
    cold_s = [p.seconds for p in rnd.cold]
    plans = rnd.cold[-1].plans
    latency = sum(plan.latency_ms for plan in plans.values())
    ratios = [workload.baseline_ms[name] / plan.latency_ms for name, plan in plans.items()]
    speedup = math.exp(sum(math.log(x) for x in ratios) / len(ratios)) if ratios else 0.0
    warm_ms = [s * 1e3 for s in rnd.warm.latencies_s]
    # Models differ several-fold in request cost, so the pooled median sits
    # between two clusters and jumps with the mix; each model's median,
    # averaged over the models, does not.
    per_model_p50 = [statistics.median(v) * 1e3 for v in rnd.warm.by_model().values()]
    ledger = workload.ledger
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cold_optimize_s": (statistics.median(cold_s), "s"),
        "plan_latency_ms": (latency, "model_ms"),
        "speedup_vs_best_baseline": (speedup, "x"),
        "warm_request_p50_ms": (statistics.fmean(per_model_p50) if per_model_p50 else 0.0, "ms"),
        "warm_request_p95_ms": (
            percentile(warm_ms, TAIL_PERCENTILE) if len(warm_ms) > 1 else 0.0, "ms"),
        "warm_throughput_rps": (rnd.warm.throughput_rps, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": (1.0 - ledger.failed / max(1, ledger.attempted), "ratio"),
    }
    counts = {
        "setup_s": len(setup_samples),
        "cold_optimize_s": len(cold_s),
        "plan_latency_ms": len(plans),
        "speedup_vs_best_baseline": len(ratios),
        "warm_request_p50_ms": len(warm_ms),
        "warm_request_p95_ms": len(warm_ms),
        "warm_throughput_rps": len(warm_ms),
        "peak_rss_mb": 1,
        "success_rate": ledger.attempted,
    }
    return metrics, counts


def shares(rnd: Round) -> dict:
    """The input properties each workload's rationale rests on."""
    solve = sum(
        plan.stage_seconds.get("solve", 0.0) for p in rnd.cold for plan in p.plans.values()
    )
    cold = sum(p.seconds for p in rnd.cold)
    keys = [key for plan in rnd.cold[-1].plans.values() for key in plan.partition_keys]
    stats = rnd.warm.stats
    hits = sum(1 for s in stats if s.plan_cache in ("memory-hit", "disk-hit"))
    return {
        "share.solve_of_cold": solve / cold if cold else 0.0,
        "share.repeated_partitions": 1 - len(set(keys)) / len(keys) if keys else 0.0,
        "share.warm_plan_cache_hits": hits / len(stats) if stats else 0.0,
        "share.coalesced": sum(1 for s in stats if s.coalesced) / len(stats) if stats else 0.0,
    }


def per_layer(workload: Workload, rnd: Round, tracer: Tracer) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced round."""
    spans = list(tracer.spans)
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name: str) -> float:
        return sum(own[span.id] for span in by_name.get(name, []))

    plans = [plan for p in rnd.cold for plan in p.plans.values()]
    requests = sum(plan.profile_requests for plan in plans)
    solves = by_name.get("solver.solve_blp", [])
    milp_solves = sum(plan.milp_solves for plan in plans)
    engines = [p.engine_stats for p in rnd.cold] + [rnd.warm.engine_stats]
    stores = [p.store_stats for p in rnd.cold] + [rnd.warm.store_stats]
    hits = sum(s.get("hits", 0) for s in stores)
    lookups = hits + sum(s.get("misses", 0) for s in stores)
    warm_stats = rnd.warm.stats
    served = [s for s in warm_stats if not s.coalesced]

    def median_ms(values) -> float:
        values = [v for v in values if v is not None]
        return statistics.median(values) * 1e3 if values else 0.0

    metrics = {
        "fission.busy_s": (busy("stage.fission"), "s"),
        "transforms.busy_s": (busy("stage.graph_opt"), "s"),
        "orchestration.busy_s": (busy("stage.identify"), "s"),
        "orchestration.candidates": (sum(plan.candidates for plan in plans), "count"),
        "gpu.profile_busy_s": (busy("stage.profile"), "s"),
        "gpu.backend_estimate_calls": (
            sum(plan.backend_estimate_calls for plan in plans), "count"),
        "gpu.profile_hit_ratio": (
            sum(plan.profile_hits for plan in plans) / requests if requests else 0.0, "ratio"),
        "solver.milp_s": (busy("solver.solve_blp"), "s"),
        "solver.calls": (len(solves), "count"),
        "solver.time_limit_hits": (sum(1 for s in solves if s.attrs.get("status") != "optimal"),
                                   "count"),
        "solver.max_gap": (max((s.attrs.get("gap") or 0.0 for s in solves), default=0.0),
                           "ratio"),
        "solver.milp_kept_ratio": (
            sum(plan.milp_kept for plan in plans) / milp_solves if milp_solves else 0.0,
            "ratio"),
        "engine.solve_stage_s": (busy("stage.solve"), "s"),
        "engine.self_s": (busy("engine.optimize") + busy("engine.partition"), "s"),
        "engine.partitions_optimized": (sum(e["partitions_optimized"] for e in engines), "count"),
        "engine.identify_memo_hits": (sum(e["identify_memo_hits"] for e in engines), "count"),
        "cache.writes": (sum(s.get("writes", 0) for s in stores), "count"),
        "cache.hits": (hits, "count"),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "service.request_key_ms": (median_ms(
            [s.duration for s in by_name.get("service.request_key", [])]), "ms"),
        "service.engine_optimize_ms": (median_ms(
            [s.duration for s in by_name.get("engine.optimize", [])
             if s.start >= rnd.warm.started]), "ms"),
        "service.queue_wait_ms": (median_ms([s.queue_wait_s for s in warm_stats]), "ms"),
        "service.run_ms": (median_ms([s.run_s for s in served]), "ms"),
        "service.coalesced_ratio": (
            sum(1 for s in warm_stats if s.coalesced) / len(warm_stats) if warm_stats else 0.0,
            "ratio"),
    }
    metrics.update(runtime_layer(rnd, by_name))
    # The coalesced share is already service.coalesced_ratio.
    metrics.update({k: (v, "ratio") for k, v in shares(rnd).items() if k != "share.coalesced"})
    metrics.update(stage_crosscheck(rnd.cold, by_name))
    return metrics


#: Runtime metrics and their units.  A workload without the execute phase
#: reports them as structural zeros (see ``structural_zeros``).
RUNTIME_UNITS = {
    "runtime.run_ms": "ms",
    "runtime.kernels": "count",
    "runtime.kernel_busy_ms": "ms",
    "runtime.peak_live_bytes": "bytes",
    "runtime.rss_growth_mb_per_run": "MB/run",
    "runtime.reference_ms": "ms",
}


def structural_zeros(workload: Workload) -> list[str]:
    """Metrics a workload reports as 0 because it has no phase to measure.

    The benchmark contract asks for every per-layer name on every workload;
    these zeros are placeholders, not measurements.
    """
    if workload.executes:
        return []
    return [*RUNTIME_UNITS, "trace.overhead_execute_pct"]


def runtime_layer(rnd: Round, by_name: dict) -> dict:
    execute = rnd.execute
    if execute is None:
        return {name: (0.0, unit) for name, unit in RUNTIME_UNITS.items()}
    # Kernels of the timed runs only, not of the runs inside verify().
    timed = {s.id for s in by_name.get("runtime.run", []) if s.parent is None}
    kernel_s = sum(s.duration for s in by_name.get("runtime.kernel", []) if s.parent in timed)
    return {
        "runtime.run_ms": (
            sum(statistics.median(v) for v in execute.run_s.values() if v) * 1e3, "ms"),
        "runtime.kernels": (sum(execute.kernels.values()), "count"),
        "runtime.kernel_busy_ms": (kernel_s * 1e3 / EXECUTE_ROUNDS, "ms"),
        "runtime.peak_live_bytes": (execute.peak_live_bytes, "bytes"),
        "runtime.rss_growth_mb_per_run": (execute.rss_growth_mb_per_run, "MB/run"),
        "runtime.reference_ms": (
            sum(s.duration for s in by_name.get("runtime.reference", [])) * 1e3, "ms"),
    }


def stage_crosscheck(passes: list[ColdPass], by_name: dict) -> dict:
    """Per stage, the largest gap between span-derived and reported seconds.

    Spans are matched to a pass by time, and to a partition by its id, which
    is unique while the pass's results are alive.
    """
    worst = {stage: 0.0 for stage in STAGES}
    for cold in passes:
        derived: dict[tuple[int, str], float] = {}
        for stage in STAGES:
            for span in by_name.get(f"stage.{stage}", []):
                if cold.started <= span.start <= cold.ended:
                    key = (span.attrs["partition"], stage)
                    derived[key] = derived.get(key, 0.0) + span.duration
        for plan in cold.plans.values():
            for (partition, stage), reported in plan.timings.items():
                spans = derived.get((partition, stage), 0.0)
                worst[stage] = max(worst[stage], abs(reported - spans) * 1e3)
    return {f"xcheck.{stage}_ms": (value, "ms") for stage, value in worst.items()}
