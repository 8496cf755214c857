"""Spans recorded around the public entry points of the ``repro`` package.

The wrappers live here, in the benchmark, and are installed only for the
traced run: nothing under ``src/`` is instrumented.  Each span has a name,
start and end on one ``perf_counter`` clock, a parent span and a request id.
Calls on one thread nest through a thread-local stack.  Engine stages run on
the engine's executor threads, so their parent is found through the
partition they work on: ``GraphPartitioner.partition`` runs inside
``KorchEngine.optimize`` on the caller's thread and records which request
owns each partition it returns.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        #: id(partition) -> (request id, span id of the optimize call).
        self._partition_owner: dict[int, tuple[str | None, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self, name, fn, args, kwargs, *, new_request=False, link=None, attrs=None, annotate=None
    ):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``link`` is an explicit ``(request, parent)`` pair for calls that
        run on another thread than their cause.  ``new_request`` starts a
        request id when no enclosing span carries one.  ``annotate(result)``
        returns attributes read off the call's result.
        """
        stack = self._stack()
        if stack:
            request, parent = stack[-1].request, stack[-1].id
        elif link is not None:
            request, parent = link
        else:
            request, parent = None, None
        if request is None and new_request:
            request = f"r{next(self._requests)}"
        span = Span(next(self._ids), name, 0.0, 0.0, parent, request, dict(attrs or {}))
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(result))
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # ----------------------------------------------------------- installing
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_method(self, owner, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, **options)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        from repro.engine import KorchEngine, KorchService
        from repro.engine import stages
        from repro.orchestration import optimizer as orchestration_optimizer
        from repro.partition import GraphPartitioner
        from repro.runtime.executor import PlanExecutor
        from repro.runtime.library import KernelLibrary
        from repro.runtime.reference import ReferenceExecutor

        tracer = self
        self._wrap_method(KorchEngine, "optimize", "engine.optimize", new_request=True)
        self._wrap_method(KorchEngine, "request_key", "service.request_key")
        self._wrap_method(KorchService, "submit", "service.submit", new_request=True)
        self._wrap_method(PlanExecutor, "run", "runtime.run", new_request=True)
        self._wrap_method(PlanExecutor, "verify", "runtime.verify", new_request=True)
        self._wrap_method(ReferenceExecutor, "run", "runtime.reference")
        self._wrap_method(KernelLibrary, "run_kernel", "runtime.kernel")

        partition = GraphPartitioner.__dict__["partition"]

        @functools.wraps(partition)
        def traced_partition(self_, graph):
            parts = tracer.call("engine.partition", partition, (self_, graph), {})
            stack = tracer._stack()
            if stack:
                owner = (stack[-1].request, stack[-1].id)
                with tracer._lock:
                    for part in parts:
                        tracer._partition_owner[id(part)] = owner
            return parts

        self._patch(GraphPartitioner, "partition", traced_partition)

        for stage_cls in (
            stages.FissionStage,
            stages.GraphOptStage,
            stages.IdentifyStage,
            stages.ProfileStage,
            stages.SolveStage,
            stages.AssembleStage,
        ):
            self._wrap_stage(stage_cls)

        solve_blp = orchestration_optimizer.solve_blp

        def annotate(result) -> dict:
            return {"status": result.status, "gap": result.gap, "method": result.method}

        @functools.wraps(solve_blp)
        def traced_solve_blp(*args, **kwargs):
            return tracer.call("solver.solve_blp", solve_blp, args, kwargs, annotate=annotate)

        # Patched where the orchestration optimizer looks the name up.
        self._patch(orchestration_optimizer, "solve_blp", traced_solve_blp)

    def _wrap_stage(self, stage_cls) -> None:
        original = stage_cls.__dict__["run"]
        tracer = self
        name = f"stage.{stage_cls.name}"

        @functools.wraps(original)
        def wrapper(self_, ctx):
            key = id(ctx.partition)
            with tracer._lock:
                link = tracer._partition_owner.get(key)
            return tracer.call(
                name, original, (self_, ctx), {}, link=link, attrs={"partition": key}
            )

        self._patch(stage_cls, "run", wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(parent.id, []).append((lo, hi))
    return {
        span.id: max(0.0, span.duration - _covered(children.get(span.id, [])))
        for span in spans
    }
