"""End-to-end tuning time model (Table 2).

The paper reports that most of Korch's tuning time is spent in TVM
MetaSchedule profiling memory-intensive candidate kernels, that identical
candidates are deduplicated through the TVM database, and that vendor-library
candidates cost almost nothing to profile.  This module aggregates the
per-kernel tuning costs reported by the backends with that deduplication.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from ..gpu.features import KernelFeatures

__all__ = ["TuningTimeModel", "TuningTimeReport", "TuningTally"]


@dataclass
class TuningTimeReport:
    """Aggregate tuning-time estimate for one model."""

    num_candidates: int = 0
    num_profiled: int = 0
    num_deduplicated: int = 0
    num_vendor_candidates: int = 0
    #: Candidates answered by the persistent profile cache: their tuning cost
    #: was paid by an earlier run (the §6.5 amortization made durable).
    num_cache_hits: int = 0
    total_seconds: float = 0.0
    per_backend_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0

    def as_payload(self) -> dict:
        """JSON-representable rendering (stored alongside cached plans, so a
        replayed run reports the cold run's Table 2 statistics)."""
        return {
            "num_candidates": self.num_candidates,
            "num_profiled": self.num_profiled,
            "num_deduplicated": self.num_deduplicated,
            "num_vendor_candidates": self.num_vendor_candidates,
            "num_cache_hits": self.num_cache_hits,
            "total_seconds": self.total_seconds,
            "per_backend_seconds": dict(self.per_backend_seconds),
        }

    @staticmethod
    def from_payload(data: dict) -> "TuningTimeReport | None":
        try:
            return TuningTimeReport(
                num_candidates=int(data["num_candidates"]),
                num_profiled=int(data["num_profiled"]),
                num_deduplicated=int(data["num_deduplicated"]),
                num_vendor_candidates=int(data["num_vendor_candidates"]),
                num_cache_hits=int(data["num_cache_hits"]),
                total_seconds=float(data["total_seconds"]),
                per_backend_seconds={
                    str(k): float(v) for k, v in data["per_backend_seconds"].items()
                },
            )
        except (KeyError, TypeError, ValueError):
            return None


class TuningTimeModel:
    """Accumulates tuning time across candidate kernels with deduplication.

    Two candidates with the same structural signature (same primitive ops,
    same tensor shapes) hit the TVM database cache and are only tuned once,
    which is why the paper's candidate-kernel counts are far larger than the
    number of kernels actually tuned.
    """

    #: Seconds to measure a vendor-library kernel (a handful of launches).
    VENDOR_PROFILE_SECONDS = 2.0

    def __init__(self) -> None:
        self._seen: set[tuple] = set()
        self.report = TuningTimeReport()
        # One tuning model may be shared by every partition's profiler (that
        # is what makes the dedup span the whole model, like the paper's TVM
        # database) — including from concurrent partition workers.
        self._lock = threading.Lock()

    def record(self, signature: tuple, features: KernelFeatures, backend_name: str, tuning_s: float) -> None:
        """Record one profiled candidate kernel."""
        with self._lock:
            self.report.num_candidates += 1
            if not features.is_memory_bound:
                self.report.num_vendor_candidates += 1
                tuning_s = max(tuning_s, self.VENDOR_PROFILE_SECONDS)
            if signature in self._seen:
                self.report.num_deduplicated += 1
                return
            self._seen.add(signature)
            self.report.num_profiled += 1
            self.report.total_seconds += tuning_s
            self.report.per_backend_seconds[backend_name] = (
                self.report.per_backend_seconds.get(backend_name, 0.0) + tuning_s
            )

    def record_cache_hit(self, signature: tuple, features: KernelFeatures | None = None) -> None:
        """Record a candidate answered by the persistent profile cache.

        The kernel was tuned by some earlier run, so it contributes to the
        candidate count but adds no tuning time to this run.
        """
        with self._lock:
            self.report.num_candidates += 1
            self.report.num_cache_hits += 1
            if features is not None and not features.is_memory_bound:
                self.report.num_vendor_candidates += 1
            self._seen.add(signature)

    def record_reused(self, records: int, vendor_records: int) -> None:
        """Charge a reused partition plan: the ``records`` a cold solve of
        the partition would make against the warm profile cache, all cache
        hits (``vendor_records`` of them vendor-library kernels)."""
        with self._lock:
            self.report.num_candidates += records
            self.report.num_cache_hits += records
            self.report.num_vendor_candidates += vendor_records

    @staticmethod
    def merge(reports: Iterable[TuningTimeReport]) -> TuningTimeReport:
        """Combine the reports of several subgraphs into a model-level total."""
        merged = TuningTimeReport()
        for report in reports:
            merged.num_candidates += report.num_candidates
            merged.num_profiled += report.num_profiled
            merged.num_deduplicated += report.num_deduplicated
            merged.num_vendor_candidates += report.num_vendor_candidates
            merged.num_cache_hits += report.num_cache_hits
            merged.total_seconds += report.total_seconds
            for backend, seconds in report.per_backend_seconds.items():
                merged.per_backend_seconds[backend] = (
                    merged.per_backend_seconds.get(backend, 0.0) + seconds
                )
        return merged


class TuningTally:
    """One partition's view of a shared :class:`TuningTimeModel`.

    Forwards every record to the shared model and counts how many this
    partition made (and how many were vendor-library kernels).  The counts
    are stored with the partition's plan; a partition that later reuses the
    plan tops its own counts up to them with :meth:`top_up`.
    """

    def __init__(self, model: TuningTimeModel) -> None:
        self.model = model
        self.records = 0
        self.vendor_records = 0

    def record(self, signature: tuple, features: KernelFeatures, backend_name: str, tuning_s: float) -> None:
        self._count(features)
        self.model.record(signature, features, backend_name, tuning_s)

    def record_cache_hit(self, signature: tuple, features: KernelFeatures | None = None) -> None:
        self._count(features)
        self.model.record_cache_hit(signature, features)

    def top_up(self, records: int, vendor_records: int) -> None:
        """Charge cache hits until this partition's counts reach those of the
        cold solve whose plan it reused: replay re-priced only the selected
        kernels, a cold solve against the warm profile cache records every
        candidate as a hit."""
        self.model.record_reused(
            max(0, records - self.records), max(0, vendor_records - self.vendor_records)
        )

    def _count(self, features: KernelFeatures | None) -> None:
        self.records += 1
        if features is not None and not features.is_memory_bound:
            self.vendor_records += 1
