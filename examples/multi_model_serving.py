"""Multi-model serving with ``KorchService`` futures over a ``KorchEngine``.

A serving deployment optimizes many models against the same GPU fleet; most
of them share structure (attention blocks, conv stacks), so profiling each
model in isolation re-pays the dominant cost over and over.  The stack here:

* ``KorchEngine`` owns backends, profile caches, the plan cache (whole-model
  plans plus name-free partition plans) and the scheduler's executors for
  its whole lifetime, amortizing tuning across every request
  (``engine.stats`` reports the reuse).
* ``KorchService`` turns that into an async front-end: ``submit`` returns a
  future immediately, requests queue by priority class, and each request
  carries its own ``ServiceStats`` (queue wait, stage times, cache hits).
* Every layer reports into one ``MetricRegistry``: queue-wait / run-time
  histograms with p50/p95/p99, queue-depth samples, cache hit counters —
  exported as JSON (``service.metrics()``) or Prometheus text
  (``service.metrics_text()``) for scraping.
* Duplicate-heavy traffic (fleets re-deploying the same model, autoscaling
  replicas) is coalesced: identical in-flight graphs share one
  optimization, and every waiting future gets the same result.  The burst
  below submits 8 copies of one model and pays for roughly one.

Run:  PYTHONPATH=src python examples/multi_model_serving.py
"""

from repro import AdmissionConfig, KorchConfig, KorchService, Priority
from repro.models import (
    build_efficientvit_attention_block,
    build_segformer_attention_block,
)


def main() -> None:
    # The admission controller shrinks the effective pending cap when p99
    # queue wait breaches the SLO, and grows it back as the queue drains.
    admission = AdmissionConfig(slo_p99_queue_wait_s=30.0, max_pending=64)
    with KorchService(
        config=KorchConfig(gpu="V100"), workers=2, admission=admission
    ) as service:
        # Futures come back immediately; the service worker pool drives the
        # engine behind the scenes.  An interactive model jumps the queue.
        requests = service.submit_many(
            [
                build_efficientvit_attention_block(),
                build_segformer_attention_block(),
            ]
        )
        urgent = service.submit(
            build_efficientvit_attention_block(), priority=Priority.HIGH
        )

        print("=== served results (futures) ===")
        for request in [*requests, urgent]:
            result = request.result(timeout=600)  # Future[KorchResult]
            summary = result.summary()
            stats = request.stats
            print(
                f"{summary['model']:<28} {summary['latency_ms']:8.4f} ms  "
                f"{summary['num_kernels']:3d} kernels  "
                f"prio={stats.priority.name:<6} "
                f"queue={stats.queue_wait_s * 1e3:6.1f}ms run={stats.run_s:6.2f}s  "
                f"estimates={stats.backend_estimate_calls}"
            )

        # The urgent twin is the first model again, so it is coalesced onto
        # the in-flight request (the report's ``coalesced``).  A renamed twin
        # would be a new model whose partitions equal the first model's up to
        # renaming: each would reuse a stored partition plan instead of
        # enumerating, profiling and solving (counted by identify_memo_hits).
        engine = service.engine
        print("\n=== graceful drain, then engine stats ===")
        service.drain()
        for key, value in engine.stats.as_dict().items():
            print(f"  {key}: {value}")
        print("\n=== service report ===")
        report = service.report.as_dict()
        for key, value in report.items():
            if key == "histograms":
                continue
            print(f"  {key}: {value}")
        print("\n=== latency summaries (from the metric registry) ===")
        for name, summary in report["histograms"].items():
            print(
                f"  {name:<16} count={summary['count']:3d} "
                f"p50={summary['p50']:.4f} p95={summary['p95']:.4f} "
                f"p99={summary['p99']:.4f}"
            )
        # A duplicate-heavy burst: eight replicas of the same model arrive
        # at once.  submit_many pre-groups them and the in-flight coalescer
        # fans one optimization out to every future — followers report
        # plan_cache="coalesced" and near-zero run time.
        print("\n=== duplicate-heavy burst (8 copies, coalesced) ===")
        burst = service.submit_many(
            [build_segformer_attention_block() for _ in range(8)]
        )
        for request in burst:
            request.result(timeout=600)
        leaders = sum(1 for r in burst if not r.stats.coalesced)
        followers = sum(1 for r in burst if r.stats.coalesced)
        print(f"  optimizations paid for: {leaders}  coalesced followers: {followers}")
        print(f"  service report coalesced total: {service.report.coalesced}")

        print("\n=== Prometheus scrape (excerpt) ===")
        lines = service.metrics_text().splitlines()
        for line in lines:
            if (
                "queue_wait_seconds" in line
                or "coalesce" in line
                or line.startswith("# TYPE")
            ):
                print(f"  {line}")


if __name__ == "__main__":
    main()
