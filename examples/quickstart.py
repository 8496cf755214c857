"""Quickstart: build a small model, run the Korch pipeline, inspect the plan.

Run with:  python examples/quickstart.py
"""

from repro import GraphBuilder, optimize_model
from repro.baselines import baseline_suite
from repro.fission import FissionEngine
from repro.gpu import V100
from repro.runtime import PlanExecutor


def build_tiny_transformer_block():
    """A LayerNorm → attention → MLP block, the kind of subgraph Korch shines on."""
    b = GraphBuilder("tiny_block")
    x = b.input("tokens", (1, 256, 64))

    # Self-attention with softmax (decomposed by operator fission).
    normed = b.layer_norm(x)
    q = b.linear(normed, 64, name="q")
    k = b.linear(normed, 64, name="k")
    v = b.linear(normed, 64, name="v")
    scores = b.matmul(q, b.transpose(k, (0, 2, 1)))
    scores = b.div(scores, b.constant("scale", [8.0]))
    probs = b.softmax(scores, axis=-1)
    attended = b.matmul(probs, v)
    x = b.add(x, b.linear(attended, 64, name="proj"))

    # MLP with GELU.
    y = b.layer_norm(x)
    y = b.linear(y, 256, name="fc1")
    y = b.gelu(y)
    y = b.linear(y, 64, name="fc2")
    b.output(b.add(x, y))
    return b.build()


def main() -> None:
    graph = build_tiny_transformer_block()
    print(f"model: {graph.name} with {graph.num_nodes} operators")

    # Full Korch pipeline: partition -> fission -> graph optimizer -> BLP -> executable.
    result = optimize_model(graph, gpu="V100")
    print(f"\nKorch strategy: {result.num_kernels} kernels, "
          f"{result.latency_ms:.3f} ms predicted on V100")
    for part in result.partitions:
        print(part.orchestration.strategy.describe())

    # The orchestrated executable computes exactly what the model defines.
    verification = PlanExecutor(result).verify()
    print(f"\nfunctional equivalence: {verification.equivalent} "
          f"(max |error| = {verification.max_abs_error:.2e})")

    # Compare with the rule-based fusion baselines of the paper.
    pg, _ = FissionEngine().run(graph)
    print("\nbaseline comparison (lower is better):")
    print(f"  {'Korch':10s} {result.latency_ms:8.3f} ms  ({result.num_kernels} kernels)")
    for baseline in baseline_suite(V100):
        strategy = baseline.run(graph, pg)
        print(f"  {baseline.name:10s} {strategy.total_latency_ms:8.3f} ms  "
              f"({strategy.num_kernels} kernels)")


if __name__ == "__main__":
    main()
