"""Per-layer self-time accounting over a recorded trace.

In a traced run the benchmark wraps every public layer call in its own
``repro.obs`` span (:func:`layer_span`), inside one root span per pass.
The program's own spans (``repro.graph.knn``, ``repro.coarsen.hierarchy``,
``repro.workspace.solve``, ...) nest below them.  Every span is mapped to
a layer, by its name or, failing that, by its nearest mapped ancestor,
and a layer's time is the sum of its spans' *self* times: duration minus
the time covered by child spans.  Self times telescope, so the layers plus
the root's own self time (the benchmark's overhead) add up to the root's
duration; nothing is counted twice.
"""

from __future__ import annotations

from repro import obs

#: Name of the span around one traced pass; its self time is the
#: benchmark's own overhead (loop bookkeeping and latency clocks).
ROOT = "perfbench.pass"

#: The layer each program span is charged to.  Spans not listed inherit
#: their parent's layer: ``repro.serving.predict`` thus lands in the
#: benchmark span around the call, which tells a one-point
#: Nadaraya-Watson query (``serving.query``) from an exact insertion
#: (``serving.exact``).  A benchmark span ``perfbench.<layer>`` is
#: charged to ``<layer>``.
PROGRAM_SPANS = {
    "repro.graph.knn": "graph",
    "repro.coarsen.hierarchy": "coarsen",
    "repro.workspace.sweep": "workspace.solve",
    "repro.workspace.solve": "workspace.solve",
    "repro.workspace.factorize": "workspace.factorize",
    "repro.serving.fit": "serving.fit",
    "repro.serving.predict_batch": "serving.query",
    "repro.serving.flush": "server",
}

#: Layers in report order; ``bench`` is the root's self time.
LAYERS = (
    "graph",
    "coarsen",
    "workspace.init",
    "workspace.solve",
    "workspace.factorize",
    "serving.fit",
    "serving.query",
    "serving.exact",
    "server",
    "bench",
)


def layer_span(layer: str):
    """A span charging its self time to ``layer`` (no-op when untraced)."""
    return obs.span(f"perfbench.{layer}")


def _layer_of(name: str, inherited: str) -> str:
    if name == ROOT:
        return "bench"
    if name.startswith("perfbench."):
        return name[len("perfbench."):]
    return PROGRAM_SPANS.get(name, inherited)


def self_time(span) -> float:
    """Duration of ``span`` not covered by its children (never negative).

    Spans on one tracer are entered and left on one thread, so children
    never overlap and their covered time is the sum of their durations.
    """
    covered = sum(child.duration or 0.0 for child in span.children)
    return max(0.0, (span.duration or 0.0) - covered)


def layer_times(root) -> dict[str, float]:
    """Self seconds per layer over the subtree of ``root``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    stack = [(root, "bench")]
    while stack:
        span, inherited = stack.pop()
        layer = _layer_of(span.name, inherited)
        if layer not in totals:
            raise ValueError(f"span {span.name!r} maps to unknown layer {layer!r}")
        totals[layer] += self_time(span)
        stack.extend((child, layer) for child in span.children)
    return totals


def span_seconds(root, name: str) -> float:
    """Summed self time of every span called ``name`` under ``root``."""
    total = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        if span.name == name:
            total += self_time(span)
        stack.extend(span.children)
    return total


def breakdown_table(times: dict[str, float], wall_s: float) -> list[str]:
    """Markdown rows: each layer's self time and share of the traced wall."""
    rows = ["| layer | self s | share of traced wall |", "|---|---:|---:|"]
    for name in LAYERS:
        rows.append(f"| {name} | {times[name]:.4f} | {times[name] / wall_s:.2%} |")
    total = sum(times.values())
    rows.append(f"| **sum** | {total:.4f} | {total / wall_s:.2%} |")
    rows.append(f"| traced wall | {wall_s:.4f} | 100.00% |")
    return rows
