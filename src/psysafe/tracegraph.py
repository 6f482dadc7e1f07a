"""Typed traceability edges between the analysis artifacts.

The graph contains one edge per reference that :data:`psysafe.model.DECLS`
marks as traced, nothing synthesized: loss -> stake, hazard -> loss, goal
-> hazard, responsibility -> goal/entity, UCA -> action/hazard, scenario
-> UCA/action. Stake holders and action/feedback endpoints are not traced.
Edges point from the more derived artifact to the one it was derived from
or refers to, so "up" follows edges forward towards stakes and "down"
follows them backwards towards scenarios. One :func:`format_trace_tree`
call costs one pass over the traced references, to index them in the
directions it walks, plus one sort per node its walk expands.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .model import DECLS, AnalysisModel, EdgeType, Form


class TraceEdge(NamedTuple):
    source: str
    target: str
    type: EdgeType


class TraceGraph(NamedTuple):
    edges: tuple[TraceEdge, ...]


def _edges(model: AnalysisModel) -> Iterator[tuple[str, str, EdgeType]]:
    """``(source, target, edge type)`` per traced reference, in table
    order."""
    kinds = model._kinds
    for spec in DECLS.values():
        for ref in spec.refs:
            if ref.edge is None:
                continue
            for decl in spec.items(model):
                value = getattr(decl, ref.attr)
                for target in value if ref.form is Form.IDS else (value,):
                    edge = ref.edge.get(kinds.get(target)) \
                        if isinstance(ref.edge, dict) else ref.edge
                    if edge is not None:
                        yield decl.id, target, edge


def build_trace_graph(model: AnalysisModel) -> TraceGraph:
    """One edge per traced reference, by source, edge type and target."""
    edges = sorted(map(TraceEdge._make, _edges(model)),
                   key=lambda e: (e.source, e.type.value, e.target))
    return TraceGraph(tuple(edges))


def format_trace_tree(model: AnalysisModel, entity_id: str,
                      direction: str = "both") -> str:
    """Render the subgraph reachable from ``entity_id`` as an indented tree.

    ``direction`` is ``up`` (follow edges forward, towards stakes),
    ``down`` (follow edges backwards, towards scenarios), or ``both``
    (the two traversals, up first). Raises KeyError for an unknown ID and
    ValueError for any other direction.

    Forward (up) steps print as ``-> edge_type target`` and reverse (down)
    steps as ``<- edge_type source``. A node already expanded earlier in
    the traversal is printed without re-expanding its children.

    A call costs one pass over the traced references, indexing them in
    the directions asked only, plus one sort of each expanded node's steps.
    """
    if direction not in ("up", "down", "both"):
        raise ValueError(f"direction must be up, down, or both, "
                         f"not {direction!r}")
    kinds = model._kinds
    if entity_id not in kinds:
        raise KeyError(entity_id)
    # ``(other end, edge type value)`` pairs by source (``up``) and by
    # target (``down``), None for a direction not walked. A node's pairs
    # are sorted when it is expanded (unique: a resolved model has one
    # edge per (source, target, type)). Enum values are read as
    # ``_value_``: ``value`` and ``str()`` are Python-level calls, several
    # times the cost of the rest of a step.
    up = None if direction == "down" else {}
    down = None if direction == "up" else {}
    for source, target, edge in _edges(model):
        value = edge._value_
        if up is not None:
            up.setdefault(source, []).append((target, value))
        if down is not None:
            down.setdefault(target, []).append((source, value))
    lines = [f"{entity_id} [{kinds[entity_id]}]"]

    def expand(node: str, steps: dict[str, list[tuple[str, str]]],
               arrow: str, depth: int, seen: set[str]) -> None:
        pairs = steps.get(node)
        if not pairs:
            return
        pairs.sort()
        prefix = f"{'  ' * depth}{arrow} "
        for other, edge in pairs:
            lines.append(f"{prefix}{edge} {other} [{kinds[other]._value_}]")
            if other not in seen:
                seen.add(other)
                expand(other, steps, arrow, depth + 1, seen)

    for steps, arrow in ((up, "->"), (down, "<-")):
        if steps is not None:
            expand(entity_id, steps, arrow, 1, {entity_id})
    return "\n".join(lines) + "\n"
