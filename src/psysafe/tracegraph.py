"""Typed traceability edges between the analysis artifacts.

The graph contains one edge per reference that :data:`psysafe.model.DECLS`
marks as traced, nothing synthesized: loss -> stake, hazard -> loss, goal
-> hazard, responsibility -> goal/entity, UCA -> action/hazard, scenario
-> UCA/action. Stake holders and action/feedback endpoints are not traced.
Edges point from the more derived artifact to the one it was derived from
or refers to, so "up" follows edges forward towards stakes and "down"
follows them backwards towards scenarios. :func:`format_trace_tree` indexes
the edges by source and by target once per call, so its walk is linear in
what it reaches.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import DECLS, AnalysisModel, EdgeType


class TraceEdge(NamedTuple):
    source: str
    target: str
    type: EdgeType


class TraceGraph(NamedTuple):
    edges: tuple[TraceEdge, ...]


def _edges(model: AnalysisModel):
    """One edge per traced reference, in table order."""
    return (TraceEdge(decl.id, target, edge_type)
            for spec in DECLS.values()
            for ref in spec.refs if ref.edge is not None
            for decl in spec.items(model) for target in ref.targets(decl)
            if (edge_type := ref.edge_to(model.kind_of(target))))


def build_trace_graph(model: AnalysisModel) -> TraceGraph:
    """One edge per traced reference, by source, edge type and target."""
    edges = sorted(_edges(model),
                   key=lambda e: (e.source, e.type.value, e.target))
    return TraceGraph(tuple(edges))


#: ``forward`` values of the traversals each direction takes
_FORWARD = {"up": (True,), "down": (False,), "both": (True, False)}


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
    """
    if direction not in _FORWARD:
        raise ValueError(f"direction must be up, down, or both, "
                         f"not {direction!r}")
    if model.kind_of(entity_id) is None:
        raise KeyError(entity_id)
    # ``(other end, edge)`` pairs by source (key ``True``, forward) and by
    # target (``False``), each ordered by other end, then edge type (unique:
    # a resolved model has one edge per (source, target, type)).
    steps: dict[bool, dict[str, list[tuple[str, TraceEdge]]]] = \
        {True: {}, False: {}}
    for e in _edges(model):
        steps[True].setdefault(e.source, []).append((e.target, e))
        steps[False].setdefault(e.target, []).append((e.source, e))
    for pairs in (*steps[True].values(), *steps[False].values()):
        pairs.sort(key=lambda pair: (pair[0], pair[1].type.value))
    lines = [f"{entity_id} [{model.kind_of(entity_id)}]"]

    def expand(node: str, forward: bool, depth: int, seen: set[str]) -> None:
        arrow = "->" if forward else "<-"
        for other, e in steps[forward].get(node, ()):
            lines.append(f"{'  ' * depth}{arrow} {e.type} {other} "
                         f"[{model.kind_of(other)}]")
            if other not in seen:
                seen.add(other)
                expand(other, forward, depth + 1, seen)

    for forward in _FORWARD[direction]:
        expand(entity_id, forward, 1, {entity_id})
    return "\n".join(lines) + "\n"
