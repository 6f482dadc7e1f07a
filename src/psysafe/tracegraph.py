"""Typed traceability graph over all analysis artifacts.

The graph contains one edge per reference that :data:`psysafe.model.DECLS`
marks as traced, nothing synthesized: loss -> stake, hazard -> loss, goal
-> hazard, responsibility -> goal/entity, UCA -> action/hazard, scenario
-> UCA/action. Stake holders and action/feedback endpoints are not traced.
Edges point from the more derived artifact to the one it was derived from
or refers to, so "up" follows edges forward towards stakes and "down"
follows them backwards towards scenarios. Each graph indexes its edges by
source and by target once, so a trace is linear in what it reaches.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from .model import DECLS, AnalysisModel, EdgeType, EntityKind, Sealed


class TraceEdge(NamedTuple):
    source: str
    target: str
    type: EdgeType


class _TraceGraphFields(NamedTuple):
    #: entity ID -> declaration kind
    nodes: tuple[tuple[str, EntityKind], ...]
    edges: tuple[TraceEdge, ...]


class TraceGraph(Sealed, _TraceGraphFields):
    """Nodes and edges; the edges are indexed on first use."""

    def node_ids(self) -> frozenset[str]:
        return frozenset(node_id for node_id, _ in self.nodes)

    @cached_property
    def _steps(self) -> dict[bool, dict[str, list[tuple[str, TraceEdge]]]]:
        """``(other end, edge)`` pairs by source (key ``True``, forward) and
        by target (``False``), each ordered by other end, then edge type."""
        steps: dict = {True: {}, False: {}}
        for e in self.edges:
            steps[True].setdefault(e.source, []).append((e.target, e))
            steps[False].setdefault(e.target, []).append((e.source, e))
        for pairs in (*steps[True].values(), *steps[False].values()):
            pairs.sort(key=lambda pair: (pair[0], pair[1].type.value))
        return steps

    def outgoing(self, node_id: str) -> list[TraceEdge]:
        """Edges from ``node_id``, ordered by target, then edge type."""
        return [e for _, e in self._steps[True].get(node_id, ())]

    def incoming(self, node_id: str) -> list[TraceEdge]:
        """Edges into ``node_id``, ordered by source, then edge type."""
        return [e for _, e in self._steps[False].get(node_id, ())]


def build_trace_graph(model: AnalysisModel) -> TraceGraph:
    """One node per declared entity, one edge per traced reference."""
    nodes = sorted((entity_id, model.kind_of(entity_id))
                   for entity_id in model.entity_ids)
    edges = sorted(
        (TraceEdge(decl.id, target, edge_type)
         for spec in DECLS.values()
         for ref in spec.refs if ref.edge is not None
         for decl in spec.items(model) for target in ref.targets(decl)
         if (edge_type := ref.edge_to(model.kind_of(target)))),
        key=lambda e: (e.source, e.type.value, e.target))
    return TraceGraph(tuple(nodes), tuple(edges))


#: ``forward`` values of the traversals each direction takes
_FORWARD = {"up": (True,), "down": (False,), "both": (True, False)}


def _graph_from(model: AnalysisModel, entity_id: str,
                direction: str) -> TraceGraph:
    """The whole graph, once the start ID and direction are checked."""
    if direction not in _FORWARD:
        raise ValueError(f"direction must be up, down, or both, "
                         f"not {direction!r}")
    if model.kind_of(entity_id) is None:
        raise KeyError(entity_id)
    return build_trace_graph(model)


def trace_from(model: AnalysisModel, entity_id: str,
               direction: str = "both") -> TraceGraph:
    """Subgraph reachable from ``entity_id``.

    ``direction`` is ``up`` (follow edges forward, towards stakes),
    ``down`` (follow edges backwards, towards scenarios), or ``both``
    (the union of the two traversals). The result always includes the
    starting node. Raises KeyError for an unknown ID.
    """
    graph = _graph_from(model, entity_id, direction)

    reached = {entity_id}
    for forward in _FORWARD[direction]:
        reached |= _closure(graph, entity_id, forward)

    nodes = tuple((node_id, kind) for node_id, kind in graph.nodes
                  if node_id in reached)
    edges = tuple(e for e in graph.edges
                  if e.source in reached and e.target in reached)
    return TraceGraph(nodes, edges)


def _closure(graph: TraceGraph, start: str, forward: bool) -> set[str]:
    seen: set[str] = set()
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt, _ in graph._steps[forward].get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def format_trace_tree(model: AnalysisModel, entity_id: str,
                      direction: str = "both") -> str:
    """Render the reachable subgraph as an indented tree.

    Forward (up) steps print as ``-> edge_type target`` and reverse (down)
    steps as ``<- edge_type source``. A node already expanded earlier in
    the traversal is printed without re-expanding its children.
    """
    graph = _graph_from(model, entity_id, direction)
    lines = [f"{entity_id} [{model.kind_of(entity_id)}]"]

    def expand(node: str, forward: bool, depth: int, seen: set[str]) -> None:
        arrow = "->" if forward else "<-"
        for other, e in graph._steps[forward].get(node, ()):
            lines.append(f"{'  ' * depth}{arrow} {e.type} {other} "
                         f"[{model.kind_of(other)}]")
            if other not in seen:
                seen.add(other)
                expand(other, forward, depth + 1, seen)

    for forward in _FORWARD[direction]:
        expand(entity_id, forward, 1, {entity_id})
    return "\n".join(lines) + "\n"
