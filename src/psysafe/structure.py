"""Validation of the hierarchical control structure and UCA coverage.

The control structure is a set of feedback control loops: commands flow
down the hierarchy (level 1 is the highest authority), feedback flows up,
and every control action needs some feedback path, possibly through
intermediate levels, that closes its loop.
"""

from __future__ import annotations

from collections import namedtuple
from operator import gt, lt
from typing import Mapping

from .diagnostics import Diagnostic, SourceSpan, SYNTHETIC_SPAN, diag
from .model import AnalysisModel, ControlStructure, EntityKind, Uca, UcaKind

_UCA_KINDS = tuple(UcaKind)


def validate_structure(structure: ControlStructure,
                       spans: Mapping[str, SourceSpan] | None = None
                       ) -> list[Diagnostic]:
    """Check hierarchy directions, loop closure, and model completeness.

    Emits PSY014 (error) for a control action that flows up or a feedback
    link that flows down; PSY010 (warning) for a control action whose
    source is not reachable from its target via feedback links; PSY009
    (warning) for human entities without sa_level/psych_state and for
    non-human controllers without a process model.

    Deterministic and order-independent: permuting the declarations never
    changes the resulting multiset of diagnostics.
    """
    spans = spans or {}

    def span_of(entity_id: str) -> SourceSpan:
        return spans.get(entity_id, SYNTHETIC_SPAN)

    diags: list[Diagnostic] = []
    levels = {e.id: e.level for e in structure.entities}

    for entity in sorted(structure.entities, key=lambda e: e.id):
        if entity.is_human:
            missing = [name for name, value in
                       (("sa_level", entity.sa_level),
                        ("psych_state", entity.psych_state))
                       if value is None]
            if missing:
                diags.append(diag(
                    "PSY009",
                    f"human entity {entity.id} is missing "
                    f"{' and '.join(missing)}",
                    span_of(entity.id), (entity.id,)))
        elif entity.kind is EntityKind.CONTROLLER and not entity.process_model:
            diags.append(diag(
                "PSY009",
                f"controller {entity.id} declares no process_model",
                span_of(entity.id), (entity.id,)))

    actions = sorted(structure.actions, key=lambda a: a.id)
    feedbacks = sorted(structure.feedbacks, key=lambda f: f.id)
    for links, wrong, name, way, rule in (
            (actions, gt, "control action", "up", "commands flow down"),
            (feedbacks, lt, "feedback", "down", "feedback flows up")):
        for link in links:
            src, dst = levels.get(link.source), levels.get(link.target)
            if src is not None and dst is not None and wrong(src, dst):
                diags.append(diag(
                    "PSY014", f"{name} {link.id} flows {way} the hierarchy "
                    f"(from level {src} to level {dst}); {rule}",
                    span_of(link.id), (link.id,)))

    feedback_adj: dict[str, set[str]] = {}
    for fb in structure.feedbacks:
        feedback_adj.setdefault(fb.source, set()).add(fb.target)
    # An action whose target feeds straight back to its source closes;
    # only the others need a walk.
    walked = [a for a in actions
              if a.source not in feedback_adj.get(a.target, ())]
    bits = {source: 1 << i for i, source in
            enumerate(dict.fromkeys(a.source for a in walked))}
    masks = _reach_masks(feedback_adj, bits, [a.target for a in walked])
    for action in walked:
        if not masks[action.target] & bits[action.source]:
            diags.append(diag(
                "PSY010",
                f"open control loop: no feedback path from "
                f"{action.target} back to {action.source} closes control "
                f"action {action.id}",
                span_of(action.id), (action.id,)))

    return diags


def _reach_masks(adj: dict[str, set[str]], bits: dict[str, int],
                 starts: list[str]) -> dict[str, int]:
    """Per node that ``starts`` reach along ``adj``: the OR of the ``bits``
    of every node it reaches, itself included. One iterative Tarjan walk,
    so no recursion limit applies: it closes each strongly connected
    component after every component it reaches, so a component's mask is
    its members' bits and its successors' masks. Each node and edge ORs
    masks of up to ``len(bits)`` bits, so the worst case takes
    O(edges × sources / 64) word operations: a long chain of sources, each
    reaching all those after it, is quadratic."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    masks: dict[str, int] = {}
    stack: list[str] = []
    for start in starts:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        work = [(start, iter(adj.get(start, ())))]
        while work:
            node, succs = work[-1]
            for nxt in succs:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(adj.get(nxt, ()))))
                    break
                if nxt not in masks:  # on the stack: in an open component
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    mask = 0
                    for m in members:
                        mask |= bits.get(m, 0)
                        for nxt in adj.get(m, ()):
                            mask |= masks.get(nxt, 0)
                    for m in members:
                        masks[m] = mask
    return masks


class CoverageRow(namedtuple("CoverageRow", "action by_kind")):
    """Which of the four UCA kinds are covered for one control action."""

    __slots__ = ()

    def ucas_for(self, kind: UcaKind) -> tuple[str, ...]:
        for k, ids in self.by_kind:
            if k is kind:
                return ids
        return ()

    @property
    def uncovered(self) -> bool:
        return not any(ids for _, ids in self.by_kind)


def uca_category_coverage(model: AnalysisModel) -> list[CoverageRow]:
    """Per control action, the UCAs declared for each of the four kinds.

    One row per control action, always with all four kind columns;
    actions without any UCA sort first. UCAs attached to feedback links
    contribute to no row here.
    """
    ucas: dict[str, list[Uca]] = {}
    for u in model.ucas:
        ucas.setdefault(u.on, []).append(u)
    rows = []
    for action in model.structure.actions:
        on = ucas.get(action.id, ())
        rows.append(CoverageRow(action.id, tuple(
            (kind, tuple(sorted([u.id for u in on if u.kind is kind])))
            for kind in _UCA_KINDS)))
    rows.sort(key=lambda r: (not r.uncovered, r.action))
    return rows
