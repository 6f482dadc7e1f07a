"""Validation of the hierarchical control structure and UCA coverage.

The control structure is a set of feedback control loops: commands flow
down the hierarchy (level 1 is the highest authority), feedback flows up,
and every control action needs some feedback path, possibly through
intermediate levels, that closes its loop.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple

from .diagnostics import Diagnostic, SourceSpan, SYNTHETIC_SPAN, diag
from .model import AnalysisModel, ControlStructure, UcaKind


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
        elif entity.kind.value == "controller" and not entity.process_model:
            diags.append(diag(
                "PSY009",
                f"controller {entity.id} declares no process_model",
                span_of(entity.id), (entity.id,)))

    actions = sorted(structure.actions, key=lambda a: a.id)
    for action in actions:
        src, dst = levels.get(action.source), levels.get(action.target)
        if src is not None and dst is not None and src > dst:
            diags.append(diag(
                "PSY014",
                f"control action {action.id} flows up the hierarchy "
                f"(from level {src} to level {dst}); commands flow down",
                span_of(action.id), (action.id,)))

    for fb in sorted(structure.feedbacks, key=lambda f: f.id):
        src, dst = levels.get(fb.source), levels.get(fb.target)
        if src is not None and dst is not None and src < dst:
            diags.append(diag(
                "PSY014",
                f"feedback {fb.id} flows down the hierarchy "
                f"(from level {src} to level {dst}); feedback flows up",
                span_of(fb.id), (fb.id,)))

    feedback_adj: dict[str, set[str]] = {}
    for fb in structure.feedbacks:
        feedback_adj.setdefault(fb.source, set()).add(fb.target)
    for action in actions:
        if not _reachable(feedback_adj, action.target, action.source):
            diags.append(diag(
                "PSY010",
                f"open control loop: no feedback path from "
                f"{action.target} back to {action.source} closes control "
                f"action {action.id}",
                span_of(action.id), (action.id,)))

    return diags


def _reachable(adj: dict[str, set[str]], start: str, goal: str) -> bool:
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


class CoverageRow(NamedTuple):
    """Which of the four UCA kinds are covered for one control action."""

    action: str
    by_kind: tuple[tuple[UcaKind, tuple[str, ...]], ...]

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
    ids: dict[tuple[str, UcaKind], list[str]] = {}
    for u in model.ucas:
        ids.setdefault((u.on, u.kind), []).append(u.id)
    rows = [CoverageRow(action.id, tuple(
                (kind, tuple(sorted(ids.get((action.id, kind), ()))))
                for kind in UcaKind))
            for action in model.structure.actions]
    rows.sort(key=lambda r: (not r.uncovered, r.action))
    return rows
