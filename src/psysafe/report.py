"""Deterministic JSON and Markdown reports over a resolved model.

Both formats render the same underlying data: inventory counts, PsySIL
summary, the three traceability matrices (goal x hazard, hazard x loss,
UCA x hazard), UCA kind coverage, and the diagnostics of a full check
run. Output is a pure function of (model, config, tool version): arrays
sort by entity ID, keys have a fixed order, there are no timestamps, and
file names are relativized, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import __version__
from .diagnostics import Diagnostic
from .lints import LintConfig, analyze
from .model import AnalysisModel, UcaKind
from .psysil import determine_psysil, goal_psysil
from .structure import CoverageRow, uca_category_coverage

SCHEMA_VERSION = "1"


@dataclass
class Report:
    title: str
    sae_level: int
    boundary: str | None
    tool_version: str
    inventory: dict[str, int]
    hazard_psysil: list[dict]
    goal_psysil: list[dict]
    goal_hazard: dict[str, list[str]]
    hazard_loss: dict[str, list[str]]
    uca_hazard: dict[str, list[str]]
    coverage: list[CoverageRow]
    diagnostics: list[Diagnostic]
    model: AnalysisModel = field(repr=False)


def _relativize(path: str) -> str:
    if os.path.isabs(path):
        rel = os.path.relpath(path)
        if not rel.startswith(".."):
            return rel
    return path


def build_report(model: AnalysisModel,
                 config: LintConfig | None = None) -> Report:
    """Assemble report data; runs structure validation and all lints."""
    inventory = {
        "stakeholders": len(model.stakeholders),
        "stakes": len(model.stakes),
        "losses": len(model.losses),
        "hazards": len(model.hazards),
        "goals": len(model.goals),
        "responsibilities": len(model.responsibilities),
        "controllers": sum(1 for e in model.structure.entities
                           if e.kind.value == "controller"),
        "processes": sum(1 for e in model.structure.entities
                         if e.kind.value == "process"),
        "actions": len(model.structure.actions),
        "feedbacks": len(model.structure.feedbacks),
        "ucas": len(model.ucas),
        "scenarios": len(model.scenarios),
        "assessments": len(model.assessments),
    }

    hazard_psysil = []
    for hazard_id in sorted(model.assessments):
        a = model.assessments[hazard_id]
        level = determine_psysil(a.severity, a.exposure, a.controllability)
        hazard_psysil.append({
            "hazard": hazard_id,
            "severity": a.severity.name,
            "exposure": a.exposure.name,
            "controllability": a.controllability.name,
            "level": level.name,
        })

    goals_psysil = []
    for goal in sorted(model.goals, key=lambda g: g.id):
        level = goal_psysil(goal, model)
        goals_psysil.append({
            "goal": goal.id,
            "level": level.name if level is not None else "unassessed",
        })

    return Report(
        title=model.title,
        sae_level=model.sae_level,
        boundary=model.boundary,
        tool_version=__version__,
        inventory=inventory,
        hazard_psysil=hazard_psysil,
        goal_psysil=goals_psysil,
        goal_hazard={g.id: sorted(g.prevents)
                     for g in sorted(model.goals, key=lambda g: g.id)},
        hazard_loss={h.id: sorted(h.leads_to)
                     for h in sorted(model.hazards, key=lambda h: h.id)},
        uca_hazard={u.id: sorted(u.hazards)
                    for u in sorted(model.ucas, key=lambda u: u.id)},
        coverage=uca_category_coverage(model),
        diagnostics=analyze(model, config),
        model=model,
    )


def emit_json(report: Report) -> str:
    """UTF-8 JSON with documented key order; see docs/report-schema.md."""
    doc = {
        "schema": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "title": report.title,
        "sae_level": report.sae_level,
        "boundary": report.boundary,
        "inventory": report.inventory,
        "psysil": {
            "hazards": report.hazard_psysil,
            "goals": report.goal_psysil,
        },
        "matrices": {
            "goal_hazard": report.goal_hazard,
            "hazard_loss": report.hazard_loss,
            "uca_hazard": report.uca_hazard,
        },
        "uca_coverage": [
            {"action": row.action,
             **{kind.value: list(row.ucas_for(kind)) for kind in UcaKind}}
            for row in report.coverage
        ],
        "diagnostics": [
            {"file": _relativize(d.span.file),
             "line": d.span.start_line,
             "col": d.span.start_col,
             "severity": d.severity.value,
             "rule": d.rule,
             "message": d.message,
             "related": list(d.related)}
            for d in report.diagnostics
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def _table(header: list[str], rows: list[list[str]],
           out: list[str]) -> None:
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        out.append("| " + " | ".join(_cell(c) for c in row) + " |")


def emit_markdown(report: Report) -> str:
    """GitHub-flavored Markdown report with a fixed section order."""
    model = report.model
    out: list[str] = []
    out.append(f"# Psychological safety report: {_cell(report.title)}")
    out.append("")
    out.append("## Overview")
    out.append("")
    out.append(f"- SAE level: {report.sae_level}")
    if report.boundary is not None:
        out.append(f"- System boundary: {report.boundary}")
    out.append(f"- Tool version: {report.tool_version}")
    out.append("")
    _table(["Kind", "Count"],
           [[kind, str(count)] for kind, count in report.inventory.items()],
           out)

    out.append("")
    out.append("## Losses")
    out.append("")
    if model.losses:
        _table(["ID", "Description", "Violates"],
               [[l.id, l.description, ", ".join(sorted(l.violates))]
                for l in model.losses], out)
    else:
        out.append("No losses declared.")

    out.append("")
    out.append("## Hazards & PsySIL")
    out.append("")
    if model.hazards:
        rows = []
        for h in model.hazards:
            a = model.assessments.get(h.id)
            if a is None:
                sev = exp = ctr = "-"
                level = "unassessed"
            else:
                sev, exp, ctr = (a.severity.name, a.exposure.name,
                                 a.controllability.name)
                level = determine_psysil(a.severity, a.exposure,
                                         a.controllability).name
            rows.append([h.id, h.description, ", ".join(sorted(h.leads_to)),
                         sev, exp, ctr, level])
        _table(["ID", "Description", "Leads to", "S", "E", "C", "PsySIL"],
               rows, out)
    else:
        out.append("No hazards declared.")

    out.append("")
    out.append("## Goals")
    out.append("")
    if model.goals:
        levels = {entry["goal"]: entry["level"]
                  for entry in report.goal_psysil}
        _table(["ID", "Description", "Prevents", "PsySIL"],
               [[g.id, g.description, ", ".join(sorted(g.prevents)),
                 levels[g.id]] for g in model.goals], out)
    else:
        out.append("No goals declared.")

    out.append("")
    out.append("## Traceability")
    out.append("")
    out.append("### Goal x Hazard")
    out.append("")
    _table(["Goal", "Hazards"],
           [[g, ", ".join(hs)] for g, hs in report.goal_hazard.items()],
           out)
    out.append("")
    out.append("### Hazard x Loss")
    out.append("")
    _table(["Hazard", "Losses"],
           [[h, ", ".join(ls)] for h, ls in report.hazard_loss.items()],
           out)
    out.append("")
    out.append("### UCA x Hazard")
    out.append("")
    _table(["UCA", "Hazards"],
           [[u, ", ".join(hs)] for u, hs in report.uca_hazard.items()],
           out)

    out.append("")
    out.append("## UCA Coverage")
    out.append("")
    if not model.ucas:
        out.append("No UCAs declared; all control actions are uncovered.")
        out.append("")
    if report.coverage:
        _table(["Action"] + [kind.value for kind in UcaKind],
               [[row.action] + [", ".join(row.ucas_for(kind)) or "-"
                                for kind in UcaKind]
                for row in report.coverage], out)
    else:
        out.append("No control actions declared.")

    out.append("")
    out.append("## Scenarios")
    out.append("")
    if model.scenarios:
        _table(["ID", "For", "Type", "Factor", "Description"],
               [[s.id, s.for_ref, s.scenario_type.value, s.factor.value,
                 s.description] for s in model.scenarios], out)
    else:
        out.append("No loss scenarios declared.")

    out.append("")
    out.append("## Diagnostics")
    out.append("")
    if report.diagnostics:
        _table(["Location", "Severity", "Rule", "Message"],
               [[f"{_relativize(d.span.file)}:{d.span.start_line}:"
                 f"{d.span.start_col}", d.severity.value, d.rule, d.message]
                for d in report.diagnostics], out)
    else:
        out.append("No findings.")

    return "\n".join(out) + "\n"
