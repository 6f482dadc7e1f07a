"""Deterministic JSON and Markdown reports over a resolved model.

:func:`build_report` builds the report document once, keys in the order
of ``docs/report-schema.md``: inventory counts, PsySIL summary, the three
traceability matrices, UCA kind coverage, and the diagnostics of a full
check run. The JSON report is that document; the Markdown report renders
it, plus what the JSON does not carry: the loss, hazard and goal
descriptions and the loss scenarios. Output is a pure function of (model,
config, tool version): arrays sort by entity ID, there are no timestamps,
and file names are relativized, so repeated runs are byte-identical.
"""

from __future__ import annotations

import os
from collections import namedtuple
from json.encoder import encode_basestring

from . import __version__
from .lints import LintConfig, analyze
from .model import AnalysisModel, EntityKind, ScenarioType, UcaKind
from .psysil import determine_psysil, goal_psysil
from .structure import uca_category_coverage

SCHEMA_VERSION = "1"

#: The traceability matrices: the document key; the declarations whose
#: IDs are the rows and the reference field that gives each row's cells;
#: the Markdown heading, whose left side names the row column, and the
#: name of the cell column.
_MATRICES = (
    ("goal_hazard", "goals", "prevents", "Goal x Hazard", "Hazards"),
    ("hazard_loss", "hazards", "leads_to", "Hazard x Loss", "Losses"),
    ("uca_hazard", "ucas", "hazards", "UCA x Hazard", "Hazards"),
)

#: The Markdown PsySIL columns of a hazard without an assessment.
_UNASSESSED = {"severity": "-", "exposure": "-", "controllability": "-",
               "level": "unassessed"}


class Report(namedtuple("Report", [
        #: The JSON document, keys in the documented order.
        "document",
        "diagnostics", "model"])):
    __slots__ = ()


def _relativize(path: str) -> str:
    """``path`` relative to the working directory when it lies below it,
    with undecodable bytes escaped as stderr prints them (``\\udcff``)."""
    if os.path.isabs(path):
        rel = os.path.relpath(path)
        if not rel.startswith(".."):
            path = rel
    return path.encode("utf-8", "backslashreplace").decode("utf-8")


def build_report(model: AnalysisModel,
                 config: LintConfig | None = None) -> Report:
    """Build the report document; runs structure validation and all lints."""
    inventory = {
        "stakeholders": len(model.stakeholders),
        "stakes": len(model.stakes),
        "losses": len(model.losses),
        "hazards": len(model.hazards),
        "goals": len(model.goals),
        "responsibilities": len(model.responsibilities),
        "controllers": sum(1 for e in model.structure.entities
                           if e.kind is EntityKind.CONTROLLER),
        "processes": sum(1 for e in model.structure.entities
                         if e.kind is EntityKind.PROCESS),
        "actions": len(model.structure.actions),
        "feedbacks": len(model.structure.feedbacks),
        "ucas": len(model.ucas),
        "scenarios": len(model.scenarios),
        "assessments": len(model.assessments),
    }

    hazard_psysil = []
    for hazard_id, a in model.assessments.items():
        level = determine_psysil(a.severity, a.exposure, a.controllability)
        hazard_psysil.append({
            "hazard": hazard_id,
            "severity": a.severity.name,
            "exposure": a.exposure.name,
            "controllability": a.controllability.name,
            "level": level.name,
        })

    goals_psysil = []
    for goal in model.goals:
        level = goal_psysil(goal, model)
        goals_psysil.append({
            "goal": goal.id,
            "level": level.name if level is not None else "unassessed",
        })

    matrices = {}
    for key, collection, attr, _, _ in _MATRICES:
        matrices[key] = {d.id: list(getattr(d, attr))
                         for d in getattr(model, collection)}

    diagnostics = analyze(model, config)
    files = {f: _relativize(f) for f in {d.span.file for d in diagnostics}}
    kinds = [kind.value for kind in UcaKind]
    document = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "title": model.title,
        "sae_level": model.sae_level,
        "boundary": model.boundary,
        "inventory": inventory,
        "psysil": {"hazards": hazard_psysil, "goals": goals_psysil},
        "matrices": matrices,
        "uca_coverage": [
            {"action": row.action,
             **{kind: list(ids) for kind, (_, ids) in zip(kinds, row.by_kind)}}
            for row in uca_category_coverage(model)
        ],
        "diagnostics": [
            {"file": files[d.span.file],
             "line": d.span.start_line,
             "col": d.span.start_col,
             "severity": d.severity.value,
             "rule": d.rule,
             "message": d.message,
             "related": list(d.related)}
            for d in diagnostics
        ],
    }
    return Report(document, diagnostics, model)


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, ensure_ascii=False)``
    writes it, nested at ``pad``; for the types a document holds: dict
    (str keys), list, str, int, bool and None. Strings go through the
    same C encoder."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            [encode_basestring(k) + ": " + _json(v, inner)
             for k, v in value.items()]) + "\n" + pad + "}")
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join(
            [_json(v, inner) for v in value]) + "\n" + pad + "]")
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


def emit_json(report: Report) -> str:
    """UTF-8 JSON with documented key order and layout; see
    docs/report-schema.md."""
    return _json(report.document, "") + "\n"


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def _table(header: list[str], rows: list[list[str]],
           out: list[str]) -> None:
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "|".join(" --- " for _ in header) + "|")
    out.extend(["| " + " | ".join([c.replace("|", "\\|") for c in row])
                + " |" for row in rows])


def _section(out: list[str], title: str, header: list[str],
             rows: list[list[str]], empty: str | None,
             note: str | None = None) -> None:
    """A heading, then an optional note, then the table, or ``empty`` in
    its place when there are no rows (``None``: an empty table)."""
    out.extend(["", title, ""])
    if note is not None:
        out.extend([note, ""])
    if rows or empty is None:
        _table(header, rows, out)
    else:
        out.append(empty)


def emit_markdown(report: Report) -> str:
    """GitHub-flavored Markdown report with a fixed section order."""
    doc = report.document
    model = report.model
    matrices = doc["matrices"]
    out = [f"# Psychological safety report: {_cell(doc['title'])}", "",
           "## Overview", "", f"- SAE level: {doc['sae_level']}"]
    if doc["boundary"] is not None:
        out.append(f"- System boundary: {doc['boundary']}")
    out.append(f"- Tool version: {doc['tool_version']}")
    out.append("")
    _table(["Kind", "Count"],
           [[kind, str(count)] for kind, count in doc["inventory"].items()],
           out)

    _section(out, "## Losses", ["ID", "Description", "Violates"],
             [[l.id, l.description, ", ".join(l.violates)]
              for l in model.losses],
             "No losses declared.")

    assessed = {e["hazard"]: e for e in doc["psysil"]["hazards"]}
    hazard_rows = []
    for h in model.hazards:
        entry = assessed.get(h.id, _UNASSESSED)
        hazard_rows.append([h.id, h.description,
                            ", ".join(matrices["hazard_loss"][h.id]),
                            entry["severity"], entry["exposure"],
                            entry["controllability"], entry["level"]])
    _section(out, "## Hazards & PsySIL",
             ["ID", "Description", "Leads to", "S", "E", "C", "PsySIL"],
             hazard_rows, "No hazards declared.")

    levels = {e["goal"]: e["level"] for e in doc["psysil"]["goals"]}
    _section(out, "## Goals", ["ID", "Description", "Prevents", "PsySIL"],
             [[g.id, g.description, ", ".join(matrices["goal_hazard"][g.id]),
               levels[g.id]] for g in model.goals],
             "No goals declared.")

    out.extend(["", "## Traceability"])
    for key, _, _, heading, column in _MATRICES:
        header = [heading.split(" x ")[0], column]
        rows = [[r, ", ".join(cells)] for r, cells in matrices[key].items()]
        _section(out, f"### {heading}", header, rows, None)

    no_ucas = "No UCAs declared; all control actions are uncovered."
    kinds = [kind.value for kind in UcaKind]
    _section(out, "## UCA Coverage", ["Action"] + kinds,
             [[row["action"]] + [", ".join(row[kind]) or "-" for kind in kinds]
              for row in doc["uca_coverage"]],
             "No control actions declared.",
             note=None if doc["inventory"]["ucas"] else no_ucas)

    _section(out, "## Scenarios", ["ID", "For", "Type", "Factor",
                                   "Description"],
             [[s.id, s.for_ref, (ScenarioType.UCA_OCCURRENCE
                                 if model.kind_of(s.for_ref) is EntityKind.UCA
                                 else ScenarioType.IMPROPER_EXECUTION).value,
               s.factor.value, s.description] for s in model.scenarios],
             "No loss scenarios declared.")

    _section(out, "## Diagnostics", ["Location", "Severity", "Rule",
                                     "Message"],
             [[f"{d['file']}:{d['line']}:{d['col']}", d["severity"],
               d["rule"], d["message"]] for d in doc["diagnostics"]],
             "No findings.")

    return "\n".join(out) + "\n"
