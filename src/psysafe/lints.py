"""Completeness lints over a resolved model, plus lint configuration.

Structural violations of the risk model (PSY002, PSY003, PSY012) default
to errors; coverage gaps that are normal mid-analysis (PSY001, PSY004,
PSY005, PSY006, PSY007) default to warnings. A config file can promote,
demote, or switch off any rule, and a ``# psysafe-allow PSYnnn`` comment
on a declaration line suppresses that rule for that declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .diagnostics import (Diagnostic, RULES, Severity, diag,
                          sort_diagnostics)
from .lexer import TokenKind, tokenize
from .model import AnalysisModel, ScenarioType
from .structure import validate_structure

SEVERITY_NAMES = {"error": Severity.ERROR, "warning": Severity.WARNING,
                  "info": Severity.INFO}


@dataclass(frozen=True)
class LintConfig:
    """Severity overrides, strict mode, and per-line suppressions.

    ``overrides`` maps rule IDs to ``error``/``warning``/``info``/``off``;
    ``allows`` maps ``(file, line)`` to the rule IDs suppressed on that
    line.
    """

    overrides: Mapping[str, str] = field(default_factory=dict)
    strict: bool = False
    allows: Mapping[tuple[str, int], frozenset[str]] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        for rule_id, value in self.overrides.items():
            if rule_id not in RULES:
                raise ValueError(f"unknown lint rule {rule_id!r}")
            if value != "off" and value not in SEVERITY_NAMES:
                raise ValueError(f"invalid severity {value!r} for {rule_id}")


def apply_config(diagnostics: list[Diagnostic],
                 config: LintConfig | None) -> list[Diagnostic]:
    """Drop suppressed/switched-off findings and remap severities."""
    if config is None:
        config = LintConfig()
    out = []
    for d in diagnostics:
        allowed = config.allows.get((d.span.file, d.span.start_line))
        if allowed and d.rule in allowed:
            continue
        override = config.overrides.get(d.rule)
        if override == "off":
            continue
        if override is not None:
            d = Diagnostic(d.rule, SEVERITY_NAMES[override], d.message,
                           d.span, d.related)
        out.append(d)
    return out


def run_lints(model: AnalysisModel,
              config: LintConfig | None = None) -> list[Diagnostic]:
    """Evaluate the completeness rules over a resolved model.

    Pure function of (model, config); the result is sorted by
    (file, line, rule) and identical on repeated runs.
    """
    diags: list[Diagnostic] = []

    for loss in model.losses:
        if not loss.violates:
            diags.append(diag(
                "PSY001", f"loss {loss.id} is not derived from any stake",
                model.span_of(loss.id), (loss.id,)))

    for hazard in model.hazards:
        if not hazard.leads_to:
            diags.append(diag(
                "PSY002", f"hazard {hazard.id} does not lead to any loss",
                model.span_of(hazard.id), (hazard.id,)))

    prevented = frozenset().union(*(g.prevents for g in model.goals)) \
        if model.goals else frozenset()
    for hazard in model.hazards:
        if hazard.id not in prevented:
            diags.append(diag(
                "PSY003", f"hazard {hazard.id} is not prevented by any "
                "safety goal", model.span_of(hazard.id), (hazard.id,)))

    covered_goals = frozenset().union(
        *(r.derived_from for r in model.responsibilities)) \
        if model.responsibilities else frozenset()
    for goal in model.goals:
        if goal.id not in covered_goals:
            diags.append(diag(
                "PSY004", f"goal {goal.id} has no responsibility derived "
                "from it", model.span_of(goal.id), (goal.id,)))

    traced = frozenset().union(*(u.hazards for u in model.ucas)) \
        if model.ucas else frozenset()
    for hazard in model.hazards:
        if hazard.id not in traced:
            diags.append(diag(
                "PSY005", f"hazard {hazard.id} is not traced by any UCA",
                model.span_of(hazard.id), (hazard.id,)))

    explained = frozenset(
        s.for_ref for s in model.scenarios
        if s.scenario_type is ScenarioType.UCA_OCCURRENCE)
    for uca in model.ucas:
        if uca.id not in explained:
            diags.append(diag(
                "PSY006", f"UCA {uca.id} has no loss scenario",
                model.span_of(uca.id), (uca.id,)))

    for hazard in model.hazards:
        if hazard.id not in model.assessments:
            diags.append(diag(
                "PSY007", f"hazard {hazard.id} has no risk assessment",
                model.span_of(hazard.id), (hazard.id,)))

    structure_ids = frozenset(e.id for e in model.structure.entities)
    for resp in model.responsibilities:
        if resp.assignee not in structure_ids:
            diags.append(diag(
                "PSY012", f"responsibility {resp.id} assignee "
                f"'{resp.assignee}' is not part of the control structure",
                model.span_of(resp.id), (resp.id, resp.assignee)))

    return sort_diagnostics(apply_config(diags, config))


def analyze(model: AnalysisModel,
            config: LintConfig | None = None) -> list[Diagnostic]:
    """Every finding on a resolved model: structure validation and all
    lints, with ``config`` applied, in :func:`sort_diagnostics` order."""
    diags = apply_config(validate_structure(model.structure, model.spans),
                         config)
    return sort_diagnostics(diags + run_lints(model, config))


def parse_config(source: str, file: str = "psysafe.conf",
                 strict: bool = False) -> tuple[LintConfig, list[Diagnostic]]:
    """Parse a ``lint { PSYnnn = severity ... }`` configuration file.

    Unknown rules or invalid severities are reported as PSY000 errors;
    on any error the returned config carries no overrides.
    """
    lex = tokenize(source, file)
    diags = list(lex.diagnostics)
    overrides: dict[str, str] = {}
    toks = lex.tokens
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.kind is TokenKind.IDENT and tok.text == "lint":
            i += 1
            if i >= len(toks) or toks[i].text != "{":
                diags.append(diag("PSY000", "expected '{' after 'lint'",
                                  tok.span))
                break
            i += 1
            while i < len(toks) and toks[i].text != "}":
                key = toks[i]
                if key.kind is not TokenKind.IDENT or key.text not in RULES:
                    diags.append(diag(
                        "PSY000", f"unknown lint rule {key.text!r}",
                        key.span))
                    i += 1
                    continue
                if i + 2 >= len(toks) or toks[i + 1].text != "=":
                    diags.append(diag(
                        "PSY000", f"expected '= severity' after "
                        f"{key.text}", key.span))
                    i += 1
                    continue
                value = toks[i + 2]
                if value.text not in ("error", "warning", "info", "off"):
                    diags.append(diag(
                        "PSY000", f"invalid severity {value.text!r}; use "
                        "error, warning, info, or off", value.span))
                else:
                    overrides[key.text] = value.text
                i += 3
            if i >= len(toks):
                diags.append(diag("PSY000", "expected '}' to close the "
                                  "lint block", tok.span))
            i += 1
        else:
            diags.append(diag(
                "PSY000", f"expected 'lint' block, found {tok.text!r}",
                tok.span))
            break
    if any(d.severity is Severity.ERROR for d in diags):
        overrides = {}
    return LintConfig(overrides=overrides, strict=strict), diags
