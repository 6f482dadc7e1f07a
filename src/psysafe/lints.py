"""Completeness lints over a resolved model, plus lint configuration.

Each completeness rule is one row of :data:`COMPLETENESS`. A config file
can promote, demote, or switch off any rule that does not abort the run,
and a ``# psysafe-allow PSYnnn`` comment on a declaration line suppresses
that rule for that declaration.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .diagnostics import (Diagnostic, RULES, Severity, diag,
                          sort_diagnostics)
from .lexer import RULE_ID_RE, TokenKind, tokenize
from .model import (DECLS, NODE_KINDS, AnalysisModel, Hazard, Loss,
                    LossScenario, Responsibility, RiskAssessment, SafetyGoal,
                    Uca)
from .structure import validate_structure

SETTINGS = tuple(s.value for s in Severity) + ("off",)


def _setting_error(rule_id: str, value: str) -> str | None:
    """Why ``rule_id = value`` is not a valid setting; None when it is."""
    if rule_id not in RULES:
        return f"unknown lint rule {rule_id!r}"
    if RULES[rule_id].aborts:
        return f"lint rule {rule_id} cannot be configured; it aborts the run"
    if value not in SETTINGS:
        return (f"invalid severity {value!r}; use "
                f"{', '.join(SETTINGS[:-1])}, or {SETTINGS[-1]}")
    return None


class LintConfig(namedtuple("LintConfig", [
        "overrides",
        #: Read by nothing in psysafe (``check --strict`` sets the exit
        #: code); kept while perfbench/replay.py still sets it.
        "strict",
        "allows"], defaults=[MappingProxyType({}), False,
                             MappingProxyType({})])):
    """Severity overrides and per-line suppressions.

    ``overrides`` maps rule IDs to ``error``/``warning``/``info``/``off``;
    ``allows`` maps ``(file, line)`` to the rule IDs suppressed on that
    line. Every override is checked at construction, also by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for rule_id, value in self.overrides.items():
            if error := _setting_error(rule_id, value):
                raise ValueError(error)
        return self

    @classmethod
    def _make(cls, iterable) -> LintConfig:
        return cls(*iterable)


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
            d = Diagnostic(d.rule, Severity(override), d.message,
                           d.span, d.related)
        out.append(d)
    return out


#: The completeness rules: the rule; the declaration type a finding is
#: about; the link it needs, as (declaration type, reference field) of
#: :data:`~psysafe.model.DECLS`; and the message, ``{}`` being the ID. A
#: link through the type's own field must name at least one declaration;
#: one through another type's field must name each declaration.
COMPLETENESS = (
    ("PSY001", Loss, (Loss, "violates"),
     "loss {} is not derived from any stake"),
    ("PSY002", Hazard, (Hazard, "leads_to"),
     "hazard {} does not lead to any loss"),
    ("PSY003", Hazard, (SafetyGoal, "prevents"),
     "hazard {} is not prevented by any safety goal"),
    ("PSY004", SafetyGoal, (Responsibility, "derived_from"),
     "goal {} has no responsibility derived from it"),
    ("PSY005", Hazard, (Uca, "hazards"),
     "hazard {} is not traced by any UCA"),
    # IDs are unique across kinds, so the scenarios that name a UCA are
    # exactly those that explain its occurrence.
    ("PSY006", Uca, (LossScenario, "for_ref"),
     "UCA {} has no loss scenario"),
    ("PSY007", Hazard, (RiskAssessment, "hazard"),
     "hazard {} has no risk assessment"),
)


def _lint_findings(model: AnalysisModel) -> list[Diagnostic]:
    """The completeness and assignment findings, unconfigured, unsorted."""
    diags: list[Diagnostic] = []
    for rule, subject, (owner, attr), message in COMPLETENESS:
        spec = DECLS[owner]
        ref = next(r for r in spec.refs if r.attr == attr)
        if owner is subject:
            missing = [d for d in spec.items(model) if not ref.targets(d)]
        else:
            named = set().union(*map(ref.targets, spec.items(model)))
            missing = [d for d in DECLS[subject].items(model)
                       if d.id not in named]
        diags.extend(diag(rule, message.format(d.id), model.span_of(d.id),
                          (d.id,)) for d in missing)

    for resp in model.responsibilities:
        if model.kind_of(resp.assignee) not in NODE_KINDS:
            diags.append(diag(
                "PSY012", f"responsibility {resp.id} assignee "
                f"'{resp.assignee}' is not part of the control structure",
                model.span_of(resp.id), (resp.id, resp.assignee)))
    return diags


def run_lints(model: AnalysisModel,
              config: LintConfig | None = None) -> list[Diagnostic]:
    """The lint findings alone, with ``config`` applied, in
    :func:`sort_diagnostics` order. Pure function of (model, config)."""
    return sort_diagnostics(apply_config(_lint_findings(model), config))


def analyze(model: AnalysisModel,
            config: LintConfig | None = None) -> list[Diagnostic]:
    """Every finding on a resolved model: structure validation and all
    lints, with ``config`` applied, in :func:`sort_diagnostics` order."""
    structure = validate_structure(model.structure, model.spans)
    return sort_diagnostics(apply_config(structure + _lint_findings(model),
                                         config))


def _next_setting(toks: list, i: int) -> int:
    """Where reading resumes after a broken setting: the index of the
    next ``PSYnnn``-shaped identifier or ``}`` from ``i``."""
    while i < len(toks) and toks[i].text != "}" and not (
            toks[i].kind is TokenKind.IDENT
            and RULE_ID_RE.fullmatch(toks[i].text)):
        i += 1
    return i


def parse_config(source: str, file: str = "psysafe.conf"
                 ) -> tuple[LintConfig, list[Diagnostic]]:
    """Parse a ``lint { PSYnnn = severity ... }`` configuration file.

    Unknown rules, rules that abort the run, invalid severities and a
    rule set twice are reported as PSY000 errors, one per broken
    setting; on any error the returned config carries no overrides.
    """
    lex = tokenize(source, file)
    diags = list(lex.diagnostics)
    overrides: dict[str, str] = {}
    toks = lex.tokens
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.kind is not TokenKind.IDENT or tok.text != "lint":
            diags.append(diag(
                "PSY000", f"expected 'lint' block, found {tok.text!r}",
                tok.span))
            break
        if i + 1 >= len(toks) or toks[i + 1].text != "{":
            diags.append(diag("PSY000", "expected '{' after 'lint'",
                              tok.span))
            break
        i += 2
        while i < len(toks) and toks[i].text != "}":
            key = toks[i]
            if key.kind is not TokenKind.IDENT or key.text not in RULES:
                diags.append(diag("PSY000", f"unknown lint rule {key.text!r}",
                                  key.span))
                i = _next_setting(toks, i + 1)
                continue
            if (i + 2 >= len(toks) or toks[i + 1].text != "="
                    or toks[i + 2].text == "}"):
                diags.append(diag(
                    "PSY000", f"expected '= severity' after {key.text}",
                    key.span))
                i = _next_setting(toks, i + 1)
                continue
            value = toks[i + 2]
            if key.text in overrides:
                diags.append(diag(
                    "PSY000", f"duplicate setting for {key.text}", key.span))
            if error := _setting_error(key.text, value.text):
                at = key if RULES[key.text].aborts else value
                diags.append(diag("PSY000", error, at.span))
            overrides[key.text] = value.text
            i += 3
        if i >= len(toks):
            diags.append(diag("PSY000", "expected '}' to close the "
                              "lint block", tok.span))
        i += 1
    if any(d.severity is Severity.ERROR for d in diags):
        overrides = {}
    return LintConfig(overrides=overrides), diags
