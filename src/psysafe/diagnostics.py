"""Source spans, diagnostics, and the published rule catalog.

Every finding the tool can emit carries a rule ID from :data:`RULES`. Rule
IDs are stable across releases; retired IDs are never reused (PSY008 is
retired).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


class SourceSpan(NamedTuple):
    """Where a finding starts in a source file: its first character.

    Lines and columns are 1-based. Columns count Unicode scalar values, not
    bytes.
    """

    file: str
    start_line: int
    start_col: int


#: Span used for findings that do not originate from a source file
#: (e.g. models built programmatically).
SYNTHETIC_SPAN = SourceSpan("<model>", 1, 1)


class LintRule(NamedTuple):
    id: str
    default_severity: Severity
    #: As the rule table in ``docs/rules.md`` states it.
    description: str
    #: Its findings stop the run (exit 2), so no config may set it.
    aborts: bool = False


_CATALOG = [
    LintRule("PSY000", Severity.ERROR,
             "Input is lexically, syntactically, and configuration-wise "
             "well formed.", aborts=True),
    LintRule("PSY001", Severity.WARNING,
             "Every loss derives from the violation of at least one stake."),
    LintRule("PSY002", Severity.ERROR,
             "Every hazard leads to at least one loss."),
    LintRule("PSY003", Severity.ERROR,
             "Every hazard is prevented by at least one safety goal."),
    LintRule("PSY004", Severity.WARNING,
             "Every safety goal yields at least one responsibility."),
    LintRule("PSY005", Severity.WARNING,
             "Every hazard is traced by at least one UCA."),
    LintRule("PSY006", Severity.WARNING,
             "Every UCA has at least one loss scenario explaining it."),
    LintRule("PSY007", Severity.WARNING,
             "Every hazard carries a risk assessment (severity, exposure, "
             "controllability)."),
    LintRule("PSY009", Severity.WARNING,
             "Human entities state `sa_level` and `psych_state`; non-human "
             "controllers declare at least one `process_model`."),
    LintRule("PSY010", Severity.WARNING,
             "Every control action has a feedback path from its target "
             "back to its source, possibly through intermediate levels "
             "(no open loops)."),
    LintRule("PSY011", Severity.ERROR,
             "Every reference resolves to an existing entity of the "
             "expected kind.", aborts=True),
    LintRule("PSY012", Severity.ERROR,
             "Every responsibility assignee is part of the control "
             "structure."),
    LintRule("PSY013", Severity.ERROR,
             "Entity IDs are unique across the model; at most one "
             "assessment per hazard.", aborts=True),
    LintRule("PSY014", Severity.ERROR,
             "Control actions flow down the hierarchy (source level <= "
             "target level; equal levels allow peer arbitration) and "
             "feedback flows up."),
]

RULES: dict[str, LintRule] = {rule.id: rule for rule in _CATALOG}


class _DiagnosticFields(NamedTuple):
    rule: str
    severity: Severity
    message: str
    span: SourceSpan
    related: tuple[str, ...] = ()


class Diagnostic(_DiagnosticFields):
    """A single finding: parse error, resolution error, or lint result.
    Its rule must be in :data:`RULES`, also after ``_replace``."""

    __slots__ = ()

    def __new__(cls, rule: str, severity: Severity, message: str,
                span: SourceSpan, related: tuple[str, ...] = ()):
        if rule not in RULES:
            raise ValueError(f"unknown rule ID {rule!r}")
        return tuple.__new__(cls, (rule, severity, message, span, related))

    @classmethod
    def _make(cls, iterable) -> Diagnostic:
        return cls(*iterable)


def diag(rule: str, message: str, span: SourceSpan,
         related: tuple[str, ...] = ()) -> Diagnostic:
    """Build a diagnostic at the rule's default severity."""
    return Diagnostic(rule, RULES[rule].default_severity, message, span, related)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """The one diagnostic order: file, line, column, rule, message."""
    return sorted(diags, key=lambda d: (d.span.file, d.span.start_line,
                                        d.span.start_col, d.rule, d.message))


_COLORS = {Severity.ERROR: "\x1b[31m", Severity.WARNING: "\x1b[33m",
           Severity.INFO: "\x1b[36m"}


def format_diagnostic(d: Diagnostic, color: bool = False) -> str:
    """Render ``file:line:col: severity[PSYnnn]: message``.

    This line format is a stability guarantee; CI scripts grep it.
    """
    sev = f"{d.severity}[{d.rule}]"
    if color:
        sev = f"{_COLORS[d.severity]}{sev}\x1b[0m"
    return (f"{d.span.file}:{d.span.start_line}:{d.span.start_col}: "
            f"{sev}: {d.message}")


class DiagnosticError(Exception):
    """Raised when a pipeline stage fails; carries every finding, sorted."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = sort_diagnostics(diagnostics)
        super().__init__("; ".join(format_diagnostic(d)
                                   for d in self.diagnostics))
