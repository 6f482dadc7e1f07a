"""psysafe: hazard analysis for psychological safety of human-AV interaction.

Parses declarative ``.psy`` analysis models, rates psychological hazards
on the PsySIL scale (QM, A-D) from severity, exposure, and
controllability, validates the hierarchical control structure, lints the
traceability graph for completeness, and emits deterministic JSON and
Markdown reports.

Submodules load on first use (PEP 562): ``import psysafe`` loads none,
and reading a public name loads only the module that defines it. The
names and the objects they resolve to are those of the submodules.
"""

__version__ = "0.1.0"

#: Each submodule and the public names it provides.
_EXPORTS = {
    "diagnostics": "Diagnostic DiagnosticError LintRule RULES Severity "
                   "SourceSpan format_diagnostic",
    "lexer": "Token TokenKind tokenize",
    "parser": "RawModel merge_raw_models parse",
    "model": "AnalysisModel ControlAction ControllabilityClass "
             "ControlStructure EdgeType Entity EntityKind ExposureClass "
             "FeedbackLink Hazard Loss LossScenario PsySilLevel ResolveError "
             "Responsibility RiskAssessment SafetyGoal ScenarioType "
             "SeverityClass Stake Stakeholder Uca UcaKind resolve",
    "psysil": "PsySilCell determine_psysil goal_psysil psysil_table",
    "structure": "CoverageRow uca_category_coverage validate_structure",
    "tracegraph": "TraceEdge TraceGraph build_trace_graph format_trace_tree",
    "lints": "LintConfig analyze apply_config parse_config run_lints",
    "printer": "print_canonical",
    "loader": "LoadError load_model load_sources",
    "report": "Report build_report emit_json emit_markdown",
}
_HOME = {n: mod for mod, names in _EXPORTS.items() for n in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
