"""psysafe: hazard analysis for psychological safety of human-AV interaction.

Parses declarative ``.psy`` analysis models, rates psychological hazards
on the PsySIL scale (QM, A-D) from severity, exposure, and
controllability, validates the hierarchical control structure, lints the
traceability graph for completeness, and emits deterministic JSON and
Markdown reports.
"""

__version__ = "0.1.0"

from .diagnostics import (Diagnostic, DiagnosticError, LintRule, RULES,
                          Severity, SourceSpan, format_diagnostic)
from .lexer import Token, TokenKind, tokenize
from .parser import RawModel, merge_raw_models, parse
from .model import (AnalysisModel, ControlAction, ControllabilityClass,
                    ControlStructure, Entity, EntityKind, ExposureClass,
                    FeedbackLink, Hazard, Loss, LossScenario, PsySilLevel,
                    ResolveError, Responsibility, RiskAssessment,
                    SafetyGoal, ScenarioType, SeverityClass, Stake,
                    Stakeholder, Uca, UcaKind, resolve)
from .psysil import PsySilCell, determine_psysil, goal_psysil, psysil_table
from .structure import (CoverageRow, uca_category_coverage,
                        validate_structure)
from .tracegraph import (EdgeType, TraceEdge, TraceGraph, build_trace_graph,
                         format_trace_tree, trace_from)
from .lints import LintConfig, analyze, apply_config, parse_config, run_lints
from .printer import print_canonical
from .loader import LoadError, load_model, load_sources
from .report import Report, build_report, emit_json, emit_markdown
from .corpus import load_paper_example

__all__ = [
    "AnalysisModel", "ControlAction", "ControlStructure",
    "ControllabilityClass", "CoverageRow", "Diagnostic", "DiagnosticError",
    "EdgeType", "Entity", "EntityKind", "ExposureClass", "FeedbackLink",
    "Hazard", "LintConfig", "LintRule", "LoadError", "Loss", "LossScenario",
    "PsySilCell", "PsySilLevel", "RULES", "RawModel", "Report",
    "ResolveError", "Responsibility", "RiskAssessment", "SafetyGoal",
    "ScenarioType", "Severity", "SeverityClass", "SourceSpan", "Stake",
    "Stakeholder", "Token", "TokenKind", "TraceEdge", "TraceGraph", "Uca",
    "UcaKind", "analyze", "apply_config", "build_report", "build_trace_graph",
    "determine_psysil", "emit_json", "emit_markdown",
    "format_diagnostic", "format_trace_tree", "goal_psysil",
    "load_model", "load_paper_example", "load_sources", "merge_raw_models",
    "parse", "parse_config", "print_canonical", "psysil_table", "resolve",
    "run_lints", "tokenize", "trace_from", "uca_category_coverage",
    "validate_structure",
]
