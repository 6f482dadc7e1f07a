"""Front-to-back loading pipeline: files -> tokens -> raw -> resolved.

Multiple input files form one model: they are tokenized and parsed
independently (spans keep their own file names) and concatenated in
argument order before resolution. Lint suppressions collected from
``# psysafe-allow`` comments ride along keyed by (file, line).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .diagnostics import (Diagnostic, DiagnosticError, SourceSpan, diag)
from .lexer import tokenize
from .model import AnalysisModel, resolve
from .parser import merge_raw_models, parse

Allows = dict[tuple[str, int], frozenset[str]]


class LoadError(DiagnosticError):
    """Lexing, parsing, or resolution failed; carries every finding."""


def load_sources(sources: Sequence[tuple[str, str]]
                 ) -> tuple[AnalysisModel, Allows]:
    """Load a model from (name, text) pairs, in order.

    Raises :class:`LoadError` with the full diagnostic list when any file
    fails to lex/parse or the concatenation fails to resolve.
    """
    diags: list[Diagnostic] = []
    parsed = []
    allows: Allows = {}
    for name, text in sources:
        lex = tokenize(text, name)
        diags.extend(lex.diagnostics)
        for line, rules in lex.allows.items():
            allows[(name, line)] = rules
        raw_model, parse_diags = parse(lex.tokens, name)
        diags.extend(parse_diags)
        parsed.append((name, raw_model))
    if diags:
        raise LoadError(diags)
    merged, merge_diags = merge_raw_models(parsed)
    if merge_diags:
        raise LoadError(merge_diags)
    return resolve(merged), allows


def load_model(paths: Sequence[str | Path]
               ) -> tuple[AnalysisModel, Allows]:
    """Load one model from ``.psy`` files, concatenated in argument order."""
    if not paths:
        raise LoadError([diag("PSY000", "no input files",
                              SourceSpan("<input>", 1, 1, 1, 1))])
    sources = []
    for path in paths:
        name = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LoadError([diag(
                "PSY000", f"cannot read file: {exc}",
                SourceSpan(name, 1, 1, 1, 1))]) from exc
        sources.append((name, text))
    return load_sources(sources)
