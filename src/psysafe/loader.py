"""Front-to-back loading pipeline: files -> raw -> resolved.

Multiple input files form one model: each is read on its own (spans keep
their own file names), and they are concatenated in argument order before
resolution. :func:`load_sources` picks the reader of them all by their
total size: ``parser.read_source``, the token reader, which gives every
diagnostic, or, above ``FAST_MIN_CHARS``, ``linereader``, which leaves it
only the runs of lines its patterns cannot read: the header and each
broken declaration. Lint suppressions from ``# psysafe-allow`` comments
ride along keyed by (file, line).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .diagnostics import (Diagnostic, DiagnosticError, SourceSpan, diag)
from .model import AnalysisModel, resolve
from .parser import merge_raw_models, read_source

#: Inputs of more characters take the line reader: its patterns cost ≈9 ms
#: to compile and save ≈0.13 ms per 1k characters, breaking even at 74k-77k
#: on perfbench/gen.py models (median of 31 runs, Python 3.11.7, 2-vCPU VM).
FAST_MIN_CHARS = 75_000

Allows = dict[tuple[str, int], frozenset[str]]


class LoadError(DiagnosticError):
    """No input, an unreadable file, or lexing, parsing or merging failed;
    carries every finding. Resolution raises ``model.ResolveError``."""


def load_sources(sources: Sequence[tuple[str, str]]
                 ) -> tuple[AnalysisModel, Allows]:
    """Load a model from (name, text) pairs, in order.

    Raises :class:`LoadError` with the full diagnostic list when any file
    fails to lex/parse or the files fail to merge, and
    :class:`~psysafe.model.ResolveError` when the merged model fails to
    resolve; both are :class:`DiagnosticError`.
    """
    diags: list[Diagnostic] = []
    parsed = []
    allows: Allows = {}
    read = read_source
    if sum(len(text) for _, text in sources) > FAST_MIN_CHARS:
        from .linereader import _read_lines as read  # large inputs only
    for name, text in sources:
        raw_model, file_diags, file_allows = read(text, name)
        diags.extend(file_diags)
        allows.update(((name, line), rules)
                      for line, rules in file_allows.items())
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
                              SourceSpan("<input>", 1, 1))])
    return load_sources([(str(path), read_file(path, "file"))
                         for path in paths])


def read_file(path: str | Path, what: str) -> str:
    """The UTF-8 text of ``path``; raises :class:`LoadError`, PSY000
    "cannot read ``what``", if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise LoadError([diag("PSY000", f"cannot read {what}: {exc}",
                              SourceSpan(str(path), 1, 1))]) from exc
