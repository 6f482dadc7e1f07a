"""Front-to-back loading pipeline: files -> raw -> resolved.

Multiple input files form one model: each is read on its own (spans keep
their own file names) by ``parser``'s token reader, which gives every
diagnostic, or, above ``FAST_MIN_CHARS``, by ``linereader``, which leaves
it only the header, or the whole file on an odd layout. They are
concatenated in argument order before resolution. Lint suppressions from
``# psysafe-allow`` comments ride along keyed by (file, line).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .diagnostics import (Diagnostic, DiagnosticError, SourceSpan, diag)
from .model import AnalysisModel, resolve
from .parser import FAST_MIN_CHARS, merge_raw_models, read_source

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
    fast = sum(len(text) for _, text in sources) > FAST_MIN_CHARS
    for name, text in sources:
        raw_model, file_diags, file_allows = read_source(text, name, fast)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError([diag("PSY000", f"cannot read {what}: {exc}",
                              SourceSpan(str(path), 1, 1))]) from exc
