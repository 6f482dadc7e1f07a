"""Lexer for the ``.psy`` model language.

Produces a flat token stream with exact source spans. Comments start with
``#`` and run to the end of the line; ``# psysafe-allow PSYnnn`` comments
are collected separately so lint suppression can be keyed to the line they
appear on. Strings are double-quoted with ``\\"`` and ``\\\\`` escapes and
may not span lines.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, SourceSpan, diag


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    INT = "integer"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset({
    "analysis", "sae_level", "boundary",
    "stakeholder", "stake", "loss", "hazard", "goal",
    "controller", "process", "level",
    "human", "sa_level", "psych_state", "algorithm", "process_model",
    "action", "feedback", "from", "to",
    "resp", "of",
    "uca", "on", "kind", "context", "hazards",
    "not_provided", "provided", "wrong_timing", "wrong_duration",
    "scenario", "for", "factor",
    "controller_failure", "inadequate_algorithm", "unsafe_input",
    "inadequate_process_model",
    "assess", "severity", "exposure", "controllability", "rationale",
    "violates", "leads_to", "prevents",
})

PUNCT_CHARS = frozenset("{}=,")

_IDENT_START = re.compile(r"[A-Za-z]")
_IDENT_CONT = re.compile(r"[A-Za-z0-9_.]")
_ALLOW_RE = re.compile(r"^\s*psysafe-allow\b(.*)$")
_RULE_RE = re.compile(r"PSY\d{3}")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan
    #: Decoded payload: unescaped string value or parsed integer.
    value: object = None


@dataclass
class LexResult:
    tokens: list[Token] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: line number -> rule IDs suppressed on that line.
    allows: dict[int, frozenset[str]] = field(default_factory=dict)


def tokenize(source: str, file: str = "<input>") -> LexResult:
    """Lex ``source`` into tokens, recovering from lexical errors.

    All non-whitespace, non-comment input is covered by tokens; on error a
    diagnostic is recorded and lexing continues on the next character or
    line. The token list never contains an EOF sentinel.
    """
    res = LexResult()
    pos = 0
    line = 1
    col = 1
    n = len(source)
    if source.startswith("﻿"):
        pos = 1

    def span_from(sl: int, sc: int) -> SourceSpan:
        return SourceSpan(file, sl, sc, line, col)

    while pos < n:
        ch = source[pos]

        if ch == "\r":
            pos += 2 if source.startswith("\r\n", pos) else 1
            line += 1
            col = 1
            continue
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t":
            pos += 1
            col += 1
            continue

        if ch == "#":
            start = pos
            while pos < n and source[pos] not in "\r\n":
                pos += 1
            _record_allow(res, source[start + 1:pos], line)
            col += pos - start
            continue

        start_line, start_col = line, col

        if ch in PUNCT_CHARS:
            pos += 1
            col += 1
            res.tokens.append(Token(TokenKind.PUNCT, ch,
                                    span_from(start_line, start_col)))
            continue

        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= source[pos] <= "9":
                pos += 1
                col += 1
            text = source[start:pos]
            try:
                value = int(text)
            except ValueError:  # beyond the interpreter's int-string limit
                res.diagnostics.append(diag(
                    "PSY000", f"integer literal too long ({len(text)} "
                    "digits)", span_from(start_line, start_col)))
                continue
            res.tokens.append(Token(TokenKind.INT, text,
                                    span_from(start_line, start_col), value))
            continue

        if _IDENT_START.match(ch):
            start = pos
            while pos < n and _IDENT_CONT.match(source[pos]):
                pos += 1
                col += 1
            text = source[start:pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            res.tokens.append(Token(kind, text,
                                    span_from(start_line, start_col), text))
            continue

        if ch == '"':
            tok = _lex_string(source, pos, line, col, file, res)
            if tok is None:
                # Unterminated: resume at end of line.
                while pos < n and source[pos] not in "\r\n":
                    pos += 1
                    col += 1
            else:
                res.tokens.append(tok)
                pos += len(tok.text)
                col = tok.span.end_col
            continue

        res.diagnostics.append(diag(
            "PSY000", f"illegal character {ch!r}",
            SourceSpan(file, line, col, line, col + 1)))
        pos += 1
        col += 1

    return res


def _lex_string(source: str, pos: int, line: int, col: int, file: str,
                res: LexResult) -> Token | None:
    """Scan a string literal starting at the opening quote.

    Returns None (after recording a diagnostic) when the string is not
    terminated before the end of the line.
    """
    start_pos, start_col = pos, col
    i = pos + 1
    out: list[str] = []
    while i < len(source):
        ch = source[i]
        if ch in "\r\n":
            break
        if ch == '"':
            text = source[start_pos:i + 1]
            end_col = start_col + (i + 1 - start_pos)
            return Token(TokenKind.STRING, text,
                         SourceSpan(file, line, start_col, line, end_col),
                         "".join(out))
        if ch == "\\":
            nxt = source[i + 1] if i + 1 < len(source) else ""
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
            if nxt in ("\r", "\n", ""):
                i += 1
                break  # reported as unterminated below
            res.diagnostics.append(diag(
                "PSY000", f"unsupported escape sequence '\\{nxt}'",
                SourceSpan(file, line, start_col + (i - start_pos),
                           line, start_col + (i - start_pos) + 2)))
            out.append(ch)
            out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    res.diagnostics.append(diag(
        "PSY000", "unterminated string literal",
        SourceSpan(file, line, start_col, line,
                   start_col + (i - start_pos))))
    return None


def _record_allow(res: LexResult, comment: str, line: int) -> None:
    m = _ALLOW_RE.match(comment)
    if not m:
        return
    rules = frozenset(_RULE_RE.findall(m.group(1)))
    if rules:
        res.allows[line] = res.allows.get(line, frozenset()) | rules
