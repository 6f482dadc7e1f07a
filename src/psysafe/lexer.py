"""Lexer for the ``.psy`` model language.

Produces a flat token stream by one pattern match per token, which also
takes the blanks before it. Each token carries its file, line and column
(1-based, in code points); its :class:`SourceSpan`, that start, is built
on demand by :attr:`Token.span`, since only diagnostics and declarations
ask for one. Comments start with ``#`` and run to the end of the line;
``# psysafe-allow PSYnnn`` comments are collected separately so lint
suppression can be keyed to the line they appear on. Strings are
double-quoted with ``\\"`` and ``\\\\`` escapes and may not span lines.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan, diag
from .model import DECLS, Form, spelling


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    INT = "integer"
    PUNCT = "punct"


#: Aliases that spare the hot loop of :func:`tokenize` the enum lookups.
_KEYWORD, _IDENT, _STRING, _INT, _PUNCT = (
    TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.STRING, TokenKind.INT,
    TokenKind.PUNCT)
#: Builds a record from a tuple of its fields without the Python frame of
#: its ``__new__``.
_new = tuple.__new__

#: Reserved words: every keyword and keyword-spelled enum value of
#: ``DECLS``, plus the words of the ``analysis`` header, read by hand.
KEYWORDS = frozenset({
    "analysis", "sae_level", "boundary",
    *(kw for spec in DECLS.values() for kw in spec.keywords),
    *(f.keyword for spec in DECLS.values() for f in spec.fields + spec.block
      if f.keyword is not None),
    *(spelling(m) for spec in DECLS.values() for f in spec.fields
      if not isinstance(f.form, Form) for m in f.form
      if isinstance(m.value, str)),
})

#: The lexical classes the line reader also reads: an identifier, an
#: integer (ASCII digits) and a line end.
_IDENT_PATTERN = "[A-Za-z][A-Za-z0-9_.]*"
_INT_PATTERN = "[0-9]+"
_NEWLINE_PATTERN = r"\r\n?|\n"
#: Blanks, then one alternative per lexical class, told apart by the first
#: character; none crosses a line end. Each class's group holds the whole
#: token, so one match reads a token and the blanks before it. The end of
#: the source counts as a line end, so trailing blanks match too. A string
#: body is the unrolled form of ``([^"\\\r\n]|\\[^\r\n])*``. A backslash
#: before the line end belongs to an unterminated string, but ``\`` after a
#: closed one is illegal.
_TOKEN_RE = re.compile(rf"""
    [ \t]* (?:
    (?P<ident> {_IDENT_PATTERN} )
  | (?P<newline> {_NEWLINE_PATTERN}|\Z )
  | (?P<punct> [{{}}=,] )
  | (?P<string> " (?P<body> [^"\\\r\n]* (?:\\[^\r\n][^"\\\r\n]*)* )
      (?: (?P<closed> ") | \\? ) )
  | (?P<int> {_INT_PATTERN} )
  | (?P<comment> \# [^\r\n]* )
  | (?P<illegal> . ) )
""", re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
#: A whole allow comment: ``psysafe-allow``, then nothing, or whitespace
#: and the rule IDs.
_ALLOW_RE = re.compile(r"\s*psysafe-allow(|\s.*)")
#: The shape of a rule ID: ``PSY`` and three ASCII digits, a whole word.
RULE_ID_RE = re.compile(r"\bPSY[0-9]{3}\b")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    #: Decoded payload: unescaped string value or parsed integer.
    value: object
    file: str
    line: int
    #: 1-based, in code points.
    col: int

    @property
    def span(self) -> SourceSpan:
        """Where the token starts: its last three fields, built on demand."""
        return _new(SourceSpan, self[3:])


class LexResult(NamedTuple):
    tokens: list[Token]
    diagnostics: list[Diagnostic]
    #: line number -> rule IDs suppressed on that line.
    allows: dict[int, frozenset[str]]


def tokenize(source: str, file: str = "<input>",
             first_line: int = 1) -> LexResult:
    """Lex ``source`` into tokens, recovering from lexical errors.

    One pattern match reads each token with the blanks before it, and
    each line end. All non-whitespace, non-comment input is covered by
    tokens; on error a diagnostic is recorded and lexing continues on the
    next character or line. The token list never contains an EOF sentinel.

    ``first_line`` numbers the first line of ``source``, a run of lines
    from a larger file; a leading BOM is skipped only on line 1.
    """
    res = LexResult([], [], {})
    append = res.tokens.append
    line = first_line
    # Offset of the current line's first column; a leading BOM takes none.
    line_start = 1 if first_line == 1 and source.startswith("\ufeff") else 0
    for m in _TOKEN_RE.finditer(source, line_start):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "ident":
            append(_new(Token, (_KEYWORD if text in KEYWORDS else _IDENT,
                                text, text, file, line, col)))
        elif kind == "punct":
            append(_new(Token, (_PUNCT, text, None, file, line, col)))
        elif kind == "int":
            try:
                append(_new(Token, (_INT, text, int(text), file, line, col)))
            except ValueError:  # beyond the interpreter's int-string limit
                res.diagnostics.append(diag(
                    "PSY000", f"integer literal too long ({len(text)} "
                    "digits)", SourceSpan(file, line, col)))
        elif kind == "comment":
            _record_allow(res.allows, text[1:], line)
        elif kind == "illegal":
            res.diagnostics.append(diag(
                "PSY000", f"illegal character {text!r}",
                SourceSpan(file, line, col)))
        else:  # a string, closed or not
            value, closed = m.group("body", "closed")
            if "\\" in value:
                for esc in _ESCAPE_RE.finditer(value):
                    if esc[1] not in '"\\':
                        c = col + 1 + esc.start()
                        res.diagnostics.append(diag(
                            "PSY000", f"unsupported escape sequence "
                            f"'{esc[0]}'", SourceSpan(file, line, c)))
                # Only \" and \\ decode; other escapes stay as written.
                value = _ESCAPE_RE.sub(
                    lambda e: e[1] if e[1] in '"\\' else e[0], value)
            if closed is None:
                # Unterminated: the match ran to the end of the line.
                res.diagnostics.append(diag(
                    "PSY000", "unterminated string literal",
                    SourceSpan(file, line, col)))
            else:
                append(_new(Token, (_STRING, text, value, file, line, col)))
    return res


def _record_allow(allows: dict, comment: str, line: int) -> None:
    m = _ALLOW_RE.fullmatch(comment)
    if not m:
        return
    rules = frozenset(RULE_ID_RE.findall(m.group(1)))
    if rules:
        allows[line] = allows.get(line, frozenset()) | rules
