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
from .model import DECLS, Form, spelling


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    STRING = "string"
    INT = "integer"
    PUNCT = "punct"


#: Reserved words: every keyword and keyword-spelled enum value of the
#: declaration table, plus the words of the ``analysis`` header and the
#: entity property block, which the parser reads by hand.
KEYWORDS = frozenset({
    "analysis", "sae_level", "boundary",
    "human", "sa_level", "psych_state", "algorithm", "process_model",
    *(kw for spec in DECLS.values() for kw in spec.keywords),
    *(f.keyword for spec in DECLS.values() for f in spec.fields
      if f.keyword is not None),
    *(spelling(m) for spec in DECLS.values() for f in spec.fields
      if not isinstance(f.form, Form) for m in f.form
      if isinstance(m.value, str)),
})

PUNCT_CHARS = frozenset("{}=,")

#: One alternative per lexical class, told apart by the first character;
#: none crosses a line end. A string body is the unrolled form of
#: ``([^"\\\r\n]|\\[^\r\n])*``. A backslash before the line end belongs
#: to an unterminated string, but ``\`` after a closed one is illegal.
_TOKEN_RE = re.compile(r"""
    (?P<newline> \r\n?|\n )
  | (?P<blank> [ \t]+ )
  | \# (?P<comment> [^\r\n]* )
  | (?P<punct> [{}=,] )
  | (?P<int> [0-9]+ )
  | (?P<ident> [A-Za-z][A-Za-z0-9_.]* )
  | " (?P<string> [^"\\\r\n]* (?:\\[^\r\n][^"\\\r\n]*)* )
      (?: (?P<closed> ") | \\? )
  | (?P<illegal> . )
""", re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ALLOW_RE = re.compile(r"^\s*psysafe-allow\b(.*)$")
#: The shape of a rule ID.
RULE_ID_RE = re.compile(r"PSY\d{3}")


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
    line = 1
    # Offset of the current line's first column; a leading BOM takes none.
    line_start = 1 if source.startswith("\ufeff") else 0
    for m in _TOKEN_RE.finditer(source, line_start):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "blank":
            continue
        text = m.group()
        col = m.start() - line_start + 1
        span = SourceSpan(file, line, col, line, col + len(text))
        if kind == "ident":
            res.tokens.append(Token(
                TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                text, span, text))
        elif kind == "punct":
            res.tokens.append(Token(TokenKind.PUNCT, text, span))
        elif kind == "int":
            try:
                res.tokens.append(Token(TokenKind.INT, text, span, int(text)))
            except ValueError:  # beyond the interpreter's int-string limit
                res.diagnostics.append(diag(
                    "PSY000", f"integer literal too long ({len(text)} "
                    "digits)", span))
        elif kind == "comment":
            _record_allow(res, m.group(kind), line)
        elif kind == "illegal":
            res.diagnostics.append(diag(
                "PSY000", f"illegal character {text!r}", span))
        else:  # a string, closed or not
            value = m.group("string")
            if "\\" in value:
                for esc in _ESCAPE_RE.finditer(value):
                    if esc[1] not in '"\\':
                        c = col + 1 + esc.start()
                        res.diagnostics.append(diag(
                            "PSY000", f"unsupported escape sequence "
                            f"'{esc[0]}'", SourceSpan(file, line, c, line,
                                                      c + 2)))
                # Only \" and \\ decode; other escapes stay as written.
                value = _ESCAPE_RE.sub(
                    lambda e: e[1] if e[1] in '"\\' else e[0], value)
            if m.group("closed") is None:
                # Unterminated: the match ran to the end of the line.
                res.diagnostics.append(diag(
                    "PSY000", "unterminated string literal", span))
            else:
                res.tokens.append(Token(TokenKind.STRING, text, span, value))
    return res


def _record_allow(res: LexResult, comment: str, line: int) -> None:
    m = _ALLOW_RE.match(comment)
    if not m:
        return
    rules = frozenset(RULE_ID_RE.findall(m.group(1)))
    if rules:
        res.allows[line] = res.allows.get(line, frozenset()) | rules
