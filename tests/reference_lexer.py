"""A reference lexer: the pattern and loop ``psysafe.lexer.tokenize`` had
when each blank run was a match of its own, kept to check the one-match-
per-token loop against.
"""

import re

from psysafe.diagnostics import SourceSpan, diag
from psysafe.lexer import (_ESCAPE_RE, KEYWORDS, LexResult, Token, TokenKind,
                           _record_allow)

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


def tokenize(source: str, file: str = "<input>") -> LexResult:
    res = LexResult([], [], {})
    append = res.tokens.append
    line = 1
    line_start = 1 if source.startswith("\ufeff") else 0
    for m in _TOKEN_RE.finditer(source, line_start):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "ident":
            append(Token(TokenKind.KEYWORD if text in KEYWORDS
                         else TokenKind.IDENT, text, text, file, line, col))
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, text, None, file, line, col))
        elif kind == "int":
            try:
                append(Token(TokenKind.INT, text, int(text), file, line, col))
            except ValueError:
                res.diagnostics.append(diag(
                    "PSY000", f"integer literal too long ({len(text)} "
                    "digits)", SourceSpan(file, line, col)))
        elif kind == "comment":
            _record_allow(res.allows, m.group(kind), line)
        elif kind == "illegal":
            res.diagnostics.append(diag(
                "PSY000", f"illegal character {text!r}",
                SourceSpan(file, line, col)))
        else:
            value = m.group("string")
            if "\\" in value:
                for esc in _ESCAPE_RE.finditer(value):
                    if esc[1] not in '"\\':
                        c = col + 1 + esc.start()
                        res.diagnostics.append(diag(
                            "PSY000", f"unsupported escape sequence "
                            f"'{esc[0]}'", SourceSpan(file, line, c)))
                value = _ESCAPE_RE.sub(
                    lambda e: e[1] if e[1] in '"\\' else e[0], value)
            if m.group("closed") is None:
                res.diagnostics.append(diag(
                    "PSY000", "unterminated string literal",
                    SourceSpan(file, line, col)))
            else:
                append(Token(TokenKind.STRING, text, value, file, line, col))
    return res
