"""Recursive-descent parser for the ``.psy`` language.

The grammar is keyword-led and LL(1): every declaration starts with a
distinct keyword, so recovery after a syntax error skips to the next
declaration keyword and at most one diagnostic is emitted per broken
declaration.

The grammar is written out in ``docs/language.md``. Each declaration's
syntax is not restated here: the parser walks the fields of its entry in
:data:`psysafe.model.DECLS`, and the line reader compiles its patterns
from them, and an entity's property block by its block fields. Only the
header is read by hand.

A single model may span several files: each file allows at most one
``analysis`` header (as its first construct), and merging enforces exactly
one header across the concatenation.

:func:`read_source` has two readers. The token reader is :func:`tokenize`
then :func:`parse`. The line reader builds each declaration on one line,
and each entity block whose properties each stand on one line with their
values, straight from the matches of patterns, and records the allows of
comment lines. Every other run of lines, such as the header, goes to the
token reader. Every diagnostic comes from the token reader over the whole
file: on anything it would report, the line reader gives up and the token
reader reads the whole file.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan, diag
from .lexer import (_ESCAPE_RE, KEYWORDS, LexResult, Token, TokenKind,
                    _record_allow, tokenize)
from .model import DECLS, Field, Form, spelling


class RawHeader(NamedTuple):
    title: str
    sae_level: int
    boundary: str | None
    span: SourceSpan


class RawModel(NamedTuple):
    """Parse result: (declaration, span) pairs in source order, each a
    domain type of :data:`psysafe.model.DECLS`, references unchecked."""
    header: RawHeader | None
    decls: tuple[tuple[object, SourceSpan], ...]


class _ParseFailure(Exception):
    """Internal: aborts the current declaration after a diagnostic."""


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def at(self, text: str) -> bool:
        """Whether the keyword or punctuation mark ``text`` comes next (no
        other kind of token spells one)."""
        tok = self.peek()
        return tok is not None and tok.text == text

    def _end_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1]
            end = last.col + len(last.text)
            return SourceSpan(self.file, last.line, end, last.line, end)
        return SourceSpan(self.file, 1, 1, 1, 1)

    def fail(self, message: str, span: SourceSpan | None = None):
        if span is None:
            tok = self.peek()
            span = tok.span if tok else self._end_span()
        self.diagnostics.append(diag("PSY000", message, span))
        raise _ParseFailure()

    def expect(self, kind: TokenKind, what: str,
               text: str | None = None) -> Token:
        """The next token, which must be of ``kind`` and, when ``text`` is
        given, spell it; ``what`` names it in the error message."""
        pos = self.pos
        if pos >= len(self.tokens):
            self.fail(f"expected {what}, found end of file")
        tok = self.tokens[pos]
        if tok.kind is not kind or (text is not None and tok.text != text):
            self.fail(f"expected {what}, found {tok.text!r}")
        self.pos = pos + 1
        return tok

    def value(self, kind: TokenKind, what: str, empty: str | None = None):
        """An identifier, string or integer; ``empty`` is the error for an
        empty string or a zero."""
        tok = self.expect(kind, what)
        if empty is not None and not tok.value:
            self.diagnostics.append(diag("PSY000", empty, tok.span))
        return tok.value

    def member(self, spelled: dict, what: str):
        """A member of an enum, by its spelling (a keyword or a code)."""
        tok = self.peek()
        if tok is not None and tok.text in spelled:
            return spelled[self.advance().text]
        found = "end of file" if tok is None else repr(tok.text)
        self.fail(f"expected {what} ({', '.join(spelled)}), found {found}")

    def idlist(self) -> frozenset[str]:
        ids = [self.expect(TokenKind.IDENT, "identifier").text]
        while self.at(","):
            self.advance()
            ids.append(self.expect(TokenKind.IDENT, "identifier").text)
        return frozenset(ids)

    def decl_span(self, start: Token) -> SourceSpan:
        prev = self.tokens[self.pos - 1]
        return SourceSpan(self.file, start.line, start.col, prev.line,
                          prev.col + len(prev.text))

    # -- declarations -----------------------------------------------------

    def header(self, kw: Token) -> RawHeader:
        title = self.expect(TokenKind.STRING, "analysis title").value
        self.expect(TokenKind.PUNCT, "'{'", "{")
        self.expect(TokenKind.KEYWORD, "'sae_level'", "sae_level")
        self.expect(TokenKind.PUNCT, "'='", "=")
        sae_tok = self.expect(TokenKind.INT, "SAE level")
        if sae_tok.value not in (2, 3, 4, 5):
            self.diagnostics.append(diag(
                "PSY000", f"sae_level must be between 2 and 5, got "
                f"{sae_tok.value}", sae_tok.span))
        boundary = None
        if self.at("boundary"):
            self.advance()
            boundary = self.expect(TokenKind.STRING, "boundary note").value
        self.expect(TokenKind.PUNCT, "'}'", "}")
        return RawHeader(title, sae_tok.value, boundary, self.decl_span(kw))

    def declaration(self, kw: Token):
        """Any declaration, read by walking the fields of its spec."""
        cls, initial, steps, _ = _PLANS[kw.text]
        values = dict(initial)
        for keyword, attr, read, args, optional in steps:
            if keyword is not None:
                if optional and not self.at(keyword):
                    continue
                self.expect(TokenKind.KEYWORD, f"'{keyword}'", keyword)
            if attr is None:
                read(self, kw, values)
            else:
                values[attr] = read(self, *args)
        return cls(**values)

    def entity_block(self, kw: Token, values: dict) -> None:
        """The optional ``{ ... }`` property block of an entity, read by
        the block fields of its spec."""
        if not self.at("{"):
            return
        self.advance()
        cls, _, _, steps = _PLANS[kw.text]
        while not self.at("}"):
            tok = self.peek()
            if tok is None:
                self.fail("expected '}' to close entity block, "
                          "found end of file")
            if tok.text not in steps:  # only keywords spell a property
                self.fail(f"expected entity property, found {tok.text!r}")
            _, attr, read, args, _ = steps[self.advance().text]
            value = read(self, *args)
            if cls._field_defaults.get(attr) == ():  # keeps every value
                value = values.get(attr, ()) + (value,)
            values[attr] = value
            if message := _block_error(values, attr):
                self.diagnostics.append(diag(
                    "PSY000", message, self.tokens[self.pos - 1].span))
        self.advance()
        if message := _block_error(values):
            self.diagnostics.append(diag("PSY000", message,
                                         self.decl_span(kw)))

    # -- driver -----------------------------------------------------------

    def recover(self) -> None:
        """Skip to the next declaration keyword (or EOF)."""
        while not self.at_end():
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and \
                    (tok.text in _PLANS or tok.text == "analysis"):
                return
            self.advance()

    def file_(self) -> RawModel:
        header: RawHeader | None = None
        decls: list[tuple[object, SourceSpan]] = []
        first = True
        while not self.at_end():
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and tok.text == "analysis":
                kw = self.advance()
                try:
                    parsed = self.header(kw)
                except _ParseFailure:
                    self.recover()
                    first = False
                    continue
                if header is not None or not first:
                    self.diagnostics.append(diag(
                        "PSY000", "analysis header must be the first and "
                        "only header of the model", parsed.span))
                else:
                    header = parsed
                first = False
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text in _PLANS:
                kw = self.advance()
                try:
                    decl = self.declaration(kw)
                    decls.append((decl, self.decl_span(kw)))
                except _ParseFailure:
                    self.recover()
                first = False
                continue
            self.diagnostics.append(diag(
                "PSY000", f"expected a declaration, found {tok.text!r}",
                tok.span))
            self.advance()
            self.recover()
            first = False
        return RawModel(header, tuple(decls))


def _block_error(values: dict, attr: str | None = None) -> str | None:
    """The PSY000 message, if any, of the property ``attr`` just read into
    ``values`` or, with no ``attr``, of the closed entity block."""
    if attr == "sa_level" and values[attr] not in (1, 2, 3):
        return "sa_level must be 1, 2, or 3"
    if attr is None and not values.get("is_human") and (
            values.get("sa_level") is not None
            or values.get("psych_state") is not None):
        return (f"entity '{values['id']}' declares sa_level or psych_state "
                "but is not marked human")


_TOKEN_KINDS = {Form.ID: TokenKind.IDENT, Form.STRING: TokenKind.STRING,
                Form.INT: TokenKind.INT}


def _steps(fields: tuple[Field, ...]) -> tuple:
    """(keyword, attribute, reader, reader arguments, optional) for each
    field, worked out once so parsing does not redo it."""
    steps = []
    for f in fields:
        if f.form is Form.BLOCK:
            read, args = _Parser.entity_block, ()
        elif f.form is Form.FLAG:
            read, args = (lambda parser: True), ()
        elif f.form is Form.IDS:
            read, args = _Parser.idlist, ()
        elif isinstance(f.form, Form):
            read = _Parser.value
            args = (_TOKEN_KINDS[f.form], f.what or f.form.value, f.empty)
        else:
            read = _Parser.member
            args = ({spelling(m): m for m in f.form}, f.what)
        steps.append((f.keyword, f.attr, read, args, f.optional))
    return tuple(steps)


#: Declaration keyword -> (type, initial attributes, steps, block steps
#: by keyword). Attributes that no field sets start as the keyword implies
#: (``Entity.kind``) or as None (``LossScenario.scenario_type``, which
#: resolution derives).
_PLANS = {
    keyword: (cls, {**dict.fromkeys(f for f in cls._fields
                                     if f not in cls._field_defaults),
                    **spec.implied(keyword)}, _steps(spec.fields),
              {step[0]: step for step in _steps(spec.block)})
    for cls, spec in DECLS.items() for keyword in spec.keywords}


def parse(tokens: list[Token],
          file: str = "<input>") -> tuple[RawModel, list[Diagnostic]]:
    """Parse a token stream into a RawModel.

    Returns the model alongside any syntax diagnostics; with k independent
    syntax errors in k declarations, exactly k diagnostics come back and
    the remaining declarations still parse.
    """
    p = _Parser(tokens, file)
    model = p.file_()
    return model, p.diagnostics


#: Inputs of more characters take the line reader: its patterns cost ≈8 ms
#: to compile and save ≈0.14 ms per 1k characters, breaking even at 59k-71k
#: on perfbench/gen.py models (median of 31 runs, Python 3.11.7, 2-vCPU VM).
FAST_MIN_CHARS = 65_536

_ID = "[A-Za-z][A-Za-z0-9_.]*"
#: A string allows only the escapes the lexer decodes, \" and \\.
_VALUES = {Form.ID: f"({_ID})", Form.IDS: f"({_ID}(?:[ \t]*,[ \t]*{_ID})*)",
           Form.INT: "([0-9]+)",
           Form.STRING: r'"([^"\\]*(?:\\["\\][^"\\]*)*)"'}
_CONVERT = {Form.ID: str, Form.INT: int,
            Form.IDS: lambda t: frozenset(map(str.strip, t.split(","))),
            Form.STRING: lambda t: _ESCAPE_RE.sub(r"\1", t) if "\\" in t
            else t}
#: Whether the token reader reports a value: a keyword as an ID, and, for a
#: field with an ``empty`` message, an empty string or a zero.
_REPORTED = {Form.ID: KEYWORDS.__contains__, Form.IDS: KEYWORDS.intersection}
#: The end of a line: perhaps the '}' of a block, perhaps a comment.
_LINE_END = re.compile(r"[ \t]*(\})?[ \t]*(?:#(.*))?").fullmatch


def _field_pattern(f: Field) -> tuple[str, object, object]:
    """A field's pattern after the words before it, with one group for its
    value (a flag's is its keyword), its converter and its reported test."""
    if f.form is Form.FLAG:
        return f"[ \t]+({f.keyword})", bool, None
    if isinstance(f.form, Form):
        value, convert = _VALUES[f.form], _CONVERT[f.form]
    else:
        spelled = {spelling(m): m for m in f.form}
        value, convert = f"({'|'.join(spelled)})", spelled.__getitem__
    return ((f"[ \t]+{f.keyword}" if f.keyword else "") + f"[ \t]+{value}",
            convert, _REPORTED.get(f.form, f.empty and (lambda v: not v)))


@cache
def _line_readers() -> dict:
    """Keyword -> (fullmatch of its line, type, initial values, (value
    index, converter, reported) per group, end group index, block).
    ``block`` is (the group of the rest of the line after an entity's ``{``,
    match of one property, (attribute, converter, keeps every value) per
    property group), else None."""
    readers = {}
    for keyword, (cls, initial, *_) in _PLANS.items():
        pattern, fields, block = [keyword], [], None
        for f in DECLS[cls].fields:
            if f.form is Form.BLOCK:
                pattern.append(r"(?:[ \t]*\{(.*))?")
                props = [_field_pattern(p) for p in DECLS[cls].block]
                block = (len(fields) + 1, re.compile("|".join(
                    part for part, *_ in props)).match, tuple(
                    (p.attr, convert, cls._field_defaults.get(p.attr) == ())
                    for p, (_, convert, _) in zip(DECLS[cls].block, props)))
                continue
            part, convert, reported = _field_pattern(f)
            pattern.append(f"(?:{part})?" if f.optional else part)
            fields.append((cls._fields.index(f.attr), convert, reported))
        readers[keyword] = (
            re.compile("".join(pattern) + r"()[ \t]*(?:#(.*))?").fullmatch,
            cls, [initial.get(f, cls._field_defaults.get(f))
                  for f in cls._fields], fields,
            len(fields) + 1 + (block is not None), block)
    return readers


def _read_block(lines: list[str], number: int, pos: int, values: dict,
                item, props: tuple, res: LexResult) -> tuple[int, int] | None:
    """Read into ``values`` the entity block whose ``{`` ends before
    ``pos`` of line ``number`` and record its allows: the line and end
    column of its ``}``, or None to leave it to the token reader (which
    records them again). Each property is on one line with its value;
    ``item`` and ``props`` are the last two entries of a reader's block."""
    for number in range(number, len(lines) + 1):
        line = lines[number - 1]
        while m := item(line, pos):
            attr, convert, keeps = props[m.lastindex - 1]
            try:
                value = convert(m[m.lastindex])
            except ValueError:  # an integer too long
                return None
            values[attr] = values[attr] + (value,) if keeps else value
            if _block_error(values, attr):
                return None
            pos = m.end()
        if not (end := _LINE_END(line, pos)):
            return None
        if end[2] is not None:  # as the token reader would record it
            _record_allow(res, end[2], number)
        if end[1]:
            return None if _block_error(values) else (number, end.end(1))
        pos = 0
    return None  # no '}'


def _read_lines(source: str, file: str) -> tuple[RawModel, dict] | None:
    """The raw model and allows of ``source``, or None to read it whole
    with the token reader, which also reads each run of lines no pattern
    matches (a BOM on line 1 starts one; its lexer skips the BOM)."""
    readers = _line_readers()
    # The lexer's line ends; str.splitlines also splits at \f and others.
    lines = (re.split(r"\r\n?|\n", source) if "\r" in source
             else source.split("\n"))
    res, header, decls = LexResult([], [], {}), None, []
    first = 0  # first line of the open run; 0 when none is open
    numbered = enumerate([*lines, None], 1)
    for number, line in numbered:
        if line is not None:
            reader = readers.get(line.partition(" ")[0])
            m = reader and reader[0](line)
            if not m:
                if not first and line.strip(" \t"):
                    if (end := _LINE_END(line)) and not end[1]:  # a comment
                        _record_allow(res, end[2], number)
                    else:
                        first = number
                continue
        if first:  # a header after an earlier run is after a declaration
            lex = tokenize("\n".join(lines[first - 1:number - 1]), file, first)
            model, diagnostics = parse(lex.tokens, file)
            if lex.diagnostics or diagnostics or (model.header and decls):
                return None
            res.allows.update(lex.allows)
            decls.extend(model.decls)
            header, first = model.header or header, 0
        if line is None:
            break
        _, cls, values, fields, end, block = reader
        values = values.copy()
        for (index, convert, reported), text in zip(fields, m.groups()):
            if text is not None:  # else an absent optional field
                try:
                    value = values[index] = convert(text)
                except ValueError:  # an integer too long
                    return None
                if reported and reported(value):
                    return None
        last, stop = number, m.end(end)
        if block and m[block[0]] is not None:
            named = dict(zip(cls._fields, values))
            if not (read := _read_block(lines, number, m.start(block[0]),
                                        named, *block[1:], res)):
                first = number  # the block is a run from its first line
                continue
            (last, stop), values = read, named.values()
            for _ in range(last - number):
                next(numbered)  # the block's lines
        elif m[end + 1] is not None:
            _record_allow(res, m[end + 1], number)
        decls.append((cls(*values),
                      SourceSpan(file, number, 1, last, stop + 1)))
    return RawModel(header, tuple(decls)), res.allows


def read_source(source: str, file: str = "<input>", fast: bool = False
                ) -> tuple[RawModel, list[Diagnostic], dict]:
    """One file's raw model, diagnostics and allows (line -> rule IDs).
    ``fast`` tries the line reader first, which on clean inputs leaves the
    token reader only the header; the result is the same."""
    if fast and (read := _read_lines(source, file)) is not None:
        return read[0], [], read[1]
    lex = tokenize(source, file)
    model, diagnostics = parse(lex.tokens, file)
    return model, lex.diagnostics + diagnostics, lex.allows


def merge_raw_models(models: list[tuple[str, RawModel]]) \
        -> tuple[RawModel, list[Diagnostic]]:
    """Concatenate per-file parse results in argument order.

    Exactly one analysis header must exist and it must precede every
    declaration, i.e. it lives in the first file.
    """
    diagnostics: list[Diagnostic] = []
    headers = [(name, m.header) for name, m in models if m.header is not None]
    if not headers:
        first = models[0][0] if models else "<input>"
        diagnostics.append(diag(
            "PSY000", "no analysis header found; a model starts with "
            "'analysis \"title\" { sae_level = N }'",
            SourceSpan(first, 1, 1, 1, 1)))
        header = None
    else:
        header = headers[0][1]
        for _, extra in headers[1:]:
            diagnostics.append(diag(
                "PSY000", "duplicate analysis header", extra.span))
        if models and models[0][1].header is None:
            diagnostics.append(diag(
                "PSY000", "the analysis header must appear in the first "
                "input file", header.span))
    decls: list[tuple[object, SourceSpan]] = []
    for _, m in models:
        decls.extend(m.decls)
    return RawModel(header, tuple(decls)), diagnostics
