"""Recursive-descent parser for the ``.psy`` language.

The grammar is keyword-led and LL(1): every declaration starts with a
distinct keyword, so recovery after a syntax error skips to the next
declaration keyword and at most one diagnostic is emitted per broken
declaration. No field reads a declaration keyword, so a parse reaches
every declaration keyword ready to read its declaration; a declaration
cut short there is reported once, at that keyword.

The grammar is written out in ``docs/language.md``. Each declaration's
syntax is not restated here: the parser walks the fields of its entry in
:data:`psysafe.model.DECLS`, and an entity's property block by its block
fields, and :mod:`psysafe.linereader` compiles its patterns from them.
Only the header is read by hand.

A single model may span several files: each file allows at most one
``analysis`` header (as its first construct), and merging enforces exactly
one header across the concatenation.
"""

from __future__ import annotations

from collections import namedtuple

from .diagnostics import Diagnostic, SourceSpan, diag
from .lexer import Token, TokenKind, tokenize
from .model import DECLS, Field, Form, spelling


class RawHeader(namedtuple("RawHeader", "title sae_level boundary span")):
    __slots__ = ()


class RawModel(namedtuple("RawModel", "header decls")):
    """Parse result: (declaration, span) pairs in source order, each a
    domain type of :data:`psysafe.model.DECLS`, references unchecked."""

    __slots__ = ()


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

    def at(self, text: str) -> bool:
        """Whether the keyword or punctuation mark ``text`` comes next (no
        other kind of token spells one)."""
        tok = self.peek()
        return tok is not None and tok.text == text

    def fail(self, message: str):
        """Report a syntax error at the next token, or just past the last
        one at the end of input (a keyword has been read, so there is one),
        and abort the declaration."""
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            span = SourceSpan(self.file, last.line, last.col + len(last.text))
        else:
            span = tok.span
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

    def value(self, kind: TokenKind, what: str, check: tuple | None):
        """An identifier, string or integer; reports a value that fails
        ``check``, its field's (valid, message) pair."""
        tok = self.expect(kind, what)
        if check and not check[0](tok.value):
            self.diagnostics.append(diag("PSY000", check[1], tok.span))
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
        return RawHeader(title, sae_tok.value, boundary, kw.span)

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
        self.advance()
        if message := _block_error(values):
            self.diagnostics.append(diag("PSY000", message, kw.span))

    # -- driver -----------------------------------------------------------

    def recover(self) -> None:
        """Skip to the next declaration keyword (or EOF)."""
        while (tok := self.peek()) is not None:
            if tok.kind is TokenKind.KEYWORD and \
                    (tok.text in _PLANS or tok.text == "analysis"):
                return
            self.advance()

    def file_(self, end: int) -> RawModel:
        """The declarations of the tokens before index ``end``; a token
        from there on is a declaration keyword, which ends any declaration
        before it."""
        header: RawHeader | None = None
        decls: list[tuple[object, SourceSpan]] = []
        while self.pos < end:
            tok = self.tokens[self.pos]
            if tok.kind is TokenKind.KEYWORD and tok.text == "analysis":
                kw = self.advance()
                try:
                    parsed = self.header(kw)
                except _ParseFailure:
                    self.recover()
                    continue
                if kw is not self.tokens[0]:  # not the file's first construct
                    self.diagnostics.append(diag(
                        "PSY000", "analysis header must be the first and "
                        "only header of the model", parsed.span))
                else:
                    header = parsed
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text in _PLANS:
                kw = self.advance()
                try:
                    decl = self.declaration(kw)
                    decls.append((decl, kw.span))
                except _ParseFailure:
                    self.recover()
                continue
            self.diagnostics.append(diag(
                "PSY000", f"expected a declaration, found {tok.text!r}",
                tok.span))
            self.advance()
            self.recover()
        return RawModel(header, tuple(decls))


def _block_error(values: dict) -> str | None:
    """The PSY000 message, if any, of the closed entity block ``values``."""
    if not values.get("is_human") and (
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
            args = (_TOKEN_KINDS[f.form], f.what or f.form.value, f.check)
        else:
            read = _Parser.member
            args = ({spelling(m): m for m in f.form}, f.what)
        steps.append((f.keyword, f.attr, read, args, f.optional))
    return tuple(steps)


#: Declaration keyword -> (type, initial attributes, steps, block steps
#: by keyword). The one attribute that no field sets, ``Entity.kind``,
#: starts as the keyword implies.
_PLANS = {
    keyword: (cls, spec.implied(keyword), _steps(spec.fields),
              {step[0]: step for step in _steps(spec.block)})
    for cls, spec in DECLS.items() for keyword in spec.keywords}


def parse(tokens: list[Token], file: str = "<input>",
          end: int | None = None) -> tuple[RawModel, list[Diagnostic]]:
    """Parse a token stream into a RawModel.

    Returns the model alongside any syntax diagnostics; with k independent
    syntax errors in k declarations, exactly k diagnostics come back and
    the remaining declarations still parse. With ``end``, the parse stops
    before ``tokens[end]``, which must be a declaration keyword; a
    declaration it cuts short is reported at it, as in a parse of the
    whole file.
    """
    p = _Parser(tokens, file)
    model = p.file_(len(tokens) if end is None else end)
    return model, p.diagnostics


def read_source(source: str, file: str = "<input>"
                ) -> tuple[RawModel, list[Diagnostic], dict]:
    """One file's raw model, diagnostics and allows (line -> rule IDs),
    as the token reader gives them: :func:`tokenize` then :func:`parse`."""
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
            SourceSpan(first, 1, 1)))
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
