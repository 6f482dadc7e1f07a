"""Recursive-descent parser for the ``.psy`` language.

The grammar is keyword-led and LL(1): every declaration starts with a
distinct keyword, so recovery after a syntax error skips to the next
declaration keyword and at most one diagnostic is emitted per broken
declaration.

Grammar (terminals quoted, ``ID`` = identifier, ``STRING``, ``INT``)::

    file        := [ analysis ] { decl }
    analysis    := "analysis" STRING "{" "sae_level" "=" INT
                   [ "boundary" STRING ] "}"
    decl        := stakeholder | stake | loss | hazard | goal | entity
                 | action | feedback | resp | uca | scenario | assess
    stakeholder := "stakeholder" ID STRING
    stake       := "stake" ID STRING "of" ID
    loss        := "loss" ID STRING "violates" idlist
    hazard      := "hazard" ID STRING "leads_to" idlist [ "context" STRING ]
    goal        := "goal" ID STRING "prevents" idlist
    entity      := ("controller"|"process") ID STRING "level" INT
                   [ "{" { entprop } "}" ]
    entprop     := "human" | "sa_level" INT | "psych_state" STRING
                 | "algorithm" STRING | "process_model" STRING
    action      := "action" ID STRING "from" ID "to" ID
    feedback    := "feedback" ID STRING "from" ID "to" ID
    resp        := "resp" ID STRING "of" ID "from" idlist
    uca         := "uca" ID "on" ID "kind" ucakind "context" STRING
                   "hazards" idlist
    ucakind     := "not_provided" | "provided" | "wrong_timing"
                 | "wrong_duration"
    scenario    := "scenario" ID "for" ID "factor" factor STRING
    factor      := "controller_failure" | "inadequate_algorithm"
                 | "unsafe_input" | "inadequate_process_model"
    assess      := "assess" ID "severity" ("S1"|"S2"|"S3")
                   "exposure" ("E1".."E4") "controllability" ("C1".."C3")
                   [ "rationale" STRING ]
    idlist      := ID { "," ID }

A single model may span several files: each file allows at most one
``analysis`` header (as its first construct), and merging enforces exactly
one header across the concatenation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import Diagnostic, SourceSpan, diag
from .lexer import DECL_KEYWORDS, Token, TokenKind
from .model import (CausalFactor, ControlAction, ControllabilityClass,
                    Entity, EntityKind, ExposureClass, FeedbackLink, Hazard,
                    Loss, LossScenario, Responsibility, RiskAssessment,
                    SafetyGoal, SeverityClass, Stake, Stakeholder, Uca,
                    UcaKind)


@dataclass(frozen=True)
class RawHeader:
    title: str
    sae_level: int
    boundary: str | None
    span: SourceSpan


@dataclass(frozen=True)
class RawModel:
    """Parse result: (declaration, span) pairs in source order, each a
    domain type of :data:`psysafe.model.DECLS`, references unchecked."""
    header: RawHeader | None
    decls: tuple[tuple[object, SourceSpan], ...]


#: Keyword spellings of the enum-valued fields, in grammar order.
_CHOICES = {cls: {member.value: member for member in cls}
            for cls in (UcaKind, CausalFactor)}


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

    def _end_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan(self.file, last.end_line, last.end_col,
                              last.end_line, last.end_col)
        return SourceSpan(self.file, 1, 1, 1, 1)

    def fail(self, message: str, span: SourceSpan | None = None):
        if span is None:
            tok = self.peek()
            span = tok.span if tok else self._end_span()
        self.diagnostics.append(diag("PSY000", message, span))
        raise _ParseFailure()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"expected '{word}', found end of file")
        if tok.kind is not TokenKind.KEYWORD or tok.text != word:
            self.fail(f"expected '{word}', found {tok.text!r}")
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"expected '{ch}', found end of file")
        if tok.kind is not TokenKind.PUNCT or tok.text != ch:
            self.fail(f"expected '{ch}', found {tok.text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"expected {what}, found end of file")
        if tok.kind is not TokenKind.IDENT:
            self.fail(f"expected {what}, found {tok.text!r}")
        return self.advance()

    def expect_string(self, what: str = "string") -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"expected {what}, found end of file")
        if tok.kind is not TokenKind.STRING:
            self.fail(f"expected {what}, found {tok.text!r}")
        return self.advance()

    def expect_int(self, what: str = "integer") -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"expected {what}, found end of file")
        if tok.kind is not TokenKind.INT:
            self.fail(f"expected {what}, found {tok.text!r}")
        return self.advance()

    def expect_code(self, cls: type[enum.Enum], what: str):
        """An identifier naming a member of ``cls`` (``S2``, ``E4``...)."""
        codes = cls.__members__
        tok = self.peek()
        if tok is None:
            self.fail(f"expected {what}, found end of file")
        if tok.kind is not TokenKind.IDENT or tok.text not in codes:
            self.fail(f"expected {what} ({', '.join(codes)}), "
                      f"found {tok.text!r}")
        return codes[self.advance().text]

    def expect_choice(self, cls: type[enum.Enum], what: str):
        """A keyword spelling the value of a member of ``cls``."""
        choices = _CHOICES[cls]
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.KEYWORD or \
                tok.text not in choices:
            self.fail(f"expected {what} (" + ", ".join(choices) + ")")
        return choices[self.advance().text]

    def idlist(self) -> frozenset[str]:
        ids = [self.expect_ident().text]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.PUNCT and tok.text == ",":
                self.advance()
                ids.append(self.expect_ident().text)
            else:
                return frozenset(ids)

    def decl_span(self, start: Token) -> SourceSpan:
        prev = self.tokens[self.pos - 1].span
        return SourceSpan(self.file, start.span.start_line,
                          start.span.start_col, prev.end_line, prev.end_col)

    # -- declarations -----------------------------------------------------

    def header(self, kw: Token) -> RawHeader:
        title = self.expect_string("analysis title").value
        self.expect_punct("{")
        self.expect_keyword("sae_level")
        self.expect_punct("=")
        sae_tok = self.expect_int("SAE level")
        if sae_tok.value not in (2, 3, 4, 5):
            self.diagnostics.append(diag(
                "PSY000", f"sae_level must be between 2 and 5, got "
                f"{sae_tok.value}", sae_tok.span))
        boundary = None
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == "boundary":
            self.advance()
            boundary = self.expect_string("boundary note").value
        self.expect_punct("}")
        return RawHeader(title, sae_tok.value, boundary, self.decl_span(kw))

    def stakeholder(self, kw: Token) -> Stakeholder:
        ident = self.expect_ident().text
        name = self.expect_string("stakeholder name")
        if not name.value:
            self.diagnostics.append(diag(
                "PSY000", "stakeholder name must not be empty", name.span))
        return Stakeholder(ident, name.value)

    def stake(self, kw: Token) -> Stake:
        ident = self.expect_ident().text
        description = self.expect_string().value
        self.expect_keyword("of")
        holder = self.expect_ident("stakeholder ID").text
        return Stake(ident, description, holder)

    def loss(self, kw: Token) -> Loss:
        ident = self.expect_ident().text
        description = self.expect_string().value
        self.expect_keyword("violates")
        violates = self.idlist()
        return Loss(ident, description, violates)

    def hazard(self, kw: Token) -> Hazard:
        ident = self.expect_ident().text
        description = self.expect_string().value
        self.expect_keyword("leads_to")
        leads_to = self.idlist()
        context = None
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == "context":
            self.advance()
            context = self.expect_string("context note").value
        return Hazard(ident, description, leads_to, context)

    def goal(self, kw: Token) -> SafetyGoal:
        ident = self.expect_ident().text
        description = self.expect_string().value
        self.expect_keyword("prevents")
        prevents = self.idlist()
        return SafetyGoal(ident, description, prevents)

    def entity(self, kw: Token) -> Entity:
        ident = self.expect_ident().text
        name = self.expect_string("entity name").value
        self.expect_keyword("level")
        level_tok = self.expect_int("hierarchy level")
        if level_tok.value < 1:
            self.diagnostics.append(diag(
                "PSY000", "hierarchy level must be 1 or greater",
                level_tok.span))
        is_human = False
        sa_level: int | None = None
        psych_state: str | None = None
        algorithm: str | None = None
        process_model: list[str] = []
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.PUNCT and tok.text == "{":
            self.advance()
            while True:
                tok = self.peek()
                if tok is None:
                    self.fail("expected '}' to close entity block, "
                              "found end of file")
                if tok.kind is TokenKind.PUNCT and tok.text == "}":
                    self.advance()
                    break
                if tok.kind is not TokenKind.KEYWORD:
                    self.fail(f"expected entity property, found {tok.text!r}")
                if tok.text == "human":
                    self.advance()
                    is_human = True
                elif tok.text == "sa_level":
                    self.advance()
                    sa_tok = self.expect_int("SA level")
                    if sa_tok.value not in (1, 2, 3):
                        self.diagnostics.append(diag(
                            "PSY000", "sa_level must be 1, 2, or 3",
                            sa_tok.span))
                    sa_level = sa_tok.value
                elif tok.text == "psych_state":
                    self.advance()
                    psych_state = self.expect_string().value
                elif tok.text == "algorithm":
                    self.advance()
                    algorithm = self.expect_string().value
                elif tok.text == "process_model":
                    self.advance()
                    process_model.append(self.expect_string().value)
                else:
                    self.fail(f"expected entity property, found {tok.text!r}")
        span = self.decl_span(kw)
        if not is_human and (sa_level is not None or psych_state is not None):
            self.diagnostics.append(diag(
                "PSY000", f"entity '{ident}' declares sa_level or "
                "psych_state but is not marked human", span))
        return Entity(ident, name, level_tok.value, EntityKind(kw.text),
                      is_human, sa_level, psych_state, algorithm,
                      tuple(process_model))

    def edge(self, kw: Token) -> ControlAction | FeedbackLink:
        ident = self.expect_ident().text
        label = self.expect_string("edge label").value
        self.expect_keyword("from")
        source = self.expect_ident("entity ID").text
        self.expect_keyword("to")
        target = self.expect_ident("entity ID").text
        cls = FeedbackLink if kw.text == "feedback" else ControlAction
        return cls(ident, label, source, target)

    def resp(self, kw: Token) -> Responsibility:
        ident = self.expect_ident().text
        description = self.expect_string().value
        self.expect_keyword("of")
        assignee = self.expect_ident("entity ID").text
        self.expect_keyword("from")
        derived_from = self.idlist()
        return Responsibility(ident, description, assignee, derived_from)

    def uca(self, kw: Token) -> Uca:
        ident = self.expect_ident().text
        self.expect_keyword("on")
        on = self.expect_ident("control action or feedback ID").text
        self.expect_keyword("kind")
        kind = self.expect_choice(UcaKind, "UCA kind")
        self.expect_keyword("context")
        context = self.expect_string("context").value
        self.expect_keyword("hazards")
        hazards = self.idlist()
        return Uca(ident, on, kind, context, hazards)

    def scenario(self, kw: Token) -> LossScenario:
        ident = self.expect_ident().text
        self.expect_keyword("for")
        for_ref = self.expect_ident("UCA or control action ID").text
        self.expect_keyword("factor")
        factor = self.expect_choice(CausalFactor, "causal factor")
        description = self.expect_string().value
        return LossScenario(ident, for_ref, None, factor, description)

    def assess(self, kw: Token) -> RiskAssessment:
        hazard = self.expect_ident("hazard ID").text
        self.expect_keyword("severity")
        severity = self.expect_code(SeverityClass, "severity class")
        self.expect_keyword("exposure")
        exposure = self.expect_code(ExposureClass, "exposure class")
        self.expect_keyword("controllability")
        controllability = self.expect_code(ControllabilityClass,
                                           "controllability class")
        rationale = None
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and \
                tok.text == "rationale":
            self.advance()
            rationale = self.expect_string("rationale").value
        return RiskAssessment(hazard, severity, exposure, controllability,
                              rationale)

    _DECL_PARSERS = {
        "stakeholder": stakeholder,
        "stake": stake,
        "loss": loss,
        "hazard": hazard,
        "goal": goal,
        "controller": entity,
        "process": entity,
        "action": edge,
        "feedback": edge,
        "resp": resp,
        "uca": uca,
        "scenario": scenario,
        "assess": assess,
    }

    # -- driver -----------------------------------------------------------

    def recover(self) -> None:
        """Skip to the next declaration keyword (or EOF)."""
        while not self.at_end():
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and \
                    (tok.text in DECL_KEYWORDS or tok.text == "analysis"):
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
            if tok.kind is TokenKind.KEYWORD and tok.text in self._DECL_PARSERS:
                kw = self.advance()
                try:
                    decl = self._DECL_PARSERS[tok.text](self, kw)
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
