"""Resolved domain types of the psychological-safety risk model.

The model follows a stake/loss/hazard/goal chain: stakeholders hold
psychological stakes; violating a stake is a loss; hazards are potential
sources of losses; safety goals prevent hazards; responsibilities derive
from goals and are assigned to control-structure entities. Unsafe control
actions (UCAs) trace hazards to the control structure and loss scenarios
explain how UCAs come about.

Resolved models are immutable and safe to share across threads; resolution
itself is a pure function of its input.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from .diagnostics import (Diagnostic, DiagnosticError, SourceSpan,
                          SYNTHETIC_SPAN, diag)

if TYPE_CHECKING:
    from .parser import RawModel


class SeverityClass(enum.IntEnum):
    """Severity of psychological harm, by how long the effect lasts."""

    # marginal, short term (e.g. increased heart rate, increase in blood
    # pressure, adrenaline release)
    S1 = 1
    # moderate, medium term (e.g. psychological strain, psychosomatic
    # health symptoms)
    S2 = 2
    # critical, long term (e.g. depression, anxiety, cardiovascular disease)
    S3 = 3


class ExposureClass(enum.IntEnum):
    """Probability of being in the relevant operational situation."""

    E1 = 1  # very low
    E2 = 2  # low
    E3 = 3  # medium
    E4 = 4  # high


class ControllabilityClass(enum.IntEnum):
    """Ability of the autonomy or the person to avoid the harm."""

    C1 = 1  # simple
    C2 = 2  # normal
    C3 = 3  # difficult


class PsySilLevel(enum.IntEnum):
    """Psychological safety integrity level; QM means none required."""

    QM = 0
    A = 1
    B = 2
    C = 3
    D = 4


class UcaKind(enum.Enum):
    """The four ways a control action can be unsafe."""

    NOT_PROVIDED = "not_provided"
    PROVIDED = "provided"
    WRONG_TIMING = "wrong_timing"
    WRONG_DURATION = "wrong_duration"


class CausalFactor(enum.Enum):
    """Causal-factor categories for loss scenarios."""

    CONTROLLER_FAILURE = "controller_failure"
    INADEQUATE_ALGORITHM = "inadequate_algorithm"
    UNSAFE_INPUT = "unsafe_input"
    INADEQUATE_PROCESS_MODEL = "inadequate_process_model"


class ScenarioType(enum.Enum):
    """Scenario explains a UCA occurring, or a safe action executed badly."""

    UCA_OCCURRENCE = "uca_occurrence"
    IMPROPER_EXECUTION = "improper_execution"


class EntityKind(enum.Enum):
    STAKEHOLDER = "stakeholder"
    STAKE = "stake"
    LOSS = "loss"
    HAZARD = "hazard"
    GOAL = "goal"
    CONTROLLER = "controller"
    PROCESS = "process"
    ACTION = "action"
    FEEDBACK = "feedback"
    RESPONSIBILITY = "responsibility"
    UCA = "uca"
    SCENARIO = "scenario"

    def __str__(self) -> str:
        return self.value


class EdgeType(enum.Enum):
    """Type of a traceability edge; see :data:`DECLS` for which reference
    fields are traced."""

    VIOLATES = "violates"
    LEADS_TO = "leads_to"
    PREVENTS = "prevents"
    DERIVED_FROM = "derived_from"
    ASSIGNED_TO = "assigned_to"
    ON_ACTION = "on_action"
    HAZARDS = "hazards"
    FOR_UCA = "for_uca"
    FOR_ACTION = "for_action"

    def __str__(self) -> str:
        return self.value


class Stakeholder(namedtuple("Stakeholder", "id name")):
    __slots__ = ()


class Stake(namedtuple("Stake", "id description holder")):
    __slots__ = ()


class Loss(namedtuple("Loss", "id description violates")):
    __slots__ = ()


class Hazard(namedtuple("Hazard", [
        "id", "description", "leads_to",
        #: Free-text note on system state, external conditions, and
        #: psychological state.
        "context"], defaults=[None])):
    __slots__ = ()


class SafetyGoal(namedtuple("SafetyGoal", "id description prevents")):
    __slots__ = ()


class Responsibility(namedtuple(
        "Responsibility", "id description assignee derived_from")):
    __slots__ = ()


class Entity(namedtuple("Entity", [
        "id", "name", "level",
        "kind",  # CONTROLLER or PROCESS
        "is_human", "sa_level", "psych_state", "algorithm", "process_model"],
        defaults=[False, None, None, None, ()])):
    """Controller or controlled process in the control structure.

    ``level`` is the hierarchy rank, 1 = highest authority. Humans may
    carry an SA level (1 perception, 2 comprehension, 3 projection) and a
    psychological-state note; non-human controllers describe their control
    algorithm and process models.
    """

    __slots__ = ()


class ControlAction(namedtuple("ControlAction", "id label source target")):
    __slots__ = ()


class FeedbackLink(namedtuple("FeedbackLink", "id label source target")):
    __slots__ = ()


class ControlStructure(namedtuple("ControlStructure",
                                  "entities actions feedbacks",
                                  defaults=[(), (), ()])):
    __slots__ = ()


class Uca(namedtuple("Uca", [
        "id",
        #: Control action or feedback link the UCA is about.
        "on",
        "kind", "context", "hazards"])):
    __slots__ = ()


class LossScenario(namedtuple("LossScenario", [
        "id",
        #: UCA (type 1) or control action (type 2) the scenario explains.
        "for_ref",
        "factor", "description"])):
    __slots__ = ()


class RiskAssessment(namedtuple(
        "RiskAssessment",
        "hazard severity exposure controllability rationale",
        defaults=[None])):
    __slots__ = ()


class Form(enum.Enum):
    """How a field's value is written; for the one-token forms the value
    is the name "expected ..." messages use by default. A field whose form
    is an enum class holds one member, written as :func:`spelling` says."""

    ID = "identifier"
    IDS = "identifier list"  # ``ID { "," ID }``, read as sorted unique IDs
    STRING = "string"
    INT = "integer"
    BLOCK = "entity block"  # ``{ ... }`` of the declaration's block fields
    FLAG = "flag"  # its keyword alone, which sets the attribute True


def spelling(member: enum.Enum) -> str:
    """How ``.psy`` writes an enum member: string-valued members by their
    value, a keyword (``provided``); classes by name (``S2``)."""
    return member.value if isinstance(member.value, str) else member.name


class Field(namedtuple("Field", [
        #: Attribute the value sets; None for the entity block, which sets
        #: several.
        "attr",
        #: A :class:`Form`, or the enum class whose member the value is.
        "form",
        #: Keyword written before the value, if any.
        "keyword",
        #: Names the value in "expected ..." messages, when not the form.
        "what",
        #: An optional field is present when its keyword (for the entity
        #: block, its ``{``) comes next.
        "optional",
        #: (whether a value is valid, PSY000 message when not) for an
        #: identifier, string or integer value that both readers check.
        "check",
        #: Kinds a reference field (an ID or ID-list form) may name, in
        #: message order: None when the field is not a reference, () for
        #: any declared entity.
        "kinds",
        #: Trace edge from the declaration to each target: one
        #: :class:`EdgeType`, one per target kind (a dict), or None when
        #: the field is not traced.
        "edge",
        #: Names the field in PSY011 wrong-kind messages, when not ``attr``.
        "label"], defaults=[None, None, False, None, None, None, None])):
    """One value of a declaration, in source order after its keyword."""

    __slots__ = ()

    def targets(self, decl) -> Iterable[str]:
        value = getattr(decl, self.attr)
        return value if self.form is Form.IDS else (value,)

    @property
    def expected(self) -> str:
        """The accepted kinds as PSY011 messages spell them."""
        return " or ".join(k.value for k in self.kinds) or "entity"


class DeclSpec(namedtuple("DeclSpec", [
        #: Keywords that begin the declaration. Where there are several,
        #: the keyword also gives the declaration's ``kind``.
        "keywords",
        #: Where the resolved declarations live on an
        #: :class:`AnalysisModel`.
        "path",
        #: Kind of the declared ID; None for entities, whose ``kind`` field
        #: says it, and for assessments, which declare none.
        "kind",
        #: The :class:`Field` values after the keyword, in source order;
        #: the first is the declaration's key. They set the record's first
        #: fields, in order; the entity block comes last and its fields
        #: follow ``kind``.
        "fields",
        #: False for assessments, which are keyed by the hazard they rate.
        "declares_id",
        #: The entity block's properties, in print order. Each may repeat:
        #: the last value wins, or all are kept if the record default is
        #: ``()``.
        "block"], defaults=[True, ()])):
    """What the model knows about one declaration type."""

    __slots__ = ()

    @property
    def refs(self) -> tuple[Field, ...]:
        return tuple(f for f in self.fields if f.kinds is not None)

    def items(self, model: AnalysisModel) -> Iterable:
        items = attrgetter(self.path)(model)
        return items.values() if isinstance(items, Mapping) else items

    def implied(self, keyword: str) -> dict[str, EntityKind]:
        """Attributes the keyword itself sets."""
        if len(self.keywords) > 1:
            return {"kind": EntityKind(keyword)}
        return {}


_K, _E, _F = EntityKind, EdgeType, Form
NODE_KINDS = (_K.CONTROLLER, _K.PROCESS)
_ID = Field("id", _F.ID)
_DESCRIPTION = Field("description", _F.STRING)


def _link(name: str) -> tuple[Field, ...]:
    """The fields of a control action or a feedback link."""
    return (_ID, Field("label", _F.STRING, what="edge label"),
            Field("source", _F.ID, "from", "entity ID", kinds=NODE_KINDS,
                  label=f"{name} source"),
            Field("target", _F.ID, "to", "entity ID", kinds=NODE_KINDS,
                  label=f"{name} target"))


#: The single table of declaration types, in canonical print order. The
#: parser reads each declaration by its fields (and an entity's block by
#: its block fields) and the printer writes it back from them; resolution
#: checks every reference field against it and groups the declarations
#: by path, and the trace graph has one edge per traced reference. Stake
#: holders and action/feedback endpoints are not traced.
DECLS: dict[type, DeclSpec] = {
    Stakeholder: DeclSpec(("stakeholder",), "stakeholders", _K.STAKEHOLDER, (
        _ID, Field("name", _F.STRING, what="stakeholder name",
                   check=(bool, "stakeholder name must not be empty")))),
    Stake: DeclSpec(("stake",), "stakes", _K.STAKE, (
        _ID, _DESCRIPTION,
        Field("holder", _F.ID, "of", "stakeholder ID",
              kinds=(_K.STAKEHOLDER,)))),
    Loss: DeclSpec(("loss",), "losses", _K.LOSS, (
        _ID, _DESCRIPTION,
        Field("violates", _F.IDS, "violates", kinds=(_K.STAKE,),
              edge=_E.VIOLATES))),
    Hazard: DeclSpec(("hazard",), "hazards", _K.HAZARD, (
        _ID, _DESCRIPTION,
        Field("leads_to", _F.IDS, "leads_to", kinds=(_K.LOSS,),
              edge=_E.LEADS_TO),
        Field("context", _F.STRING, "context", "context note",
              optional=True))),
    SafetyGoal: DeclSpec(("goal",), "goals", _K.GOAL, (
        _ID, _DESCRIPTION,
        Field("prevents", _F.IDS, "prevents", kinds=(_K.HAZARD,),
              edge=_E.PREVENTS))),
    Entity: DeclSpec(("controller", "process"), "structure.entities", None, (
        _ID, Field("name", _F.STRING, what="entity name"),
        Field("level", _F.INT, "level", "hierarchy level",
              check=(bool, "hierarchy level must be 1 or greater")),
        Field(None, _F.BLOCK, optional=True)),
        block=(Field("is_human", _F.FLAG, "human"),
               Field("sa_level", _F.INT, "sa_level", "SA level",
                     check=((1, 2, 3).__contains__,
                            "sa_level must be 1, 2, or 3")),
               Field("psych_state", _F.STRING, "psych_state"),
               Field("algorithm", _F.STRING, "algorithm"),
               Field("process_model", _F.STRING, "process_model"))),
    ControlAction: DeclSpec(("action",), "structure.actions", _K.ACTION,
                            _link("action")),
    FeedbackLink: DeclSpec(("feedback",), "structure.feedbacks",
                           _K.FEEDBACK, _link("feedback")),
    # Any existing assignee resolves: non-structure assignees are a lint
    # (PSY012), not a resolution failure.
    Responsibility: DeclSpec(
        ("resp",), "responsibilities", _K.RESPONSIBILITY, (
            _ID, _DESCRIPTION,
            Field("assignee", _F.ID, "of", "entity ID", kinds=(),
                  edge=_E.ASSIGNED_TO),
            Field("derived_from", _F.IDS, "from", kinds=(_K.GOAL,),
                  edge=_E.DERIVED_FROM))),
    Uca: DeclSpec(("uca",), "ucas", _K.UCA, (
        _ID,
        Field("on", _F.ID, "on", "control action or feedback ID",
              kinds=(_K.ACTION, _K.FEEDBACK), edge=_E.ON_ACTION),
        Field("kind", UcaKind, "kind", "UCA kind"),
        Field("context", _F.STRING, "context", "context"),
        Field("hazards", _F.IDS, "hazards", kinds=(_K.HAZARD,),
              edge=_E.HAZARDS))),
    LossScenario: DeclSpec(("scenario",), "scenarios", _K.SCENARIO, (
        _ID,
        Field("for_ref", _F.ID, "for", "UCA or control action ID",
              kinds=(_K.UCA, _K.ACTION), label="for",
              edge={_K.UCA: _E.FOR_UCA, _K.ACTION: _E.FOR_ACTION}),
        Field("factor", CausalFactor, "factor", "causal factor"),
        _DESCRIPTION)),
    RiskAssessment: DeclSpec(("assess",), "assessments", None, (
        Field("hazard", _F.ID, what="hazard ID", kinds=(_K.HAZARD,)),
        Field("severity", SeverityClass, "severity", "severity class"),
        Field("exposure", ExposureClass, "exposure", "exposure class"),
        Field("controllability", ControllabilityClass, "controllability",
              "controllability class"),
        Field("rationale", _F.STRING, "rationale", "rationale",
              optional=True)), declares_id=False),
}


_EMPTY: Mapping = MappingProxyType({})


class AnalysisModel(namedtuple("AnalysisModel", [
        "title", "sae_level", "boundary", "stakeholders", "stakes",
        "losses", "hazards", "goals", "responsibilities", "structure",
        "ucas", "scenarios", "assessments",
        #: The last field, so equality can leave it out.
        "spans"], defaults=[None, (), (), (), (), (), (), ControlStructure(),
                            (), (), _EMPTY, _EMPTY])):
    """Fully resolved model; all cross-references are known to exist.

    Collections are sorted by entity ID, and ``assessments`` is keyed, in
    order, by hazard ID, so two models with the same declarations compare
    equal, and iterate alike, regardless of declaration order. Source
    spans are excluded from equality. It keeps a ``__dict__`` for its
    cached properties but, like the other records, takes no attribute
    assignment.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, AnalysisModel):
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    @cached_property
    def _kinds(self) -> dict[str, EntityKind]:
        return {item.id: spec.kind or item.kind
                for spec in DECLS.values() if spec.declares_id
                for item in spec.items(self)}

    def kind_of(self, entity_id: str) -> EntityKind | None:
        """Declaration kind of an ID, or None when the ID is unknown."""
        return self._kinds.get(entity_id)

    def span_of(self, entity_id: str) -> SourceSpan:
        return self.spans.get(entity_id, SYNTHETIC_SPAN)

    @property
    def entity_ids(self) -> Iterable[str]:
        """Every declared ID, declaration type by type in ``DECLS`` order."""
        return tuple(item.id for spec in DECLS.values() if spec.declares_id
                     for item in spec.items(self))


#: Declaration type -> (getter, holds a list, kinds it may name, field)
#: per reference field; a field that may name any entity allows every kind.
_REF_CHECKS = {
    cls: tuple((attrgetter(ref.attr), ref.form is Form.IDS,
                ref.kinds or tuple(EntityKind), ref) for ref in spec.refs)
    for cls, spec in DECLS.items()}


class ResolveError(DiagnosticError):
    """Resolution failed; ``diagnostics`` lists every PSY011/PSY013 found."""


def resolve(model: RawModel) -> AnalysisModel:
    """Resolve a parse result into an AnalysisModel.

    Checks ID uniqueness (PSY013) and that every reference names an
    existing entity of the expected kind (PSY011); nothing is silently
    dropped. Raises :class:`ResolveError` with all findings on failure.
    The header's ``sae_level`` range is the parser's check, not this one.
    """
    diags: list[Diagnostic] = []

    if model.header is None:
        diags.append(diag("PSY000", "model has no analysis header",
                          SourceSpan("<input>", 1, 1)))
        raise ResolveError(diags)

    # Pass 1: declaration kinds and duplicate IDs; declarations by type.
    kinds: dict[str, EntityKind] = {}
    spans: dict[str, SourceSpan] = {}
    groups: dict[type, list] = {cls: [] for cls in DECLS}
    for decl, span in model.decls:
        groups[type(decl)].append(decl)
        spec = DECLS[type(decl)]
        if not spec.declares_id:
            key = f"assess {decl.hazard}"
            if key in spans:
                diags.append(diag(
                    "PSY013", f"duplicate assessment for hazard "
                    f"'{decl.hazard}'", span, (decl.hazard,)))
            spans[key] = span
            continue
        if decl.id in kinds:
            diags.append(diag(
                "PSY013", f"duplicate declaration of '{decl.id}'",
                span, (decl.id,)))
            continue
        kinds[decl.id] = spec.kind or decl.kind
        spans[decl.id] = span

    # Pass 2: reference checks, worded only for a bad target.
    for decl, span in model.decls:
        for get, many, allowed, ref in _REF_CHECKS[type(decl)]:
            targets = get(decl)
            for target in targets if many else (targets,):
                if (found := kinds.get(target)) in allowed:
                    continue
                owner = (decl.id if DECLS[type(decl)].declares_id
                         else f"assessment of '{decl.hazard}'")
                if found is None:
                    diags.append(diag(
                        "PSY011", f"unknown {ref.expected} '{target}' "
                        f"referenced by {owner}", span, (owner, target)))
                else:
                    diags.append(diag(
                        "PSY011", f"{ref.label or ref.attr} of {owner} "
                        f"must reference a {ref.expected}, but '{target}' "
                        f"is a {found.value}", span, (owner, target)))

    if diags:
        raise ResolveError(diags)

    # Each group at its path, sorted by its key: the one place that orders
    # the model. A group that declares no IDs is keyed by it.
    header = model.header
    fields = {"title": header.title, "sae_level": header.sae_level,
              "boundary": header.boundary, "spans": spans}
    for cls, spec in DECLS.items():
        key = attrgetter(spec.fields[0].attr)
        items = sorted(groups[cls], key=key)
        value = (tuple(items) if spec.declares_id
                 else {key(item): item for item in items})
        owner, _, attr = spec.path.rpartition(".")
        if owner:  # a collection of a record held by the model
            value = fields.get(owner, AnalysisModel._field_defaults[owner]
                               )._replace(**{attr: value})
            attr = owner
        fields[attr] = value
    resolved = AnalysisModel(**fields)
    # Pass 1's map is the one _kinds would build: hand it over.
    resolved.__dict__["_kinds"] = kinds
    return resolved
