"""The record contract: every domain type is an immutable subclass of a
``collections.namedtuple`` class.

Records build with ``Type(...)``, copy with ``_replace``, list their
fields in ``_fields`` and convert with ``_asdict``. Construction checks
(a known rule ID, valid config overrides) also run on ``_replace``.
"""

import json

import pytest

import psysafe
from psysafe.diagnostics import RULES, Diagnostic, Severity, SourceSpan
from psysafe.lexer import LexResult, tokenize
from psysafe.lints import LintConfig
from psysafe.model import (DECLS, AnalysisModel, ControlAction, EntityKind,
                           FeedbackLink, Field, Hazard, Loss)
from psysafe.parser import parse
from psysafe.psysil import psysil_table
from psysafe.report import Report, build_report
from psysafe.structure import uca_category_coverage
from psysafe.tracegraph import build_trace_graph

SPAN = SourceSpan("t.psy", 1, 1)


@pytest.fixture(scope="module")
def records(corpus_files, corpus_model, corpus_config):
    """One instance of every record type, public or not, by type."""
    lex = tokenize(corpus_files[0].read_text(encoding="utf-8"),
                   str(corpus_files[0]))
    raw, _ = parse(lex.tokens, str(corpus_files[0]))
    graph = build_trace_graph(corpus_model)
    report = build_report(corpus_model, corpus_config)
    found = [lex, lex.tokens[0], raw, raw.header, RULES["PSY001"],
             report.diagnostics[0], SPAN, corpus_config, corpus_model,
             corpus_model.structure, psysil_table()[0],
             uca_category_coverage(corpus_model)[0], graph,
             graph.edges[0], report,
             *(next(iter(spec.items(corpus_model)))
               for spec in DECLS.values()),
             *DECLS.values(), DECLS[Loss].fields[0], DECLS[Loss].refs[0]]
    return {type(r): r for r in found}


def test_every_public_record_type_has_a_sample(records):
    public = {obj for obj in (getattr(psysafe, n) for n in psysafe.__all__)
              if isinstance(obj, type) and issubclass(obj, tuple)}
    assert public <= set(records)


def test_records_reject_attribute_assignment(records):
    for cls, record in records.items():
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_replace_keeps_the_type(records):
    for cls, record in records.items():
        first = record._fields[0]
        copy = record._replace(**{first: getattr(record, first)})
        assert type(copy) is cls and copy == record, cls.__name__
        assert cls(**record._asdict()) == record, cls.__name__


def test_records_of_hashable_values_hash(records):
    # These hold a mapping or a list, so they did not hash before either.
    unhashable = {AnalysisModel, LintConfig, LexResult, Report}
    for cls, record in records.items():
        if cls in unhashable:
            continue
        twin = record._replace()
        assert hash(twin) == hash(record), cls.__name__
        assert len({record, twin}) == 1, cls.__name__
    with pytest.raises(TypeError):
        hash(records[AnalysisModel])


def test_model_equality_ignores_spans(corpus_model):
    moved = {key: SPAN for key in corpus_model.spans}
    assert corpus_model._replace(spans=moved) == corpus_model
    assert not corpus_model._replace(spans=moved) != corpus_model
    assert corpus_model._replace(title="other") != corpus_model


def test_kind_of_follows_a_replaced_model(corpus_model):
    extra = Hazard("H99", "new", ("L1",))
    grown = corpus_model._replace(hazards=corpus_model.hazards + (extra,))
    assert grown.kind_of("H99") is EntityKind.HAZARD
    assert corpus_model.kind_of("H99") is None
    emptied = corpus_model._replace(hazards=())
    assert emptied.kind_of("H1") is None
    assert emptied.kind_of("L1") is EntityKind.LOSS


def test_unknown_rule_id_is_rejected():
    with pytest.raises(ValueError, match="PSY999"):
        Diagnostic("PSY999", Severity.ERROR, "m", SPAN)
    good = Diagnostic("PSY000", Severity.ERROR, "m", SPAN)
    assert good.related == ()
    with pytest.raises(ValueError, match="PSY999"):
        good._replace(rule="PSY999")


def test_invalid_override_is_rejected():
    with pytest.raises(ValueError, match="PSY099"):
        LintConfig(overrides={"PSY099": "error"})
    config = LintConfig(overrides={"PSY001": "off"})
    with pytest.raises(ValueError, match="PSY099"):
        config._replace(overrides={"PSY099": "error"})
    with pytest.raises(ValueError, match="aborts the run"):
        config._replace(overrides={"PSY011": "off"})
    assert LintConfig().overrides == {} and LintConfig().allows == {}


def test_records_are_tuples():
    """What changed from dataclasses: records unpack, index, compare equal
    to a tuple of the same values, across record types too, and encode as
    JSON arrays."""
    action = ControlAction("X1", "label", "A", "B")
    assert tuple(action) == ("X1", "label", "A", "B")
    assert action[0] == action.id == "X1"
    assert action == FeedbackLink(*action)
    assert json.dumps(SPAN) == '["t.psy", 1, 1]'


def test_refs_are_the_reference_fields():
    # One record type for every field; the references are the fields
    # whose kinds are set, and () accepts any declared entity.
    for spec in DECLS.values():
        assert {type(f) for f in spec.fields + spec.block} == {Field}
        assert spec.refs == tuple(f for f in spec.fields
                                  if f.kinds is not None)
        assert all(f.kinds is None for f in spec.block)
    assert [ref.attr for spec in DECLS.values() for ref in spec.refs
            if not ref.kinds] == ["assignee"]


def test_report_document_holds_no_record(corpus_model, corpus_config):
    """json.dumps would write a record as an array without complaint, so
    the document must hold only JSON types."""
    def walk(value):
        if isinstance(value, dict):
            assert all(type(k) is str for k in value)
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        else:
            assert value is None or type(value) in (str, int, bool), value

    walk(build_report(corpus_model, corpus_config).document)
