import pytest

from psysafe.lexer import tokenize
from psysafe.loader import load_sources
from psysafe.model import EntityKind, ResolveError, resolve
from psysafe.parser import parse


def resolve_text(text):
    lex = tokenize(text, "t.psy")
    assert not lex.diagnostics
    raw, diags = parse(lex.tokens, "t.psy")
    assert not diags
    return resolve(raw)


def test_empty_model_resolves_to_empty_collections():
    model = resolve_text('analysis "empty" { sae_level = 2 }')
    assert model.title == "empty"
    assert model.stakeholders == ()
    assert model.losses == ()
    assert model.hazards == ()
    assert model.assessments == {}
    assert model.structure.entities == ()


def test_corpus_resolves_with_expected_sizes(corpus_model):
    assert len(corpus_model.losses) == 3
    assert len(corpus_model.hazards) == 5
    assert len(corpus_model.goals) == 5


def test_dangling_reference_is_psy011(corpus_files):
    sources = [(str(p), p.read_text(encoding="utf-8"))
               for p in corpus_files]
    name, text = sources[-1]
    assert "hazards H2, H3" in text
    sources[-1] = (name, text.replace("hazards H2, H3", "hazards H2, H9"))
    with pytest.raises(ResolveError) as exc:
        load_sources(sources)
    diags = exc.value.diagnostics
    assert [d.rule for d in diags] == ["PSY011"]
    assert "H9" in diags[0].message


def test_every_dangling_reference_is_reported():
    with pytest.raises(ResolveError) as exc:
        resolve_text('analysis "t" { sae_level = 2 }\n'
                     'loss L1 "l" violates ST1, ST2\n'
                     'hazard H1 "h" leads_to L1, L9')
    rules = [d.rule for d in exc.value.diagnostics]
    assert rules == ["PSY011", "PSY011", "PSY011"]


def test_repeated_unknown_reference_is_one_psy011():
    # ID lists are sets, so naming the same unknown ID twice is one finding.
    with pytest.raises(ResolveError) as exc:
        resolve_text('analysis "t" { sae_level = 2 }\n'
                     'loss L1 "l" violates ST9, ST9')
    assert [d.message for d in exc.value.diagnostics] == \
        ["unknown stake 'ST9' referenced by L1"]


def test_out_of_range_sae_level_is_reported_once():
    lex = tokenize('analysis "t" { sae_level = 7 }', "t.psy")
    raw, diags = parse(lex.tokens, "t.psy")
    try:
        resolve(raw)
    except ResolveError as exc:
        diags += exc.diagnostics
    assert [d.message for d in diags] == \
        ["sae_level must be between 2 and 5, got 7"]


def test_wrong_kind_reference_is_psy011():
    with pytest.raises(ResolveError) as exc:
        resolve_text('analysis "t" { sae_level = 2 }\n'
                     'stakeholder SH1 "s"\n'
                     'stake ST1 "st" of SH1\n'
                     'loss L1 "l" violates SH1')
    d = exc.value.diagnostics[0]
    assert d.rule == "PSY011"
    assert "stakeholder" in d.message


def test_duplicate_id_is_psy013():
    with pytest.raises(ResolveError) as exc:
        resolve_text('analysis "t" { sae_level = 2 }\n'
                     'stakeholder SH1 "a"\n'
                     'stake SH1 "b" of SH1')
    assert [d.rule for d in exc.value.diagnostics] == ["PSY013"]


def test_duplicate_assessment_is_psy013():
    with pytest.raises(ResolveError) as exc:
        resolve_text('analysis "t" { sae_level = 2 }\n'
                     'stakeholder SH1 "s"\n'
                     'stake ST1 "st" of SH1\n'
                     'loss L1 "l" violates ST1\n'
                     'hazard H1 "h" leads_to L1\n'
                     'assess H1 severity S1 exposure E1 controllability C1\n'
                     'assess H1 severity S2 exposure E2 controllability C2')
    assert [d.rule for d in exc.value.diagnostics] == ["PSY013"]


def test_assignee_may_be_any_existing_entity():
    # Wrong-kind assignees resolve; PSY012 is a lint, not a resolve error.
    model = resolve_text(
        'analysis "t" { sae_level = 2 }\n'
        'stakeholder SH1 "s"\n'
        'stake ST1 "st" of SH1\n'
        'loss L1 "l" violates ST1\n'
        'hazard H1 "h" leads_to L1\n'
        'goal G1 "g" prevents H1\n'
        'resp R1 "r" of H1 from G1')
    assert model.responsibilities[0].assignee == "H1"


def test_entity_kind_lookup(corpus_model):
    assert corpus_model.kind_of("H3") is EntityKind.HAZARD
    assert corpus_model.kind_of("SG4") is EntityKind.GOAL
    assert corpus_model.kind_of("ZZZ") is None
    assert corpus_model.kind_of("DRV") is EntityKind.CONTROLLER
    assert corpus_model.kind_of("VEH") is EntityKind.PROCESS
    assert corpus_model.kind_of("CA_motion") is EntityKind.ACTION
    assert corpus_model.kind_of("FB_state") is EntityKind.FEEDBACK
    assert corpus_model.kind_of("UCA3.SC2") is EntityKind.SCENARIO
    assert corpus_model.kind_of("R5") is EntityKind.RESPONSIBILITY


def test_ids_unique_and_references_closed(corpus_model):
    model = corpus_model
    ids = list(model.entity_ids)
    assert len(ids) == len(set(ids))
    known = set(ids)
    for loss in model.losses:
        assert loss.violates and loss.violates <= known
    for hazard in model.hazards:
        assert hazard.leads_to and hazard.leads_to <= known
    for goal in model.goals:
        assert goal.prevents and goal.prevents <= known
    for resp in model.responsibilities:
        assert resp.derived_from and resp.derived_from <= known
        assert resp.assignee in known
    for uca in model.ucas:
        assert uca.hazards and uca.hazards <= known
        assert uca.on in known
    for scenario in model.scenarios:
        assert scenario.for_ref in known


def test_declaration_order_is_irrelevant_after_resolution():
    base = ('analysis "t" { sae_level = 3 }\n'
            'stakeholder SH1 "s"\n'
            'stake ST1 "st" of SH1\n'
            'loss L1 "l" violates ST1\n')
    reordered = ('analysis "t" { sae_level = 3 }\n'
                 'loss L1 "l" violates ST1\n'
                 'stake ST1 "st" of SH1\n'
                 'stakeholder SH1 "s"\n')
    assert resolve_text(base) == resolve_text(reordered)


def test_ordering_of_classes():
    from psysafe.model import (ControllabilityClass, ExposureClass,
                               PsySilLevel, SeverityClass)
    assert SeverityClass.S1 < SeverityClass.S2 < SeverityClass.S3
    assert ExposureClass.E1 < ExposureClass.E4
    assert ControllabilityClass.C1 < ControllabilityClass.C3
    assert (PsySilLevel.QM < PsySilLevel.A < PsySilLevel.B
            < PsySilLevel.C < PsySilLevel.D)
