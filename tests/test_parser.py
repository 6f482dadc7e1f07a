from psysafe.lexer import tokenize
from psysafe.model import EntityKind, Hazard, Loss, Uca, UcaKind
from psysafe.parser import merge_raw_models, parse


def parse_text(text, file="t.psy"):
    lex = tokenize(text, file)
    assert not lex.diagnostics, lex.diagnostics
    return parse(lex.tokens, file)


def test_loss_declaration():
    model, diags = parse_text('loss L1 "Loss of trust" violates ST1')
    assert not diags
    assert model.decls == (
        (Loss("L1", "Loss of trust", frozenset({"ST1"})),
         model.decls[0][1]),)
    assert model.decls[0][1].start_col == 1


def test_header_with_boundary():
    model, diags = parse_text(
        'analysis "t" { sae_level = 4 boundary "edge" }')
    assert not diags
    assert model.header.title == "t"
    assert model.header.sae_level == 4
    assert model.header.boundary == "edge"


def test_sae_level_out_of_range_is_an_error():
    _, diags = parse_text('analysis "t" { sae_level = 7 }')
    assert [d.rule for d in diags] == ["PSY000"]
    assert "sae_level" in diags[0].message


def test_hazard_with_context():
    model, diags = parse_text(
        'hazard H1 "h" leads_to L1, L2 context "raining"')
    assert not diags
    hazard, _ = model.decls[0]
    assert isinstance(hazard, Hazard)
    assert hazard.leads_to == frozenset({"L1", "L2"})
    assert hazard.context == "raining"


def test_uca_missing_hazards_clause_is_an_error():
    _, diags = parse_text('uca UCA1 on CA_motion kind provided context "c"')
    assert len(diags) == 1
    assert "hazards" in diags[0].message


def test_uca_parses_kind_and_hazards():
    model, diags = parse_text(
        'uca UCA1 on CA_motion kind provided context "c" hazards H1, H2')
    assert not diags
    uca, _ = model.decls[0]
    assert isinstance(uca, Uca)
    assert uca.kind is UcaKind.PROVIDED
    assert uca.hazards == frozenset({"H1", "H2"})


def test_entity_block_properties():
    model, diags = parse_text(
        'controller DRV "Driver" level 1 '
        '{ human sa_level 2 psych_state "calm" }\n'
        'process VEH "Vehicle" level 3')
    assert not diags
    (drv, _), (veh, _) = model.decls
    assert drv.is_human and drv.sa_level == 2 and drv.psych_state == "calm"
    assert drv.kind is EntityKind.CONTROLLER
    assert veh.kind is EntityKind.PROCESS and not veh.is_human


def test_sa_level_on_non_human_is_an_error():
    _, diags = parse_text('controller C1 "c" level 1 { sa_level 2 }')
    assert len(diags) == 1
    assert "human" in diags[0].message


def test_error_recovery_reports_one_diagnostic_per_broken_decl():
    text = ('loss L1 "ok" violates ST1\n'
            'loss L2 violates ST1\n'            # missing description
            'hazard H1 "ok" leads_to L1\n'
            'goal SG1 "bad" prevents\n'         # missing idlist
            'stake ST1 "ok" of SH1\n')
    lex = tokenize(text, "t.psy")
    model, diags = parse(lex.tokens, "t.psy")
    assert len(diags) == 2
    # Each diagnostic sits on the offending token: the missing description
    # on line 2, the missing idlist on the 'stake' keyword that follows.
    assert {d.span.start_line for d in diags} == {2, 5}
    kinds = [type(d).__name__ for d, _ in model.decls]
    assert kinds == ["Loss", "Hazard", "Stake"]


def test_corpus_declaration_counts(corpus_files):
    headers = 0
    counts = {}
    for path in corpus_files:
        lex = tokenize(path.read_text(encoding="utf-8"), str(path))
        assert not lex.diagnostics
        model, diags = parse(lex.tokens, str(path))
        assert not diags
        headers += model.header is not None
        for decl, _ in model.decls:
            counts[type(decl).__name__] = \
                counts.get(type(decl).__name__, 0) + 1
    assert headers == 1
    assert counts["Stakeholder"] == 1
    assert counts["Stake"] == 4
    assert counts["Loss"] == 3
    assert counts["Hazard"] == 5
    assert counts["SafetyGoal"] == 5
    assert counts["Responsibility"] == 7
    assert counts["Uca"] == 3
    assert counts["LossScenario"] == 4
    assert counts["RiskAssessment"] == 1
    assert counts["Entity"] == 3
    assert counts["ControlAction"] == 2
    assert counts["FeedbackLink"] == 2


def test_merge_requires_exactly_one_header():
    a, _ = parse_text('analysis "t" { sae_level = 2 }', "a.psy")
    b, _ = parse_text('loss L1 "l" violates ST1', "b.psy")
    merged, diags = merge_raw_models([("a.psy", a), ("b.psy", b)])
    assert not diags
    assert merged.header.title == "t"
    assert len(merged.decls) == 1

    _, diags = merge_raw_models([("b.psy", b)])
    assert len(diags) == 1 and "no analysis header" in diags[0].message

    _, diags = merge_raw_models([("a.psy", a), ("a2.psy", a)])
    assert len(diags) == 1 and "duplicate" in diags[0].message

    _, diags = merge_raw_models([("b.psy", b), ("a.psy", a)])
    assert len(diags) == 1 and "first input file" in diags[0].message


def test_header_must_be_first_in_its_file():
    lex = tokenize('loss L1 "l" violates ST1\n'
                   'analysis "t" { sae_level = 2 }', "t.psy")
    model, diags = parse(lex.tokens, "t.psy")
    assert model.header is None
    assert len(diags) == 1
    assert "first" in diags[0].message
