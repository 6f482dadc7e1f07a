import pytest

from psysafe.diagnostics import SourceSpan
from psysafe.lexer import KEYWORDS, tokenize
from psysafe.linereader import _read_lines
from psysafe.model import (DECLS, EntityKind, Form, Hazard, Loss,
                           Stakeholder, Uca,
                           UcaKind, spelling)
from psysafe.parser import _PLANS, merge_raw_models, parse, read_source


def parse_text(text, file="t.psy"):
    lex = tokenize(text, file)
    assert not lex.diagnostics, lex.diagnostics
    return parse(lex.tokens, file)


def test_loss_declaration():
    model, diags = parse_text('loss L1 "Loss of trust" violates ST1')
    assert not diags
    assert model.decls == (
        (Loss("L1", "Loss of trust", ("ST1",)),
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
    assert hazard.leads_to == ("L1", "L2")
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
    assert uca.hazards == ("H1", "H2")


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


def test_repeated_block_properties():
    # The last sa_level, psych_state or algorithm wins; process_model
    # keeps every value, in source order.
    model, diags = parse_text(
        'controller DRV "Driver" level 1 { human sa_level 1 sa_level 3 '
        'psych_state "calm" psych_state "tense" }\n'
        'controller ADS "ADS" level 2 { algorithm "a" process_model "p2" '
        'algorithm "b" process_model "p1" process_model "p2" }')
    assert not diags
    (drv, _), (ads, _) = model.decls
    assert drv.sa_level == 3 and drv.psych_state == "tense"
    assert ads.algorithm == "b"
    assert ads.process_model == ("p2", "p1", "p2")


def test_repeated_human_flag_parses_clean():
    model, diags = parse_text('controller DRV "Driver" level 1 '
                              '{ human human }')
    assert not diags
    assert model.decls[0][0].is_human


def test_each_bad_sa_level_is_reported():
    text = 'controller DRV "Driver" level 1 { human sa_level 4 sa_level 2 }'
    _, diags = parse_text(text)
    assert [(d.rule, d.message, d.span.start_col) for d in diags] == [
        ("PSY000", "sa_level must be 1, 2, or 3", text.index("4") + 1)]


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


UCA_KINDS = ("expected UCA kind (not_provided, provided, wrong_timing, "
             "wrong_duration), found ")
FACTORS = ("expected causal factor (controller_failure, "
           "inadequate_algorithm, unsafe_input, inadequate_process_model), "
           "found ")

#: One input per distinct syntax-error message: (source, message, column
#: where the finding starts; every finding is on line 1).
SYNTAX_ERRORS = [
    ('analysis',
     'expected analysis title, found end of file',
     9),
    ('analysis "t" sae_level',
     "expected '{', found 'sae_level'",
     14),
    ('analysis "t" { = 4 }',
     "expected 'sae_level', found '='",
     16),
    ('analysis "t" { sae_level 4 }',
     "expected '=', found '4'",
     26),
    ('analysis "t" { sae_level = x }',
     "expected SAE level, found 'x'",
     28),
    ('analysis "t" { sae_level = 7 }',
     'sae_level must be between 2 and 5, got 7',
     28),
    ('analysis "t" { sae_level = 4 boundary }',
     "expected boundary note, found '}'",
     39),
    ('analysis "t" { sae_level = 4 "b" }',
     'expected \'}\', found \'"b"\'',
     30),
    ('analysis "a" { sae_level = 4 } analysis "b" { sae_level = 4 }',
     'analysis header must be the first and only header of the model',
     32),
    ('"x"',
     'expected a declaration, found \'"x"\'',
     1),
    ('stakeholder "n"',
     'expected identifier, found \'"n"\'',
     13),
    ('stakeholder',
     'expected identifier, found end of file',
     12),
    ('stakeholder SH1',
     'expected stakeholder name, found end of file',
     16),
    ('stakeholder SH1 ""',
     'stakeholder name must not be empty',
     17),
    ('stake ST1 of SH1',
     "expected string, found 'of'",
     11),
    ('stake ST1 "d" SH1',
     "expected 'of', found 'SH1'",
     15),
    ('stake ST1 "d" violates SH1',
     "expected 'of', found 'violates'",
     15),
    ('stake ST1 "d" of "SH1"',
     'expected stakeholder ID, found \'"SH1"\'',
     18),
    ('loss L1 "d" ST1',
     "expected 'violates', found 'ST1'",
     13),
    ('loss L1 "d" violates ST1,',
     'expected identifier, found end of file',
     26),
    ('loss L1 "d" violates ST1 ST2',
     "expected a declaration, found 'ST2'",
     26),
    ('hazard H1 "d" L1',
     "expected 'leads_to', found 'L1'",
     15),
    ('hazard H1 "d" leads_to L1 context 3',
     "expected context note, found '3'",
     35),
    ('goal SG1 "d" H1',
     "expected 'prevents', found 'H1'",
     14),
    ('controller C1 level 1',
     "expected entity name, found 'level'",
     15),
    ('process P1 "p" 1',
     "expected 'level', found '1'",
     16),
    ('controller C1 "c" level one',
     "expected hierarchy level, found 'one'",
     25),
    ('controller C1 "c" level 0',
     'hierarchy level must be 1 or greater',
     25),
    ('controller C1 "c" level 1 { human',
     "expected '}' to close entity block, found end of file",
     34),
    ('controller C1 "c" level 1 { "x" }',
     'expected entity property, found \'"x"\'',
     29),
    ('controller C1 "c" level 1 { level }',
     "expected entity property, found 'level'",
     29),
    ('controller C1 "c" level 1 { human sa_level x }',
     "expected SA level, found 'x'",
     44),
    ('controller C1 "c" level 1 { human sa_level 4 }',
     'sa_level must be 1, 2, or 3',
     44),
    ('controller C1 "c" level 1 { sa_level 2 }',
     "entity 'C1' declares sa_level or psych_state but is not marked human",
     1),
    ('process P1 "p" level 2 { psych_state "tired" }',
     "entity 'P1' declares sa_level or psych_state but is not marked human",
     1),
    ('controller C1 "c" level 1 { psych_state }',
     "expected string, found '}'",
     41),
    ('controller C1 "c" level 1 { algorithm 1 }',
     "expected string, found '1'",
     39),
    ('controller C1 "c" level 1 { process_model x }',
     "expected string, found 'x'",
     43),
    ('action CA1 from C1 to C2',
     "expected edge label, found 'from'",
     12),
    ('action CA1 "a" C1',
     "expected 'from', found 'C1'",
     16),
    ('feedback FB1 "f" from "C1"',
     'expected entity ID, found \'"C1"\'',
     23),
    ('feedback FB1 "f" from C1 C2',
     "expected 'to', found 'C2'",
     26),
    ('action CA1 "a" from C1 to',
     'expected entity ID, found end of file',
     26),
    ('resp R1 "r" C1',
     "expected 'of', found 'C1'",
     13),
    ('resp R1 "r" of "C1"',
     'expected entity ID, found \'"C1"\'',
     16),
    ('resp R1 "r" of C1 SG1',
     "expected 'from', found 'SG1'",
     19),
    ('resp R1 "r" of C1 from',
     'expected identifier, found end of file',
     23),
    ('uca UCA1 CA1',
     "expected 'on', found 'CA1'",
     10),
    ('uca UCA1 on kind',
     "expected control action or feedback ID, found 'kind'",
     13),
    ('uca UCA1 on CA1 provided',
     "expected 'kind', found 'provided'",
     17),
    ('uca UCA1 on CA1 kind late context "c" hazards H1',
     UCA_KINDS + "'late'",
     22),
    ('uca UCA1 on CA1 kind factor',
     UCA_KINDS + "'factor'",
     22),
    ('uca UCA1 on CA1 kind',
     UCA_KINDS + "end of file",
     21),
    ('uca UCA1 on CA1 kind provided "c"',
     'expected \'context\', found \'"c"\'',
     31),
    ('uca UCA1 on CA1 kind provided context H1',
     "expected context, found 'H1'",
     39),
    ('uca UCA1 on CA1 kind provided context "c"',
     "expected 'hazards', found end of file",
     42),
    ('scenario SC1 UCA1',
     "expected 'for', found 'UCA1'",
     14),
    ('scenario SC1 for factor',
     "expected UCA or control action ID, found 'factor'",
     18),
    ('scenario SC1 for UCA1 unsafe_input',
     "expected 'factor', found 'unsafe_input'",
     23),
    ('scenario SC1 for UCA1 factor bad "d"',
     FACTORS + "'bad'",
     30),
    ('scenario SC1 for UCA1 factor',
     FACTORS + "end of file",
     29),
    ('scenario SC1 for UCA1 factor unsafe_input',
     'expected string, found end of file',
     42),
    ('assess "H1"',
     'expected hazard ID, found \'"H1"\'',
     8),
    ('assess H1 S2',
     "expected 'severity', found 'S2'",
     11),
    ('assess H1 severity S4',
     "expected severity class (S1, S2, S3), found 'S4'",
     20),
    ('assess H1 severity provided',
     "expected severity class (S1, S2, S3), found 'provided'",
     20),
    ('assess H1 severity',
     'expected severity class (S1, S2, S3), found end of file',
     19),
    ('assess H1 severity S2 E3',
     "expected 'exposure', found 'E3'",
     23),
    ('assess H1 severity S2 exposure E5',
     "expected exposure class (E1, E2, E3, E4), found 'E5'",
     32),
    ('assess H1 severity S2 exposure',
     'expected exposure class (E1, E2, E3, E4), found end of file',
     31),
    ('assess H1 severity S2 exposure E3 C2',
     "expected 'controllability', found 'C2'",
     35),
    ('assess H1 severity S2 exposure E3 controllability C4',
     "expected controllability class (C1, C2, C3), found 'C4'",
     51),
    ('assess H1 severity S2 exposure E3 controllability',
     'expected controllability class (C1, C2, C3), found end of file',
     50),
    ('assess H1 severity S2 exposure E3 controllability C2 rationale',
     'expected rationale, found end of file',
     63),
    ('assess H1 severity S2 exposure E3 controllability C2 rationale H1',
     "expected rationale, found 'H1'",
     64),

]


@pytest.mark.parametrize("source,message,start_col", SYNTAX_ERRORS)
def test_syntax_error_message_and_span(source, message, start_col):
    lex = tokenize(source, "t.psy")
    assert not lex.diagnostics
    _, diags = parse(lex.tokens, "t.psy")
    assert [(d.rule, d.message, d.span) for d in diags] == [
        ("PSY000", message, SourceSpan("t.psy", 1, start_col))]


def test_table_keywords_are_lexer_keywords():
    # A field keyword or keyword-spelled value missing from KEYWORDS would
    # lex as an identifier and never match.
    words = set()
    for spec in DECLS.values():
        words.update(spec.keywords)
        for f in spec.fields:
            if f.keyword is not None:
                words.add(f.keyword)
            if not isinstance(f.form, Form):
                words.update(spelling(m) for m in f.form
                             if isinstance(m.value, str))
    assert {"assess", "controllability", "provided", "unsafe_input"} <= words
    assert words - KEYWORDS == set()


def test_recovery_stops_at_exactly_the_table_declaration_keywords():
    # After a broken declaration the parser skips to the next token it
    # recovers at; a declaration cut short there adds a second diagnostic.
    stops = set()
    for word in KEYWORDS:
        _, diags = parse(tokenize(f"stakeholder 1 {word}", "t.psy").tokens,
                         "t.psy")
        if len(diags) == 2:
            stops.add(word)
    table = {kw for spec in DECLS.values() for kw in spec.keywords}
    assert stops == table | {"analysis"}


#: Where a parse of the whole file restarts: the words that open a run of
#: lines for the line reader.
STARTS = set(_PLANS) | {"analysis"}


def test_no_field_reads_a_declaration_keyword():
    words = {"sae_level", "boundary"}
    for spec in DECLS.values():
        for f in spec.fields + spec.block:
            if f.keyword is not None:
                words.add(f.keyword)
            if not isinstance(f.form, Form):
                words.update(spelling(m) for m in f.form)
    assert "human" in words and "context" in words
    assert STARTS.isdisjoint(words)


def test_a_parse_restarts_at_every_declaration_keyword(corpus_files):
    # Any token prefix of a declaration line, then a declaration on the
    # next line: the prefix costs at most one finding, where that
    # declaration starts at the latest, which still parses.
    kinds = set()
    for path in corpus_files:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.partition(" ")[0] not in _PLANS:
                continue
            tokens = tokenize(line).tokens
            for tok in tokens:
                text = line[:tok.col - 1 + len(tok.text)]
                lex = tokenize(text + '\nstakeholder SHX "s"', "t.psy")
                model, diags = parse(lex.tokens, "t.psy")
                assert model.decls[-1] == (Stakeholder("SHX", "s"),
                                           SourceSpan("t.psy", 2, 1)), text
                found = lex.diagnostics + diags
                assert len(found) <= 1, text
                assert all(d.span[1:] <= (2, 1) for d in found), text
            kinds.add(_PLANS[tokens[0].text][0])
    assert kinds == set(DECLS)  # every declaration type


#: Declarations split across lines: each reads as the same record as its
#: one-line form, and starts where it does. None of these continuation
#: lines starts with a declaration keyword, so each text is one run of
#: lines, which the line reader leaves whole to the token reader.
SPLIT = [
    'hazard H1 "h" leads_to L1\n  , L2',
    'hazard H1 "h" leads_to L1, L2\n  context "c"',
    'assess H1 severity S2 exposure E4 controllability C1\n'
    '  rationale "r"',
    'controller C1 "c" level 1\n{\n  human sa_level 2\n}',
    'analysis "t"\n{\n  sae_level\n  = 2\n  boundary "b"\n}',
]


@pytest.mark.parametrize("text", SPLIT)
def test_declaration_split_across_lines(text):
    model, diags = parse_text(text)
    one_line, one_line_diags = parse_text(" ".join(text.split()))
    assert not diags and not one_line_diags
    if model.header is not None:
        assert model.header._replace(span=None) == \
            one_line.header._replace(span=None)
        span = model.header.span
    else:
        [(decl, span)] = model.decls
        assert decl == one_line.decls[0][0]
    assert span == SourceSpan("t.psy", 1, 1)
    assert _read_lines(text, "t.psy") == read_source(text, "t.psy")
