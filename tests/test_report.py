import json

from hypothesis import given, strategies as st

from psysafe.lints import LintConfig
from psysafe.loader import load_sources
from psysafe.report import Report, build_report, emit_json, emit_markdown

from tests.conftest import FUZZ, GOLDEN_DIR

EXPECTED_GOAL_HAZARD = {
    "SG1": ["H1"], "SG2": ["H1", "H2", "H5"], "SG3": ["H3"],
    "SG4": ["H4"], "SG5": ["H5"],
}
EXPECTED_HAZARD_LOSS = {
    "H1": ["L2"], "H2": ["L2"], "H3": ["L1", "L2", "L3"],
    "H4": ["L3"], "H5": ["L1", "L2"],
}


def empty_model():
    model, _ = load_sources([("t.psy", 'analysis "void" { sae_level = 2 }')])
    return model


def test_json_matrices_match_the_declared_links(corpus_model,
                                                corpus_config):
    doc = json.loads(emit_json(build_report(corpus_model, corpus_config)))
    assert doc["matrices"]["goal_hazard"] == EXPECTED_GOAL_HAZARD
    assert doc["matrices"]["hazard_loss"] == EXPECTED_HAZARD_LOSS
    assert doc["matrices"]["uca_hazard"] == {
        "UCA1": ["H1"], "UCA2": ["H5"], "UCA3": ["H2", "H3"]}


def test_json_psysil_summary_contains_the_assessed_hazard(corpus_model,
                                                          corpus_config):
    doc = json.loads(emit_json(build_report(corpus_model, corpus_config)))
    assert {"hazard": "H2", "severity": "S2", "exposure": "E4",
            "controllability": "C1", "level": "A"} in \
        doc["psysil"]["hazards"]
    goals = {g["goal"]: g["level"] for g in doc["psysil"]["goals"]}
    assert goals == {"SG1": "unassessed", "SG2": "A", "SG3": "unassessed",
                     "SG4": "unassessed", "SG5": "unassessed"}


def test_empty_model_report_has_zero_counts():
    doc = json.loads(emit_json(build_report(empty_model())))
    assert set(doc["inventory"].values()) == {0}
    assert doc["matrices"] == {"goal_hazard": {}, "hazard_loss": {},
                               "uca_hazard": {}}
    assert doc["diagnostics"] == []


def test_repeated_runs_are_byte_identical(corpus_model, corpus_config):
    first = emit_json(build_report(corpus_model, corpus_config))
    second = emit_json(build_report(corpus_model, corpus_config))
    assert first == second
    assert emit_markdown(build_report(corpus_model, corpus_config)) == \
        emit_markdown(build_report(corpus_model, corpus_config))


def test_markdown_section_order(corpus_model, corpus_config):
    md = emit_markdown(build_report(corpus_model, corpus_config))
    sections = [line for line in md.splitlines()
                if line.startswith("## ")]
    assert sections == ["## Overview", "## Losses", "## Hazards & PsySIL",
                        "## Goals", "## Traceability", "## UCA Coverage",
                        "## Scenarios", "## Diagnostics"]


def test_markdown_matrix_rows(corpus_model, corpus_config):
    md = emit_markdown(build_report(corpus_model, corpus_config))
    assert "| SG2 | H1, H2, H5 |" in md
    assert "| H4 | L3 |" in md


def test_markdown_and_json_agree_on_matrix_cells(corpus_model,
                                                 corpus_config):
    report = build_report(corpus_model, corpus_config)
    md = emit_markdown(report)
    doc = json.loads(emit_json(report))
    for goal, hazards in doc["matrices"]["goal_hazard"].items():
        assert f"| {goal} | {', '.join(hazards)} |" in md
    for hazard, losses in doc["matrices"]["hazard_loss"].items():
        assert f"| {hazard} | {', '.join(losses)} |" in md
    for uca, hazards in doc["matrices"]["uca_hazard"].items():
        assert f"| {uca} | {', '.join(hazards)} |" in md


def test_model_without_ucas_reports_uncovered_actions():
    model, allows = load_sources([(
        "t.psy",
        'analysis "t" { sae_level = 2 }\n'
        'controller OP "op" level 1 { human sa_level 1 psych_state "x" }\n'
        'process P "p" level 2\n'
        'action A1 "act" from OP to P\n'
        'feedback F1 "fb" from P to OP\n')])
    report = build_report(model, LintConfig(allows=allows))
    md = emit_markdown(report)
    assert "No UCAs declared; all control actions are uncovered." in md
    doc = json.loads(emit_json(report))
    assert doc["uca_coverage"] == [
        {"action": "A1", "not_provided": [], "provided": [],
         "wrong_timing": [], "wrong_duration": []}]


def test_every_entity_is_counted_exactly_once(corpus_model, corpus_config):
    doc = json.loads(emit_json(build_report(corpus_model, corpus_config)))
    total = sum(doc["inventory"].values()) - doc["inventory"]["assessments"]
    assert total == len(list(corpus_model.entity_ids))


def test_diagnostics_in_report_match_check_findings(corpus_model,
                                                    corpus_config):
    doc = json.loads(emit_json(build_report(corpus_model, corpus_config)))
    found = sorted((d["rule"], d["related"][0])
                   for d in doc["diagnostics"])
    assert found == [("PSY005", "H4"), ("PSY006", "UCA1"),
                     ("PSY007", "H1"), ("PSY007", "H3"), ("PSY007", "H4"),
                     ("PSY007", "H5")]
    assert all(d["severity"] == "warning" for d in doc["diagnostics"])


def test_schema_header_fields(corpus_model, corpus_config):
    doc = json.loads(emit_json(build_report(corpus_model, corpus_config)))
    assert doc["schema"] == "1"
    assert list(doc)[:2] == ["schema", "tool_version"]


def test_golden_json_report(corpus_model, corpus_config, repo_root,
                            monkeypatch):
    monkeypatch.chdir(repo_root)
    golden = (GOLDEN_DIR / "report.json").read_text(encoding="utf-8")
    assert emit_json(build_report(corpus_model, corpus_config)) == golden


def test_golden_markdown_report(corpus_model, corpus_config, repo_root,
                                monkeypatch):
    monkeypatch.chdir(repo_root)
    golden = (GOLDEN_DIR / "report.md").read_text(encoding="utf-8")
    assert emit_markdown(build_report(corpus_model, corpus_config)) == golden


#: Strings with non-ASCII, control characters, quotes, backslashes and
#: lone surrogates, which the encoder writes as themselves or escapes.
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff')
                    | st.characters(blacklist_categories=()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_TEXT
    | st.integers(min_value=-2 ** 100, max_value=2 ** 100),
    lambda children: st.lists(children)
    | st.dictionaries(JSON_TEXT, children),
    max_leaves=10)


@FUZZ
@given(JSON_VALUES)
def test_emit_json_writes_what_json_dumps_writes(value):
    assert emit_json(Report(value, [], None)) == json.dumps(
        value, indent=2, ensure_ascii=False) + "\n"
