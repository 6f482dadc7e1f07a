import pytest

from psysafe.diagnostics import RULES, Severity
from psysafe.lints import LintConfig, parse_config, run_lints
from psysafe.loader import load_sources

from tests.mutations import (CLEAN_PSY, MUTATION_RULES, all_diagnostics,
                             load_clean, mutant_diagnostics)


def test_corpus_produces_exactly_the_expected_warnings(corpus_model,
                                                       corpus_config):
    diags = run_lints(corpus_model, corpus_config)
    findings = sorted((d.rule, d.related[0]) for d in diags)
    assert findings == [("PSY005", "H4"), ("PSY006", "UCA1"),
                        ("PSY007", "H1"), ("PSY007", "H3"),
                        ("PSY007", "H4"), ("PSY007", "H5")]
    assert all(d.severity is Severity.WARNING for d in diags)


def test_suppression_comments_hide_psy004_on_corpus(corpus_model,
                                                    corpus_config):
    with_allow = run_lints(corpus_model, corpus_config)
    assert not [d for d in with_allow if d.rule == "PSY004"]
    without_allow = run_lints(corpus_model, LintConfig())
    psy004 = [d for d in without_allow if d.rule == "PSY004"]
    assert sorted(d.related[0] for d in psy004) == ["SG4", "SG5"]


def test_deleting_sg4_triggers_psy003_for_h4(corpus_files):
    sources = []
    for path in corpus_files:
        text = path.read_text(encoding="utf-8")
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("goal SG4 "))
        sources.append((str(path), text))
    model, allows = load_sources(sources)
    diags = run_lints(model, LintConfig(allows=allows))
    psy003 = [d for d in diags if d.rule == "PSY003"]
    assert len(psy003) == 1
    assert psy003[0].related == ("H4",)
    assert psy003[0].severity is Severity.ERROR


def test_empty_model_yields_zero_diagnostics():
    model, _ = load_sources([("t.psy", 'analysis "t" { sae_level = 2 }')])
    assert run_lints(model, LintConfig()) == []


def test_run_lints_is_repeatable(corpus_model, corpus_config):
    assert run_lints(corpus_model, corpus_config) == \
        run_lints(corpus_model, corpus_config)


def test_diagnostics_sorted_by_file_line_rule(corpus_model, corpus_config):
    diags = run_lints(corpus_model, corpus_config)
    keys = [(d.span.file, d.span.start_line, d.rule) for d in diags]
    assert keys == sorted(keys)


def test_severity_override_and_off():
    text = CLEAN_PSY.replace("assess H1 severity S2 exposure E3 "
                             "controllability C2\n", "")
    model, allows = load_sources([("clean.psy", text)])
    base = run_lints(model, LintConfig(allows=allows))
    assert [d.rule for d in base] == ["PSY007"]
    promoted = run_lints(model, LintConfig(
        overrides={"PSY007": "error"}, allows=allows))
    assert promoted[0].severity is Severity.ERROR
    silenced = run_lints(model, LintConfig(
        overrides={"PSY007": "off"}, allows=allows))
    assert silenced == []


def test_lint_config_rejects_unknown_rules():
    with pytest.raises(ValueError):
        LintConfig(overrides={"PSY099": "error"})
    with pytest.raises(ValueError):
        LintConfig(overrides={"PSY007": "loud"})


def test_parse_config_happy_path():
    config, diags = parse_config(
        "# tuning\nlint {\n  PSY007 = off\n  PSY005 = error\n}\n")
    assert not diags
    assert config.overrides == {"PSY007": "off", "PSY005": "error"}


def test_parse_config_unknown_rule_is_an_error():
    config, diags = parse_config("lint { PSY099 = off }")
    assert any("unknown lint rule" in d.message for d in diags)
    assert config.overrides == {}


def test_parse_config_invalid_severity_is_an_error():
    _, diags = parse_config("lint { PSY007 = loud }")
    assert any("invalid severity" in d.message for d in diags)


ABORTING_RULES = ("PSY000", "PSY011", "PSY013")


@pytest.mark.parametrize("rule", ABORTING_RULES)
def test_rules_that_abort_the_run_cannot_be_configured(rule):
    message = f"lint rule {rule} cannot be configured; it aborts the run"
    config, diags = parse_config(f"lint {{\n  {rule} = off\n}}\n")
    assert [(d.rule, d.message, d.span.start_line, d.span.start_col)
            for d in diags] == [("PSY000", message, 2, 3)]
    assert config.overrides == {}
    with pytest.raises(ValueError, match=message):
        LintConfig(overrides={rule: "warning"})


@pytest.mark.parametrize("source", [
    "lint { PSY007 = off\n  PSY007 = error }",
    "lint { PSY007 = off } lint {\n  PSY007 = error }",
], ids=["one-block", "two-blocks"])
def test_a_rule_set_twice_is_an_error(source):
    config, diags = parse_config(source)
    assert [(d.rule, d.message, d.span.start_line, d.span.start_col)
            for d in diags] == [("PSY000", "duplicate setting for PSY007",
                                 2, 3)]
    assert config.overrides == {}


def test_rule_catalog_is_stable():
    assert set(RULES) == {
        "PSY000", "PSY001", "PSY002", "PSY003", "PSY004", "PSY005",
        "PSY006", "PSY007", "PSY009", "PSY010", "PSY011", "PSY012",
        "PSY013", "PSY014"}
    assert RULES["PSY003"].default_severity is Severity.ERROR
    assert RULES["PSY007"].default_severity is Severity.WARNING


def test_clean_fixture_triggers_no_rules():
    model, allows = load_clean()
    assert all_diagnostics(model, allows) == []


@pytest.mark.parametrize("rule", MUTATION_RULES)
def test_single_mutation_triggers_rule_exactly_once(rule):
    diags = mutant_diagnostics(rule)
    hits = [d for d in diags if d.rule == rule]
    assert len(hits) == 1, (rule, diags)


@pytest.mark.parametrize("rule", MUTATION_RULES)
def test_clean_fixture_never_triggers_rule(rule):
    model, allows = load_clean()
    diags = all_diagnostics(model, allows)
    assert not [d for d in diags if d.rule == rule]
