"""Fuzzing the input surface: any text ends in a model or in findings.

The invariant for ``load_sources`` is that a model comes back, or a
``DiagnosticError`` whose findings all carry catalog rule IDs; nothing
else may be raised. ``parse_config`` always returns, with findings from
the catalog. Examples are derandomized so the suite stays repeatable.
"""

from hypothesis import given
from hypothesis import strategies as st

from psysafe.diagnostics import RULES, DiagnosticError
from psysafe.lexer import KEYWORDS, PUNCT_CHARS, tokenize
from psysafe.lints import LintConfig, parse_config
from psysafe.loader import load_sources

from tests.conftest import CORPUS_DIR, FUZZ

#: The corpus as one token stream, the text each mutation starts from.
CORPUS_TOKENS = [tok.text for path in sorted(CORPUS_DIR.glob("*.psy"))
                 for tok in tokenize(path.read_text(encoding="utf-8"),
                                     path.name).tokens]
#: Tokens a mutation may insert: every keyword and punctuation mark, plus
#: identifiers, codes, strings and integers, valid and not.
POOL = sorted(KEYWORDS) + sorted(PUNCT_CHARS) + [
    "SH_DRV", "ST1", "L1", "H1", "SG1", "UCA1", "X9", "S2", "E4", "C1",
    "S9", '"text"', '""', "0", "1", "7", '"open', "\\", "#"]


def assert_loads_or_diagnoses(text: str) -> None:
    try:
        load_sources([("fuzz.psy", text)])
    except DiagnosticError as exc:
        assert exc.diagnostics
        assert all(d.rule in RULES for d in exc.diagnostics)


@FUZZ
@given(st.text())
def test_arbitrary_text_loads_or_diagnoses(text):
    assert_loads_or_diagnoses(text)


@FUZZ
@given(st.lists(st.sampled_from(POOL), max_size=40))
def test_token_soup_loads_or_diagnoses(words):
    assert_loads_or_diagnoses(" ".join(words))


mutation = st.tuples(st.sampled_from(("delete", "insert", "replace")),
                     st.integers(0, len(CORPUS_TOKENS) - 1),
                     st.sampled_from(POOL))


@FUZZ
@given(st.lists(mutation, min_size=1, max_size=4))
def test_mutated_corpus_loads_or_diagnoses(mutations):
    tokens = list(CORPUS_TOKENS)
    for op, index, word in mutations:
        index %= len(tokens)
        if op == "delete":
            del tokens[index]
        elif op == "insert":
            tokens.insert(index, word)
        else:
            tokens[index] = word
    assert_loads_or_diagnoses(" ".join(tokens))


def test_every_corpus_prefix_loads_or_diagnoses():
    for end in range(len(CORPUS_TOKENS) + 1):
        assert_loads_or_diagnoses(" ".join(CORPUS_TOKENS[:end]))


def assert_config_parses(text: str) -> None:
    config, diags = parse_config(text)
    assert isinstance(config, LintConfig)
    assert all(d.rule in RULES for d in diags)


@FUZZ
@given(st.text())
def test_arbitrary_config_text_parses(text):
    assert_config_parses(text)


@FUZZ
@given(st.lists(st.sampled_from(
    ("lint", "{", "}", "=", ",", "PSY001", "PSY007", "PSY099", "error",
     "warning", "info", "off", "loud", '"x"', "1", "level")), max_size=12))
def test_config_token_soup_parses(words):
    assert_config_parses(" ".join(words))
