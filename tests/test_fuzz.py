"""Fuzzing the input surface: any text ends in a model or in findings.

The invariant for ``load_sources`` is that a model comes back, or a
``DiagnosticError`` whose findings all carry catalog rule IDs and point
into the text; nothing else may be raised. ``parse_config`` always returns, with findings from
the catalog. Any argv, and any bytes as a file's contents, end in a
documented exit code with no traceback. Examples are derandomized so the
suite stays repeatable.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psysafe import cli
from psysafe.diagnostics import RULES, DiagnosticError
from psysafe.lexer import KEYWORDS, tokenize
from psysafe.lints import LintConfig, parse_config
from psysafe.loader import load_sources

from tests.conftest import CORPUS_DIR, FUZZ

#: The corpus as one token stream, the text each mutation starts from.
CORPUS_TOKENS = [tok.text for path in sorted(CORPUS_DIR.glob("*.psy"))
                 for tok in tokenize(path.read_text(encoding="utf-8"),
                                     path.name).tokens]
#: Tokens a mutation may insert: every keyword and punctuation mark, plus
#: identifiers, codes, strings and integers, valid and not.
POOL = sorted(KEYWORDS) + sorted("{}=,") + [
    "SH_DRV", "ST1", "L1", "H1", "SG1", "UCA1", "X9", "S2", "E4", "C1",
    "S9", '"text"', '""', "0", "1", "7", '"open', "\\", "#"]


def assert_loads_or_diagnoses(text: str) -> None:
    try:
        load_sources([("fuzz.psy", text)])
    except DiagnosticError as exc:
        assert exc.diagnostics
        # The lexer's line ends; a leading BOM is no part of line 1.
        lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
        for d in exc.diagnostics:
            assert d.rule in RULES
            file, line, col = d.span
            assert file == "fuzz.psy" and 1 <= line <= len(lines)
            # One past the line's end is where an end of file is found.
            assert 1 <= col <= len(lines[line - 1]) + 1


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


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.run`` in process: its exit code and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Inputs the argv vocabulary names: a valid config, which discovery
    also finds when one of these files is the first input, an empty file,
    an invalid UTF-8 file and a directory."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "psysafe.conf").write_text("lint { PSY007 = off }\n",
                                      encoding="utf-8")
    (tmp / "empty.psy").write_bytes(b"")
    (tmp / "bad.psy").write_bytes(b'analysis "t\xff" { sae_level = 2 }\n')
    (tmp / "dir").mkdir()
    return tmp


CORPUS_ARGS = [str(path) for path in sorted(CORPUS_DIR.glob("*.psy"))]
#: Operands a file command may take; ``{tmp}`` is the fixture's directory.
FILES = [["{tmp}/empty.psy"], ["{tmp}/bad.psy"], ["{tmp}/missing.psy"],
         ["{tmp}/dir"], CORPUS_ARGS[:1]]
CONFIGS = [["--config", "{tmp}/psysafe.conf"], ["--config", "{tmp}/bad.psy"],
           ["--config", "{tmp}/missing.conf"], ["--config", "{tmp}/dir"]]
#: Fragments no command accepts as given.
MISUSE = [["--format", "xml"], ["--dir", "sideways"], ["--from"],
          ["--version"], ["--help"], ["--frobnicate"]]


def extended(base: list[str], fragments: list[list[str]]):
    """``base`` followed by up to three fragments of its command's
    vocabulary or of :data:`MISUSE`."""
    return st.lists(st.sampled_from(fragments + MISUSE), max_size=3).map(
        lambda extra: base + [arg for fragment in extra for arg in fragment])


argvs = st.one_of(
    extended(["check", *CORPUS_ARGS],
             FILES + CONFIGS + [["--strict"], ["--coverage"]]),
    extended(["report", "--format", "json", *CORPUS_ARGS],
             FILES + CONFIGS + [["--format", "md"], ["--out", "{tmp}/out"],
                                ["--out", "{tmp}/dir"],
                                ["--out", "{tmp}/missing/out"]]),
    extended(["trace", *CORPUS_ARGS, "--from", "H3"],
             FILES + [["--from", "SG2"], ["--from", "NOPE"],
                      ["--dir", "up"], ["--dir", "down"]]),
    extended(["fmt", *CORPUS_ARGS], FILES),
    st.tuples(st.sampled_from(["S1", "S3", "S9", "E2"]),
              st.sampled_from(["E1", "E4", "E0", "C1"]),
              st.sampled_from(["C2", "C3", "c1"])).flatmap(
        lambda triple: extended(["psysil", *triple], [])),
    extended([], [["check"], ["lint"]] + FILES),
)


@FUZZ
@given(argvs)
def test_any_argv_ends_in_a_documented_exit_code(fuzz_dir, argv):
    code, stderr = run_cli([arg.format(tmp=fuzz_dir) for arg in argv])
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in stderr


@pytest.fixture(scope="module")
def bytes_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes") / "input.psy"


@FUZZ
@given(st.binary())
def test_any_file_bytes_end_in_findings(bytes_path, data):
    bytes_path.write_bytes(data)
    code, stderr = run_cli(["check", str(bytes_path)])
    assert code in (0, 1, 2)
    line = re.compile(re.escape(str(bytes_path)) + r":\d+:\d+: "
                      r"(error|warning|info)\[(PSY\d{3})\]: .+")
    for text in stderr.splitlines():
        m = line.fullmatch(text)
        assert m and m[2] in RULES, text
