"""Which error each loading stage raises: reading, lexing, parsing and
merging raise ``LoadError``; resolution raises ``ResolveError``."""

import pytest

from psysafe.diagnostics import DiagnosticError
from psysafe.loader import LoadError, load_model, load_sources
from psysafe.model import ResolveError

HEADER = 'analysis "t" { sae_level = 2 }\n'


def test_the_two_errors_are_unrelated_diagnostic_errors():
    assert issubclass(LoadError, DiagnosticError)
    assert issubclass(ResolveError, DiagnosticError)
    assert not issubclass(ResolveError, LoadError)
    assert not issubclass(LoadError, ResolveError)


def test_no_input_files_is_a_load_error():
    with pytest.raises(LoadError):
        load_model([])


def test_unreadable_files_are_load_errors(tmp_path):
    bad = tmp_path / "bad.psy"
    bad.write_bytes(b"\xff\xfe")
    # The last name holds a lone surrogate, which no file name can encode.
    for path in (tmp_path / "missing.psy", tmp_path, bad, "\ud800.psy"):
        with pytest.raises(LoadError):
            load_model([path])


@pytest.mark.parametrize("sources", [
    [("a.psy", HEADER + "loss L1 \"l\" violates ST1 @")],     # lex
    [("a.psy", HEADER + "loss L1 violates ST1")],             # parse
    [("a.psy", 'loss L1 "l" violates ST1')],                  # merge
    [("a.psy", HEADER), ("b.psy", HEADER)],                   # merge
], ids=["lex", "parse", "no-header", "two-headers"])
def test_reading_stages_raise_load_error(sources):
    with pytest.raises(LoadError) as exc:
        load_sources(sources)
    assert exc.value.diagnostics


@pytest.mark.parametrize("text", [
    HEADER + 'loss L1 "l" violates ST9',                      # unknown ID
    HEADER + 'stakeholder SH1 "s"\nstakeholder SH1 "t"',      # duplicate
])
def test_resolution_raises_resolve_error(text):
    with pytest.raises(ResolveError) as exc:
        load_sources([("a.psy", text)])
    assert not isinstance(exc.value, LoadError)
    assert {d.rule for d in exc.value.diagnostics} <= {"PSY011", "PSY013"}
