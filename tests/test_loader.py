"""Which error each loading stage raises: reading, lexing, parsing and
merging raise ``LoadError``; resolution raises ``ResolveError``."""

import copy
import pickle

import pytest

from psysafe.diagnostics import (Diagnostic, DiagnosticError, Severity,
                                 SourceSpan, format_diagnostic,
                                 sort_diagnostics)
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


def test_a_load_error_formats_its_findings_only_when_asked():
    # The message is built by str(), from the sorted findings; the CLI
    # prints the findings themselves, so args holds no message.
    with pytest.raises(LoadError) as exc:
        load_sources([("b.psy", HEADER + "loss L1 violates ST1 @\n$"),
                      ("a.psy", "stake ST1 of")])
    err = exc.value
    diags = err.diagnostics
    assert len(diags) > 2 and diags == sort_diagnostics(diags[::-1])
    assert str(err) == "; ".join(format_diagnostic(d) for d in diags)
    assert err.args == ()
    again = LoadError(diags[::-1])
    assert (again.diagnostics, str(again)) == (diags, str(err))


@pytest.mark.parametrize("error,text", [
    (LoadError, "stake ST1 of"),
    (ResolveError, HEADER + 'loss L1 "l" violates ST9\n'
                   'loss L1 "m" violates ST8'),
], ids=["load", "resolve"])
@pytest.mark.parametrize("again", [
    lambda err: pickle.loads(pickle.dumps(err)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_diagnostic_error_pickles_and_copies(error, text, again):
    # args is empty, so the findings alone rebuild the error.
    with pytest.raises(error) as exc:
        load_sources([("a.psy", text)])
    err = exc.value
    other = again(err)
    assert type(other) is error and other is not err
    assert (other.diagnostics, str(other), other.args) == \
        (err.diagnostics, str(err), ())


@pytest.mark.parametrize("severity,plain,colored", [
    (Severity.ERROR, "error", "\x1b[31merror"),
    (Severity.WARNING, "warning", "\x1b[33mwarning"),
    (Severity.INFO, "info", "\x1b[36minfo"),
])
def test_each_severity_formats_to_the_same_bytes(severity, plain, colored):
    d = Diagnostic("PSY004", severity, "goal SG1 yields nothing",
                   SourceSpan("a.psy", 3, 7))
    assert format_diagnostic(d) == (
        f"a.psy:3:7: {plain}[PSY004]: goal SG1 yields nothing")
    assert format_diagnostic(d, color=True) == (
        f"a.psy:3:7: {colored}[PSY004]\x1b[0m: goal SG1 yields nothing")
