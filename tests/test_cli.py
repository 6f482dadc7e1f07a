import io
import json
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from tests.conftest import REPO_ROOT

sys.path.append(str(REPO_ROOT / "scripts"))
from regen_goldens import (GOLDENS, child_env, golden_sets,  # noqa: E402
                           outputs)

GOLDEN_SETS = golden_sets()
CORPUS_ARGS = GOLDEN_SETS["corpus"].inputs


#: The setting of a case that wants Python's stdout unbuffered, so that a
#: failed write surfaces in the write itself, not at the final flush.
UNBUFFERED = {"PYTHONUNBUFFERED": "1"}


def psysafe(*args, env=None, **kwargs):
    """Run ``python -m psysafe args`` from the repository root in
    ``child_env()`` with the settings ``env`` added, capturing stdout and
    stderr as text; ``kwargs`` go to ``subprocess.run`` and win."""
    return subprocess.run(
        [sys.executable, "-m", "psysafe", *args], env=child_env(**env or {}),
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
           "text": True, "cwd": REPO_ROOT, **kwargs})


def test_child_env_runs_the_cli_as_a_user_does(monkeypatch):
    output_settings = ("PYTHONUNBUFFERED", "PYTHONIOENCODING", "PYTHONUTF8")
    for name in output_settings:
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("PYTHONHASHSEED", "7")
    env = child_env()
    assert not set(output_settings) & set(env)
    assert env["PYTHONHASHSEED"] == "7"
    assert env["NO_COLOR"] == "1"
    assert env["PYTHONPATH"] == str(REPO_ROOT / "src")
    monkeypatch.chdir(REPO_ROOT)
    env = child_env(Path("src"), NO_COLOR="", PYTHONUNBUFFERED="1",
                    PYTHONHASHSEED="0")
    assert env["PYTHONPATH"] == str(REPO_ROOT / "src")
    assert (env["NO_COLOR"], env["PYTHONUNBUFFERED"],
            env["PYTHONHASHSEED"]) == ("", "1", "0")


def test_psysil_prints_level():
    proc = psysafe("psysil", "S2", "E4", "C1")
    assert proc.returncode == 0
    assert proc.stdout == "PsySIL A\n"
    assert proc.stderr == ""


def test_psysil_blank_cell_prints_qm():
    proc = psysafe("psysil", "S1", "E1", "C1")
    assert proc.returncode == 0
    assert proc.stdout == "QM\n"


def test_psysil_invalid_class_is_usage_error():
    proc = psysafe("psysil", "S9", "E1", "C1")
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "invalid class" in proc.stderr


def test_unknown_flag_is_usage_error():
    proc = psysafe("check", "--frobnicate", *CORPUS_ARGS)
    assert proc.returncode == 64


def test_missing_subcommand_is_usage_error():
    proc = psysafe()
    assert proc.returncode == 64


def test_check_corpus_warnings_and_exit_codes():
    proc = psysafe("check", *CORPUS_ARGS)
    assert proc.returncode == 0
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 6
    assert all("warning[" in line for line in lines)
    assert sum(": error[" in line for line in lines) == 0

    strict = psysafe("check", "--strict", *CORPUS_ARGS)
    assert strict.returncode == 1


class _Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("no_color", [None, "1", ""],
                         ids=["unset", "set", "empty"])
def test_diagnostics_on_a_terminal_are_coloured_unless_no_color(
        monkeypatch, no_color):
    from psysafe.cli import run
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    monkeypatch.setattr(sys, "stderr", _Terminal())
    monkeypatch.chdir(REPO_ROOT)
    assert run(["check", *CORPUS_ARGS]) == 0
    plain = (GOLDEN_SETS["corpus"].golden / "diagnostics.txt").read_text(
        encoding="utf-8")
    coloured, count = re.subn(r"warning\[PSY00\d\]", "\x1b[33m\\g<0>\x1b[0m",
                              plain)
    assert count == 6
    assert sys.stderr.getvalue() == (plain if no_color else coloured)


def test_check_unreadable_file_exits_2():
    for path in ("no/such/file.psy", "corpus"):  # missing, a directory
        proc = psysafe("check", path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            f"{path}:1:1: error[PSY000]: cannot read file")
        assert "Traceback" not in proc.stderr


def test_check_invalid_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.psy"
    bad.write_bytes(b'analysis "t\xff" { sae_level = 2 }\n')
    proc = psysafe("check", str(bad))
    assert proc.returncode == 2
    assert "error[PSY000]: cannot read file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invalid_utf8_config_exits_2(tmp_path):
    conf = tmp_path / "psysafe.conf"
    conf.write_bytes(b"lint { PSY007 = off } # \xff\n")
    proc = psysafe("check", "--config", str(conf), *CORPUS_ARGS)
    assert proc.returncode == 2
    assert "error[PSY000]: cannot read config file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_directory_exits_2():
    proc = psysafe("check", "--config", "corpus", *CORPUS_ARGS)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "corpus:1:1: error[PSY000]: cannot read config file")
    assert "Traceback" not in proc.stderr


def test_check_syntax_error_exits_2(tmp_path):
    bad = tmp_path / "bad.psy"
    bad.write_text('analysis "t" { sae_level = 2 }\nloss L1 violates ST1\n',
                   encoding="utf-8")
    proc = psysafe("check", str(bad))
    assert proc.returncode == 2
    assert "error[PSY000]" in proc.stderr


def test_check_resolution_error_exits_2(tmp_path):
    bad = tmp_path / "bad.psy"
    bad.write_text('analysis "t" { sae_level = 2 }\n'
                   'stakeholder SH1 "s"\n'
                   'stake ST1 "st" of SH1\n'
                   'loss L1 "l" violates ST9\n', encoding="utf-8")
    proc = psysafe("check", str(bad))
    assert proc.returncode == 2
    assert "error[PSY011]" in proc.stderr


def test_resolution_errors_print_in_a_fixed_order(tmp_path):
    # ID lists are sets, whose iteration order follows the hash seed; the
    # printed findings must not.
    bad = tmp_path / "bad.psy"
    bad.write_text('analysis "t" { sae_level = 2 }\n'
                   'stakeholder SH1 "s"\n'
                   'loss L1 "l" violates ST9, SH1, ST10, ST8\n',
                   encoding="utf-8")
    expected = [
        "bad.psy:3:1: error[PSY011]: unknown stake 'ST10' referenced by L1",
        "bad.psy:3:1: error[PSY011]: unknown stake 'ST8' referenced by L1",
        "bad.psy:3:1: error[PSY011]: unknown stake 'ST9' referenced by L1",
        "bad.psy:3:1: error[PSY011]: violates of L1 must reference a "
        "stake, but 'SH1' is a stakeholder",
    ]
    for seed in ("0", "1", "2"):
        proc = psysafe("check", "bad.psy", cwd=tmp_path,
                       env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == expected


def test_check_error_findings_exit_1(tmp_path):
    model = tmp_path / "m.psy"
    model.write_text('analysis "t" { sae_level = 2 }\n'
                     'stakeholder SH1 "s"\n'
                     'stake ST1 "st" of SH1\n'
                     'loss L1 "l" violates ST1\n'
                     'hazard H1 "h" leads_to L1\n', encoding="utf-8")
    proc = psysafe("check", str(model))
    assert proc.returncode == 1  # PSY003 is an error by default
    assert "error[PSY003]" in proc.stderr


def test_check_coverage_table_goes_to_stdout():
    proc = psysafe("check", "--coverage", *CORPUS_ARGS)
    assert proc.returncode == 0
    assert "CA_takeover" in proc.stdout
    assert "UCA3" in proc.stdout
    assert "CA_takeover" not in proc.stderr


def test_config_file_overrides(tmp_path):
    conf = tmp_path / "psysafe.conf"
    conf.write_text("lint { PSY007 = off PSY005 = error }\n",
                    encoding="utf-8")
    args = [str(REPO_ROOT / p) for p in CORPUS_ARGS]
    proc = psysafe("check", "--config", str(conf), *args)
    assert proc.returncode == 1
    assert "error[PSY005]" in proc.stderr
    assert "PSY007" not in proc.stderr


def test_report_config_turns_a_rule_off(tmp_path):
    conf = tmp_path / "psysafe.conf"
    conf.write_text("lint { PSY007 = off }\n", encoding="utf-8")
    proc = psysafe("report", "--format", "json", "--config", str(conf),
                   *CORPUS_ARGS)
    assert proc.returncode == 0
    rules = [d["rule"] for d in json.loads(proc.stdout)["diagnostics"]]
    assert rules == ["PSY005", "PSY006"]
    assert "PSY007" not in proc.stderr


def test_config_discovery_next_to_first_input(tmp_path):
    model = tmp_path / "m.psy"
    model.write_text('analysis "t" { sae_level = 2 }\n'
                     'stakeholder SH1 "s"\n'
                     'stake ST1 "st" of SH1\n'
                     'loss L1 "l" violates ST1\n'
                     'hazard H1 "h" leads_to L1\n', encoding="utf-8")
    (tmp_path / "psysafe.conf").write_text("lint { PSY003 = off }\n",
                                           encoding="utf-8")
    proc = psysafe("check", str(model))
    assert "PSY003" not in proc.stderr


def test_input_path_too_long_to_look_up_exits_2():
    # Neither the input nor the psysafe.conf next to it can be looked up.
    path = "a" * 300 + "/m.psy"
    proc = psysafe("check", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"{path}:1:1: error[PSY000]: cannot read ")
    assert "Traceback" not in proc.stderr


def test_bad_config_exits_2(tmp_path):
    conf = tmp_path / "psysafe.conf"
    conf.write_text("lint { PSY099 = off }\n", encoding="utf-8")
    proc = psysafe("check", "--config", str(conf), *CORPUS_ARGS)
    assert proc.returncode == 2
    assert "unknown lint rule" in proc.stderr


def test_report_json_stdout_is_valid_json_despite_warnings():
    proc = psysafe("report", "--format", "json", *CORPUS_ARGS)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "1"
    assert len(proc.stderr.splitlines()) == 6


def test_report_out_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = psysafe("report", "--format", "json", "--out", str(out),
                   *CORPUS_ARGS)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text(encoding="utf-8"))["sae_level"] == 4


def test_report_out_into_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = psysafe("report", "--format", "json", "--out", str(out),
                   *CORPUS_ARGS)
    assert proc.returncode == 2
    assert proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("psysafe report: cannot write ")
    assert "Traceback" not in proc.stderr


def test_report_out_to_a_directory_exits_2(tmp_path):
    proc = psysafe("report", "--format", "json", "--out", str(tmp_path),
                   *CORPUS_ARGS)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(
        f"psysafe report: cannot write {tmp_path}: ")
    assert "Traceback" not in proc.stderr


def test_report_escapes_a_file_name_that_is_not_utf8(tmp_path):
    # The corpus, with hazards.psy renamed to the bytes h\xff.psy. Under
    # a UTF-8 locale, stdout and the --out file are both strict UTF-8.
    for path in (REPO_ROOT / "corpus" / "paper").glob("*.psy"):
        name = (os.fsdecode(b"h\xff.psy") if path.name == "hazards.psy"
                else path.name)
        (tmp_path / name).write_bytes(path.read_bytes())
    files = sorted(os.listdir(tmp_path))
    runs = {}
    for fmt, out in (("json", []), ("md", ["--out", "r.md"])):
        runs[fmt] = proc = psysafe(
            "report", "--format", fmt, *out, *files, cwd=tmp_path,
            env={"PYTHONIOENCODING": "utf-8:strict"})
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
    diagnostics = json.loads(runs["json"].stdout)["diagnostics"]
    assert diagnostics[0]["file"] == "h\\udcff.psy"
    assert [d["file"] for d in diagnostics] == [
        line.split(":")[0] for line in runs["json"].stderr.splitlines()]
    assert "h\\udcff.psy:" in (tmp_path / "r.md").read_text(
        encoding="utf-8")


def test_check_and_report_analyze_once(monkeypatch, capsys):
    from psysafe import cli, lints
    calls = []
    for name in ("validate_structure", "_lint_findings"):
        real = getattr(lints, name)
        monkeypatch.setattr(lints, name, lambda *a, _real=real, _name=name,
                            **k: calls.append(_name) or _real(*a, **k))
    files = [str(REPO_ROOT / p) for p in CORPUS_ARGS]
    for argv in (["check", *files], ["report", "--format", "json", *files]):
        calls.clear()
        assert cli.run(argv) == 0
        assert sorted(calls) == ["_lint_findings", "validate_structure"], argv
    capsys.readouterr()


def test_run_leaves_the_collector_as_it_found_it(monkeypatch, capsys):
    # run() collects as rarely as cli.main while a command runs, and gives
    # the caller back its threshold, also when the command raises; only
    # cli.main, the process entry point, freezes.
    import gc
    from psysafe import cli, loader

    def collector():
        return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()

    state = collector()
    files = [str(REPO_ROOT / p) for p in CORPUS_ARGS]
    thresholds = []
    load_model = loader.load_model
    monkeypatch.setattr(loader, "load_model", lambda paths: thresholds.append(
        gc.get_threshold()) or load_model(paths))
    for argv, code in ((["check", *files], 0), (["fmt", *files], 0),
                       (["--version"], 0), (["check", "no/such.psy"], 2)):
        assert cli.run(argv) == code
        assert collector() == state, argv
    assert thresholds == [(100_000, 50, 1000)] * 3

    def fail(paths):
        raise RuntimeError("load failed")

    monkeypatch.setattr(loader, "load_model", fail)
    with pytest.raises(RuntimeError, match="load failed"):
        cli.run(["fmt", *files])
    assert collector() == state
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["--frobnicate"], 64),
    (["psysil", "S2", "E4", "C1"], 0),
    (["psysil", "S9", "E1", "C1"], 64),
    (["check", "--coverage", *CORPUS_ARGS], 0),
    (["check", "--strict", *CORPUS_ARGS], 1),
    (["check", "no/such/file.psy"], 2),
    (["report", "--format", "json", *CORPUS_ARGS], 0),
    (["report", "--format", "md", *CORPUS_ARGS], 0),
    (["trace", *CORPUS_ARGS, "--from", "H3"], 0),
    (["trace", *CORPUS_ARGS, "--from", "NOPE"], 2),
    (["fmt", *CORPUS_ARGS], 0),
    (["fmt", "no/such/file.psy"], 2),
], ids=lambda value: " ".join(arg for arg in value if not arg.endswith(
    ".psy")) if isinstance(value, list) else None)
def test_run_returns_the_exit_code(monkeypatch, capsys, argv, code):
    # Only main() ends the process; run(), whose callers go on, returns.
    from psysafe.cli import run
    monkeypatch.chdir(REPO_ROOT)
    assert run(argv) == code
    capsys.readouterr()


COMMANDS = ("check", "psysil", "report", "trace", "fmt")

#: Help, version and usage errors, each printed by the parser that run()
#: builds: one command's alone when argv[0] names a command.
PARSER_ARGVS = [
    *([command, "--help"] for command in COMMANDS),
    ["--help"], ["--version"], [], ["nope", "a.psy"],
    ["check", "a.psy", "--version"], ["check", "--frobnicate", "a.psy"],
    ["check", "--cov", "a.psy"], ["check"],
    ["report", "--format", "xml", "a.psy"], ["report", "a.psy"],
    ["trace", "a.psy", "--from", "X", "--dir", "sideways"],
    ["psysil", "S1"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=lambda argv: " ".join(argv) or "none")
def test_a_one_command_parser_prints_what_the_full_parser_prints(
        monkeypatch, capsys, tmp_path, argv):
    from psysafe import cli
    monkeypatch.chdir(tmp_path)  # no a.psy: check --cov a.psy exits 2
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    full = cli.build_arg_parser

    def spy(command=None):
        built.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_arg_parser", spy)
    code = cli.run(argv)
    printed = capsys.readouterr()
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
    monkeypatch.setattr(cli, "build_arg_parser", lambda command=None: full())
    assert (cli.run(argv), capsys.readouterr()) == (code, printed)
    assert printed.out or printed.err


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
], ids=["none", "unknown"])
def test_usage_errors_without_a_command_name_the_argument(capsys, argv,
                                                          error):
    from psysafe.cli import run
    assert run(argv) == 64
    usage, message = capsys.readouterr().err.splitlines()
    assert usage == ("usage: psysafe [-h] [--version] "
                     "{check,psysil,report,trace,fmt} ...")
    assert message.startswith(f"psysafe: error: {error}")


#: Registers an atexit handler, then calls cli.main() or run().
ENTRY = """\
import atexit, sys
atexit.register(print, "atexit handler ran")
from psysafe.cli import main, run
{}
"""


@pytest.mark.parametrize("argv, code", [
    (["psysil", "S1", "E1", "C1"], 0),
    (["check", "--strict", *CORPUS_ARGS], 1),
    (["check", "no/such/file.psy"], 2),
    (["psysil", "S9", "E1", "C1"], 64),
], ids=["0", "1", "2", "64"])
def test_main_ends_the_process_with_its_exit_code(argv, code):
    # main() ends the process once its output is flushed: the interpreter
    # is not finalized, so an embedding program's atexit handlers do not
    # run. A program that calls run() exits as usual.
    stdout = {}
    for call in ("main()", "sys.exit(run(sys.argv[1:]))"):
        proc = subprocess.run([sys.executable, "-c", ENTRY.format(call),
                               *argv], capture_output=True, text=True,
                              cwd=REPO_ROOT, env=child_env())
        assert proc.returncode == code, (call, proc.stderr)
        assert "Traceback" not in proc.stderr
        stdout[call] = proc.stdout
    assert stdout["main()"] + "atexit handler ran\n" == stdout[
        "sys.exit(run(sys.argv[1:]))"]


#: A model whose canonical form and JSON report are bigger than a pipe
#: buffers (64 KiB on Linux).
BIG_MODEL = ('analysis "big" { sae_level = 3 }\nstakeholder SH "Rider"\n'
             'stake ST "Feeling safe" of SH\nloss L "Stress" violates ST\n'
             + "".join(f'hazard H{i} "Hazard {i}" leads_to L\n'
                       for i in range(2000)))


@pytest.mark.parametrize("argv", [["fmt"], ["report", "--format", "json"]],
                         ids=" ".join)
def test_big_output_reaches_a_pipe_and_a_file_whole(monkeypatch, capsys,
                                                    tmp_path, argv):
    from psysafe.cli import run
    model = tmp_path / "big.psy"
    model.write_text(BIG_MODEL, encoding="utf-8")
    argv = [*argv, str(model)]
    monkeypatch.chdir(REPO_ROOT)
    code = run(argv)
    out, err = (text.encode("utf-8") for text in capsys.readouterr())
    assert len(out) > 1 << 16
    piped = psysafe(*argv, text=False)
    assert (piped.returncode, piped.stdout, piped.stderr) == (code, out, err)
    path = tmp_path / "out"
    with open(path, "wb") as file:
        filed = psysafe(*argv, stdout=file, text=False)
    assert (filed.returncode, path.read_bytes(), filed.stderr) == \
        (code, out, err)


def test_report_relativizes_each_file_once(monkeypatch, capsys):
    from psysafe.cli import run
    monkeypatch.chdir(REPO_ROOT)
    calls = []
    relpath = os.path.relpath
    monkeypatch.setattr(os.path, "relpath",
                        lambda path: calls.append(path) or relpath(path))
    outputs = []
    for files in (CORPUS_ARGS, [str(REPO_ROOT / f) for f in CORPUS_ARGS]):
        assert run(["report", "--format", "json", *files]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    files = {d["file"] for d in json.loads(outputs[1])["diagnostics"]}
    assert sorted(calls) == sorted(str(REPO_ROOT / f) for f in files)


@cache
def set_outputs(name):
    """The run of each golden's command on golden set ``name``."""
    return outputs(GOLDEN_SETS[name])


@pytest.mark.parametrize("name, golden", [
    pytest.param(name, g, id=f"{name}-{g.name}")
    for name, golden_set in GOLDEN_SETS.items() for g in golden_set.goldens()])
def test_outputs_match_goldens(name, golden):
    runs = set_outputs(name)
    proc = runs[golden]
    assert getattr(proc, golden.stream).decode() == (
        GOLDEN_SETS[name].golden / golden.name).read_bytes().decode()
    if golden.args[0] == "fmt":
        assert proc.returncode == 0
    elif golden.args[0] == "trace":
        assert (proc.stderr, proc.returncode) == (b"", 0)
    else:  # check and report print the same findings and exit alike
        check = runs[next(g for g in GOLDENS if g.args == ("check",))]
        assert (proc.stderr, proc.returncode) == (check.stderr,
                                                  check.returncode)


def test_report_requires_format():
    proc = psysafe("report", *CORPUS_ARGS)
    assert proc.returncode == 64


def test_trace_prints_tree():
    proc = psysafe("trace", *CORPUS_ARGS, "--from", "H3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("H3 [hazard]\n")
    assert "<- prevents SG3 [goal]" in proc.stdout


def test_trace_unknown_id_exits_2():
    proc = psysafe("trace", *CORPUS_ARGS, "--from", "NOPE")
    assert proc.returncode == 2
    assert "unknown entity ID" in proc.stderr


def test_trace_direction_up():
    proc = psysafe("trace", *CORPUS_ARGS, "--from", "L2", "--dir", "up")
    assert proc.returncode == 0
    assert proc.stdout == "L2 [loss]\n  -> violates ST2 [stake]\n"


def test_fmt_round_trips():
    proc = psysafe("fmt", *CORPUS_ARGS)
    assert proc.returncode == 0
    assert proc.stdout.startswith("analysis ")
    reparsed = psysafe_stdin_fmt(proc.stdout)
    assert reparsed == proc.stdout


def psysafe_stdin_fmt(text):
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "canon.psy"
        path.write_text(text, encoding="utf-8")
        proc = psysafe("fmt", str(path))
        assert proc.returncode == 0
        return proc.stdout


@pytest.mark.parametrize("direction", ["up", "down", "both"])
def test_trace_directions_run(direction):
    proc = psysafe("trace", *CORPUS_ARGS, "--from", "SG2",
                   "--dir", direction)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "SG2 [goal]"


def _assert_cannot_write(proc, command, stderr):
    """Exit 2 with one line naming the command, or plain ``psysafe``
    when the arguments hold no command (``--help``, ``--version``)."""
    prog = "psysafe" if command.startswith("-") else f"psysafe {command}"
    assert proc.returncode == 2
    assert stderr.splitlines()[-1].startswith(
        f"{prog}: cannot write output: ")
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


#: One run of each command that writes to stdout.
WRITING_ARGVS = [
    ["--version"],
    ["--help"],
    ["psysil", "S1", "E1", "C1"],
    ["fmt", *CORPUS_ARGS],
    ["trace", *CORPUS_ARGS, "--from", "H3"],
    ["check", "--coverage", *CORPUS_ARGS],
    ["report", "--format", "json", *CORPUS_ARGS],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("env", [None, UNBUFFERED],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITING_ARGVS, ids=lambda argv: argv[0])
def test_output_to_a_full_device_exits_2(argv, env):
    with open("/dev/full", "w") as full:
        proc = psysafe(*argv, stdout=full, env=env)
    _assert_cannot_write(proc, argv[0], proc.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("env", [None, UNBUFFERED],
                         ids=["buffered", "unbuffered"])
def test_diagnostics_to_a_full_device_exit_2(env):
    # The corpus has six warnings, so exit 0 would be due.
    with open("/dev/full", "w") as full:
        proc = psysafe("check", *CORPUS_ARGS, stderr=full, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_output_to_a_closed_pipe_exits_2(tmp_path):
    # More output than a pipe buffers, so the write fails even if the
    # command starts writing before the reader closes.
    model = tmp_path / "big.psy"
    model.write_text('analysis "big" { sae_level = 3 }\n' + "".join(
        f'stakeholder SH{i} "Stakeholder {i}"\n' for i in range(4000)),
        encoding="utf-8")
    proc = subprocess.Popen([sys.executable, "-m", "psysafe", "fmt",
                             str(model)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=REPO_ROOT,
                            env=child_env())
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait(timeout=60)
    _assert_cannot_write(proc, "fmt", stderr)


def _run_with_closed(fd, argv):
    """Run psysafe with descriptor ``fd`` (1 or 2) closed before start-up;
    the other of stdout and stderr is captured."""
    return psysafe(*argv, preexec_fn=lambda: os.close(fd))


@pytest.mark.parametrize("argv", WRITING_ARGVS, ids=lambda argv: argv[0])
def test_output_to_a_closed_stdout_exits_2(argv):
    proc = _run_with_closed(1, argv)
    assert proc.stderr.splitlines()[-1].endswith(
        "cannot write output: Bad file descriptor")
    _assert_cannot_write(proc, argv[0], proc.stderr)


def test_check_with_a_closed_stdout_keeps_its_exit_code():
    proc = _run_with_closed(1, ["check", *CORPUS_ARGS])
    assert proc.returncode == 0
    assert proc.stderr.count("warning[PSY") == 6
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["fmt", *CORPUS_ARGS],
    ["trace", *CORPUS_ARGS, "--from", "H3"],
    ["psysil", "S1", "E1", "C1"],
], ids=lambda argv: argv[0])
def test_commands_silent_on_stderr_run_with_it_closed(argv):
    proc = _run_with_closed(2, argv)
    assert proc.returncode == 0
    assert proc.stdout == psysafe(*argv).stdout != ""


def test_diagnostics_to_a_closed_stderr_exit_2():
    # The corpus has six warnings, so exit 0 would be due.
    proc = _run_with_closed(2, ["check", *CORPUS_ARGS])
    assert proc.returncode == 2
    assert proc.stdout == ""


#: The commands that print a model's strings, and a model with non-ASCII
#: ones.
NON_ASCII_ARGVS = [
    ["fmt"], ["report", "--format", "json"], ["report", "--format", "md"],
]
NON_ASCII_MODEL = ('analysis "café" { sae_level = 3 }\n'
                   'stakeholder SH1 "Café owner"\n')


@pytest.mark.parametrize("argv", NON_ASCII_ARGVS, ids=" ".join)
def test_stdout_is_utf8_whatever_the_locale(tmp_path, argv):
    model = tmp_path / "m.psy"
    model.write_text(NON_ASCII_MODEL, encoding="utf-8")
    outputs = []
    for encoding in ("ascii", "utf-8"):
        proc = psysafe(*argv, str(model), text=False,
                       env={"PYTHONIOENCODING": encoding})
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "café".encode() in outputs[0]


@pytest.mark.parametrize("argv", NON_ASCII_ARGVS, ids=" ".join)
def test_stdout_that_cannot_encode_the_output_exits_2(tmp_path, monkeypatch,
                                                      capsys, argv):
    # main() makes stdout UTF-8; an in-process caller of run() may not.
    from psysafe.cli import run
    model = tmp_path / "m.psy"
    model.write_text(NON_ASCII_MODEL, encoding="utf-8")
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, "ascii"))
    assert run([*argv, str(model)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"psysafe {argv[0]}: cannot write output: "
                           "'ascii' codec can't encode character '\\xe9'")
    assert last.isascii()
    assert out.getvalue() == b""
