"""The import budget: ``import psysafe`` loads no submodule, each
command loads only the modules it runs, none loads ``dataclasses``
or ``inspect``, and none builds a ``typing.ForwardRef``.

Each command runs in a fresh interpreter, since this process has loaded
every module already.
"""

import importlib
import re
import subprocess
import sys

import pytest

import psysafe
from tests.conftest import REPO_ROOT

sys.path.append(str(REPO_ROOT / "scripts"))
from regen_goldens import child_env  # noqa: E402

LOADER_CHAIN = {"psysafe", "psysafe.cli", "psysafe.diagnostics",
                "psysafe.lexer", "psysafe.parser", "psysafe.loader",
                "psysafe.model"}

#: What each command may load, and whether it may load ``json``.
BUDGET = [
    ([], {"psysafe"}, False),
    (["--version"], {"psysafe", "psysafe.cli", "psysafe.diagnostics"},
     False),
    (["psysil", "S2", "E4", "C1"],
     {"psysafe", "psysafe.cli", "psysafe.diagnostics", "psysafe.model",
      "psysafe.psysil"}, False),
    (["check", "--coverage", "CORPUS"],
     LOADER_CHAIN | {"psysafe.lints", "psysafe.structure"}, False),
    (["trace", "CORPUS", "--from", "H3"],
     LOADER_CHAIN | {"psysafe.tracegraph"}, False),
    (["fmt", "CORPUS"], LOADER_CHAIN | {"psysafe.printer"}, False),
    (["report", "--format", "json", "CORPUS"],
     LOADER_CHAIN | {"psysafe.lints", "psysafe.structure", "psysafe.psysil",
                     "psysafe.report"}, True),
]

#: Runs ``cli.run`` on argv (none: only ``import psysafe``), then prints
#: the loaded psysafe modules, for each of ``json``, ``dataclasses`` and
#: ``inspect`` whether the run loaded it, and how many ``typing.ForwardRef``
#: objects it built (``typing.NamedTuple`` builds one per string
#: annotation), as the last line of stdout.
PROBE = """\
import glob, sys, typing
preloaded = set(sys.modules)
forward_refs = []
forward_ref_init = typing.ForwardRef.__init__
def counting_init(self, *args, **kwargs):
    forward_refs.append(args)
    forward_ref_init(self, *args, **kwargs)
typing.ForwardRef.__init__ = counting_init
argv = {argv!r}
if argv is None:
    import psysafe
else:
    from psysafe import cli
    corpus = sorted(glob.glob("corpus/paper/*.psy"))
    code = cli.run([a for arg in argv
                    for a in (corpus if arg == "CORPUS" else [arg])])
    assert code == 0, code
print()
print(*sorted(m for m in sys.modules if m.split(".")[0] == "psysafe"),
      *(m in sys.modules and m not in preloaded
        for m in ("json", "dataclasses", "inspect")), len(forward_refs))
"""


@pytest.mark.parametrize("argv, modules, json_loaded", BUDGET,
                         ids=["import", "version", "psysil", "check",
                              "trace", "fmt", "report"])
def test_command_loads_only_what_it_runs(argv, modules, json_loaded):
    source = PROBE.format(argv=argv or None)
    proc = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True,
        cwd=REPO_ROOT, env=child_env())
    assert proc.returncode == 0, proc.stderr
    *loaded, json_flag, dataclasses_flag, inspect_flag, forward_refs = \
        proc.stdout.splitlines()[-1].split()
    assert set(loaded) == modules
    assert json_flag == str(json_loaded)
    assert dataclasses_flag == inspect_flag == "False"
    assert forward_refs == "0"


def test_every_public_name_is_its_home_module_object():
    for name in psysafe.__all__:
        obj = getattr(psysafe, name)
        home = importlib.import_module(f"psysafe.{psysafe._HOME[name]}")
        assert getattr(home, name) is obj, name
        # The table names the module that defines it, not a re-exporter.
        assert getattr(obj, "__module__", home.__name__) == home.__name__
        assert vars(psysafe)[name] is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from psysafe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == psysafe.__all__
    assert all(namespace[name] is getattr(psysafe, name)
               for name in namespace)


def test_dir_lists_the_public_names():
    listed = dir(psysafe)
    assert set(psysafe.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        psysafe.nope
    with pytest.raises(ImportError):
        from psysafe import nope  # noqa: F401


def test_traced_benchmark_names_are_public():
    # The benchmark's traced mode reads these through ``import psysafe as
    # ps``; the benchmark smoke test is not part of this suite.
    source = (REPO_ROOT / "perfbench" / "replay.py").read_text(
        encoding="utf-8")
    names = set(re.findall(r"\bps\.(\w+)", source))
    assert names
    for name in sorted(names):
        assert name in psysafe.__all__, name
        assert getattr(psysafe, name) is not None, name
