#!/usr/bin/env python3
"""The golden outputs, stated once, and their regeneration.

A golden set is a list of input files and the directory of its goldens:
the bundled corpus (goldens in corpus/paper/golden/) and each edge model
tests/golden/<name>/model.psy (goldens next to the model). ``GOLDENS``
has one row per golden file: the file holds one stream of
``python -m psysafe <args> <inputs>``, run from the repository root. A
row whose args hold ``TRACE_ROOT`` reads it as the set's trace root, the
ID the set's traces start from; a set with no root has no golden of that
row.
tests/test_cli.py compares the same outputs against the goldens; this
script rewrites every golden from the current sources and tool version.
Stdlib only. Run from anywhere. Review the diff before committing.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[1]


def child_env(src: Path = REPO_ROOT / "src", **settings: str
              ) -> dict[str, str]:
    """The environment of every harness run of ``python -m psysafe``, so
    that it runs as a user runs it: the caller's environment without the
    settings that change how the CLI encodes or buffers its output, with
    colour off, ``PYTHONPATH`` the absolute ``src`` (so that a child run
    from another directory imports these sources), and ``settings`` last.
    """
    env = {k: v for k, v in os.environ.items() if k not in (
        "PYTHONUNBUFFERED", "PYTHONIOENCODING", "PYTHONUTF8")}
    return {**env, "NO_COLOR": "1", "PYTHONPATH": str(Path(src).absolute()),
            **settings}


class Golden(NamedTuple):
    name: str
    #: The CLI arguments before the inputs.
    args: tuple[str, ...]
    #: "stdout" or "stderr".
    stream: str


#: Stands, in a row's args, for the set's trace root.
TRACE_ROOT = "<root>"

GOLDENS = (
    Golden("diagnostics.txt", ("check",), "stderr"),
    Golden("coverage.txt", ("check", "--coverage"), "stdout"),
    Golden("report.json", ("report", "--format", "json"), "stdout"),
    Golden("report.md", ("report", "--format", "md"), "stdout"),
    Golden("fmt.psy", ("fmt",), "stdout"),
    Golden("trace.txt", ("trace", "--dir", "both", "--from", TRACE_ROOT),
           "stdout"),
)

#: The trace root of each set that has one, by set name.
TRACE_ROOTS = {"corpus": "H3", "pipes": "H2"}


class GoldenSet(NamedTuple):
    #: The directory of the goldens.
    golden: Path
    #: The input files, relative to the repository root, as the goldens
    #: name them.
    inputs: list[str]
    #: The ID the set's traces start from; None when it has none.
    root: str | None

    def goldens(self) -> tuple[Golden, ...]:
        """The rows of this set: each row that needs no root, and each
        that does if the set has one."""
        return tuple(g for g in GOLDENS
                     if self.root or TRACE_ROOT not in g.args)

    def argv(self, golden: Golden) -> list[str]:
        """The CLI arguments of ``golden``'s command on this set."""
        return [self.root if a == TRACE_ROOT else a
                for a in golden.args] + self.inputs


def golden_sets() -> dict[str, GoldenSet]:
    """The corpus and each edge model, by name."""
    def relative(paths):
        return [str(p.relative_to(REPO_ROOT)) for p in sorted(paths)]
    corpus = REPO_ROOT / "corpus" / "paper"
    sets = {"corpus": GoldenSet(corpus / "golden",
                                relative(corpus.glob("*.psy")),
                                TRACE_ROOTS["corpus"])}
    for model in sorted((REPO_ROOT / "tests" / "golden").glob("*/model.psy")):
        name = model.parent.name
        sets[name] = GoldenSet(model.parent, relative([model]),
                               TRACE_ROOTS.get(name))
    return sets


def outputs(golden_set: GoldenSet
            ) -> dict[Golden, subprocess.CompletedProcess]:
    """Run each of the set's rows through ``python -m psysafe``, so
    through ``cli.main()``, with this checkout's sources; stdout and
    stderr are bytes."""
    return {g: subprocess.run([sys.executable, "-m", "psysafe",
                               *golden_set.argv(g)], capture_output=True,
                              cwd=REPO_ROOT, env=child_env())
            for g in golden_set.goldens()}


def main() -> None:
    for golden_set in golden_sets().values():
        for g, proc in outputs(golden_set).items():
            if proc.returncode not in (0, 1):  # 1: error findings
                sys.exit(f"psysafe {' '.join(proc.args[3:])}: exit "
                         f"{proc.returncode}\n{proc.stderr.decode()}")
            path = golden_set.golden / g.name
            path.write_bytes(getattr(proc, g.stream))
            print(f"wrote {path.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
