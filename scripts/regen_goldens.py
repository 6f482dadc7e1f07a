#!/usr/bin/env python3
"""The golden outputs, stated once, and their regeneration.

A golden set is a list of input files and the directory of its goldens:
the bundled corpus (goldens in corpus/paper/golden/) and each edge model
tests/golden/<name>/model.psy (goldens next to the model). ``GOLDENS``
has one row per golden file: the file holds one stream of
``python -m psysafe <args> <inputs>``, run from the repository root.
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


class Golden(NamedTuple):
    name: str
    #: The CLI arguments before the inputs.
    args: tuple[str, ...]
    #: "stdout" or "stderr".
    stream: str


GOLDENS = (
    Golden("diagnostics.txt", ("check",), "stderr"),
    Golden("coverage.txt", ("check", "--coverage"), "stdout"),
    Golden("report.json", ("report", "--format", "json"), "stdout"),
    Golden("report.md", ("report", "--format", "md"), "stdout"),
    Golden("fmt.psy", ("fmt",), "stdout"),
)


class GoldenSet(NamedTuple):
    #: The directory of the goldens.
    golden: Path
    #: The input files, relative to the repository root, as the goldens
    #: name them.
    inputs: list[str]


def golden_sets() -> dict[str, GoldenSet]:
    """The corpus and each edge model, by name."""
    def relative(paths):
        return [str(p.relative_to(REPO_ROOT)) for p in sorted(paths)]
    corpus = REPO_ROOT / "corpus" / "paper"
    sets = {"corpus": GoldenSet(corpus / "golden",
                                relative(corpus.glob("*.psy")))}
    for model in sorted((REPO_ROOT / "tests" / "golden").glob("*/model.psy")):
        sets[model.parent.name] = GoldenSet(model.parent, relative([model]))
    return sets


def outputs(inputs: list[str]) -> dict[Golden, subprocess.CompletedProcess]:
    """Run each row's command on ``inputs`` through ``python -m psysafe``,
    so through ``cli.main()``, with this checkout's sources; stdout and
    stderr are bytes."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return {g: subprocess.run([sys.executable, "-m", "psysafe", *g.args,
                               *inputs], capture_output=True, cwd=REPO_ROOT,
                              env=env)
            for g in GOLDENS}


def main() -> None:
    for golden_set in golden_sets().values():
        for g, proc in outputs(golden_set.inputs).items():
            if proc.returncode not in (0, 1):  # 1: error findings
                sys.exit(f"psysafe {' '.join(proc.args[3:])}: exit "
                         f"{proc.returncode}\n{proc.stderr.decode()}")
            path = golden_set.golden / g.name
            path.write_bytes(getattr(proc, g.stream))
            print(f"wrote {path.relative_to(REPO_ROOT)}")


if __name__ == "__main__":
    main()
