#!/usr/bin/env python3
"""Regenerate the golden outputs.

Rewrites report.json, report.md, fmt.psy, diagnostics.txt and
coverage.txt for the bundled corpus (in corpus/paper/golden/) and for each
edge model tests/golden/<name>/model.psy (next to the model), from the
current sources and tool version. Each golden is what the CLI writes:
``report --format json|md --out <golden>``, the stdout of ``fmt``, the
stderr of ``check`` and the stdout of ``check --coverage``.
Run from anywhere; paths are anchored at the repository root. Review the
diff before committing.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from psysafe.cli import run  # noqa: E402


def psysafe(*argv: str) -> tuple[str, str]:
    """Run one CLI command in process and return its stdout and stderr;
    stop unless it exits 0 or 1 (findings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code not in (0, 1):
        sys.exit(f"psysafe {' '.join(argv)}: exit {code}\n{err.getvalue()}")
    return out.getvalue(), err.getvalue()


def write_goldens(files: list[Path], golden: Path) -> None:
    names = [str(f) for f in files]
    for fmt in ("json", "md"):
        psysafe("report", *names, "--format", fmt,
                "--out", str(golden / f"report.{fmt}"))
    (golden / "fmt.psy").write_text(psysafe("fmt", *names)[0],
                                    encoding="utf-8")
    (golden / "diagnostics.txt").write_text(psysafe("check", *names)[1],
                                            encoding="utf-8")
    (golden / "coverage.txt").write_text(
        psysafe("check", "--coverage", *names)[0], encoding="utf-8")
    for name in ("report.json", "report.md", "fmt.psy", "diagnostics.txt",
                 "coverage.txt"):
        print(f"wrote {golden / name}")


def main() -> None:
    os.chdir(REPO_ROOT)
    golden = Path("corpus/paper/golden")
    golden.mkdir(exist_ok=True)
    write_goldens(sorted(Path("corpus/paper").glob("*.psy")), golden)
    for model in sorted(Path("tests/golden").glob("*/model.psy")):
        write_goldens([model], model.parent)


if __name__ == "__main__":
    main()
