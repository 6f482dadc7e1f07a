#!/usr/bin/env python3
"""Regenerate the golden outputs.

Rewrites report.json, report.md and diagnostics.txt for the bundled
corpus (in corpus/paper/golden/) and for each edge model
tests/golden/<name>/model.psy (next to the model), from the current
sources and tool version. Run from anywhere; paths are anchored at the
repository root. Review the diff before committing.
"""

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from psysafe.diagnostics import format_diagnostic  # noqa: E402
from psysafe.lints import LintConfig  # noqa: E402
from psysafe.loader import load_model  # noqa: E402
from psysafe.report import build_report, emit_json, emit_markdown  # noqa: E402


def write_goldens(files: list[Path], golden: Path) -> None:
    model, allows = load_model(files)
    config = LintConfig(allows=allows)

    report = build_report(model, config)
    (golden / "report.json").write_text(emit_json(report), encoding="utf-8")
    (golden / "report.md").write_text(emit_markdown(report),
                                      encoding="utf-8")

    listing = "".join(format_diagnostic(d) + "\n"
                      for d in report.diagnostics)
    (golden / "diagnostics.txt").write_text(listing, encoding="utf-8")

    for name in ("report.json", "report.md", "diagnostics.txt"):
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
