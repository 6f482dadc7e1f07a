#!/usr/bin/env python3
"""Regenerate the golden outputs for the bundled corpus.

Rewrites corpus/paper/golden/{report.json,report.md,diagnostics.txt} from
the current fixture sources and tool version. Run from anywhere; paths are
anchored at the repository root. Review the diff before committing.
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


def main() -> None:
    os.chdir(REPO_ROOT)
    corpus = sorted(Path("corpus/paper").glob("*.psy"))
    golden = Path("corpus/paper/golden")
    golden.mkdir(exist_ok=True)

    model, allows = load_model(corpus)
    config = LintConfig(allows=allows)

    report = build_report(model, config)
    (golden / "report.json").write_text(emit_json(report), encoding="utf-8")
    (golden / "report.md").write_text(emit_markdown(report),
                                      encoding="utf-8")

    listing = "".join(format_diagnostic(d) + "\n"
                      for d in report.diagnostics)
    (golden / "diagnostics.txt").write_text(listing, encoding="utf-8")

    for name in ("report.json", "report.md", "diagnostics.txt"):
        print(f"wrote corpus/paper/golden/{name}")


if __name__ == "__main__":
    main()
