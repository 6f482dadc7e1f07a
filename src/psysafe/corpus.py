"""Access to the bundled highway lane-change example corpus.

The corpus encodes a first ride aboard an SAE Level 4 vehicle in a
highway lane-change scenario: one human driver stakeholder, stakes
ST1-ST4, losses L1-L3, hazards H1-H5, goals SG1-SG5, responsibilities
R1-R7, a three-level control structure, UCA1-UCA3, four loss scenarios,
and a single risk assessment on H2. Fixture files live in
``corpus/paper/`` at the repository root, with golden outputs under
``corpus/paper/golden/``.
"""

from __future__ import annotations

from pathlib import Path

from .loader import load_model
from .model import AnalysisModel

#: Repository-root corpus location (valid for source checkouts and
#: editable installs).
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[2] / "corpus" / "paper"


def corpus_files(corpus_dir: str | Path | None = None) -> list[Path]:
    """The corpus ``.psy`` files in shell-glob (alphabetical) order."""
    directory = Path(corpus_dir) if corpus_dir else DEFAULT_CORPUS_DIR
    return sorted(directory.glob("*.psy"))


def load_paper_example(corpus_dir: str | Path | None = None
                       ) -> AnalysisModel:
    """Load and resolve the bundled example model."""
    files = corpus_files(corpus_dir)
    if not files:
        raise FileNotFoundError(
            f"no .psy files in {corpus_dir or DEFAULT_CORPUS_DIR}")
    model, _ = load_model(files)
    return model
