from pathlib import Path

import pytest
from hypothesis import settings

from psysafe import LintConfig
from psysafe.loader import load_model

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus" / "paper"
GOLDEN_DIR = CORPUS_DIR / "golden"

#: Settings of every hypothesis property that fuzzes an input surface:
#: derandomized, so the suite stays repeatable.
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def corpus_files() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.psy"))


@pytest.fixture(scope="session")
def corpus_loaded(corpus_files):
    return load_model(corpus_files)


@pytest.fixture(scope="session")
def corpus_model(corpus_loaded):
    model, _ = corpus_loaded
    return model


@pytest.fixture(scope="session")
def corpus_config(corpus_loaded) -> LintConfig:
    _, allows = corpus_loaded
    return LintConfig(allows=allows)
