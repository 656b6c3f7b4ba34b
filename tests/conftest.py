import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seknow import build_topic_index, load_knowledge_base

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"
DB_PATH = DATA_DIR / "db.json"
DOCS_PATH = DATA_DIR / "docs.json"
GOLDEN_INDEX_PATH = DATA_DIR / "golden_index.tsv"
TOY_CORPUS_PATH = DATA_DIR / "corpus.jsonl"
GOLDEN_REPORT_PATH = DATA_DIR / "golden_heuristic_report.json"

# Thresholds used for all toy-KB fixtures; the paper-scale defaults stay the
# CLI defaults and are asserted separately.
TOY_THRESHOLDS = {"restaurant": 1.0, "hotel": 1.0, "train": 7.3, "taxi": 6.9}


@pytest.fixture(scope="session")
def toy_kb():
    return load_knowledge_base(str(DB_PATH), str(DOCS_PATH))


@pytest.fixture(scope="session")
def toy_index(toy_kb):
    return build_topic_index(toy_kb, TOY_THRESHOLDS)


@pytest.fixture
def env_stopwords(tmp_path, monkeypatch):
    """A two-word stopword file put in effect through SEKNOW_STOPWORDS."""
    path = tmp_path / "stops.txt"
    path.write_text("the\nand\n", encoding="utf-8")
    monkeypatch.setenv("SEKNOW_STOPWORDS", str(path))
    return path
