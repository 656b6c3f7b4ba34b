import json
import shutil
import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seknow.kb import Domain, load_knowledge_base
from seknow.metrics import PREDICTORS, evaluate_corpus
from seknow.pipeline import make_template_generator
from seknow.topics import build_topic_index, sidecar_path

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"
DB_PATH = DATA_DIR / "db.json"
DOCS_PATH = DATA_DIR / "docs.json"
GOLDEN_INDEX_PATH = DATA_DIR / "golden_index.tsv"
TOY_CORPUS_PATH = DATA_DIR / "corpus.jsonl"
GOLDEN_REPORT_PATH = DATA_DIR / "golden_heuristic_report.json"

# Thresholds used for all toy-KB fixtures; the paper-scale defaults stay the
# CLI defaults and are asserted separately.
TOY_THRESHOLDS = {"restaurant": 1.0, "hotel": 1.0, "train": 7.3, "taxi": 6.9}


def evaluate(corpus, kb, index, predictor: str, generator=None, **kwargs):
    """`evaluate_corpus` with the named predictor built as `eval` builds it, over the
    packaged templates unless ``generator`` is given."""
    return evaluate_corpus(corpus, kb, index, PREDICTORS[predictor](kb, index),
                           generator or make_template_generator(), **kwargs)


@pytest.fixture(scope="session")
def toy_kb():
    return load_knowledge_base(str(DB_PATH), str(DOCS_PATH))


@pytest.fixture(scope="session")
def toy_index(toy_kb):
    return build_topic_index(toy_kb, TOY_THRESHOLDS)


@pytest.fixture
def matching_calls(monkeypatch):
    """The domain name of each Domain.matching call from here on, in call order."""
    calls = []
    matching = Domain.matching
    monkeypatch.setattr(Domain, "matching", lambda self, constraints: calls.append(self.name)
                        or matching(self, constraints))
    return calls


@pytest.fixture
def env_stopwords(tmp_path, monkeypatch):
    """A two-word stopword file put in effect through SEKNOW_STOPWORDS."""
    path = tmp_path / "stops.txt"
    path.write_text("the\nand\n", encoding="utf-8")
    monkeypatch.setenv("SEKNOW_STOPWORDS", str(path))
    return path


@pytest.fixture
def eval_files(tmp_path):
    """Copies of every file `eval` reads: toy KB, golden index and sidecar, toy
    corpus, a goals file of the corpus's own goals, and the packaged templates."""
    index = tmp_path / "index.tsv"
    files = {"db": tmp_path / "db.json", "docs": tmp_path / "docs.json", "index": index,
             "sidecar": Path(sidecar_path(str(index))), "corpus": tmp_path / "corpus.jsonl",
             "goals": tmp_path / "goals.json", "templates": tmp_path / "templates.tsv"}
    for key, source in (("db", DB_PATH), ("docs", DOCS_PATH), ("index", GOLDEN_INDEX_PATH),
                        ("sidecar", sidecar_path(str(GOLDEN_INDEX_PATH))),
                        ("corpus", TOY_CORPUS_PATH)):
        shutil.copyfile(source, files[key])
    dialogs = [json.loads(line) for line in TOY_CORPUS_PATH.read_text("utf-8").splitlines()]
    files["goals"].write_text(json.dumps({d["dialog_id"]: d["goal"] for d in dialogs},
                                         indent=1), encoding="utf-8")
    files["templates"].write_bytes(
        resources.files("seknow.data").joinpath("templates.tsv").read_bytes())
    return files


@pytest.fixture
def no_turn(monkeypatch):
    """Make any dialog turn of `run` or `eval` fail: the inputs must be refused first."""
    def run_turn(*args):
        raise AssertionError("a turn ran")
    monkeypatch.setattr("seknow.metrics.run_turn", run_turn)


def eval_argv(files) -> list[str]:
    """`eval` with the heuristic predictor over the files of :func:`eval_files`."""
    return ["eval", "--kb", str(files["db"]), "--docs", str(files["docs"]),
            "--index", str(files["index"]), "--corpus", str(files["corpus"]),
            "--goals", str(files["goals"]), "--templates", str(files["templates"]),
            "--predictor", "heuristic"]
