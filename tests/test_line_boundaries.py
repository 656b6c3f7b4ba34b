"""A line break, a quote or a backslash in any input string ends each command as
exit 0, or as exit 1 with exactly one ``error:`` line and no traceback.

One string of each kind in the toy inputs is edited at a time: in the db, a
domain, a slot, an entity's id and name, and an attribute's key and value; in
the doc base, all five fields of a record; in the corpus, a dialog id, a
turn's ``user``, ``response``, ``delex`` and ``belief_span``, its three
``doc`` fields, and its dialog's goal domain, constraint slot and value (no
toy goal lists a requestable). Each edit puts one of ``\\n``, ``\\x85``,
``\\u2028``, ``'`` and ``\\`` after the string's first character, and every
command that reads the edited file runs in-process.
"""

import json
import shutil

import pytest

from seknow.cli import main
from seknow.topics import sidecar_path

from conftest import DB_PATH, DOCS_PATH, GOLDEN_INDEX_PATH, TOY_CORPUS_PATH

INJECTED = ("\n", "\x85", "\u2028", "'", "\\")
SOURCES = {"db": DB_PATH, "docs": DOCS_PATH, "corpus": TOY_CORPUS_PATH}


def _db_sites(db) -> dict:
    domain = next(iter(db))
    entity = (domain, "entities", 0)
    slot = next(iter(db[domain]["entities"][0]["attributes"]))
    return {"domain": ((domain,), True), "slot": ((domain, "slots", 0), False),
            "entity id": ((*entity, "id"), False), "entity name": ((*entity, "name"), False),
            "attribute key": ((*entity, "attributes", slot), True),
            "attribute value": ((*entity, "attributes", slot), False)}


def _docs_sites(docs) -> dict:
    return {name: ((0, name), False) for name in docs[0]}


def _corpus_sites(dialogs) -> dict:
    """Sites in the first dialog with a turn that has a document and a ``delex``."""
    d = next(k for k, dialog in enumerate(dialogs)
             if any("doc" in turn and "delex" in turn for turn in dialog["turns"]))
    turn = (d, "turns", next(k for k, turn in enumerate(dialogs[d]["turns"]) if "doc" in turn))
    domain = next(iter(dialogs[d]["goal"]))
    slot = next(iter(dialogs[d]["goal"][domain]["constraints"]))
    goal = (d, "goal", domain)
    return {"dialog_id": ((d, "dialog_id"), False),
            **{name: ((*turn, name), False)
               for name in ("user", "response", "delex", "belief_span")},
            **{f"doc {name}": ((*turn, "doc", name), False)
               for name in ("domain", "entity_id", "doc_id")},
            "goal domain": (goal, True),
            "goal constraint slot": ((*goal, "constraints", slot), True),
            "goal constraint value": ((*goal, "constraints", slot), False)}


def _edit(data, path: tuple, rename: bool, char: str):
    """``data`` with ``char`` put after the first character of the string at ``path``,
    or, with ``rename``, of the name of the key at ``path``."""
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    if rename:
        target[last[:1] + char + last[1:]] = target.pop(last)
    else:
        target[last] = target[last][:1] + char + target[last][1:]
    return data


def _commands(target: str, tmp_path) -> list[list[str]]:
    files = {name: str(tmp_path / path.name) for name, path in SOURCES.items()}
    index, out = str(tmp_path / "index.tsv"), str(tmp_path / "out")
    evals = [["eval", "--kb", files["db"], "--docs", files["docs"], "--index", index,
              "--corpus", files["corpus"], "--predictor", predictor]
             for predictor in ("oracle", "heuristic")]
    if target == "corpus":
        return [*evals, ["stats", "--corpus", files["corpus"]],
                ["corrupt", "--seed", "10", "--corpus", files["corpus"], "--out", out]]
    return [["build-index", "--kb", files["db"], "--docs", files["docs"], "--out", out,
             "--threshold", "restaurant=1.0", "--threshold", "hotel=1.0"], *evals]


@pytest.mark.parametrize("target", list(SOURCES))
def test_an_edited_string_ends_as_success_or_one_error_line(tmp_path, capsys, target):
    for source in SOURCES.values():
        shutil.copyfile(source, tmp_path / source.name)
    index = tmp_path / "index.tsv"
    shutil.copyfile(GOLDEN_INDEX_PATH, index)
    shutil.copyfile(sidecar_path(str(GOLDEN_INDEX_PATH)), sidecar_path(str(index)))
    text = SOURCES[target].read_text("utf-8")
    if target == "corpus":
        def load():
            return [json.loads(line) for line in text.splitlines()]

        def dump(dialogs):
            return "".join(json.dumps(dialog) + "\n" for dialog in dialogs)
    else:
        def load():
            return json.loads(text)
        dump = json.dumps
    sites = {"db": _db_sites, "docs": _docs_sites, "corpus": _corpus_sites}[target](load())
    faults, refused = [], 0
    for site, (path, rename) in sites.items():
        for char in INJECTED:
            (tmp_path / SOURCES[target].name).write_text(
                dump(_edit(load(), path, rename, char)), encoding="utf-8")
            for argv in _commands(target, tmp_path):
                code = main(argv)
                err = capsys.readouterr().err
                lines = err.splitlines()
                refused += code == 1
                if "Traceback" in err or not (code == 0 or code == 1 and len(lines) == 1
                                              and lines[0].startswith("error: ")):
                    faults.append((site, char, argv[0], code, lines))
    assert faults == []
    assert refused, "no edit was refused: the sweep reached no check"
