"""Metamorphic relations: input changes that must leave an output unchanged.

A golden file checks one input; a relation checks a property on every input it
draws. Each relation here is seeded, so a failure names the seed that shows it
(Chen, Cheung & Yiu 1998; Segura et al. 2016).

* Shuffling the domain order and each domain's entity order in the db, and the
  record order in the doc base, leaves the index and sidecar bytes unchanged,
  since the index is built per domain and its rows and thresholds are written
  sorted; and it leaves both predictors' reports unchanged, since entity ties
  break by id and document ties by doc_id.
* Permuting, reversing or doubling the dialogs given to ``evaluate_corpus``
  leaves its report unchanged, rounded or not, for both predictors: every
  metric is a mean or a ratio of counts over the whole corpus.
* Adding to any one domain an entity with no documents, whose attribute
  values occur in no utterance or gold span and whose name shares no
  character with any ruk value, leaves the index rows and both predictors'
  reports unchanged: no constraint selects it, its name scores 0 against every
  ruk value, and it has no document to retrieve.
* A dialog's ``run_dialog`` outputs do not depend on the dialogs run before it
  on the same KB: what a KB gains while it runs (each domain's query memo, the
  heuristic's ontology postings, the match tables) changes no result.
* On a generated KB in which an entity has two documents of equal topic words,
  shuffling the index rows, or the doc base, leaves every turn's ranking and
  both predictors' reports unchanged: the tie breaks by doc_id, not by the
  position of a row or a record.
* Changing ``PYTHONHASHSEED`` leaves the bytes of ``build-index`` (index and
  sidecar) and of ``eval --out`` for both predictors, and what each prints,
  unchanged: no output follows the iteration order of a set or a str-keyed dict.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from seknow.belief import parse_belief_span
from seknow.corpus import CorpusSpec, DialogCorpus, generate_synthetic_corpus, load_corpus
from seknow.kb import load_knowledge_base
from seknow.metrics import PREDICTORS, run_dialog
from seknow.pipeline import make_template_generator
from seknow.topics import build_topic_index, read_index, sidecar_path, write_index

from conftest import (DB_PATH, DOCS_PATH, GOLDEN_INDEX_PATH, TOY_CORPUS_PATH, TOY_THRESHOLDS,
                      evaluate)

SHUFFLES = 20
SEEDS = 10


def test_kb_order_leaves_the_index_and_the_reports_unchanged(toy_kb, toy_index, tmp_path):
    golden = (GOLDEN_INDEX_PATH.read_bytes(),
              Path(sidecar_path(str(GOLDEN_INDEX_PATH))).read_bytes())
    corpus = load_corpus(str(TOY_CORPUS_PATH), toy_kb, toy_index)
    reports = {p: evaluate(corpus, toy_kb, toy_index, p) for p in ("oracle", "heuristic")}
    db = json.loads(DB_PATH.read_text("utf-8"))
    docs = json.loads(DOCS_PATH.read_text("utf-8"))
    db_path, docs_path, index_path = (tmp_path / name
                                      for name in ("db.json", "docs.json", "index.tsv"))
    for seed in range(SHUFFLES):
        rng = random.Random(seed)
        domains = list(db.items())
        rng.shuffle(domains)
        db_path.write_text(json.dumps({name: {**domain, "entities": rng.sample(
            domain["entities"], len(domain["entities"]))} for name, domain in domains}),
            encoding="utf-8")
        docs_path.write_text(json.dumps(rng.sample(docs, len(docs))), encoding="utf-8")
        kb = load_knowledge_base(str(db_path), str(docs_path))
        index = build_topic_index(kb, TOY_THRESHOLDS)
        write_index(index, str(index_path))
        assert (index_path.read_bytes(),
                Path(sidecar_path(str(index_path))).read_bytes()) == golden, seed
        for predictor, report in reports.items():
            assert evaluate(load_corpus(str(TOY_CORPUS_PATH), kb, index), kb, index,
                            predictor) == report, (seed, predictor)


def _corpora(toy_kb, toy_index):
    yield "toy", load_corpus(str(TOY_CORPUS_PATH), toy_kb, toy_index)
    yield "generated", generate_synthetic_corpus(
        toy_kb, toy_index, CorpusSpec(dialogs=12, requestables=("phone",)), seed=3)


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_dialog_order_and_repetition_leave_the_report_unchanged(toy_kb, toy_index, predictor):
    for name, corpus in _corpora(toy_kb, toy_index):
        base = evaluate(corpus, toy_kb, toy_index, predictor)
        dialogs = corpus.dialogs
        for seed in range(SEEDS):
            rng = random.Random(seed)
            permuted = rng.sample(dialogs, len(dialogs))
            for variant, order in (("permuted", permuted), ("reversed", permuted[::-1]),
                                   ("doubled", permuted + rng.sample(dialogs, len(dialogs)))):
                report = evaluate(DialogCorpus(dialogs=tuple(order)), toy_kb, toy_index,
                                  predictor)
                assert report == base, (name, seed, variant)
                assert report.to_dict() == base.to_dict(), (name, seed, variant)


def test_an_unreachable_entity_leaves_the_index_and_the_reports_unchanged(
        toy_kb, toy_index, tmp_path):
    corpora = dict(_corpora(toy_kb, toy_index))
    turns = [turn for corpus in corpora.values() for dialog in corpus.dialogs
             for turn in dialog.turns]
    texts = [text for turn in turns for text in (turn.user, turn.gold_belief_span)]
    ruk_chars = {char for turn in turns
                 if (ruk := parse_belief_span(turn.gold_belief_span).ruk()) is not None
                 for char in ruk[1]}
    name = "fjqvy"
    assert not ruk_chars & set(name)
    reports = {(corpus_name, predictor): evaluate(corpus, toy_kb, toy_index, predictor)
               for corpus_name, corpus in corpora.items() for predictor in ("oracle", "heuristic")}
    db = json.loads(DB_PATH.read_text("utf-8"))
    db_path = tmp_path / "db.json"
    for domain in db:
        attributes = {slot: name if slot == "name" else f"{name} {k}"
                      for k, slot in enumerate(db[domain]["slots"])}
        assert not any(value in text for value in attributes.values() for text in texts)
        entity = {"id": name, "name": name, "bookable": False, "attributes": attributes}
        db_path.write_text(json.dumps({**db, domain: {
            **db[domain], "entities": db[domain]["entities"] + [entity]}}), encoding="utf-8")
        kb = load_knowledge_base(str(db_path), str(DOCS_PATH))
        # the toy thresholds sit far enough from every candidate's cumulative average,
        # which divides by the domain's entity count, that one more entity moves none
        index = build_topic_index(kb, TOY_THRESHOLDS)
        assert index == toy_index, domain
        for (corpus_name, predictor), report in reports.items():
            got = evaluate(corpora[corpus_name], kb, index, predictor)
            assert got == report and got.to_dict() == report.to_dict(), (
                domain, corpus_name, predictor)


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_a_dialog_runs_alike_whatever_ran_before_it_on_the_kb(toy_kb, toy_index, predictor):
    generator = make_template_generator()

    def run(dialog, kb):
        return run_dialog(dialog, PREDICTORS[predictor](kb, toy_index), generator, kb,
                          toy_index)

    for name, corpus in _corpora(toy_kb, toy_index):
        dialogs = corpus.dialogs
        alone = [run(dialog, load_knowledge_base(str(DB_PATH), str(DOCS_PATH)))
                 for dialog in dialogs]
        for seed in range(SEEDS // 2):
            rng = random.Random(seed)
            kb = load_knowledge_base(str(DB_PATH), str(DOCS_PATH))
            order = rng.sample(range(len(dialogs)), len(dialogs))
            for k in order + rng.sample(order, len(order)):
                assert run(dialogs[k], kb) == alone[k], (name, seed, dialogs[k].dialog_id)


def _kb_with_a_document_tie(rng: random.Random) -> tuple[dict, list]:
    """A db and doc base of two domains. Each domain's first entity has two documents
    whose bodies differ only by a stopword, so they index under the same topic words;
    they take its two lowest doc_ids."""
    vocab = sorted({"".join(rng.choice("bcdfghklmnprstvz") + rng.choice("aeiou")
                            for _ in range(3)) for _ in range(40)})
    db, docs = {}, []
    for domain in ("restaurant", "hotel"):
        entities = []
        for k in range(5):
            name = f"{rng.choice(vocab)} {domain[0]}{k}"
            entities.append({"id": name, "name": name, "attributes": {
                "name": name, "area": rng.choice(["north", "south", "center"]),
                "food": rng.choice(["thai", "italian"])}})
            bodies = [" ".join(rng.sample(vocab, 8)) for _ in range(rng.randint(1, 3))]
            if k == 0:
                tied = " ".join(rng.sample(vocab, 8))
                bodies = [tied, f"the {tied}", *bodies]
            docs += [{"domain": domain, "entity_id": name, "doc_id": f"{domain[0]}{k}d{j}",
                      "title": "notes", "body": body} for j, body in enumerate(bodies)]
        db[domain] = {"slots": ["name", "area", "food"], "entities": entities}
    return db, docs


def test_row_and_doc_base_order_leave_tied_rankings_and_reports_unchanged(tmp_path):
    rng = random.Random(35)
    db, docs = _kb_with_a_document_tie(rng)
    thresholds = dict.fromkeys(db, 0.0)
    db_path, docs_path, index_path, rows_path = (
        tmp_path / name for name in ("db.json", "docs.json", "index.tsv", "rows.tsv"))
    db_path.write_text(json.dumps(db), encoding="utf-8")
    docs_path.write_text(json.dumps(docs), encoding="utf-8")
    kb = load_knowledge_base(str(db_path), str(docs_path))
    write_index(build_topic_index(kb, thresholds), str(index_path))
    Path(sidecar_path(str(rows_path))).write_bytes(
        Path(sidecar_path(str(index_path))).read_bytes())
    index = read_index(str(index_path), kb)
    for domain in db:
        tied = index.entity_docs(domain, db[domain]["entities"][0]["id"])[0]
        assert tied[0][2] == tied[1][2], domain
    corpus = generate_synthetic_corpus(kb, index, CorpusSpec(dialogs=10), seed=35)
    generator = make_template_generator()

    def outcome(kb, index, predictor):
        rankings = [out.ranking for dialog in corpus.dialogs for out in run_dialog(
            dialog, PREDICTORS[predictor](kb, index), generator, kb, index)]
        report = evaluate(corpus, kb, index, predictor)
        return rankings, report, report.to_dict()

    base = {p: outcome(kb, index, p) for p in ("oracle", "heuristic")}
    assert any(len(ranking) > 1 for ranking in base["oracle"][0])
    rows = index_path.read_text("utf-8").splitlines(keepends=True)
    for seed in range(SHUFFLES):
        rng = random.Random(seed)
        rows_path.write_text("".join(rng.sample(rows, len(rows))), encoding="utf-8")
        docs_path.write_text(json.dumps(rng.sample(docs, len(docs))), encoding="utf-8")
        shuffled_kb = load_knowledge_base(str(db_path), str(docs_path))
        for variant, (kb_v, index_v) in {
                "rows": (kb, read_index(str(rows_path), kb)),
                "docs": (shuffled_kb, build_topic_index(shuffled_kb, thresholds))}.items():
            for predictor, expected in base.items():
                assert outcome(kb_v, index_v, predictor) == expected, (seed, variant, predictor)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    thresholds = [f"--threshold={domain}={value}" for domain, value in TOY_THRESHOLDS.items()]
    outputs = []
    for seed in ("0", "987654"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("SEKNOW_STOPWORDS", None)
        out = tmp_path / seed
        out.mkdir()
        index = str(out / "index.tsv")
        commands = [["build-index", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                     "--out", index, *thresholds]]
        commands += [["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH), "--index", index,
                      "--corpus", str(TOY_CORPUS_PATH), "--predictor", predictor,
                      "--out", str(out / f"{predictor}.json")]
                     for predictor in ("oracle", "heuristic")]
        printed = [subprocess.run([sys.executable, "-m", "seknow.cli", *argv], env=env,
                                  cwd=out, capture_output=True, check=True).stdout
                   .replace(str(out).encode(), b"<out>") for argv in commands]
        outputs.append((printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert sorted(outputs[0][1]) == ["heuristic.json", "index.tsv", "index.tsv.meta.json",
                                     "oracle.json"]
    assert outputs[0] == outputs[1]
