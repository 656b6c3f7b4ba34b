import hashlib
import io
import json
import shlex
import shutil
import sys
from importlib import resources
from pathlib import Path

import pytest

from seknow import metrics
from seknow.cli import main
from seknow.corpus import CorpusSpec, generate_synthetic_corpus, save_corpus
from seknow.errors import QueryError
from seknow.kb import load_knowledge_base
from seknow.text import stopwords_digest
from seknow.topics import build_topic_index, sidecar_path

from conftest import (DATA_DIR, DB_PATH, DOCS_PATH, GOLDEN_INDEX_PATH, TOY_CORPUS_PATH,
                      eval_argv)

TOY_THRESHOLD_FLAGS = ["--threshold", "restaurant=1.0", "--threshold", "hotel=1.0"]
PACKAGED_TEMPLATES = resources.files("seknow.data").joinpath("templates.tsv")
PACKAGED_STOPWORDS = resources.files("seknow.data").joinpath("stopwords.txt")


def build_index(tmp_path):
    out = tmp_path / "index.tsv"
    code = main(["build-index", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--out", str(out), *TOY_THRESHOLD_FLAGS])
    assert code == 0
    return out


def test_build_index_matches_golden(tmp_path, capsys):
    out = build_index(tmp_path)
    assert out.read_bytes() == GOLDEN_INDEX_PATH.read_bytes()
    assert "indexed 9 documents" in capsys.readouterr().out
    sidecar = json.loads((tmp_path / "index.tsv.meta.json").read_text())
    assert sidecar["thresholds"]["restaurant"] == 1.0
    assert sidecar["thresholds"]["taxi"] == 6.9  # CLI default retained
    assert len(sidecar["stopwords_sha256"]) == 64


def test_build_index_threshold_domain_is_normalized(tmp_path):
    out = tmp_path / "index.tsv"
    code = main(["build-index", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--out", str(out), "--threshold", "Restaurant=1.0", "--threshold", " HOTEL =1"])
    assert code == 0
    assert out.read_bytes() == GOLDEN_INDEX_PATH.read_bytes()
    sidecar = json.loads((tmp_path / "index.tsv.meta.json").read_text())
    assert sidecar["thresholds"] == {"hotel": 1.0, "restaurant": 1.0, "taxi": 6.9, "train": 7.3}


@pytest.mark.parametrize("flag, detail", [
    ("restaurnat=0.5", "--threshold domain 'restaurnat' has no documents in the knowledge base"),
    ("attraction=0.5", "--threshold domain 'attraction' has no documents in the knowledge base"),
    ("taxi=1.0", "--threshold domain 'taxi' has no documents in the knowledge base"),
    ("restaurant=nan", "--threshold value 'nan' is not finite"),
    ("hotel=inf", "--threshold value 'inf' is not finite"),
    ("hotel=-Infinity", "--threshold value '-Infinity' is not finite"),
    ("hotel=x", "--threshold value 'x' is not a number"),
    ("hotel", "--threshold expects domain=value, got 'hotel'"),
])
def test_build_index_refuses_bad_threshold(tmp_path, capsys, flag, detail):
    docs = tmp_path / "docs.json"  # the toy documents, less the taxi domain's
    docs.write_text(json.dumps([doc for doc in json.loads(DOCS_PATH.read_text("utf-8"))
                                if doc["domain"] != "taxi"]), "utf-8")
    out = tmp_path / "index.tsv"
    code = main(["build-index", "--kb", str(DB_PATH), "--docs", str(docs), "--out", str(out),
                 "--threshold", flag])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config: {detail}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("doc_id", ["   ", "d\t1", "d\x0b1", "d\x851", "d\u20281"])
def test_build_index_refuses_doc_id_blank_or_with_tab(tmp_path, capsys, doc_id):
    docs = tmp_path / "docs.json"
    records = json.loads(DOCS_PATH.read_text("utf-8"))
    records[2]["doc_id"] = doc_id
    docs.write_text(json.dumps(records), "utf-8")
    out = tmp_path / "index.tsv"
    code = main(["build-index", "--kb", str(DB_PATH), "--docs", str(docs), "--out", str(out),
                 *TOY_THRESHOLD_FLAGS])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: load: {docs}: document #2 'doc_id' is blank or holds a tab or line break"]
    assert captured.out == ""
    assert not out.exists()


def test_query_prints_span(capsys):
    code = main(["query", "--kb", str(DB_PATH),
                 "--belief", "restaurant { food = italian , area = center }"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "restaurant 2 match"


def test_query_parse_error_line(capsys):
    code = main(["query", "--kb", str(DB_PATH), "--belief", "restaurant { food = }"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse: ")


def test_query_refuses_an_empty_block(capsys):
    assert main(["query", "--kb", str(DB_PATH), "--belief", "hotel { }"]) == 1
    assert capsys.readouterr().err == "error: parse: expected slot name, found '}' (byte offset 8)\n"


@pytest.mark.parametrize("command", ["query", "retrieve"])
def test_belief_that_is_not_utf8_is_a_parse_error(capsys, command):
    # an undecodable argv byte (b"\xff") reaches Python as the lone surrogate "\udcff"
    argv = [command, "--kb", str(DB_PATH), "--belief", "restaurant { area = \udcff }"]
    if command == "retrieve":
        argv += ["--docs", str(DOCS_PATH), "--index", str(GOLDEN_INDEX_PATH)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: parse: span is not valid UTF-8 (byte offset 20)"]


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--kb", str(DB_PATH)])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["query", "--kb", str(DB_PATH), "--belief", "", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["-v", "stats", "--corpus", str(TOY_CORPUS_PATH)],
    ["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH), "--index", str(GOLDEN_INDEX_PATH),
     "--corpus", str(TOY_CORPUS_PATH), "--workers", "1"],
    ["--seed", "7", "eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
     "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH)],
], ids=["verbose", "workers", "global-seed"])
def test_retired_option_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_domain_is_domain_error(capsys):
    code = main(["query", "--kb", str(DB_PATH), "--belief", "moon { area = dark }"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: domain-not-found: ")


def test_retrieve_ranks_documents(tmp_path, capsys):
    index = build_index(tmp_path)
    capsys.readouterr()
    code = main(["retrieve", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index), "--belief", "restaurant { ruk = pizza hut } || favorite"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1\t1.0000\trestaurant\tpizza hut\td1"
    assert lines[1].startswith("2\t")


def test_retrieve_needs_ruk_and_topic(capsys):
    code = main(["retrieve", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--belief", "restaurant { ruk = pizza hut }"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: config: the belief span needs a ruk triple and a '||' topic segment"]
    assert captured.out == ""


def test_retrieve_without_matched_entity(capsys):
    code = main(["retrieve", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH),
                 "--belief", "restaurant { ruk = zzzz } || favorite"])
    assert code == 0
    assert capsys.readouterr().out == "no entity matched\n"


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_run_matches_golden(tmp_path, capsys, predictor):
    out = tmp_path / "results.tsv"
    code = main(["run", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--predictor", predictor, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"wrote 18 turns -> {out}\n"
    assert out.read_bytes() == (DATA_DIR / f"golden_run_{predictor}.tsv").read_bytes()


def test_run_collapses_whitespace_of_a_body_into_one_line_per_turn(tmp_path, capsys):
    docs = tmp_path / "docs.json"
    records = json.loads(DOCS_PATH.read_text("utf-8"))
    d3 = next(rec for rec in records if rec["doc_id"] == "d3")
    d3["body"] = d3["body"].replace(" ", "\n\t", 1)
    docs.write_text(json.dumps(records), "utf-8")
    index = tmp_path / "index.tsv"
    assert main(["build-index", "--kb", str(DB_PATH), "--docs", str(docs),
                 "--out", str(index), *TOY_THRESHOLD_FLAGS]) == 0
    assert index.read_bytes() == GOLDEN_INDEX_PATH.read_bytes()
    out = tmp_path / "results.tsv"
    assert main(["run", "--kb", str(DB_PATH), "--docs", str(docs), "--index", str(index),
                 "--corpus", str(TOY_CORPUS_PATH), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 18 turns -> {out}\n")
    lines = out.read_text("utf-8").splitlines()
    assert [len(line.split("\t")) for line in lines] == [6] * 18
    assert out.read_bytes() == (DATA_DIR / "golden_run_oracle.tsv").read_bytes()


# str.splitlines, which reads the run file back, breaks at \v, \x85 and \u2028 too
@pytest.mark.parametrize("dialog_id", ["dlg\t0", "", "  ", "dlg\n0", "dlg\r0", "dlg\x0b1",
                                       "dlg\x851", "dlg\u20281"],
                         ids=["tab", "empty", "blank", "line-break", "carriage-return",
                              "vertical-tab", "next-line", "line-separator"])
def test_run_refuses_dialog_id_blank_or_with_tab(tmp_path, capsys, dialog_id):
    dialogs = [json.loads(line) for line in TOY_CORPUS_PATH.read_text("utf-8").splitlines()]
    dialogs[1]["dialog_id"] = dialog_id
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in dialogs), encoding="utf-8")
    out = tmp_path / "results.tsv"
    assert main(["run", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(corpus),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {corpus}:2: 'dialog_id' is blank or holds a tab or line break"]
    assert not out.exists()


def test_run_writes_turn_lines(tmp_path, capsys):
    index = build_index(tmp_path)
    out = tmp_path / "results.tsv"
    code = main(["run", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index), "--corpus", str(TOY_CORPUS_PATH),
                 "--predictor", "oracle", "--out", str(out)])
    assert code == 0
    lines = out.read_text("utf-8").strip().splitlines()
    assert len(lines) == 18
    first = lines[0].split("\t")
    assert first[0] == "dlg0000:0"
    assert len(first) == 6
    doc_column = {line.split("\t")[3] for line in lines}
    assert "-" in doc_column and "h1" in doc_column


def test_run_keeps_finished_dialogs_after_a_failure(tmp_path, capsys, monkeypatch):
    argv = ["run", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
            "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH)]
    full = tmp_path / "full.tsv"
    assert main([*argv, "--out", str(full)]) == 0
    assert capsys.readouterr().out == f"wrote 18 turns -> {full}\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == full.read_text("utf-8")
    calls, run_turn = [], metrics.run_turn

    def failing_run_turn(*args):
        calls.append(args)
        if len(calls) == 7:  # the first turn of the third dialog
            raise QueryError("injected fault")
        return run_turn(*args)
    monkeypatch.setattr(metrics, "run_turn", failing_run_turn)
    out = tmp_path / "partial.tsv"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: evaluation: dialog 'dlg0002': turn 0: injected fault"]
    finished = [line for line in full.read_text("utf-8").splitlines(keepends=True)
                if line.startswith(("dlg0000:", "dlg0001:"))]
    assert len(finished) == 6
    assert out.read_text("utf-8") == "".join(finished)


def test_corrupt_deterministic_bytes(tmp_path):
    # seeds 10 and 12 avoid drawing a value corruption on the taxi turns,
    # whose only type value has no corpus alternative (that error path is
    # exercised below)
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    for out in (out1, out2):
        code = main(["corrupt", "--seed", "10", "--corpus", str(TOY_CORPUS_PATH),
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 18
    assert sum(1 for r in records if r["y_c"] == 0) == 9
    out3 = tmp_path / "c3.jsonl"
    code = main(["corrupt", "--seed", "12", "--corpus", str(TOY_CORPUS_PATH),
                 "--out", str(out3)])
    assert code == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_corrupt_matches_golden(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["corrupt", "--seed", "10", "--corpus", str(TOY_CORPUS_PATH),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "golden_corrupt.jsonl").read_bytes()


def test_corrupt_single_valued_slot_errors(tmp_path, capsys):
    # seed 3 assigns a value corruption to a taxi turn; its only ontology
    # value has no alternative, which must surface as a corruption error
    code = main(["corrupt", "--seed", "3", "--corpus", str(TOY_CORPUS_PATH),
                 "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == ("error: corruption: no slot of belief span "
                                       "'taxi { type = car }' has an alternative value\n")


def test_no_corrupted_sample_equals_its_original(tmp_path):
    # the generated corpus is over a benchmark KB: the toy KB's single-valued
    # slots leave most seeds nothing to swap there
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    sys.dont_write_bytecode, write_bytecode = True, sys.dont_write_bytecode
    try:
        import inputs
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.pop(0)
    db, docs = inputs.make_kb(7, {"restaurant": 12, "hotel": 6, "attraction": 6}, 4)
    (tmp_path / "db.json").write_text(json.dumps(db), "utf-8")
    (tmp_path / "docs.json").write_text(json.dumps(docs), "utf-8")
    kb = load_knowledge_base(str(tmp_path / "db.json"), str(tmp_path / "docs.json"))
    generated = tmp_path / "generated.jsonl"
    save_corpus(generate_synthetic_corpus(kb, build_topic_index(kb, inputs.THRESHOLDS),
                                          CorpusSpec(dialogs=20), seed=24), str(generated))
    for corpus, seeds in ((TOY_CORPUS_PATH, range(100)), (generated, range(20))):
        originals = [(turn["belief_span"], turn["response"])
                     for line in corpus.read_text("utf-8").splitlines()
                     for turn in json.loads(line)["turns"]]
        succeeded = 0
        for seed in seeds:
            out = tmp_path / "c.jsonl"
            if main(["corrupt", "--seed", str(seed), "--corpus", str(corpus),
                     "--out", str(out)]) != 0:
                continue
            succeeded += 1
            records = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
            for record, original in zip(records, originals, strict=True):
                if record["y_c"] == 0:
                    assert (record["belief_span"], record["response"]) != original, \
                        (corpus.name, seed, record)
        assert succeeded >= 5, (corpus.name, succeeded)


def test_eval_out_records_its_inputs(tmp_path, capsys):
    index = build_index(tmp_path)
    out = tmp_path / "r.json"
    code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index), "--corpus", str(TOY_CORPUS_PATH),
                 "--predictor", "heuristic", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "metrics" in payload

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    assert payload["metadata"] == {
        "corpus_sha256": sha256(TOY_CORPUS_PATH),
        "docs_sha256": sha256(DOCS_PATH),
        "goals_sha256": None,
        "index_sha256": sha256(index),
        "kb_sha256": sha256(DB_PATH),
        "stopwords_sha256": sha256(PACKAGED_STOPWORDS),
        "templates_sha256": sha256(PACKAGED_TEMPLATES),
        "predictor": "heuristic",
    }
    table = capsys.readouterr().out
    assert "Joint Goal" in table and "Combined" in table


@pytest.mark.parametrize("target", ["docs", "templates", "goals"])
def test_eval_out_hash_follows_each_input_edit(tmp_path, capsys, eval_files, target):
    out = tmp_path / "r.json"

    def metadata():
        assert main([*eval_argv(eval_files), "--out", str(out)]) == 0
        return json.loads(out.read_text("utf-8"))["metadata"]
    before = metadata()
    assert before[f"{target}_sha256"] == \
        hashlib.sha256(eval_files[target].read_bytes()).hexdigest()
    with eval_files[target].open("a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line: the same content, other bytes
    after = metadata()
    assert {key for key in before if before[key] != after[key]} == {f"{target}_sha256"}


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
def test_eval_table_matches_golden(capsys, predictor):
    assert main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--predictor", predictor]) == 0
    golden = DATA_DIR / f"golden_eval_table_{predictor}.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_eval_refuses_goal_for_no_dialog_of_the_corpus(tmp_path, capsys, no_turn):
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps({"nope": {"restaurant": {"constraints": {"food": "italian"}}}}),
                     encoding="utf-8")
    assert main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--goals", str(goals)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {goals}: goal for dialog 'nope' names no dialog of the corpus"]


def test_eval_checks_goals_before_any_turn(tmp_path, capsys, no_turn):
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps({"dlg0003": {"moon": {"constraints": {}}}}), encoding="utf-8")
    assert main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--goals", str(goals)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {goals}: goal of dialog 'dlg0003' references unknown domain 'moon'"]


def test_eval_checks_references_before_any_turn(tmp_path, capsys, no_turn):
    dialogs = [json.loads(line) for line in TOY_CORPUS_PATH.read_text("utf-8").splitlines()]
    dialogs[2]["turns"][1]["response"] = ""
    del dialogs[2]["turns"][1]["delex"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in dialogs), encoding="utf-8")
    assert main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {corpus}:3: dialog 'dlg0002' turn 1: empty reference response"]


def test_eval_refuses_empty_attribute_before_any_turn(capsys, eval_files):
    db = json.loads(eval_files["db"].read_text("utf-8"))
    db["restaurant"]["entities"][0]["attributes"]["area"] = ""
    eval_files["db"].write_text(json.dumps(db), encoding="utf-8")
    assert main(eval_argv(eval_files)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {eval_files['db']}: domain 'restaurant': "
        "entity 'pizza hut' attribute 'area' is empty"]


def _foreign_slot(db, docs):
    db["restaurant"]["entities"][0]["attributes"]["parking"] = "yes"
    return "db", "schema-foreign: domain 'restaurant': entity 'pizza hut' attribute 'parking'"


def _renamed_attribute(db, docs):
    db["restaurant"]["entities"][0]["attributes"]["name"] = "pizza palace"
    return "db", ("name-mismatch: domain 'restaurant': entity 'pizza hut' "
                  "name attribute 'pizza palace'")


def _blank_body(db, docs):
    docs[0]["body"] = " "
    return "docs", "empty-body: domain 'restaurant': entity 'pizza hut' document 'd1'"


@pytest.mark.parametrize("predictor", ["oracle", "heuristic"])
@pytest.mark.parametrize("violate", [_foreign_slot, _renamed_attribute, _blank_body],
                         ids=["schema-foreign", "name-mismatch", "empty-body"])
def test_kb_violation_is_refused_before_any_turn(capsys, eval_files, predictor, violate):
    db = json.loads(eval_files["db"].read_text("utf-8"))
    docs = json.loads(eval_files["docs"].read_text("utf-8"))
    file, detail = violate(db, docs)
    eval_files["db"].write_text(json.dumps(db), encoding="utf-8")
    eval_files["docs"].write_text(json.dumps(docs), encoding="utf-8")
    assert main([*eval_argv(eval_files)[:-1], predictor]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: load: {eval_files[file]}: {detail}"]


@pytest.mark.parametrize("command", ["chat", "eval"])
def test_packaged_templates_are_checked_before_the_first_prompt(
        capsys, monkeypatch, eval_files, command):
    db = json.loads(eval_files["db"].read_text("utf-8"))
    db["museum"] = {"slots": ["name", "area"], "entities": [
        {"id": "fitzwilliam", "name": "fitzwilliam",
         "attributes": {"name": "fitzwilliam", "area": "center"}}]}
    eval_files["db"].write_text(json.dumps(db), encoding="utf-8")

    class UnreadStdin:
        def __iter__(self):
            raise AssertionError("stdin read before the templates were checked")

    monkeypatch.setattr("sys.stdin", UnreadStdin())
    files = ["--kb", str(eval_files["db"]), "--docs", str(eval_files["docs"]),
             "--index", str(eval_files["index"])]
    argv = ["chat", *files] if command == "chat" else [
        "eval", *files, "--corpus", str(eval_files["corpus"])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: load: {PACKAGED_TEMPLATES}: no 'offer' template for domain 'museum'"]


def _drop_doc_key(key):
    def mutate(dialog):
        next(t for t in dialog["turns"] if "doc" in t)["doc"].pop(key)
        return dialog
    return mutate


def _first_span(span):
    return lambda dialog: {**dialog, "turns": [{**dialog["turns"][0], "belief_span": span}]}


# (file to corrupt, mutation of the first toy dialog, expected detail)
MALFORMED_INPUTS = {
    "doc-without-domain": ("corpus", _drop_doc_key("domain"), "'doc' needs string"),
    "doc-without-entity-id": ("corpus", _drop_doc_key("entity_id"), "'doc' needs string"),
    "doc-without-doc-id": ("corpus", _drop_doc_key("doc_id"), "'doc' needs string"),
    "line-not-object": ("corpus", lambda d: [d], "dialog is not a JSON object"),
    "goal-not-object": ("corpus", lambda d: {**d, "goal": ["hotel"]},
                        "dialog 'dlg0000': goal is not an object"),
    "goal-domain-not-object": ("corpus", lambda d: {**d, "goal": {"hotel": "stars 4"}},
                               "goal domain 'hotel' is not an object"),
    "turn-not-object": ("corpus", lambda d: {**d, "turns": ["hi"]},
                        "'turns' is not an array of objects"),
    "user-not-string": ("corpus", lambda d: {**d, "turns": [{**d["turns"][0], "user": 7}]},
                        "turn 0: 'user', 'response' and 'delex' must be strings"),
    "requestables-not-array": ("corpus",
                               lambda d: {**d, "goal": {"hotel": {"requestables": "phone"}}},
                               "array of string 'requestables'"),
    "goals-entry-not-object": ("goals", lambda d: {d["dialog_id"]: ["hotel"]},
                               "dialog 'dlg0000': goal is not an object"),
    "goal-domain-empty": ("corpus", lambda d: {**d, "goal": {" ": {}}},
                          "dialog 'dlg0000': empty goal domain name"),
    "goal-domain-duplicate": ("goals", lambda d: {d["dialog_id"]: {"hotel": {}, " Hotel": {}}},
                              "dialog 'dlg0000': duplicate goal domain 'hotel'"),
    "goal-constraint-empty": ("corpus",
                              lambda d: {**d, "goal": {"hotel": {"constraints": {"type": " "}}}},
                              "goal domain 'hotel': constraint 'type' is empty"),
    "goal-constraint-duplicate": (
        "corpus", lambda d: {**d, "goal": {"hotel": {"constraints": {"Type": "a", "type": "b"}}}},
        "goal domain 'hotel': duplicate constraint 'type'"),
    "goal-requestable-empty": ("goals",
                               lambda d: {d["dialog_id"]: {"hotel": {"requestables": [""]}}},
                               "goal domain 'hotel': empty requestable"),
    "goal-requestable-outside-schema": (
        "corpus", lambda d: {**d, "goal": {"hotel": {"requestables": ["colour"]}}},
        "goal of dialog 'dlg0000' uses slot 'colour' outside the schema of domain 'hotel'"),
    "goals-requestable-outside-schema": (
        "goals", lambda d: {d["dialog_id"]: {"hotel": {"requestables": ["colour"]}}},
        "goal of dialog 'dlg0000' uses slot 'colour' outside the schema of domain 'hotel'"),
    "span-slot-outside-schema": ("corpus", _first_span("hotel { colour = red }"),
                                 "turn 0: slot 'colour' is not in the schema of domain 'hotel'"),
    "span-domain-unknown": ("corpus", _first_span("moon { area = dark }"),
                            "turn 0: unknown domain 'moon'"),
    "span-not-string": ("corpus", _first_span(7), "turn 0: 'belief_span' must be a string"),
    "span-null": ("corpus", _first_span(None), "turn 0: 'belief_span' must be a string"),
    "duplicate-dialog-id": ("corpus", lambda d: d, "duplicate dialog id 'dlg0000'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_load_error(tmp_path, capsys, case):
    target, mutate, detail = MALFORMED_INPUTS[case]
    first = TOY_CORPUS_PATH.read_text("utf-8").splitlines()[0]
    bad = json.dumps(mutate(json.loads(first)))
    corpus, goals = tmp_path / "corpus.jsonl", tmp_path / "goals.json"
    argv = ["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
            "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(corpus)]
    if target == "corpus":
        corpus.write_text(f"{first}\n{bad}\n", encoding="utf-8")
        where = f"{corpus}:2"
    else:
        corpus.write_text(f"{first}\n", encoding="utf-8")
        goals.write_text(bad, encoding="utf-8")
        argv += ["--goals", str(goals)]
        where = str(goals)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: load: {where}: ")
    assert detail in lines[0]


def _bad_input(target, content, detail="", kind="load"):
    """Replace one `eval` input with ``content``, or delete it when ``content`` is None;
    the error line, of ``kind``, names that file, followed by ``detail``."""
    def case(files, tmp_path):
        if content is None:
            files[target].unlink()
        else:
            files[target].write_bytes(content)
        return eval_argv(files), f"error: {kind}: {files[target]}:{detail}"
    return case


def _refused(target, content, detail):
    """As :func:`_bad_input`, with ``detail`` the whole rest of the error line."""
    return _bad_input(target, content, f" {detail}\n")


def _index_entity_edit(suffix: str) -> bytes:
    """The golden index with ``suffix`` appended to the entity field of line 1."""
    return GOLDEN_INDEX_PATH.read_bytes().replace(
        b"acorn guest house\th1", f"acorn guest house{suffix}\th1".encode(), 1)


def _bad_output(command):
    """Point one subcommand's --out into a directory that does not exist."""
    def case(files, tmp_path):
        out = tmp_path / "missing" / "out"
        kb = ["--kb", str(DB_PATH), "--docs", str(DOCS_PATH)]
        corpus = ["--corpus", str(TOY_CORPUS_PATH)]
        argv = {"build-index": ["build-index", *kb, *TOY_THRESHOLD_FLAGS],
                "run": ["run", *kb, "--index", str(GOLDEN_INDEX_PATH), *corpus],
                "eval": eval_argv(files),
                "corrupt": ["corrupt", "--seed", "10", *corpus]}[command]
        return [*argv, "--out", str(out)], f"error: config: {out}: "
    return case


def _doc_outside_ruk_domain(domain: str) -> bytes:
    """The toy corpus with its first knowledge turn's document moved to ``domain``."""
    first, *rest = TOY_CORPUS_PATH.read_text("utf-8").splitlines()
    dialog = json.loads(first)
    dialog["turns"][2]["doc"] = {"domain": domain, "entity_id": "pizza hut", "doc_id": "d1"}
    return "\n".join([json.dumps(dialog), *rest, ""]).encode()


def _blank_hotel_offer() -> bytes:
    """The packaged templates with the hotel offer text (line 5) made two spaces."""
    rows = PACKAGED_TEMPLATES.read_bytes().splitlines(keepends=True)
    assert rows[4].startswith(b"hotel\toffer\t")
    rows[4] = b"hotel\toffer\t  \n"
    return b"".join(rows)


def _db_with_ruk_slot() -> bytes:
    """The toy db with a restaurant slot 'ruk', set on the first restaurant."""
    db = json.loads(DB_PATH.read_text("utf-8"))
    db["restaurant"]["slots"].append("ruk")
    db["restaurant"]["entities"][0]["attributes"]["ruk"] = "abc"
    return json.dumps(db).encode()


def _db_with_string_bookable() -> bytes:
    """The toy db with the first restaurant's 'bookable' the string "yes"."""
    db = json.loads(DB_PATH.read_text("utf-8"))
    db["restaurant"]["entities"][0]["bookable"] = "yes"
    return json.dumps(db).encode()


def _json_edit(source: Path, mutate) -> bytes:
    """The JSON file at ``source`` after ``mutate``, written with ASCII escapes."""
    value = json.loads(source.read_text("utf-8"))
    mutate(value)
    return json.dumps(value).encode()


def _sidecar_json(**fields) -> bytes:
    """The golden sidecar with ``fields`` set, and any field set to None left out."""
    sidecar = json.loads(Path(sidecar_path(str(GOLDEN_INDEX_PATH))).read_text("utf-8"))
    sidecar.update(fields)
    return json.dumps({k: v for k, v in sidecar.items() if v is not None}).encode()


def _corpus_with_escape(escape: str) -> bytes:
    """The toy corpus with ``escape`` in the second dialog's first user turn."""
    first, second, *rest = TOY_CORPUS_PATH.read_text("utf-8").splitlines()
    second = second.replace('"user": "', f'"user": "{escape}', 1)
    return "\n".join([first, second, *rest, ""]).encode()


def _corpus_with_integer(digits: int) -> bytes:
    """The toy corpus with an integer of ``digits`` nines as the second dialog's first key."""
    first, second, *rest = TOY_CORPUS_PATH.read_text("utf-8").splitlines()
    return "\n".join([first, '{"n": ' + "9" * digits + ", " + second[1:], *rest, ""]).encode()


def _nested_lone_surrogate(depth: int) -> bytes:
    """A goals file whose one dialog's goal is a lone surrogate escape in ``depth`` arrays."""
    return b'{"dlg0000": ' + b"[" * depth + b'"\\ud800"' + b"]" * depth + b"}"


LONE_SURROGATE = "is not valid Unicode text"
NOT_UTF8 = b"\xff\xfe"
# each case builds (argv, expected prefix of stderr, which is one line)
BAD_FILES = {
    **{f"{target}-not-utf8": _bad_input(target, NOT_UTF8)
       for target in ("db", "docs", "corpus", "goals", "index", "templates")},
    "db-slot-ruk": _bad_input(
        "db", _db_with_ruk_slot(),
        " domain 'restaurant': slot 'ruk' is reserved for the belief-state extension"),
    "db-bookable-not-bool": _bad_input(
        "db", _db_with_string_bookable(),
        " domain 'restaurant': entity 'pizza hut' 'bookable' must be a boolean"),
    "index-missing": _bad_input("index", None),
    "templates-missing": _bad_input("templates", None),
    "templates-row-not-3-fields": _bad_input("templates", b"general\tnomatch\n"),
    "templates-duplicate-row": _bad_input(
        "templates", PACKAGED_TEMPLATES.read_bytes() + b"hotel\toffer\tdup\n",
        "17: duplicate 'offer' template for domain 'hotel'"),
    "templates-empty-text": _bad_input(
        "templates", _blank_hotel_offer(), "5: empty template text"),
    "index-duplicate-row": _bad_input(
        "index", GOLDEN_INDEX_PATH.read_bytes() + b"hotel\tacorn guest house\th1\tzzz\n",
        "10: duplicate row ('hotel', 'acorn guest house', 'h1')"),
    # str.splitlines breaks at \u2028 and \x85, so the row key is quoted as a repr
    "index-entity-with-a-line-separator": _bad_input(
        "index", _index_entity_edit("\u2028x"), "1: row ('hotel', 'acorn guest "
        "house\\u2028x', 'h1') names no entity of the knowledge base\n"),
    "index-entity-with-a-next-line": _bad_input(
        "index", _index_entity_edit("\x85x"), "1: row ('hotel', 'acorn guest "
        "house\\x85x', 'h1') names no entity of the knowledge base\n"),
    "goals-for-no-dialog": _bad_input(
        "goals", b'{"nope": {"restaurant": {"constraints": {"food": "italian"}}}}',
        " goal for dialog 'nope' names no dialog of the corpus"),
    "corpus-doc-outside-ruk-domain": _bad_input(
        "corpus", _doc_outside_ruk_domain("restaurant"),
        "1: dialog 'dlg0000' turn 2: document annotation in domain 'restaurant' but the ruk "
        "triple is in domain 'hotel'"),
    "db-lone-surrogate": _bad_input(
        "db", _json_edit(DB_PATH, lambda db: db["restaurant"]["entities"][0]["attributes"]
                         .update(food="\ud800")),
        f" the lone surrogate escape \\ud800 {LONE_SURROGATE}"),
    "docs-lone-surrogate": _bad_input(
        "docs", _json_edit(DOCS_PATH, lambda docs: docs[0].update(body="\udc80")),
        f" the lone surrogate escape \\udc80 {LONE_SURROGATE}"),
    "corpus-lone-surrogate": _bad_input(
        "corpus", _corpus_with_escape("\\uDFFF"),
        f"2: the lone surrogate escape \\udfff {LONE_SURROGATE}"),
    "goals-key-lone-surrogate": _bad_input(
        "goals", b'{"dlg0000": {"hotel\\ud83d": {}}}',
        f" the lone surrogate escape \\ud83d {LONE_SURROGATE}"),
    "goals-nested-lone-surrogate": _bad_input(
        "goals", _nested_lone_surrogate(500),
        f" the lone surrogate escape \\ud800 {LONE_SURROGATE}"),
    "db-nested-too-deep": _refused("db", b"[" * 200_000, "JSON nested too deeply"),
    "corpus-integer-too-long": _bad_input(
        "corpus", _corpus_with_integer(5000), "2: integer too long: "),
    "sidecar-lone-surrogate": _bad_input(
        "sidecar", b'{"thresholds": {"\\udbff": 1.0}}',
        f" the lone surrogate escape \\udbff {LONE_SURROGATE}"),
    "sidecar-broken-json": _bad_input("sidecar", b"{"),
    "sidecar-array": _refused("sidecar", b"[]", "sidecar must be a JSON object"),
    "sidecar-threshold-not-number": _refused(
        "sidecar", b'{"thresholds": {"hotel": "x"}}',
        "'thresholds' must map domain names to finite numbers"),
    "sidecar-digest-not-string": _refused(
        "sidecar", b'{"thresholds": {}, "stopwords_sha256": 7}',
        "'stopwords_sha256' must be a string"),
    "db-not-object": _refused("db", b"[]", "db file must be a JSON object keyed by domain"),
    "db-empty-domain-name": _refused(
        "db", _json_edit(DB_PATH, lambda db: db.update({" ": {}})), "empty domain name"),
    "db-duplicate-domain": _refused(
        "db", _json_edit(DB_PATH, lambda db: db.update({" Hotel ": {}})),
        "duplicate domain 'hotel'"),
    "db-domain-not-object": _refused(
        "db", _json_edit(DB_PATH, lambda db: db.update(attraction=[])),
        "domain 'attraction' must be an object"),
    "db-slots-not-strings": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["hotel"].update(slots=["area", 7])),
        "domain 'hotel': 'slots' must be an array of strings"),
    "db-entities-not-array": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["train"].update(entities={})),
        "domain 'train': 'entities' must be an array"),
    "db-entity-not-object": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["taxi"]["entities"].insert(0, "cab")),
        "domain 'taxi': entity #0 must be an object"),
    "db-entity-blank-id": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["hotel"]["entities"][1].update(id=" ")),
        "domain 'hotel': entity #1 missing 'id'"),
    "db-entity-without-name": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["restaurant"]["entities"][2].pop("name")),
        "domain 'restaurant': entity #2 missing 'name'"),
    "db-duplicate-attribute": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["restaurant"]["entities"][0]["attributes"]
                         .update(AREA="north")),
        "domain 'restaurant': entity 'pizza hut': duplicate attribute 'area'"),
    "db-attribute-not-string": _refused(
        "db", _json_edit(DB_PATH, lambda db: db["restaurant"]["entities"][0]["attributes"]
                         .update(stars=4)),
        "domain 'restaurant': entity 'pizza hut' attributes must map strings to strings"),
    "docs-not-array": _refused("docs", b"{}", "doc-base file must be a JSON array"),
    "docs-record-not-object": _refused(
        "docs", _json_edit(DOCS_PATH, lambda docs: docs.insert(1, 7)),
        "document #1 must be an object"),
    "docs-record-without-title": _refused(
        "docs", _json_edit(DOCS_PATH, lambda docs: docs[3].pop("title")),
        "document #3 missing 'title'"),
    **{f"sidecar-threshold-{value.decode()}": _bad_input(
        "sidecar", b'{"thresholds": {"hotel": %s}}' % value,
        " 'thresholds' must map domain names to finite numbers")
       for value in (b"NaN", b"Infinity", b"-Infinity")},
    **{f"{command}-out-in-missing-dir": _bad_output(command)
       for command in ("build-index", "run", "eval", "corrupt")},
}


def _pizza_hut_edit(**fields) -> bytes:
    """The toy db with the first restaurant's id holding a line separator, its attributes
    updated from ``fields["attributes"]`` and its other fields set from the rest of
    ``fields``."""
    def mutate(db):
        ent = db["restaurant"]["entities"][0]
        ent["id"] = "pizza\u2028hut"
        ent["attributes"].update(fields.pop("attributes", {}))
        ent.update(fields)
    return _json_edit(DB_PATH, mutate)


def _threshold(flag: str):
    """`build-index` over the toy KB with one ``--threshold`` flag."""
    return lambda files, tmp_path: (
        ["build-index", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
         "--out", str(tmp_path / "index.tsv"), "--threshold", flag], "error: config: ")


def _corrupt_span_with_a_line_separator(files, tmp_path):
    """`corrupt` over four dialogs whose only span holds U+2028, which separates tokens
    in the span grammar: seed 0 draws the value swap, and the span's one slot has no
    alternative value."""
    corpus = tmp_path / "taxi.jsonl"
    corpus.write_text("".join(json.dumps({"dialog_id": f"dlg{i}", "goal": {}, "turns": [
        {"user": f"a taxi please {i}", "response": f"booked {i}",
         "belief_span": "taxi {\u2028type = car }"}]}) + "\n" for i in range(4)), "utf-8")
    return (["corrupt", "--seed", "0", "--corpus", str(corpus),
             "--out", str(tmp_path / "c.jsonl")], "error: corruption: ")


# str.splitlines breaks at \n and \u2028: each raw outside value is quoted as a repr
LINE_BREAK_VALUES = {
    "corrupt-span": (_corrupt_span_with_a_line_separator,
                     "no slot of belief span 'taxi {\\u2028type = car }' has an alternative "
                     "value"),
    "goal-domain-not-object": (_bad_input(
        "goals", b'{"dlg0000": {"ho\\u2028tel": []}}', " dialog 'dlg0000': "),
        "goal domain 'ho\\u2028tel' is not an object"),
    "goal-domain-not-strings": (_bad_input(
        "goals", b'{"dlg0000": {"ho\\u2028tel": {"constraints": []}}}', " dialog 'dlg0000': "),
        "goal domain 'ho\\u2028tel' needs an object of string 'constraints' and an array "
        "of string 'requestables'"),
    "goal-constraint-empty": (_bad_input(
        "goals", b'{"dlg0000": {"hotel": {"constraints": {"\\u2028": "x"}}}}',
        " dialog 'dlg0000': "), "goal domain 'hotel': constraint '\\u2028' is empty"),
    "goal-for-no-dialog": (_bad_input("goals", b'{"dlg\\u2028": {}}', " "),
                           "goal for dialog 'dlg\\u2028' names no dialog of the corpus"),
    "db-attributes-not-strings": (
        _bad_input("db", _pizza_hut_edit(attributes={"stars": 4}), " domain 'restaurant': "),
        "entity 'pizza\\u2028hut' attributes must map strings to strings"),
    "db-attribute-empty": (
        _bad_input("db", _pizza_hut_edit(attributes={"\u2028": "x"}), " domain 'restaurant': "),
        "entity 'pizza\\u2028hut' attribute '\\u2028' is empty"),
    "db-bookable-not-bool": (
        _bad_input("db", _pizza_hut_edit(bookable="yes"), " domain 'restaurant': "),
        "entity 'pizza\\u2028hut' 'bookable' must be a boolean"),
    "db-duplicate-attribute": (
        _bad_input("db", _pizza_hut_edit(attributes={"AREA": "north"}), " domain 'restaurant': "),
        "entity 'pizza\\u2028hut': duplicate attribute 'area'"),
    "threshold-without-equals": (_threshold("hotel\n"),
                                 "--threshold expects domain=value, got 'hotel\\n'"),
    "threshold-domain": (_threshold("ho\ntel=1"),
                         "--threshold domain 'ho\\ntel' has no documents in the knowledge base"),
    "threshold-not-a-number": (_threshold("hotel=x\n1"),
                               "--threshold value 'x\\n1' is not a number"),
    "threshold-not-finite": (_threshold("hotel=nan\n"), "--threshold value 'nan\\n' is not finite"),
    "sidecar-digest": (
        _bad_input("sidecar", _sidecar_json(stopwords_sha256="a\u2028b"), " ", kind="config"),
        "index was built with stopwords sha256 'a\\u2028b', but the list in effect has "
        f"{stopwords_digest()}"),
}


@pytest.mark.parametrize("case", list(LINE_BREAK_VALUES))
def test_outside_value_with_a_line_break_is_one_error_line(tmp_path, capsys, eval_files, case):
    build, detail = LINE_BREAK_VALUES[case]
    argv, prefix = build(eval_files, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [prefix + detail]


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_file_is_one_error_line(tmp_path, capsys, eval_files, case):
    argv, prefix = BAD_FILES[case](eval_files, tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert err.startswith(prefix)


@pytest.mark.parametrize("command", ["stats", "corrupt"])
def test_annotation_domain_with_a_line_break_is_one_error_line(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_doc_outside_ruk_domain("a\nb"))
    out = ["--out", str(tmp_path / "c.jsonl")] if command == "corrupt" else []
    assert main([command, "--corpus", str(corpus), *out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: load: {corpus}:1: dialog 'dlg0000' turn 2: document annotation in domain "
        "'a\\nb' but the ruk triple is in domain 'hotel'"]


def test_json_nested_near_the_recursion_limit_is_one_error_line(capsys, eval_files):
    # json.loads or the lone-surrogate check, whichever meets the depth, refuses it
    limit = sys.getrecursionlimit()
    for depth in range(limit - 120, limit + 8, 4):
        eval_files["goals"].write_bytes(_nested_lone_surrogate(depth))
        assert main(eval_argv(eval_files)) == 1, depth
        err = capsys.readouterr().err
        assert err.startswith(f"error: load: {eval_files['goals']}: ") and err.count("\n") == 1, \
            (depth, err[-200:])


def test_escaped_surrogate_pair_loads(capsys, eval_files):
    # a valid pair decodes to one code point; ensure_ascii writes the emoji as one
    eval_files["docs"].write_bytes(_json_edit(
        DOCS_PATH, lambda docs: docs[0].update(body=docs[0]["body"] + " \U0001F600")))
    eval_files["corpus"].write_bytes(_corpus_with_escape("\\ud83d\\ude00 "))
    assert b"\\ud83d\\ude00" in eval_files["docs"].read_bytes()
    assert main(eval_argv(eval_files)) == 0
    assert "Joint Goal" in capsys.readouterr().out


UNKNOWN_ENTITY = "restaurant\tpizza palace\td1\tpizza"
UNKNOWN_DOCUMENT = "restaurant\tpizza hut\td9\tpizza,menu"


@pytest.mark.parametrize("row, detail", [
    (UNKNOWN_ENTITY,
     "row ('restaurant', 'pizza palace', 'd1') names no entity of the knowledge base"),
    (UNKNOWN_DOCUMENT, "row ('restaurant', 'pizza hut', 'd9') names no document of that entity"),
], ids=["entity-with-docs", "document-with-docs"])
def test_index_rows_are_checked_against_kb(tmp_path, capsys, row, detail):
    index = tmp_path / "index.tsv"
    index.write_text(GOLDEN_INDEX_PATH.read_text("utf-8") + row + "\n", encoding="utf-8")
    shutil.copyfile(sidecar_path(str(GOLDEN_INDEX_PATH)), sidecar_path(str(index)))
    code = main(["retrieve", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index), "--belief", "restaurant { ruk = pizza hut } || pizza menu"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: load: {index}:10: {detail}"]


NO_H1 = "row ('hotel', 'acorn guest house', 'h1') names no document of that entity"
# (file replaced, its content or None to delete it, kind, the detail after the file name)
INDEX_INPUTS = {
    "sidecar-missing": ("sidecar", None, "load", "No such file or directory"),
    "sidecar-without-thresholds": ("sidecar", _sidecar_json(thresholds=None), "load",
                                   "'thresholds' must map domain names to finite numbers"),
    "sidecar-without-digest": ("sidecar", _sidecar_json(stopwords_sha256=None), "load",
                               "'stopwords_sha256' must be a string"),
    "sidecar-empty-digest": ("sidecar", _sidecar_json(stopwords_sha256=""), "config",
                             "index was built with stopwords sha256 '', but the list in "
                             f"effect has {stopwords_digest()}"),
    "docs-without-a-row-document": (
        "docs", _json_edit(DOCS_PATH, lambda docs: docs.remove(
            next(doc for doc in docs if doc["doc_id"] == "h1"))), "load", NO_H1),
    "docs-empty": ("docs", b"[]", "load", NO_H1),
}


@pytest.mark.parametrize("case", list(INDEX_INPUTS))
@pytest.mark.parametrize("command", ["retrieve", "run", "eval", "chat"])
def test_index_is_read_only_with_its_sidecar_and_documents(
        tmp_path, capsys, monkeypatch, eval_files, no_turn, command, case):
    target, content, kind, detail = INDEX_INPUTS[case]
    if content is None:
        eval_files[target].unlink()
    else:
        eval_files[target].write_bytes(content)
    monkeypatch.setattr("sys.stdin", io.StringIO("a hotel in the north\n"))
    files = ["--kb", str(eval_files["db"]), "--docs", str(eval_files["docs"]),
             "--index", str(eval_files["index"])]
    argv = {"retrieve": ["retrieve", *files, "--belief", "hotel { ruk = acorn } || parking"],
            "run": ["run", *files, "--corpus", str(eval_files["corpus"])],
            "eval": eval_argv(eval_files),
            "chat": ["chat", *files]}[command]
    where = f"{eval_files['index']}:1" if target == "docs" else eval_files["sidecar"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {kind}: {where}: {detail}"]


@pytest.mark.parametrize("argv", [
    ["retrieve", "--kb", str(DB_PATH), "--index", str(GOLDEN_INDEX_PATH),
     "--belief", "restaurant { ruk = pizza hut } || favorite"],
    ["query", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH), "--belief", ""],
], ids=["retrieve-without-docs", "query-with-docs"])
def test_docs_option_is_usage_error_where_it_is_not_optional(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_stats_prints_json(capsys):
    code = main(["stats", "--corpus", str(TOY_CORPUS_PATH)])
    assert code == 0
    assert capsys.readouterr().out == (
        '{\n  "dialogs": 6,\n  "doc_turn_fraction": 0.3333,\n  "mean_turns": 3.0,\n'
        '  "slot_types": 7,\n  "slot_values": 10,\n  "turns": 18\n}\n')


def test_chat_reads_stdin(tmp_path, capsys, monkeypatch):
    index = build_index(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("looking for italian food in the center\n"))
    code = main(["chat", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index)])
    assert code == 0
    captured = capsys.readouterr()
    assert "i found 2 options ." in captured.out
    assert "restaurant 2 match" in captured.err


def test_chat_reads_an_undecodable_stdin_byte(capsys, monkeypatch):
    # a surrogateescape stdin passes b"\xff" on as the lone surrogate "\udcff"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"i want a hotel \xff in the north\n"), encoding="utf-8",
        errors="surrogateescape"))
    code = main(["chat", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH)])
    assert code == 0
    assert capsys.readouterr().out == "i found 1 options . golden wok is a nice choice .\n"


def test_chat_reads_an_undecodable_stdin_byte_from_a_strict_stdin(capsys, monkeypatch):
    # outside the C and POSIX locales stdin decodes strictly, and b"\xff" would raise
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"i want a hotel \xff in the north\n"), encoding="utf-8", errors="strict"))
    code = main(["chat", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH)])
    assert code == 0
    assert capsys.readouterr().out == "i found 1 options . golden wok is a nice choice .\n"


def test_stopword_override_env(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "stops.txt"
    custom.write_text("the\nand\n", encoding="utf-8")
    monkeypatch.setenv("SEKNOW_STOPWORDS", str(custom))
    code = main(["stats", "--corpus", str(TOY_CORPUS_PATH)])
    assert code == 0
    assert "stopwords:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "build-index"])
@pytest.mark.parametrize("content", [None, b"the\n\xff\xfe\n"], ids=["missing", "not-utf8"])
def test_bad_stopword_file_is_config_error(tmp_path, capsys, monkeypatch, command, content):
    stops = tmp_path / "stops.txt"
    if content is not None:
        stops.write_bytes(content)
    monkeypatch.setenv("SEKNOW_STOPWORDS", str(stops))
    argv = {"stats": ["stats", "--corpus", str(TOY_CORPUS_PATH)],
            "build-index": ["build-index", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                            "--out", str(tmp_path / "index.tsv")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config: SEKNOW_STOPWORDS: {stops}: ")


# A path is written as given when every character of it prints, else as its repr.
@pytest.mark.parametrize("path, shown", [
    ("a\nb", "'a\\nb'"), ("a\x85b", "'a\\x85b'"), ("a\u2028b", "'a\\u2028b'"),
    ("a\udcffb", "'a\\udcffb'"), ("a b", "a b"), ("it's", "it's"),
], ids=["newline", "nel", "line-separator", "undecodable-byte", "space", "quote"])
def test_path_that_does_not_print_heads_the_error_line_as_its_repr(
        tmp_path, capsys, monkeypatch, path, shown):
    monkeypatch.chdir(tmp_path)
    assert main(["stats", "--corpus", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: load: {shown}: No such file or directory"]
    out = tmp_path / "missing" / path
    assert main(["corrupt", "--corpus", str(TOY_CORPUS_PATH), "--out", str(out)]) == 1
    shown_out = str(out) if str(out).isprintable() else repr(str(out))
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {shown_out}: No such file or directory"]
    monkeypatch.setenv("SEKNOW_STOPWORDS", path)
    assert main(["stats", "--corpus", str(TOY_CORPUS_PATH)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: SEKNOW_STOPWORDS: {shown}: No such file or directory"]


def test_stopword_path_that_does_not_print_is_its_repr_in_notice_and_digest_error(
        tmp_path, capsys, monkeypatch):
    stops = tmp_path / "stops\nlist.txt"
    stops.write_text("the\nand\n", encoding="utf-8")
    monkeypatch.setenv("SEKNOW_STOPWORDS", str(stops))
    assert main(["stats", "--corpus", str(TOY_CORPUS_PATH)]) == 0
    notice = f"stopwords: {str(stops)!r} (sha256 {stopwords_digest()[:12]})"
    assert capsys.readouterr().err.splitlines() == [notice]
    index = tmp_path / "index\n.tsv"
    shutil.copyfile(GOLDEN_INDEX_PATH, index)
    shutil.copyfile(sidecar_path(str(GOLDEN_INDEX_PATH)), sidecar_path(str(index)))
    assert main(["retrieve", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(index), "--belief", "restaurant { ruk = pizza hut } || menu"]) == 1
    notice_line, error_line = capsys.readouterr().err.splitlines()
    assert notice_line == notice
    assert error_line.startswith(
        f"error: config: {sidecar_path(str(index))!r}: index was built with stopwords sha256 ")


def test_eval_out_input_gone_before_it_is_hashed_is_a_load_error(
        tmp_path, capsys, monkeypatch, eval_files):
    evaluate_corpus = metrics.evaluate_corpus

    def delete_docs_then_evaluate(*args, **kwargs):
        eval_files["docs"].unlink()  # loaded already; eval --out hashes it after the eval
        return evaluate_corpus(*args, **kwargs)
    monkeypatch.setattr(metrics, "evaluate_corpus", delete_docs_then_evaluate)
    out = tmp_path / "r.json"
    assert main([*eval_argv(eval_files), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: load: {eval_files['docs']}: No such file or directory"]
    assert not out.exists()


def test_eval_refuses_index_of_other_stopword_list(tmp_path, capsys, env_stopwords):
    code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--predictor", "heuristic", "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: config: ")
    assert not (tmp_path / "report.json").exists()


def test_eval_refuses_annotation_outside_index(tmp_path, capsys, no_turn):
    corpus = tmp_path / "corpus.jsonl"
    text = TOY_CORPUS_PATH.read_text("utf-8")
    corpus.write_text(text.replace('"doc_id": "d1"', '"doc_id": "d99"', 1), encoding="utf-8")
    code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(corpus)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: load: {corpus}:4: dialog 'dlg0003' turn 2: annotated document "
        "('restaurant', 'pizza hut', 'd99') is not in the index"]


@pytest.mark.parametrize("command", ["run", "eval"])
def test_templates_missing_a_needed_row_are_refused_before_any_turn(
        tmp_path, capsys, eval_files, command):
    templates = eval_files["templates"]
    rows = templates.read_text("utf-8").splitlines(keepends=True)
    templates.write_text("".join(r for r in rows if not r.startswith("hotel\tdoc\t")),
                         encoding="utf-8")
    out = tmp_path / "out"
    argv = eval_argv(eval_files) if command == "eval" else [
        "run", "--kb", str(eval_files["db"]), "--docs", str(eval_files["docs"]),
        "--index", str(eval_files["index"]), "--corpus", str(eval_files["corpus"]),
        "--templates", str(templates)]
    assert main([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [f"error: load: {templates}: no 'doc' template for domain 'hotel'"]
    assert not out.exists()


def _quick_tour() -> list[tuple[str, list[str]]]:
    """Each command of README's quick tour, its ``\\`` continuations joined, with the
    ``# ->`` lines that follow it."""
    readme = (DATA_DIR.parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## Quick tour", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    tour: list[tuple[str, list[str]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("seknow "):
            tour.append((line, []))
        elif line.startswith("# -> "):
            tour[-1][1].append(line.removeprefix("# -> ").removesuffix(" ..."))
    return tour


def test_readme_quick_tour_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR.parent.parent)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))  # chat reads no message
    tour = _quick_tour()
    assert [command.split()[1] for command, _ in tour] == [
        "build-index", "query", "retrieve", "run", "eval", "corrupt", "stats", "chat"]
    assert sum(len(expected) for _, expected in tour) == 2
    for command, expected in tour:
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"))[1:]
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        for line in expected:
            assert out.startswith(line), (command, out)
