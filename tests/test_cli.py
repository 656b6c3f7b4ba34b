import hashlib
import json
from importlib import resources

import pytest

from seknow import metrics
from seknow.cli import main
from seknow.errors import QueryError

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


@pytest.mark.parametrize("doc_id", ["   ", "d\t1"])
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


@pytest.mark.parametrize("command", ["query", "retrieve"])
def test_belief_that_is_not_utf8_is_a_parse_error(capsys, command):
    # an undecodable argv byte (b"\xff") reaches Python as the lone surrogate "\udcff"
    argv = [command, "--kb", str(DB_PATH), "--belief", "restaurant { area = \udcff }"]
    if command == "retrieve":
        argv += ["--index", str(GOLDEN_INDEX_PATH)]
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


def test_unknown_domain_is_domain_error(capsys):
    code = main(["query", "--kb", str(DB_PATH), "--belief", "moon { area = dark }"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: domain-not-found: ")


def test_retrieve_ranks_documents(tmp_path, capsys):
    index = build_index(tmp_path)
    capsys.readouterr()
    code = main(["retrieve", "--kb", str(DB_PATH), "--index", str(index),
                 "--belief", "restaurant { ruk = pizza hut } || favorite"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1\t1.0000\trestaurant\tpizza hut\td1"
    assert lines[1].startswith("2\t")


def test_retrieve_needs_ruk_and_topic(capsys):
    code = main(["retrieve", "--kb", str(DB_PATH), "--index", str(GOLDEN_INDEX_PATH),
                 "--belief", "restaurant { ruk = pizza hut }"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: config: the belief span needs a ruk triple and a '||' topic segment"]
    assert captured.out == ""


def test_retrieve_without_matched_entity(capsys):
    code = main(["retrieve", "--kb", str(DB_PATH), "--index", str(GOLDEN_INDEX_PATH),
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


@pytest.mark.parametrize("dialog_id", ["dlg\t0", "", "  ", "dlg\n0", "dlg\r0"],
                         ids=["tab", "empty", "blank", "line-break", "carriage-return"])
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
    assert err == ["error: evaluation: dialog 'dlg0002': injected fault"]
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
        code = main(["--seed", "10", "corrupt", "--corpus", str(TOY_CORPUS_PATH),
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 18
    assert sum(1 for r in records if r["y_c"] == 0) == 9
    out3 = tmp_path / "c3.jsonl"
    code = main(["--seed", "12", "corrupt", "--corpus", str(TOY_CORPUS_PATH),
                 "--out", str(out3)])
    assert code == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_corrupt_single_valued_slot_errors(tmp_path, capsys):
    # seed 0 assigns a value corruption to a taxi turn; its only ontology
    # value has no alternative, which must surface as a corruption error
    code = main(["--seed", "0", "corrupt", "--corpus", str(TOY_CORPUS_PATH),
                 "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: corruption: ")


def test_eval_workers_byte_identical(tmp_path, capsys):
    index = build_index(tmp_path)
    r1, r8 = tmp_path / "r1.json", tmp_path / "r8.json"
    for workers, out in ((1, r1), (8, r8)):
        code = main(["--seed", "7", "eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                     "--index", str(index), "--corpus", str(TOY_CORPUS_PATH),
                     "--predictor", "heuristic", "--workers", str(workers),
                     "--out", str(out)])
        assert code == 0
    assert r1.read_bytes() == r8.read_bytes()
    payload = json.loads(r1.read_text())
    assert "metrics" in payload

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    assert payload["metadata"] == {
        "corpus_sha256": sha256(TOY_CORPUS_PATH),
        "index_sha256": sha256(index),
        "kb_sha256": sha256(DB_PATH),
        "stopwords_sha256": sha256(PACKAGED_STOPWORDS),
        "predictor": "heuristic",
        "seed": 7,
    }
    table = capsys.readouterr().out
    assert "Joint Goal" in table and "Combined" in table


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


def _bad_input(target, content, detail=""):
    """Replace one `eval` input with ``content``, or delete it when ``content`` is None;
    the error line names that file, followed by ``detail``."""
    def case(files, tmp_path):
        if content is None:
            files[target].unlink()
        else:
            files[target].write_bytes(content)
        return eval_argv(files), f"error: load: {files[target]}:{detail}"
    return case


def _bad_output(command):
    """Point one subcommand's --out into a directory that does not exist."""
    def case(files, tmp_path):
        out = tmp_path / "missing" / "out"
        kb = ["--kb", str(DB_PATH), "--docs", str(DOCS_PATH)]
        corpus = ["--corpus", str(TOY_CORPUS_PATH)]
        argv = {"build-index": ["build-index", *kb, *TOY_THRESHOLD_FLAGS],
                "run": ["run", *kb, "--index", str(GOLDEN_INDEX_PATH), *corpus],
                "eval": eval_argv(files),
                "corrupt": ["--seed", "10", "corrupt", *corpus]}[command]
        return [*argv, "--out", str(out)], f"error: config: {out}: "
    return case


NOT_UTF8 = b"\xff\xfe"
# each case builds (argv, expected prefix of the one stderr line)
BAD_FILES = {
    **{f"{target}-not-utf8": _bad_input(target, NOT_UTF8)
       for target in ("db", "docs", "corpus", "goals", "index", "templates")},
    "index-missing": _bad_input("index", None),
    "templates-missing": _bad_input("templates", None),
    "templates-row-not-3-fields": _bad_input("templates", b"general\tnomatch\n"),
    "templates-duplicate-row": _bad_input(
        "templates", PACKAGED_TEMPLATES.read_bytes() + b"hotel\toffer\tdup\n",
        "17: duplicate 'offer' template for domain 'hotel'"),
    "index-duplicate-row": _bad_input(
        "index", GOLDEN_INDEX_PATH.read_bytes() + b"hotel\tacorn guest house\th1\tzzz\n",
        "10: duplicate row (hotel, acorn guest house, h1)"),
    "goals-for-no-dialog": _bad_input(
        "goals", b'{"nope": {"restaurant": {"constraints": {"food": "italian"}}}}',
        " goal for dialog 'nope' names no dialog of the corpus"),
    "sidecar-broken-json": _bad_input("sidecar", b"{"),
    "sidecar-array": _bad_input("sidecar", b"[]"),
    "sidecar-threshold-not-number": _bad_input("sidecar", b'{"thresholds": {"hotel": "x"}}'),
    **{f"sidecar-threshold-{value.decode()}": _bad_input(
        "sidecar", b'{"thresholds": {"hotel": %s}}' % value,
        " 'thresholds' must map domain names to finite numbers")
       for value in (b"NaN", b"Infinity", b"-Infinity")},
    **{f"{command}-out-in-missing-dir": _bad_output(command)
       for command in ("build-index", "run", "eval", "corrupt")},
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_file_is_one_error_line(tmp_path, capsys, eval_files, case):
    argv, prefix = BAD_FILES[case](eval_files, tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)


UNKNOWN_ENTITY = "restaurant\tpizza palace\td1\tpizza"
UNKNOWN_DOCUMENT = "restaurant\tpizza hut\td9\tpizza,menu"


@pytest.mark.parametrize("row, docs, detail", [
    (UNKNOWN_ENTITY, True,
     "row (restaurant, pizza palace, d1) names no entity of the knowledge base"),
    (UNKNOWN_ENTITY, False,
     "row (restaurant, pizza palace, d1) names no entity of the knowledge base"),
    (UNKNOWN_DOCUMENT, True, "row (restaurant, pizza hut, d9) names no document of that entity"),
    (UNKNOWN_DOCUMENT, False, None),  # a KB without documents leaves doc ids unchecked
], ids=["entity-with-docs", "entity-without-docs", "document-with-docs",
        "document-without-docs"])
def test_index_rows_are_checked_against_kb(tmp_path, capsys, row, docs, detail):
    index = tmp_path / "index.tsv"
    index.write_text(GOLDEN_INDEX_PATH.read_text("utf-8") + row + "\n", encoding="utf-8")
    argv = ["retrieve", "--kb", str(DB_PATH), "--index", str(index),
            "--belief", "restaurant { ruk = pizza hut } || pizza menu"]
    if docs:
        argv += ["--docs", str(DOCS_PATH)]
    code = main(argv)
    out, err = capsys.readouterr()
    if detail is None:
        assert code == 0 and out.startswith("1\t")
    else:
        assert code == 1
        assert err.splitlines() == [f"error: load: {index}:10: {detail}"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_eval_rejects_workers_below_one(capsys, workers):
    code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(TOY_CORPUS_PATH),
                 "--workers", workers])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: config: workers must be at least 1, got {workers}")


def test_stats_prints_json(capsys):
    code = main(["stats", "--corpus", str(TOY_CORPUS_PATH)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dialogs"] == 6
    assert payload["mean_turns"] == 3.0
    assert payload["slot_types"] == 7


def test_chat_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
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
