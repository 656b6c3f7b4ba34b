import json

import pytest

from seknow.cli import main

from conftest import DB_PATH, DOCS_PATH, GOLDEN_INDEX_PATH, TOY_CORPUS_PATH, eval_argv

TOY_THRESHOLD_FLAGS = ["--threshold", "restaurant=1.0", "--threshold", "hotel=1.0"]


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
        code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                     "--index", str(index), "--corpus", str(TOY_CORPUS_PATH),
                     "--predictor", "heuristic", "--workers", str(workers),
                     "--out", str(out)])
        assert code == 0
    assert r1.read_bytes() == r8.read_bytes()
    payload = json.loads(r1.read_text())
    assert "metrics" in payload and "metadata" in payload
    for key in ("corpus_sha256", "index_sha256", "kb_sha256", "stopwords_sha256", "seed"):
        assert key in payload["metadata"]
    table = capsys.readouterr().out
    assert "Joint Goal" in table and "Combined" in table


def _drop_doc_key(key):
    def mutate(dialog):
        next(t for t in dialog["turns"] if "doc" in t)["doc"].pop(key)
        return dialog
    return mutate


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


def _bad_input(target, content):
    """Replace one `eval` input with ``content``, or delete it when ``content`` is None."""
    def case(files, tmp_path):
        if content is None:
            files[target].unlink()
        else:
            files[target].write_bytes(content)
        return eval_argv(files), f"error: load: {files[target]}:"
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
    "sidecar-broken-json": _bad_input("sidecar", b"{"),
    "sidecar-array": _bad_input("sidecar", b"[]"),
    "sidecar-threshold-not-number": _bad_input("sidecar", b'{"thresholds": {"hotel": "x"}}'),
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
        assert err.splitlines() == [f"error: load: {index}: {detail}"]


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


def test_eval_refuses_annotation_outside_index(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    text = TOY_CORPUS_PATH.read_text("utf-8")
    corpus.write_text(text.replace('"doc_id": "d1"', '"doc_id": "d99"', 1), encoding="utf-8")
    code = main(["eval", "--kb", str(DB_PATH), "--docs", str(DOCS_PATH),
                 "--index", str(GOLDEN_INDEX_PATH), "--corpus", str(corpus)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation: dialog 'dlg0003': turn ")
    assert "annotated document ('restaurant', 'pizza hut', 'd99') is not in the index" in err
