"""The benchmark's seed-0 inputs at full size reproduce its recorded digests.

Builds the KB, index and eval corpus the benchmark builds for seed 0 (291
entities, 2,910 documents), through the benchmark's own functions, and
checks the index, its sidecar, the generated corpus and every eval report
over the first 100 dialogs (oracle and heuristic units) against
``benchmarks/digests.json``; and that the loaded corpus holds each distinct
turn text once. Nothing under ``benchmarks/`` is written.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode  # no __pycache__ there

import run  # noqa: E402
import workload  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

DIALOGS = 100
# Distinct values of each turn field over the seed-0 corpus's 7,000 turns.
DISTINCT = {"user": 741, "response": 2394, "delex_response": 1875, "gold_belief_span": 5513}


def test_seed_zero_full_size_outputs_match_recorded_digests(tmp_path):
    size = run.SIZES["full"]
    expected = json.loads((BENCH / "digests.json").read_text("utf-8"))["full"]["0"]
    files, db, docs, _ = run.write_inputs(0, size, str(tmp_path))
    workload.build_index(workload.load_kb(files), files["index"])
    run.write_eval_corpus(0, db, docs, files["index"], size["corpus_dialogs"], files["corpus"])
    kb, index, corpus = workload.eval_setup(files)
    turns = [turn for dialog in corpus.dialogs for turn in dialog.turns]
    assert len(turns) == 7000
    for field, distinct in DISTINCT.items():  # equal strings are one object
        values = [getattr(turn, field) for turn in turns]
        assert (len(set(values)), len(set(map(id, values)))) == (distinct, distinct), field
    workload.generate(kb, index, 0, size["gen_dialogs"], files["generated"])

    got = {**workload.index_digests(files["index"]),
           "generated": workload.sha256_file(files["generated"])}
    for predictor, n in size["unit_dialogs"].items():
        for k in range(DIALOGS // n):
            got[f"{predictor}/{k}"] = workload.eval_unit(
                kb, index, corpus, k, n, predictor, 1)["digests"]["report"]
    assert len(got) == 3 + DIALOGS // 10 + DIALOGS // 2
    assert got == {key: expected[key] for key in got}
