"""The benchmark's seed-0 inputs at full size reproduce its recorded digests.

Builds the KB, index and eval corpus the benchmark builds for seed 0 (291
entities, 2,910 documents), through the benchmark's own functions, and
checks the index, its sidecar, the generated corpus and every eval report
over the first 100 dialogs (oracle and heuristic units) against
``benchmarks/digests.json``. Nothing under ``benchmarks/`` is written.
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


def test_seed_zero_full_size_outputs_match_recorded_digests(tmp_path):
    size = run.SIZES["full"]
    expected = json.loads((BENCH / "digests.json").read_text("utf-8"))["full"]["0"]
    files, db, docs, _ = run.write_inputs(0, size, str(tmp_path))
    workload.build_index(workload.load_kb(files), files["index"])
    run.write_eval_corpus(0, db, docs, files["index"], size["corpus_dialogs"], files["corpus"])
    kb, index, corpus = workload.eval_setup(files)
    workload.generate(kb, index, 0, size["gen_dialogs"], files["generated"])

    got = {**workload.index_digests(files["index"]),
           "generated": workload.sha256_file(files["generated"])}
    for predictor, n in size["unit_dialogs"].items():
        for k in range(DIALOGS // n):
            got[f"{predictor}/{k}"] = workload.eval_unit(
                kb, index, corpus, k, n, predictor, 1)["digests"]["report"]
    assert len(got) == 3 + DIALOGS // 10 + DIALOGS // 2
    assert got == {key: expected[key] for key in got}
