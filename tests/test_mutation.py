"""Mutation tests of the files `eval` and `run` read.

Seeded: each file `eval` reads is corrupted in a fixed set of ways at positions
drawn from ``random.Random(0)``. Every mutant must exit 0, or exit 1 with a last
stderr line ``error: <kind>: <detail>``.

Cross-file: one domain, slot, entity id or doc id is renamed in one file only,
so that file disagrees with the others. Every mutant must be refused before
any turn runs, with one ``error: load: <file>[:<line>]: ...`` line naming the
file the loaders read last among those that disagree.
"""

import random
import re

import pytest

from seknow.cli import main

from conftest import eval_argv

ROUNDS = 6
SWAPS = ((b'"', b"7"), (b"\t", b" "), (b",", b""), (b":", b"|"), (b"}", b"]"))


def mutants(data: bytes, rng: random.Random):
    """(description, mutated bytes) for each mutation of one round."""
    at = rng.randrange(len(data))
    yield f"truncate at byte {at}", data[:at]
    at = rng.randrange(len(data))
    yield f"byte {at} set to 0xff", data[:at] + b"\xff" + data[at + 1:]
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    yield f"line {k + 1} dropped", b"".join(lines[:k] + lines[k + 1:])
    at = rng.randrange(len(data) + 1)
    yield f"'{{' inserted at byte {at}", data[:at] + b"{" + data[at:]
    for old, new in SWAPS:
        spots = [i for i in range(len(data)) if data[i] == old[0]]
        if spots:
            at = rng.choice(spots)
            yield f"{old!r} -> {new!r} at byte {at}", data[:at] + new + data[at + 1:]


@pytest.mark.parametrize("target", ["db", "docs", "index", "sidecar", "corpus", "goals",
                                    "templates"])
def test_mutated_input_ends_in_error_line(eval_files, capsys, target):
    rng = random.Random(0)
    pristine = eval_files[target].read_bytes()
    for _ in range(ROUNDS):
        for mutation, data in mutants(pristine, rng):
            eval_files[target].write_bytes(data)
            try:
                code = main(eval_argv(eval_files))
            except Exception as exc:
                raise AssertionError(f"{target}, {mutation}: {type(exc).__name__}: {exc} "
                                     "escaped main") from exc
            err = capsys.readouterr().err.splitlines()
            assert code == 0 or (code == 1 and err and err[-1].startswith("error: ")), \
                f"{target}, {mutation}: exit {code}, stderr {err[-1:]}"


# name -> (file renamed in, old text, new text, file the error names)
RENAMES = {
    "db-domain": ("db", '"hotel"', '"lodge"', "docs"),
    "db-slot": ("db", '"stars"', '"rating"', "corpus"),
    "db-entity-id": ("db", '"id": "acorn guest house"', '"id": "acorn inn"', "index"),
    "docs-domain": ("docs", '"domain": "hotel"', '"domain": "lodge"', "docs"),
    "docs-entity-id": ("docs", '"entity_id": "acorn guest house"', '"entity_id": "acorn inn"',
                       "docs"),
    "docs-doc-id": ("docs", '"doc_id": "h1"', '"doc_id": "h9"', "index"),
    "index-domain": ("index", "hotel\t", "lodge\t", "index"),
    "index-entity-id": ("index", "\tacorn guest house\t", "\tacorn inn\t", "index"),
    "index-doc-id": ("index", "\th1\t", "\th9\t", "index"),
    "corpus-domain": ("corpus", "hotel", "lodge", "corpus"),
    "corpus-span-domain": ("corpus", '"belief_span": "hotel', '"belief_span": "lodge', "corpus"),
    "corpus-slot": ("corpus", "stars", "rating", "corpus"),
    "corpus-span-slot": ("corpus", "stars =", "rating =", "corpus"),
    "corpus-entity-id": ("corpus", '"entity_id": "acorn guest house"',
                         '"entity_id": "acorn inn"', "corpus"),
    "corpus-doc-id": ("corpus", '"doc_id": "h1"', '"doc_id": "h9"', "corpus"),
    "goals-domain": ("goals", '"hotel"', '"lodge"', "goals"),
    "goals-slot": ("goals", '"stars"', '"rating"', "goals"),
    "templates-domain": ("templates", "hotel\t", "lodge\t", "templates"),
}
LINE_FILES = ("index", "corpus")  # their errors name the line


@pytest.mark.parametrize("command, case", [
    (command, case) for command in ("eval", "run") for case in RENAMES
    if command == "eval" or RENAMES[case][0] != "goals"])  # `run` reads no goals
def test_cross_file_rename_is_refused_at_load(tmp_path, capsys, eval_files, no_turn,
                                              command, case):
    target, old, new, blamed = RENAMES[case]
    text = eval_files[target].read_text("utf-8")
    assert old in text
    eval_files[target].write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    argv = eval_argv(eval_files)
    if command == "run":  # the same files but the goals
        k = argv.index("--goals")
        argv = ["run", *argv[1:k], *argv[k + 2:]]
    assert main([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    line = r":\d+" if blamed in LINE_FILES else ""
    assert re.fullmatch(rf"error: load: {re.escape(str(eval_files[blamed]))}{line}: .+\n", err), \
        err
