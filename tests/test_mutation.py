"""Seeded mutation test: no corruption of an input file makes `eval` end in a traceback.

Each file `eval` reads is corrupted in a fixed set of ways at positions drawn
from ``random.Random(0)``. Every mutant must exit 0, or exit 1 with a last
stderr line ``error: <kind>: <detail>``.
"""

import random

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
