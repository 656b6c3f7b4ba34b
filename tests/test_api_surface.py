"""Every public definition in ``src/seknow`` has a caller outside the tests.

The supported interface is the CLI plus what ``src/seknow`` and
``benchmarks/`` themselves use. A public module-level function or class, or a
public method or property, is *used* when its name occurs as a whole word in
``src/seknow`` or ``benchmarks/`` outside its own definition and outside every
definition already found unused: a helper only a dead API calls is dead too.
The package ``__init__`` is not searched, because a re-export is not a caller;
string occurrences count, since the benchmark tracer patches names by string.
Dataclass fields are not checked: a text search cannot tell the constructor
keyword that writes a field from an attribute access that reads it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seknow"


def _definitions(path: Path) -> list[tuple[str, str, int, int]]:
    """(name, qualified name, first line, last line) of each public definition in ``path``."""
    found = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(m, f"{node.name}.{m.name}") for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return [(n.name, f"{path.stem}.{qual}", n.lineno, n.end_lineno)
            for n, qual in found if not n.name.startswith("_")]


def unused_names(search_benchmarks: bool = True) -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    lines = {p: p.read_text("utf-8").splitlines() for p in sources}
    for p in sorted((ROOT / "benchmarks").glob("*.py")) if search_benchmarks else ():
        lines[p] = p.read_text("utf-8").splitlines()
    defs = [(name, qual, path, lo, hi)
            for path in sources for name, qual, lo, hi in _definitions(path)]
    dead: set[int] = set()
    changed = True
    while changed:
        changed = False
        for k, (name, _, path, lo, hi) in enumerate(defs):
            if k in dead:
                continue
            excluded = [(p, a, b) for j, (_, _, p, a, b) in enumerate(defs) if j in dead]
            excluded.append((path, lo, hi))
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text)
                       for p, rows in lines.items()
                       for i, text in enumerate(rows, start=1)
                       if not any(p == q and a <= i <= b for q, a, b in excluded)):
                dead.add(k)
                changed = True
    return sorted(defs[k][1] for k in dead)


def test_every_public_definition_has_a_caller():
    assert unused_names() == []


# Public definitions whose only caller outside the tests is under benchmarks/.
# Whole-word matching counts a name that also spells a field or an attribute
# (``metrics.bleu``, ``MetricsReport.bleu``) as used inside the package.
BENCHMARK_ONLY = (
    "corpus.CorpusSpec",
    "corpus.generate_synthetic_corpus",
    "corpus.save_corpus",
    "knowops.fuzzy_similarity",
)


def test_benchmark_only_names_are_listed():
    only = set(unused_names(search_benchmarks=False)) - set(unused_names())
    assert sorted(only) == sorted(BENCHMARK_ONLY)
