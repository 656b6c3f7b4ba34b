"""Every public definition in ``src/seknow`` has a caller outside the tests.

The supported interface is the CLI plus what ``src/seknow`` and
``benchmarks/`` themselves use. A public definition is *used* where code in
``src/seknow`` or ``benchmarks/`` refers to it, outside its own definition and
outside every definition already found unused: a helper only a dead API calls
is dead too. A reference is a name that is read or imported, an attribute, or
a string equal to the name that is no key or index (the benchmark tracer
patches names by string). A
module-level function or class is referred to by its bare name or as an
attribute of its own module (``metrics.bleu``, ``metrics_mod.bleu``), never as
an attribute of anything else: ``report.bleu`` reads a field that only shares
its name. A method or property is referred to by any attribute of its name.
The package ``__init__`` is not searched, because a re-export is not a caller.
Dataclass fields are not checked: a search cannot tell the object a field
belongs to from the attribute access that reads it.
"""

import ast
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


def _references(path: Path) -> list[tuple[int, str]]:
    """(line, reference) of each possible reference in ``path``: ``name`` for a name
    read or imported or a string equal to it, ``module.name`` for an attribute of a
    package module (aliases resolved), ``.name`` for an attribute of anything else."""
    tree = ast.parse(path.read_text("utf-8"))
    modules = {p.stem: p.stem for p in PACKAGE.glob("*.py")}
    keys = set()
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            refs += [(node.lineno, a.name) for a in node.names]
            if node.module in (None, "seknow"):
                modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Subscript):
            keys.add(id(node.slice))
        elif isinstance(node, ast.Dict):
            keys.update(map(id, node.keys))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.lineno, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in keys:
            refs.append((node.lineno, node.value))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            refs.append((node.lineno, f"{modules.get(owner, '')}.{node.attr}"))
    return refs


def unused_names(search_benchmarks: bool = True) -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    searched = sources + (sorted((ROOT / "benchmarks").glob("*.py")) if search_benchmarks
                          else [])
    refs = {p: _references(p) for p in searched}
    defs = [(name, qual, path, lo, hi)
            for path in sources for name, qual, lo, hi in _definitions(path)]
    dead: set[int] = set()
    changed = True
    while changed:
        changed = False
        for k, (name, qual, path, lo, hi) in enumerate(defs):
            if k in dead:
                continue
            excluded = [(p, a, b) for j, (_, _, p, a, b) in enumerate(defs) if j in dead]
            excluded.append((path, lo, hi))
            method = qual.count(".") == 2
            if not any(ref == name or ref == f"{path.stem}.{name}"
                       or (method and ref.endswith(f".{name}"))
                       for p, rows in refs.items()
                       for i, ref in rows
                       if not any(p == q and a <= i <= b for q, a, b in excluded)):
                dead.add(k)
                changed = True
    return sorted(defs[k][1] for k in dead)


def test_every_public_definition_has_a_caller():
    assert unused_names() == []


# Public definitions whose only caller outside the tests is under benchmarks/.
BENCHMARK_ONLY = (
    "corpus.CorpusSpec",
    "corpus.generate_synthetic_corpus",
    "corpus.save_corpus",
    "knowops.fuzzy_similarity",
    "metrics.bleu",
)


def test_benchmark_only_names_are_listed():
    only = set(unused_names(search_benchmarks=False)) - set(unused_names())
    assert sorted(only) == sorted(BENCHMARK_ONLY)
