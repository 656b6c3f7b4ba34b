"""Every public definition in ``src/seknow``, and every parameter default it offers,
has a caller outside the tests.

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

A defaulted parameter of a public function, public method or ``__init__`` is
*set* where a call in ``src/seknow`` or ``benchmarks/``, outside the
parameter's own definition, passes it by keyword, by position or through a
``*``/``**`` argument. Calls resolve by name as references do; calling a class
calls its ``__init__``. A default no caller overrides is a constant in disguise.
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


def _modules(tree: ast.Module) -> dict[str, str]:
    """Package module of each name in ``tree`` that may stand for one (aliases resolved)."""
    modules = {p.stem: p.stem for p in PACKAGE.glob("*.py")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "seknow"):
            modules.update((a.asname or a.name, a.name) for a in node.names)
    return modules


def _references(path: Path) -> list[tuple[int, str]]:
    """(line, reference) of each possible reference in ``path``: ``name`` for a name
    read or imported or a string equal to it, ``module.name`` for an attribute of a
    package module (aliases resolved), ``.name`` for an attribute of anything else."""
    tree = ast.parse(path.read_text("utf-8"))
    modules = _modules(tree)
    keys = set()
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            refs += [(node.lineno, a.name) for a in node.names]
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


# Defaulted parameters the supported interface leaves to its callers on purpose.
UNSET_ALLOWED = (
    "cli.main(argv)",  # the console entry point reads sys.argv; tests pass argv
)


def _defaulted(path: Path) -> list[tuple[str, str, int, int, list[tuple[str, int | None]]]]:
    """(name, qualified name, first line, last line, parameters) of each public function,
    public method and ``__init__`` in ``path`` that has defaulted parameters; a parameter
    is (name, position in a call, None for keyword-only)."""
    found = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found.append((node, node.name, node.name, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            # a class call reaches its __init__, so that resolves as the class does
            found += [(m, node.name, node.name, True) if m.name == "__init__"
                      else (m, m.name, f"{node.name}.{m.name}", True)
                      for m in node.body if isinstance(m, ast.FunctionDef)]
    defs = []
    for fn, name, qual, method in found:
        if name.startswith("_") or any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                       for d in fn.decorator_list):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        params = [(a.arg, k - method) for k, a in enumerate(positional)
                  if k >= len(positional) - len(fn.args.defaults)]
        params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None]
        if params:
            defs.append((name, f"{path.stem}.{qual}", fn.lineno, fn.end_lineno, params))
    return defs


def _calls(path: Path) -> list[tuple[int, str, ast.Call]]:
    """(line, callee reference as :func:`_references` forms it, call) of each call in ``path``."""
    tree = ast.parse(path.read_text("utf-8"))
    modules = _modules(tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.append((node.lineno, node.func.id, node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
            calls.append((node.lineno, f"{modules.get(owner, '')}.{node.func.attr}", node))
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position, or in a ``*``/``**``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def defaulted_parameters() -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter in scope."""
    return [f"{qual}({param})" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"
            for _, qual, _, _, params in _defaulted(path) for param, _ in params]


def unset_parameters() -> list[str]:
    """Defaulted parameters that no call in ``src/seknow`` or ``benchmarks/`` passes,
    outside the parameter's own definition. Calls resolve by name as
    :func:`unused_names` resolves references."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    calls = {p: _calls(p) for p in sources + sorted((ROOT / "benchmarks").glob("*.py"))}
    unset = []
    for path in sources:
        for name, qual, lo, hi, params in _defaulted(path):
            method = qual.count(".") == 2
            sites = [call for p, rows in calls.items() for i, ref, call in rows
                     if not (p == path and lo <= i <= hi)
                     and (ref == name or ref == f"{path.stem}.{name}"
                          or (method and ref.endswith(f".{name}")))]
            unset += [f"{qual}({param})" for param, position in params
                      if not any(_passes(call, param, position) for call in sites)]
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert set(UNSET_ALLOWED) <= set(defaulted_parameters())
    assert [p for p in unset_parameters() if p not in UNSET_ALLOWED] == []
